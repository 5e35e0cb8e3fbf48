"""Generalized harmonic oscillator in a truncated Fock basis.

A simple harmonic oscillator crank ``K = p^2/(2m) + m w^2 x^2/2`` applied to
``H0 = p^2/(2M) + M W^2 x^2/2`` (with ``m > M`` and ``M W^2 > m w^2``)
produces a ``T = pi/w``-periodic generalized harmonic oscillator

    H(t) = (1/2) { [a + b cos 2wt] p^2 + [c sin 2wt](xp + px)
                   + [d + e cos 2wt] x^2 },

whose dynamical invariant ``I(t) = H(t) - K`` is simultaneously an invariant
of the constant ``K``.  ``I(0) = H0 - K`` is itself a harmonic oscillator of
mass ``mtilde = (1/M - 1/m)^-1`` and frequency
``wtilde = sqrt((1/M - 1/m)(M W^2 - m w^2))``, so its eigenstates perform
exact cyclic evolutions of period ``T`` under ``e^{-iKt}``.

In the scaled quadratures ``X = sqrt(mtilde wtilde) x``,
``P = p / sqrt(mtilde wtilde)`` the generators

    K1 = (X^2 - P^2)/4,  K2 = -(XP + PX)/4,  K3 = (X^2 + P^2)/4

close the su(1,1) algebra ``[K1,K2] = -iK3``, ``[K2,K3] = iK1``,
``[K3,K1] = iK2``, and the invariant traces the closed curve

    I(t) = bbar (sinh tb cos pb K1 + sinh tb sin pb K2 + cosh tb K3)

on the unit hyperboloid, with ``bbar = 2 wtilde``,
``cosh tb = 1 + zeta (1 - cos 2wt)`` and
``tan pb = xi sin 2wt / (1 - cos 2wt)``.  The single-valued frame

    W = e^{-i pb K3} e^{-i tb K2} e^{i pb K3}

diagonalizes ``I(t)`` and yields the closed-form cyclic phase angles

    delta_n(t) = -(1/4)(mu + 1/mu) w t (2n + 1),
    gamma_n(t) = (2n + 1) zeta xi sigma(t) / [4 (1 - xi^2)],
    sigma(t)   = -2wt + 2|xi| atan(tan wt / |xi|)   (continuous branch),

with ``mu = m w/(mtilde wtilde)``, ``zeta = (1 - mu^2)^2/(4 mu^2)`` and
``xi = -2 mu/(1 + mu^2)``.  The branch of ``sigma`` is accumulated
continuously across ``wt = pi/2 + k pi``; on that branch
``gamma_n(T) = (pi/4)(mu + 1/mu - 2)(2n+1)`` and
``delta_n(T) + gamma_n(T) = -(2n+1) pi/2`` exactly.

Truncation policy: quadratic operators couple ``n -> n +/- 2`` and corrupt
the top of an ``N``-dimensional Fock block, so operator identities are
asserted on an interior block of ``N_int = max(N//2, N - 20)`` rows only.
Two reference bases are provided: the ``"ktilde"`` basis (Fock basis of
``I(0)``, which is exactly diagonal there) and the ``"k"`` basis (Fock basis
of ``K``, exactly diagonal there, giving an exact cyclic propagator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ComputeError,
    ConstraintViolation,
    DegenerateParameters,
    DomainError,
    GridTooCoarse,
    TruncationTooSmall,
)
from .linalg import OperatorMatrix
from .propagator import uniform_spacing

__all__ = [
    "OscillatorParams",
    "FockSpace",
    "CyclicState",
    "derive_params",
    "build_fock",
    "gho_H",
    "gho_I",
    "hyperbolic_coords",
    "w_operator",
    "closed_form_phases",
    "cyclic_basis_evolution",
    "ermakov_check",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Scalar data of one generalized-harmonic-oscillator family member.

    ``M, Omega`` are the mass and frequency of ``H0``; ``m, omega`` those of
    the crank ``K``.  All other fields are derived (see
    :func:`derive_params`); ``a``--``e`` are the ``H(t)`` coefficient list,
    ``T = pi/omega`` is the driving period, ``tau = 2 pi/omega`` the crank
    period and ``bbar = 2 wtilde`` the invariant scale.
    """

    M: float
    Omega: float
    m: float
    omega: float
    nu: float
    mtilde: float
    wtilde: float
    mu: float
    zeta: float
    xi: float
    a: float
    b: float
    c: float
    d: float
    e: float
    T: float
    tau: float
    bbar: float

    def require_nondegenerate(self) -> None:
        """Reject the degenerate line mu = 1 (equivalently nu = 1).

        There ``zeta = 0`` and ``|xi| = 1``: the invariant curve collapses
        to a point and the closed-form ``gamma_n`` hits a 0/0.  Plain
        simulation remains well defined; only closed forms are refused.
        """
        if abs(self.mu - 1.0) < 1e-9 or abs(self.nu - 1.0) < 1e-9:
            raise DegenerateParameters(
                f"mu = {self.mu:.12g}, nu = {self.nu:.12g}: closed-form "
                "phase angles are singular on the mu = 1 / nu = 1 line")


def derive_params(M, Omega, m, omega) -> OscillatorParams:
    """Derive every scalar of the oscillator family from (M, Omega, m, omega).

    Raises
    ------
    ValueError
        If any input is not positive.
    ConstraintViolation
        If ``m <= M`` or ``M Omega^2 <= m omega^2``.
    ComputeError
        If the internal cross-identities between equivalent formula forms
        disagree (never expected; guards against coefficient regressions).
    """
    M, Omega, m, omega = (float(v) for v in (M, Omega, m, omega))
    for name, val in (("M", M), ("Omega", Omega), ("m", m), ("omega", omega)):
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")
    if m <= M:
        raise ConstraintViolation(f"m > M required, got m = {m} <= M = {M}")
    if M * Omega**2 <= m * omega**2:
        raise ConstraintViolation(
            f"M*Omega^2 > m*omega^2 required, got {M * Omega**2} <= "
            f"{m * omega**2}")

    nu = M * Omega / (m * omega)
    inv_mtilde = 1.0 / M - 1.0 / m
    mtilde = 1.0 / inv_mtilde
    wtilde = np.sqrt(inv_mtilde * (M * Omega**2 - m * omega**2))
    mu = m * omega / (mtilde * wtilde)

    two_m = 2.0 * M
    mw2 = (m * omega) ** 2
    a = (1.0 + nu**2) / two_m
    b = (1.0 - nu**2) / two_m
    c = m * omega * (1.0 - nu**2) / two_m
    d = mw2 * (1.0 + nu**2) / two_m
    e = -mw2 * (1.0 - nu**2) / two_m

    zeta = -(1.0 - nu**2) * (1.0 - mu**2) / (4.0 * (1.0 - M / m))
    xi = -2.0 * mu / (1.0 + mu**2)

    # cross-identities between the printed forms (algebraically exact)
    checks = [
        ("zeta vs (1-mu^2)^2/(4 mu^2)", zeta, (1.0 - mu**2) ** 2 / (4 * mu**2)),
        ("zeta vs c^2/wtilde^2", zeta, c**2 / wtilde**2),
        ("zeta vs -(mtilde b + e/(mtilde wtilde^2))/2", zeta,
         -0.5 * (mtilde * b + e / (mtilde * wtilde**2))),
    ]
    if abs(1.0 - nu**2) > 1e-12:
        checks.append(
            ("xi vs curve-component form", xi,
             -2.0 * c / (mtilde * wtilde * b - e / (mtilde * wtilde))))
    for label, lhs, rhs in checks:
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            raise ComputeError(
                f"parameter cross-identity {label} violated: "
                f"{lhs!r} vs {rhs!r}")

    return OscillatorParams(
        M=M, Omega=Omega, m=m, omega=omega, nu=nu, mtilde=mtilde,
        wtilde=wtilde, mu=mu, zeta=zeta, xi=xi, a=a, b=b, c=c, d=d, e=e,
        T=np.pi / omega, tau=2.0 * np.pi / omega, bbar=2.0 * wtilde)


def _natural_operators(N: int, mr: float, wr: float) -> tuple:
    """Exact ``N``-level truncations of x, p, x^2, p^2, xp+px.

    All five operators are projected entrywise onto the lowest ``N`` Fock
    states of the ``(mr, wr)`` oscillator using the closed band formulas
    (``x^2`` couples ``n -> n, n +/- 2`` and so on).  Forming ``x @ x``
    from a *truncated* ``x`` instead would corrupt the topmost diagonal
    entry (``N - 1/2`` would become ``N - 1``), which shows up as a
    spurious fast-rotating edge mode in time-dependent residuals.  With
    entrywise projection every retained matrix element is exact and the
    truncation error lives only in the absent ``n >= N`` couplings.
    """
    n = np.arange(N, dtype=float)
    r1 = np.sqrt(n[1:])                               # <n-1|a|n>
    r2 = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))     # <n|a^2|n+2>
    s = np.sqrt(2.0 * mr * wr)
    x = ((np.diag(r1, 1) + np.diag(r1, -1)) / s).astype(complex)
    p = 1j * (mr * wr / s) * (np.diag(r1, -1) - np.diag(r1, 1))
    x2 = ((np.diag(2.0 * n + 1.0) + np.diag(r2, 2) + np.diag(r2, -2))
          / (2.0 * mr * wr)).astype(complex)
    p2 = ((mr * wr / 2.0)
          * (np.diag(2.0 * n + 1.0) - np.diag(r2, 2) - np.diag(r2, -2))
          ).astype(complex)
    xpx = 1j * (np.diag(r2, -2) - np.diag(r2, 2))     # i (adag^2 - a^2)
    return x, p, x2, p2, xpx


class FockSpace:
    """Truncated Fock-space operator set for one oscillator family.

    Built by :func:`build_fock`.  Attributes (all ``OperatorMatrix`` unless
    noted; these are the read-only copies the public API hands out, while
    the package's loops read their ``.array``; every one is Hermitian by
    construction, from real band formulas and ``i`` times antisymmetric
    ones, so none is checked):

    * ``N`` (int): truncation dimension; ``N_int`` (int): interior block
      used for operator-identity checks; ``basis`` (str): ``"ktilde"`` or
      ``"k"``; ``params``: the :class:`OscillatorParams` used.
    * ``x, p``: position/momentum in the reference-oscillator Fock basis.
    * ``X, P``: scaled quadratures ``sqrt(mtilde wtilde) x`` and
      ``p/sqrt(mtilde wtilde)``.
    * ``K1, K2, K3``: su(1,1) generators built from ``X, P``.
    * ``H0, K, I0``: initial Hamiltonian, crank, and invariant
      ``I0 = H0 - K``.  In the ktilde basis ``I0`` is exactly diagonal
      (entries ``wtilde (n + 1/2)`` for every ``n``); in the k basis ``K``
      is exactly diagonal (entries ``omega (n + 1/2)``).

    Every operator is an exact entrywise truncation of its untruncated
    matrix (see :func:`_natural_operators`): the only truncation effect is
    the missing coupling to ``n >= N``, so identities that close inside the
    retained block hold to rounding there.
    """

    def __init__(self, params: OscillatorParams, N: int, basis: str):
        N = int(N)
        if N < 16:
            raise ValueError(f"N must be at least 16, got {N}")
        if basis not in ("ktilde", "k"):
            raise ValueError(f"basis must be 'ktilde' or 'k', got {basis!r}")
        self.params = params
        self.N = N
        self.N_int = max(N // 2, N - 20)
        self.basis = basis

        if basis == "ktilde":
            mr, wr = params.mtilde, params.wtilde
        else:
            mr, wr = params.m, params.omega
        x, p, x2, p2, xpx = _natural_operators(N, mr, wr)
        self._x2, self._p2, self._xpx = x2, p2, xpx

        # hermitize makes the -0.0 real parts of the imaginary band
        # matrices p and -xpx +0.0: LAPACK's eigenvectors depend on the signs
        p = linalg.hermitize(p)
        s = np.sqrt(params.mtilde * params.wtilde)
        self.x = OperatorMatrix(x)
        self.p = OperatorMatrix(p)
        self.X = OperatorMatrix(s * x)
        self.P = OperatorMatrix(p / s)

        idx = np.arange(N, dtype=float)
        band = np.sqrt((idx[:-2] + 1.0) * (idx[:-2] + 2.0))
        k2 = linalg.hermitize(-xpx / 4.0)  # -(XP + PX)/4 is scale invariant
        if basis == "ktilde":
            # X, P are the natural quadratures here: build the generators
            # from their own band formulas so the structural zeros (the K1
            # diagonal, all K3 off-band entries) are exact, not rounded.
            k1 = ((np.diag(band, 2) + np.diag(band, -2)) / 4.0
                  ).astype(complex)
            k3 = np.diag((2.0 * idx + 1.0) / 4.0).astype(complex)
            i0 = np.diag(params.wtilde * (2.0 * idx + 1.0) / 2.0
                         ).astype(complex)        # bbar * K3
            k_op = p2 / (2.0 * params.m) + \
                (params.m * params.omega**2 / 2.0) * x2
            h0 = k_op + i0
        else:
            mw = params.mtilde * params.wtilde
            k1 = (mw * x2 - p2 / mw) / 4.0
            k3 = (mw * x2 + p2 / mw) / 4.0
            k_op = np.diag(params.omega * (2.0 * idx + 1.0) / 2.0
                           ).astype(complex)      # exactly diagonal here
            h0 = p2 / (2.0 * params.M) + \
                (params.M * params.Omega**2 / 2.0) * x2
            i0 = h0 - k_op
        self.K1 = OperatorMatrix(k1)
        self.K2 = OperatorMatrix(k2)
        self.K3 = OperatorMatrix(k3)
        self.K = OperatorMatrix(k_op)
        self.H0 = OperatorMatrix(h0)
        self.I0 = OperatorMatrix(i0)
        self._eig_cache = {}

    def interior(self, a) -> np.ndarray:
        """Interior ``N_int x N_int`` block of a matrix (truncation-safe)."""
        return linalg.as_matrix(a)[: self.N_int, : self.N_int]

    def cached_eig(self, name: str, matrix) -> tuple:
        """Memoized deterministic eigendecomposition keyed by ``name``."""
        if name not in self._eig_cache:
            self._eig_cache[name] = linalg.eigh(matrix, check_hermitian=False)
        return self._eig_cache[name]

    def __repr__(self):
        return (f"FockSpace(N={self.N}, N_int={self.N_int}, "
                f"basis={self.basis!r})")


def build_fock(params: OscillatorParams, N: int,
               basis: str = "ktilde") -> FockSpace:
    """Assemble the truncated Fock-space operators (see :class:`FockSpace`)."""
    return FockSpace(params, N, basis)


def gho_H(params: OscillatorParams, fock: FockSpace, t: float
          ) -> OperatorMatrix:
    """Generalized-harmonic-oscillator Hamiltonian ``H(t)`` (period T).

    A real combination of the exactly Hermitian ``p^2``, ``xp + px`` and
    ``x^2``, so Hermitian by construction; returned as a read-only copy
    and not checked.
    """
    phase = 2.0 * params.omega * float(t)
    cp = params.a + params.b * np.cos(phase)
    cm = params.c * np.sin(phase)
    cx = params.d + params.e * np.cos(phase)
    return OperatorMatrix(
        0.5 * (cp * fock._p2 + cm * fock._xpx + cx * fock._x2))


def gho_I(params: OscillatorParams, fock: FockSpace, t: float
          ) -> OperatorMatrix:
    """Dynamical invariant ``I(t) = H(t) - K`` in coefficient form."""
    phase = 2.0 * params.omega * float(t)
    cp = params.a - 1.0 / params.m + params.b * np.cos(phase)
    cm = params.c * np.sin(phase)
    cx = params.d - params.m * params.omega**2 + params.e * np.cos(phase)
    return OperatorMatrix(
        0.5 * (cp * fock._p2 + cm * fock._xpx + cx * fock._x2))


def hyperbolic_coords(params: OscillatorParams, t: float) -> tuple:
    """Hyperbolic coordinates ``(theta_bar, phi_bar)`` of the invariant curve.

    ``cosh theta_bar = 1 + zeta (1 - cos 2wt)`` with ``theta_bar >= 0``;
    ``phi_bar`` solves ``tan phi_bar = xi sin 2wt / (1 - cos 2wt)`` on the
    branch that makes it continuous in ``t`` (it increases by ``pi`` per
    driving period, starting from ``phi_bar(0+) = pi/2``).  The curve point
    is revalidated on the unit hyperboloid before returning.

    Raises
    ------
    DegenerateParameters
        On the ``mu = 1`` line (curve degenerates to a point).
    ComputeError
        If the hyperboloid constraint fails (internal consistency guard).
    """
    params.require_nondegenerate()
    phi = 2.0 * params.omega * float(t)
    one_minus_cos = 1.0 - np.cos(phi)
    cosh_tb = 1.0 + params.zeta * one_minus_cos
    theta_bar = float(np.arccosh(max(cosh_tb, 1.0)))

    # curve components (r1, r2) in the K1/K2 plane; r3 = cosh_tb
    alpha = 0.5 * (params.mtilde * params.b
                   - params.e / (params.mtilde * params.wtilde**2))
    r1 = alpha * one_minus_cos
    r2 = -(params.c / params.wtilde) * np.sin(phi)
    r3 = cosh_tb
    defect = abs(-r1**2 - r2**2 + r3**2 - 1.0)
    if defect > 1e-10 * max(1.0, r3**2):
        raise ComputeError(
            f"invariant curve left the unit hyperboloid at t={t}: "
            f"defect {defect:.3e}")

    if one_minus_cos < 1e-12 and abs(np.sin(phi)) < 1e-9:
        # at phi = 2 pi k both components vanish; continuous limit
        within = 0.5 * np.pi
        k = round(phi / (2.0 * np.pi))
    else:
        within = float(np.arctan2(r2, r1))
        if within < 0.5 * np.pi - 1e-12:
            within += 2.0 * np.pi      # fold into [pi/2, 3 pi/2)
        k = np.floor(phi / (2.0 * np.pi))
    phi_bar = within + np.pi * float(k)
    return theta_bar, float(phi_bar)


def w_operator(fock: FockSpace, theta_bar: float, phi_bar: float
               ) -> OperatorMatrix:
    """Single-valued frame unitary ``W = e^{-i pb K3} e^{-i tb K2} e^{i pb K3}``.

    Requires the ktilde basis (where ``K3`` is exactly diagonal and the
    columns of ``W`` are the invariant eigenvectors ``|lam_n; t>``).
    Satisfies ``W K3 W^+ = sinh tb cos pb K1 + sinh tb sin pb K2 +
    cosh tb K3`` and ``I[theta_bar, phi_bar] = W I0 W^+`` on the interior
    block.
    """
    return OperatorMatrix(w_columns(fock, theta_bar, phi_bar, fock.N))


def w_columns(fock: FockSpace, theta_bar: float, phi_bar: float,
              n: int) -> np.ndarray:
    """First ``n`` columns of :func:`w_operator`'s ``W`` as an ndarray.

    Built from the cached ``K2`` eigendecomposition in O(N^2 n), without
    forming or validating the full unitary.
    """
    if fock.basis != "ktilde":
        raise ValueError("w_operator requires a ktilde-basis FockSpace")
    theta_bar = float(theta_bar)
    phi_bar = float(phi_bar)
    k3_diag = np.diag(fock.K3.array).real
    outer = np.exp(-1j * phi_bar * k3_diag)
    w2, v2 = fock.cached_eig("K2", fock.K2)
    middle = (v2 * np.exp(-1j * w2 * theta_bar)) @ v2[:n].conj().T
    return (outer[:, None] * middle) * outer[:n].conj()[None, :]


def closed_form_phases(params: OscillatorParams, n: int, t: float) -> tuple:
    """Closed-form cyclic phase angles ``(delta_n(t), gamma_n(t))``.

    ``delta_n(t) = -(1/4)(mu + 1/mu) omega t (2n + 1)`` and
    ``gamma_n(t) = (2n + 1) zeta xi sigma(t)/[4(1 - xi^2)]`` with the
    continuous-branch ``sigma``; at ``t = T`` these reduce to
    ``delta_n(T) = -(pi/4)(mu + 1/mu)(2n + 1)`` and
    ``gamma_n(T) = (pi/4)(mu + 1/mu - 2)(2n + 1)``.

    Raises
    ------
    DegenerateParameters
        On the ``mu = 1`` line.
    ValueError
        If ``n`` is negative.
    """
    params.require_nondegenerate()
    n = int(n)
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    t = float(t)
    odd = 2 * n + 1
    delta = -0.25 * (params.mu + 1.0 / params.mu) * params.omega * t * odd

    # sigma(t) = -2wt + 2|xi| * chi(wt), with chi the continuous angle of
    # the ellipse (|xi| cos wt, sin wt); |chi - wt| < pi/2, so unwrapping
    # by whole turns of wt is exact and needs no branch bookkeeping.
    psi = params.omega * t
    abs_xi = abs(params.xi)
    raw = np.arctan2(np.sin(psi), abs_xi * np.cos(psi))
    chi = raw + 2.0 * np.pi * np.round((psi - raw) / (2.0 * np.pi))
    sigma = -2.0 * psi + 2.0 * abs_xi * chi
    gamma = odd * params.zeta * params.xi * sigma / (4.0 * (1.0 - params.xi**2))
    return float(delta), float(gamma)


@dataclass(frozen=True)
class CyclicState:
    """Return data of one cyclic invariant eigenstate at t = T.

    ``total_phase`` is ``arg <lam_n;0| e^{-iKT} |lam_n;0>`` in radians;
    ``fidelity`` the return amplitude modulus; ``projector_defect`` the
    Frobenius distance between initial and returned pure-state projectors.
    """

    n: int
    fidelity: float
    total_phase: float
    projector_defect: float


def cyclic_basis_evolution(params: OscillatorParams, fock: FockSpace,
                           n_max: int) -> list:
    """Evolve invariant eigenstates through one period ``T = pi/omega``.

    In the k basis the propagator is exactly diagonal,
    ``e^{-iKT} = diag(e^{-i pi (j + 1/2)})``, so each eigenstate
    ``|lam_n;0>`` of ``I0`` returns exactly up to truncation error; the
    per-state fidelity, total phase and projector-return defect are
    reported for ``n = 0 .. n_max``.

    Raises
    ------
    ValueError
        If the basis is not ``"k"`` or ``n_max`` is negative.
    TruncationTooSmall
        If ``n_max >= N_int`` (the requested levels reach the corrupted
        edge of the truncation) or some requested fidelity falls below
        ``1 - 1e-6``.  The fidelity guard is defensive: the whole operator
        family is parity even, truncation preserves that symmetry, and a
        definite-parity state returns with fidelity 1 under the exact
        diagonal propagator, so only the ``n_max`` route fires in practice.
    ComputeError
        If a projector returns worse than 1e-6 despite a passing fidelity.
    """
    if fock.basis != "k":
        raise ValueError("cyclic_basis_evolution requires a k-basis "
                         "FockSpace (exact diagonal propagator)")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max >= fock.N_int:
        raise TruncationTooSmall(
            f"n_max={n_max} reaches past the interior block "
            f"N_int={fock.N_int} at N={fock.N}; increase the truncation")
    k_diag = np.diag(fock.K.array).real
    phases = np.exp(-1j * k_diag * params.T)
    _, vecs = fock.cached_eig("I0", fock.I0)
    out = []
    for n in range(n_max + 1):
        vec = vecs[:, n]
        returned = phases * vec
        amp = complex(np.vdot(vec, returned))
        fidelity = abs(amp)
        if fidelity < 1.0 - 1e-6:
            raise TruncationTooSmall(
                f"state n={n} returned with fidelity {fidelity:.9f} "
                f"< 1 - 1e-6 at N={fock.N}; increase the truncation")
        defect = float(np.sqrt(max(0.0, 2.0 * (1.0 - fidelity**2))))
        if defect > 1e-6:
            raise ComputeError(
                f"projector return defect {defect:.3e} > 1e-6 for n={n}")
        out.append(CyclicState(n=n, fidelity=fidelity,
                               total_phase=float(np.angle(amp)),
                               projector_defect=defect))
    return out


def ermakov_check(params: OscillatorParams, grid) -> float:
    """Ermakov-equation residual of the invariant width function.

    ``rho(t)^2 = 1/mtilde - b (1 - cos 2wt)`` must satisfy
    ``rho'' + omega^2 rho = eta / rho^3`` with
    ``eta = (1/mtilde)(1/mtilde - 2b) omega^2``; the second derivative is
    formed by second-order central differences and the maximum interior
    residual is returned.  The Pinney decomposition
    ``rho^2 = (1/mtilde - 2b) sin^2 wt + (1/mtilde) cos^2 wt`` is verified
    exactly along the way.

    Raises
    ------
    GridTooCoarse
        If the grid has fewer than 3 points.
    DomainError
        If ``rho^2 <= 0`` anywhere on the grid.
    ComputeError
        If the Pinney identity fails beyond 1e-10 (internal guard).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise GridTooCoarse("ermakov_check needs at least 3 grid points")
    h = uniform_spacing(grid)
    if h <= 0:
        raise ValueError("ermakov_check requires an increasing grid")
    inv_mt = 1.0 / params.mtilde
    w = params.omega
    rho2 = inv_mt - params.b * (1.0 - np.cos(2.0 * w * grid))
    if np.min(rho2) <= 0.0:
        raise DomainError(
            f"rho^2 reaches {np.min(rho2):.6g} <= 0 on the grid; "
            "parameters outside the validity domain")
    c1 = inv_mt - 2.0 * params.b
    pinney = c1 * np.sin(w * grid) ** 2 + inv_mt * np.cos(w * grid) ** 2
    dev = float(np.max(np.abs(rho2 - pinney)))
    if dev > 1e-10 * max(1.0, inv_mt):
        raise ComputeError(f"Pinney decomposition violated by {dev:.3e}")
    rho = np.sqrt(rho2)
    eta = inv_mt * c1 * w**2
    rho_dd = (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / h**2
    residual = rho_dd + w**2 * rho[1:-1] - eta / rho[1:-1] ** 3
    return float(np.max(np.abs(residual)))
