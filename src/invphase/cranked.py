"""Closed forms for cranked Hamiltonians and their equivalence class.

A cranked Hamiltonian is ``H(t) = e^{-iKt} H0 e^{iKt}`` with constant
Hermitian ``H0`` and crank generator ``K``.  It carries the constant-spectrum
dynamical invariant ``I(t) = H(t) - K = e^{-iKt} I0 e^{iKt}`` (``I0 = H0 - K``)
and the exact evolution operator ``U(t) = e^{-iKt} e^{-i I0 t}``, so the whole
invariant/phase pipeline can be cross-checked against closed forms.

The geometric-equivalence class built on that invariant consists of

    H~(t) = e^{-iKt} [K + Y~(t)] e^{iKt},    [Y~(t), I0] = 0,

with evolution operator ``U~(t) = e^{-iKt} . Texp(-i int_0^t Y~ ds)``:

* ``Y~ = 0``       -> the constant Hamiltonian ``K`` with propagator
  ``e^{-iKt}``,
* ``Y~ = I0``      -> the cranked system itself,
* ``Y~ = f(t) I0`` -> the family ``f(t) H(t) + (1 - f(t)) K`` with
  ``U~(t) = e^{-iKt} e^{-i F(t) I0}``, ``F = int_0^t f``.

A scalar scaling together with a reparametrized crank angle generalizes the
construction to ``H(t) = h(t) e^{-i g(t) K} H0 e^{i g(t) K}`` (with the
normalization ``g(0) = 0``); the conjugated candidate
``e^{-i g K}(H0 - c K)e^{i g K}`` is a dynamical invariant exactly when
``dg/dt = c h(t)`` for the constant ``c``.

For a nondegenerate invariant eigenvalue whose frame column evolves as
``|lam_n; t> = e^{-iKt} e^{-i zeta_n(t)} |lam_n; 0>``, the cyclic phase
angles over ``[0, T]`` take the closed forms

    gamma_n(T) = K_n T + zeta_n(T),
    delta_n(T) = -K_n T - int_0^T Y~_n dt,

with ``K_n = <lam_n;0| K |lam_n;0>`` and ``Y~_n = <lam_n;0| Y~ |lam_n;0>``.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

from . import linalg
from .errors import DimensionMismatch
from .linalg import OperatorMatrix, expm_igen, hermitize
from .propagator import HamiltonianSchedule, UnitaryPath, compose_geq, evolve

__all__ = [
    "CrankedSystem",
    "cranked_H",
    "cranked_I",
    "cranked_U",
    "geq_member",
    "generalized_cranked",
    "nondeg_phase_formulas",
]


class CrankedSystem:
    """Constant data of a cranked Hamiltonian ``e^{-iKt} H0 e^{iKt}``.

    The inputs are gated here, where outside data enters; everything built
    from them (:func:`cranked_H`, :func:`cranked_I`, :func:`cranked_U`) is
    Hermitian or unitary by construction and is returned as a read-only
    copy without further checks.

    Parameters
    ----------
    h0 : array_like or OperatorMatrix
        Hermitian matrix conjugated by the crank.
    k : array_like or OperatorMatrix
        Hermitian crank generator, same dimension as ``h0``.

    Attributes
    ----------
    h0, k, i0 : OperatorMatrix
        Read-only Hermitian operators: ``h0`` and ``k`` are the Hermitian
        parts that :func:`invphase.linalg.require_hermitian` returns for
        the inputs; ``i0 = h0 - k`` is the initial invariant.
    dim : int
        Shared matrix dimension.

    Raises
    ------
    NonHermitianInput
        If either input violates the hermiticity bound.
    DimensionMismatch
        If the dimensions differ.
    """

    def __init__(self, h0, k):
        self.h0 = OperatorMatrix(linalg.require_hermitian(h0, "H0"))
        self.k = OperatorMatrix(linalg.require_hermitian(k, "K"))
        if self.h0.dim != self.k.dim:
            raise DimensionMismatch(
                f"H0 has dim {self.h0.dim}, K has dim {self.k.dim}")
        self.i0 = OperatorMatrix(self.h0.array - self.k.array)
        self._k_eig = None
        self._i0_eig = None

    @property
    def dim(self) -> int:
        return self.h0.dim

    def _expk(self, t: float) -> np.ndarray:
        """``exp(-1j * t * K)`` from the cached eigendecomposition of K."""
        if self._k_eig is None:
            self._k_eig = linalg.eigh(self.k.array, check_hermitian=False)
        return linalg.spectral_exp(*self._k_eig, t)

    def rotate(self, x: np.ndarray, t: float) -> np.ndarray:
        """Hermitian ndarray ``e^{-iKt} X e^{iKt}`` of a Hermitian ndarray X."""
        e = self._expk(float(t))
        return hermitize(e @ x @ e.conj().T)

    def _expi0(self, t: float) -> np.ndarray:
        """``exp(-1j * t * I0)`` from the cached eigendecomposition of I0."""
        if self._i0_eig is None:
            self._i0_eig = linalg.eigh(self.i0.array, check_hermitian=False)
        return linalg.spectral_exp(*self._i0_eig, t)

    def __repr__(self):
        return f"CrankedSystem(dim={self.dim})"


def cranked_H(sys: CrankedSystem, t: float) -> OperatorMatrix:
    """Cranked Hamiltonian ``H(t) = e^{-iKt} H0 e^{iKt}`` (Hermitian)."""
    return OperatorMatrix(sys.rotate(sys.h0.array, t))


def cranked_I(sys: CrankedSystem, t: float) -> OperatorMatrix:
    """Dynamical invariant ``I(t) = H(t) - K = e^{-iKt} I0 e^{iKt}``.

    Satisfies the Liouville-von Neumann equation for both the cranked
    ``H(t)`` and the constant crank ``K``, and its spectrum equals that of
    ``I0`` for every ``t`` (unitary conjugation).
    """
    return OperatorMatrix(sys.rotate(sys.i0.array, t))


def cranked_U(sys: CrankedSystem, t: float) -> OperatorMatrix:
    """Exact evolution operator ``U(t) = e^{-iKt} e^{-i I0 t}``.

    Solves ``i dU/dt = H(t) U`` with ``U(0) = 1``; both factors are
    spectral exponentials, so the result is unitary to machine precision.
    """
    t = float(t)
    return OperatorMatrix(sys._expk(t) @ sys._expi0(t))


def geq_member(sys: CrankedSystem, ytilde: HamiltonianSchedule,
               t_max: float, *, steps: int = None, tol: float = 1e-10
               ) -> tuple:
    """One member of the crank's geometric-equivalence class.

    Builds ``H~(t) = e^{-iKt}[K + Y~(t)]e^{iKt}`` together with its
    evolution operator ``U~(t) = e^{-iKt} . Texp(-i int_0^t Y~ ds)``.  The
    commutation precondition ``[Y~(t), I0] = 0`` is enforced on the stored
    grid, and the time-ordered exponential reuses the propagator's stepper
    (identical integrator and error model); the constant crank itself is
    recovered exactly for ``Y~ = 0``.

    Parameters
    ----------
    sys : CrankedSystem
    ytilde : HamiltonianSchedule
        Symmetry generator ``Y~(t)``; must commute with ``I0``.
    t_max : float
        Final time of the returned path.
    steps : int, optional
        Grid intervals (propagator default when omitted).
    tol : float
        Local-error budget for the time-ordered exponential.

    Returns
    -------
    (HamiltonianSchedule, UnitaryPath)
        The Hamiltonian ``H~`` and its evolution operator on the grid.

    Raises
    ------
    SymmetryViolation
        If ``[Y~(t), I0]`` exceeds the commutation bound at a grid point.
    """
    if ytilde.dim != sys.dim:
        raise DimensionMismatch(
            f"Y~ has dim {ytilde.dim}, system has dim {sys.dim}")
    crank = HamiltonianSchedule.constant(sys.k.array, label="crank")
    base = evolve(crank, t_max, steps=steps, tol=tol)
    upath = compose_geq(base, ytilde, invariant0=sys.i0.array, tol=tol)

    if ytilde.is_constant and not np.any(ytilde.base):
        return crank, upath

    def h_fn(t, _sys=sys, _y=ytilde):
        return _sys.rotate(_sys.k.array + _y.sample(t), t)

    hsched = HamiltonianSchedule.from_callable(
        h_fn, sys.dim, label=f"geq[{ytilde.label}]")
    return hsched, upath


def generalized_cranked(k, h0, g, h, t: float) -> OperatorMatrix:
    """Scaled, angle-reparametrized crank ``h(t) e^{-ig(t)K} H0 e^{ig(t)K}``.

    ``g`` and ``h`` are real-valued functions of time with the
    normalization ``g(0) = 0`` (so the evolution starts from the bare
    ``h(0) H0``).  ``g(t) = t, h = 1`` reduces to :func:`cranked_H`.

    Raises
    ------
    ValueError
        If ``g(0)`` does not vanish.
    NonHermitianInput
        If ``k`` or ``h0`` violates the hermiticity bound.
    """
    karr = linalg.require_hermitian(k, "K")
    h0arr = linalg.require_hermitian(h0, "H0")
    if karr.shape != h0arr.shape:
        raise DimensionMismatch(
            f"K has shape {karr.shape}, H0 has shape {h0arr.shape}")
    if abs(float(g(0.0))) > 1e-12:
        raise ValueError(
            f"crank angle must satisfy g(0) = 0, got g(0) = {float(g(0.0))}")
    gt = float(g(float(t)))
    ht = float(h(float(t)))
    e = expm_igen(karr, gt, check_hermitian=False)
    return OperatorMatrix(ht * hermitize(e @ h0arr @ e.conj().T))


def _as_profile(value):
    """Coerce a real schedule: a callable is kept, a number becomes constant."""
    if callable(value):
        return value
    const = float(value)
    return lambda t: const


def nondeg_phase_formulas(kn: float, zeta_n, yn, T: float, *,
                          steps: int = 2048) -> tuple:
    """Closed-form cyclic phase angles of a nondegenerate invariant level.

    For a frame column evolving as ``e^{-iKt} e^{-i zeta_n(t)} |lam_n; 0>``
    under ``H~(t) = e^{-iKt}[K + Y~(t)]e^{iKt}``:

        gamma_n(T) = K_n T + zeta_n(T)
        delta_n(T) = -K_n T - int_0^T Y~_n dt

    Parameters
    ----------
    kn : float
        Diagonal crank element ``K_n = <lam_n;0|K|lam_n;0>``.
    zeta_n, yn : callable or float
        Real schedules ``zeta_n(t)`` and ``Y~_n(t)`` (a number is treated
        as a constant schedule).
    T : float
        Cycle time (> 0).
    steps : int
        Simpson subintervals for the ``Y~_n`` quadrature.

    Returns
    -------
    (gamma, delta) : tuple of float
    """
    kn = float(kn)
    T = float(T)
    if T <= 0:
        raise ValueError("T must be positive")
    steps = int(steps)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    zeta_fn = _as_profile(zeta_n)
    yn_fn = _as_profile(yn)
    gamma = kn * T + float(zeta_fn(T))
    ts = np.linspace(0.0, T, steps + 1)
    vals = np.array([float(yn_fn(t)) for t in ts])
    delta = -kn * T - float(simpson(vals, x=ts))
    return gamma, delta
