"""Phase extraction from invariant eigenframes.

Given a smooth eigenframe of a dynamical invariant and the Hamiltonian that
drives the evolution, this module computes per-block projected matrices

* ``E^n_{ab}(t) = <lam_n,a;t| H(t) |lam_n,b;t>``  (energy projections),
* ``A^n_{ab}(t) = i <lam_n,a;t| d/dt |lam_n,b;t>`` (frame connection),
* ``Delta^n = E^n - A^n``,

solves the block Schrodinger equation ``i du^n/dt = Delta^n u^n``, forms the
Abelian phase angles ``delta_n(t) = -int E^n`` and ``gamma_n(t) = int A^n``
(dynamical and geometric), the non-Abelian holonomy
``Gamma^n(T) = T-exp(i int_0^T A^n dt)``, reconstructs the full evolution
operator from invariant data, and splits measured cyclic phases into
dynamical and geometric parts.

The geometric quantities depend only on the frame: ``A^n`` never references
``H``, so every Hamiltonian in one geometric-equivalence class shares them.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ComputeError,
    DegenerateEigenvalue,
    DimensionMismatch,
    GridTooCoarse,
    IncompleteRecord,
    NotCyclic,
)
from .invariant import InvariantFrame, frame_derivative
from .linalg import block_rows, expm_igen, hermitize, size_groups
from .propagator import (HamiltonianSchedule, UnitaryPath, _closes,
                         grid_index, propagate, uniform_spacing)
from .quadrature import cumulative_simpson

__all__ = [
    "PhaseRecord",
    "PhaseSplit",
    "project",
    "solve_un",
    "abelian_phases",
    "nonabelian_holonomy",
    "reconstruct_U",
    "total_phase_decompose",
    "wrap_angle",
]


def wrap_angle(theta):
    """Reduce an angle (or array) to the principal branch (-pi, pi]."""
    out = np.mod(np.asarray(theta) + np.pi, 2 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return float(out) if np.isscalar(theta) else out


class PhaseRecord:
    """Projected phase data of one (frame, Hamiltonian) pair.

    Attributes
    ----------
    grid : ndarray
        Time grid (inherited from the frame).
    eigenvalues, degeneracies : ndarray
        Invariant block structure.
    E, A, Delta : list of ndarray
        Per block ``n``, series of shape ``(len(grid), d_n, d_n)`` with
        ``Delta[n] = E[n] - A[n]`` exactly as stored.
    a_residual : float
        Worst anti-Hermitian defect removed from ``A`` by symmetrization.
    u : list of ndarray or None
        Block evolution ``u^n(t)`` once :func:`solve_un` has run
        (``u[n][0]`` is the identity).
    u_tol_achieved, u_drift_max : float or None
        Largest local-error estimate and largest unitarity defect of the
        one :func:`invphase.propagator.propagate` call of :func:`solve_un`
        (its ``err_max`` and ``drift_max``): Frobenius norms of the whole
        block-diagonal matrix, ``sqrt(sum_n x_n^2)``, so never below the
        largest per-block value.
    delta_angle, gamma_angle : dict
        Per nondegenerate block, continuous (unwrapped) angle series
        ``delta_n(t)`` and ``gamma_n(t)`` once :func:`abelian_phases` has
        run.
    Gamma_T : dict
        Per block, the holonomy ``Gamma^n(T)`` once
        :func:`nonabelian_holonomy` has run.
    total_phase : dict
        ``(n, a) -> complex unit`` once :func:`total_phase_decompose` ran.
    """

    def __init__(self, frame: InvariantFrame, E, A, a_residual):
        self.grid = frame.grid
        self.eigenvalues = frame.eigenvalues
        self.degeneracies = frame.degeneracies
        self.frame = frame
        self.E = E
        self.A = A
        self.Delta = [e - a for e, a in zip(E, A)]
        self.a_residual = float(a_residual)
        self.u = None
        self.u_tol_achieved = None
        self.u_drift_max = None
        self.delta_angle = {}
        self.gamma_angle = {}
        self.Gamma_T = {}
        self.total_phase = {}

    @property
    def n_blocks(self) -> int:
        return self.eigenvalues.size

    def require_nondegenerate(self, n: int) -> None:
        if self.degeneracies[n] != 1:
            raise DegenerateEigenvalue(
                f"block n={n} (eigenvalue {self.eigenvalues[n]:.6g}) has "
                f"degeneracy {self.degeneracies[n]}; Abelian angles are "
                "defined for d_n = 1 only")

    def __repr__(self):
        return (f"PhaseRecord(blocks={self.n_blocks}, "
                f"points={self.grid.size}, "
                f"u={'filled' if self.u is not None else 'empty'})")


def project(frame: InvariantFrame, schedule: HamiltonianSchedule
            ) -> PhaseRecord:
    """Project ``H`` and the frame connection onto invariant eigenblocks.

    ``E^n`` comes from sandwiching ``H(t_k)`` between block columns;
    ``A^n = i V^+ dV/dt`` uses five-point central differences (periodic
    wraparound for periodic frames) and is Hermitized by symmetric
    averaging, with the discarded defect reported as ``a_residual``.

    Raises
    ------
    GridTooCoarse
        If the frame has fewer than 5 points.
    ValueError
        If the frame's grid is not uniform.
    """
    grid = frame.grid
    if grid.size < 5:
        raise GridTooCoarse("project needs at least 5 grid points")
    if schedule.dim != frame.dim:
        raise DimensionMismatch("frame and schedule dims differ")
    w = frame.frames
    # temporaries on the left, so `* 1j` reuses their memory
    aw = (w.conj().swapaxes(1, 2)
          @ frame_derivative(w, uniform_spacing(grid), frame.periodic)) * 1j
    hw = np.array([schedule.sample(t) for t in grid]) @ w
    E, A, a_residual = [], [], 0.0
    for n in range(frame.n_blocks):
        sl = frame.block_slice(n)
        E.append(hermitize(w[:, :, sl].conj().swapaxes(1, 2) @ hw[:, :, sl]))
        A.append(hermitize(aw[:, sl, sl]))
        a_residual = max(a_residual, float(np.linalg.norm(
            aw[:, sl, sl] - A[n], axis=(1, 2)).max()))
    return PhaseRecord(frame, E, A, a_residual)


def solve_un(record: PhaseRecord, tol: float = 1e-10) -> PhaseRecord:
    """Integrate the block Schrodinger equation ``i du^n/dt = Delta^n u^n``.

    Every block's ``Delta`` series (cubic interpolation between grid
    samples) goes into one block-diagonal schedule
    (:meth:`~invphase.propagator.HamiltonianSchedule.from_blocks`) and
    through one call of :func:`invphase.propagator.propagate`, the kernel
    behind :func:`invphase.propagator.evolve`, so the blocks get the same
    stepper, error model and drift policy, and every block of one size is
    stepped as one stack.  The schedule is periodic when the frame is and
    every ``Delta^n`` series closes (last sample equal to the first to
    1e-10 of the series' largest norm); otherwise it is interpolated
    without wraparound.  Fills ``record.u`` in place and returns the
    record.

    Raises
    ------
    ToleranceNotMet
        If a step's doubling estimate cannot be brought under ``tol``.
    """
    grid = record.grid
    closed = record.frame.periodic and all(map(_closes, record.Delta))
    sched = HamiltonianSchedule.from_blocks(
        grid, record.Delta, period=grid[-1] if closed else None,
        label="Delta")
    rows, err_max, drift_max = propagate(sched, grid, tol,
                                         np.arange(grid.size))
    record.u = block_rows(rows, [int(d) for d in record.degeneracies])
    record.u_tol_achieved = err_max
    record.u_drift_max = drift_max
    return record


def abelian_phases(record: PhaseRecord, n: int = None) -> PhaseRecord:
    """Cyclic dynamical and geometric phase angles for nondegenerate blocks.

    ``delta_n(t) = -int_0^t E^n`` and ``gamma_n(t) = int_0^t A^n`` by
    composite Simpson quadrature; the series are continuous (unwrapped)
    accumulations along the grid.  Fills ``record.delta_angle[n]`` /
    ``record.gamma_angle[n]`` for every nondegenerate block (or just the
    requested one) and returns the record.

    Raises
    ------
    DegenerateEigenvalue
        If a specific degenerate block is requested.
    """
    targets = range(record.n_blocks) if n is None else [n]
    for m in targets:
        if n is not None:
            record.require_nondegenerate(m)
        elif record.degeneracies[m] != 1:
            continue
        record.delta_angle[m] = -cumulative_simpson(
            record.E[m][:, 0, 0].real, x=record.grid)
        record.gamma_angle[m] = cumulative_simpson(
            record.A[m][:, 0, 0].real, x=record.grid)
    return record


def nonabelian_holonomy(record: PhaseRecord, T: float = None) -> PhaseRecord:
    """Non-Abelian holonomy ``Gamma^n(T) = T-exp(i int_0^T A^n dt)``.

    Discretized with midpoint sampling: per step, the exponential of
    ``i (A_k + A_{k+1})/2 * dt``, composed in time order.  The blocks of
    one size are stacked, so each step takes one stacked exponential per
    block size.  This is the one time-ordered exponential that does not
    go through :func:`invphase.propagator.propagate`: the product uses the
    stored samples as they are, while ``propagate`` would need an
    interpolated schedule and several exponentials per interval.  Fills
    ``record.Gamma_T`` and returns the record.

    Raises
    ------
    ComputeError
        If some block's product is not unitary to ``1e-8 d_n``.
    """
    grid = record.grid
    if T is None:
        T = grid[-1]
    k_end = grid_index(grid, T)
    gammas = [None] * record.n_blocks
    for d, members in size_groups([int(d) for d in record.degeneracies]):
        series = [record.A[n] for n in members]
        gam = np.repeat(np.eye(d, dtype=complex)[None], len(members), axis=0)
        # the samples of step k only: no copy of the whole A series
        a_next = np.stack([a[0] for a in series])
        for k in range(k_end):
            h = grid[k + 1] - grid[k]
            a_k, a_next = a_next, np.stack([a[k + 1] for a in series])
            mid = 0.5 * (a_k + a_next)
            gam = expm_igen(mid, -h, check_hermitian=False) @ gam
        defects = np.linalg.norm(gam @ gam.conj().swapaxes(1, 2) - np.eye(d),
                                 axis=(1, 2))
        for j, n in enumerate(members):
            if defects[j] > 1e-8 * d:
                raise ComputeError(
                    f"holonomy block n={n} lost unitarity: defect "
                    f"{defects[j]:.3e}")
            gammas[n] = gam[j]
    record.Gamma_T.update(enumerate(gammas))
    return record


def reconstruct_U(frame: InvariantFrame, record: PhaseRecord) -> UnitaryPath:
    """Rebuild the evolution operator from invariant data.

    ``U(t) = sum_n sum_ab u^n_ab(t) |lam_n,a;t><lam_n,b;0|``, i.e.
    ``W(t) . blockdiag(u^n(t)) . W(0)^+``; must match ``evolve`` of the
    corresponding Hamiltonian on the interior block to 1e-6.

    Raises
    ------
    IncompleteRecord
        If ``solve_un`` has not been run.
    """
    if record.u is None:
        raise IncompleteRecord("u series missing: run solve_un first")
    u = np.zeros_like(frame.frames)
    for n in range(frame.n_blocks):
        sl = frame.block_slice(n)
        u[:, sl, sl] = record.u[n]
    u = frame.frames @ u  # drops the block stack before the next product
    samples = u @ frame.initial().conj().T
    samples[0] = np.eye(frame.dim)
    return UnitaryPath(frame.grid, samples,
                       tol_achieved=record.u_tol_achieved or 0.0,
                       drift_max=record.u_drift_max or 0.0)


class PhaseSplit:
    """Cyclic-phase decomposition of one invariant eigenstate.

    Angles are radians.  ``dynamical`` is the unwrapped ``delta_n(T)``;
    ``geometric`` is ``total - dynamical`` reduced to the principal branch;
    ``fidelity`` is the return probability ``|<lam_n,a;0|U(T)|lam_n,a;0>|``;
    ``cross_check`` is the principal-branch distance between ``geometric``
    and the frame-integral ``gamma_n(T)``.
    """

    __slots__ = ("n", "a", "total", "dynamical", "geometric", "fidelity",
                 "cross_check")

    def __init__(self, n, a, total, dynamical, geometric, fidelity,
                 cross_check):
        self.n = n
        self.a = a
        self.total = total
        self.dynamical = dynamical
        self.geometric = geometric
        self.fidelity = fidelity
        self.cross_check = cross_check

    def __repr__(self):
        return (f"PhaseSplit(n={self.n}, a={self.a}, total={self.total:.9g}, "
                f"dynamical={self.dynamical}, geometric={self.geometric})")


def total_phase_decompose(path: UnitaryPath, frame: InvariantFrame,
                          record: PhaseRecord, T: float = None) -> dict:
    """Split measured cyclic phases into dynamical and geometric parts.

    For each invariant eigenstate ``|lam_n,a;0>``: the total phase is
    ``arg <lam_n,a;0| U(T) |lam_n,a;0>``; for nondegenerate blocks the
    dynamical part is ``delta_n(T)`` from the ``E``-integral and the
    geometric part is ``total - dynamical`` on the principal branch,
    cross-checked against the frame-integral ``gamma_n(T)``.  Degenerate
    blocks receive the total only.  Returns ``{(n, a): PhaseSplit}`` and
    fills ``record.total_phase``.

    Raises
    ------
    NotCyclic
        If some return amplitude has modulus below ``1 - 1e-6``.
    """
    if not frame.periodic:
        raise ValueError("total_phase_decompose needs a periodic frame")
    if T is None:
        T = frame.grid[-1]
    u_T = path.at(T)
    if path.dim != frame.dim:
        raise DimensionMismatch("path and frame dims differ")
    if not record.delta_angle:
        abelian_phases(record)
    out = {}
    w0 = frame.initial()
    m = w0.conj().T @ u_T @ w0
    for n in range(frame.n_blocks):
        sl = frame.block_slice(n)
        block = m[sl, sl]
        nondeg = record.degeneracies[n] == 1
        for a in range(int(record.degeneracies[n])):
            c = block[a, a]
            fidelity = abs(c)
            if fidelity < 1 - 1e-6:
                raise NotCyclic(
                    f"state (n={n}, a={a}) returned with amplitude "
                    f"{fidelity:.8f} < 1 - 1e-6: evolution is not cyclic "
                    f"at T={T:.6g}")
            total = float(np.angle(c))
            dynamical = geometric = cross = None
            if nondeg:
                dynamical = float(record.delta_angle[n][-1])
                geometric = wrap_angle(total - dynamical)
                gamma_ref = float(record.gamma_angle[n][-1])
                cross = abs(wrap_angle(geometric - gamma_ref))
            split = PhaseSplit(n, a, total, dynamical, geometric,
                               fidelity, cross)
            out[(n, a)] = split
            record.total_phase[(n, a)] = np.exp(1j * total)
    return out
