"""Unitary propagation of the operator Schrodinger equation.

Integrates ``i dU/dt = H(t) U(t)`` with a commutator-free fourth-order
exponential integrator (two Gauss-node exponentials per step, each computed
spectrally so every factor is exactly unitary), estimates the local error by
step-doubling, composes evolution operators of geometrically equivalent
systems, and detects evolution loops ``U(t) = c * identity``.

One kernel, :func:`propagate`, computes every time-ordered exponential of
the package: the evolution operator of :func:`evolve`, the symmetry factor
``V`` of :func:`compose_geq` and the block evolutions ``u^n`` of
:func:`invphase.phases.solve_un`.

Design notes
------------
* Time step for interval ``[t0, t0+h]``::

      H1 = H(t0 + (1/2 - sqrt(3)/6) h),  H2 = H(t0 + (1/2 + sqrt(3)/6) h)
      step = exp(-i h (a2 H1 + a1 H2)) @ exp(-i h (a1 H1 + a2 H2))

  with ``a1 = 1/4 + sqrt(3)/6`` and ``a2 = 1/4 - sqrt(3)/6``.  For constant
  ``H`` this collapses to ``exp(-i h H)`` exactly.
* Local error per step is ``||step_coarse - step_fine||_F`` (unitarily
  invariant, so no reference propagator is needed); the fine value is kept.
  Intervals whose estimate exceeds ``tol`` are split recursively.
* Drift policy: after each interval the accumulated product is
  re-unitarized (polar factor) when ``||U U^H - 1||_F > 1e-12``; the largest
  defect seen is reported as ``drift_max``.
* Constant schedules bypass the stepper: ``U(t) = exp(-i t H)`` from a
  single cached eigendecomposition.
* No interpolation between stored grid points is offered; consumers sample
  on the grid.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_simpson

from . import linalg
from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    SymmetryViolation,
    ToleranceNotMet,
)
from .linalg import expm_igen, frob

__all__ = [
    "HamiltonianSchedule",
    "UnitaryPath",
    "evolve",
    "compose_geq",
    "loop_check",
]

_SQRT3 = np.sqrt(3.0)
_GAUSS_C1 = 0.5 - _SQRT3 / 6.0
_GAUSS_C2 = 0.5 + _SQRT3 / 6.0
_CF4_A1 = 0.25 + _SQRT3 / 6.0
_CF4_A2 = 0.25 - _SQRT3 / 6.0

#: default integration density (intervals per characteristic period)
DEFAULT_STEPS_PER_PERIOD = 2048

_MAX_SPLIT_DEPTH = 16


class HamiltonianSchedule:
    """Time-dependent Hermitian generator ``t -> H(t)``.

    Construct through one of the classmethods:

    * :meth:`constant` -- a fixed Hermitian matrix,
    * :meth:`from_callable` -- an arbitrary smooth map ``t -> matrix``,
    * :meth:`scalar_profile` -- ``H(t) = f(t) * H0`` (commuting family),
    * :meth:`from_samples` -- matrices tabulated on a uniform grid,
      interpolated with cubic Lagrange stencils (periodic wraparound when
      the table spans one declared period).

    Each constructor builds the evaluation function once; :meth:`sample`
    only calls it.  The structure the kernels exploit is plain data:
    ``base`` is the read-only matrix of a constant or scalar-profile
    schedule (``None`` otherwise) and ``profile`` the scalar ``f`` of a
    scalar-profile schedule (``None`` otherwise).

    Parameters validated on construction: every tabulated sample, and every
    sample a callable returns, is Hermitian (defect at most
    ``1e-12 * max(1, max|H|)``), and when a ``period`` is declared,
    ``||H(t+T) - H(t)||_F`` is at most ``1e-10`` times the largest
    ``||H||_F`` among the probed samples (the whole table of a sampled
    schedule), so a schedule that vanishes at a probe point still passes.
    """

    def __init__(self):
        raise TypeError(
            "use HamiltonianSchedule.constant / .from_callable / "
            ".scalar_profile / .from_samples")

    @classmethod
    def _make(cls, fn, dim, period, label, base=None, profile=None):
        obj = object.__new__(cls)
        obj._fn = fn
        obj.dim = int(dim)
        obj.period = period
        obj.label = label
        obj.base = base
        obj.profile = profile
        obj._eig = None             # cached (w, v) of base
        return obj

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, matrix, *, label="constant"):
        """Schedule for a time-independent Hermitian ``matrix``."""
        arr = linalg.require_hermitian(matrix, "constant matrix")
        arr.setflags(write=False)
        return cls._make(lambda t: arr, arr.shape[0], None, label, base=arr)

    @classmethod
    def from_callable(cls, fn, dim, *, period=None, label="callable"):
        """Schedule wrapping ``fn(t) -> (dim, dim) Hermitian array``."""
        obj = cls._make(lambda t: linalg.require_hermitian(fn(t), f"H({t})"),
                        dim, cls._check_period(period), label)
        probe = obj.sample(0.0)
        if probe.shape != (obj.dim, obj.dim):
            raise DimensionMismatch(
                f"callable returned shape {probe.shape}, "
                f"expected ({dim}, {dim})")
        obj._check_periodicity()
        return obj

    @classmethod
    def scalar_profile(cls, profile, base, *, period=None,
                       label="scalar-profile"):
        """Schedule ``H(t) = profile(t) * base`` with Hermitian ``base``."""
        arr = linalg.require_hermitian(base, "profile base")
        arr.setflags(write=False)
        obj = cls._make(lambda t: float(profile(t)) * arr, arr.shape[0],
                        cls._check_period(period), label,
                        base=arr, profile=profile)
        float(profile(0.0))  # must be real scalar
        obj._check_periodicity()
        return obj

    @classmethod
    def from_samples(cls, grid, samples, *, period=None, label="sampled"):
        """Schedule from Hermitian matrices tabulated on a uniform grid.

        ``grid`` must be uniform, start at 0 and be strictly increasing.
        Evaluation uses 4-point cubic Lagrange interpolation; when
        ``period == grid[-1]`` the stencil wraps around periodically and
        arbitrary ``t`` is reduced modulo the period.
        """
        grid = np.asarray(grid, dtype=float)
        raw = np.asarray(samples, dtype=complex)
        if grid.ndim != 1 or grid.size < 4:
            raise GridTooCoarse(
                "sampled schedule needs at least 4 grid points")
        if raw.shape[0] != grid.size:
            raise DimensionMismatch(
                f"{raw.shape[0]} samples for {grid.size} grid points")
        deltas = np.diff(grid)
        if grid[0] != 0.0 or np.any(deltas <= 0):
            raise ValueError("grid must start at 0 and strictly increase")
        if not np.allclose(deltas, deltas[0], rtol=1e-10, atol=0.0):
            raise ValueError("sampled schedule requires a uniform grid")
        table = np.empty_like(raw)       # per sample: no stack temporaries
        for k, sample in enumerate(raw):
            table[k] = linalg.require_hermitian(sample, f"sample {k}")
        period = cls._check_period(period)
        if period is not None:
            if not np.isclose(period, grid[-1], rtol=1e-12):
                raise ValueError(
                    "periodic sampled schedule must be tabulated over "
                    "exactly one period")
            if not _closes(table):
                raise ValueError(
                    "samples at t=0 and t=period differ by "
                    f"{frob(table[-1] - table[0]):.3e}")
        return cls._make(lambda t: _interp(grid, table, period, t),
                         table.shape[1], period, label)

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_period(period):
        if period is None:
            return None
        period = float(period)
        if period <= 0:
            raise ValueError("period must be positive")
        return period

    def _check_periodicity(self):
        if self.period is None:
            return
        times = (0.0, 0.31 * self.period, 0.77 * self.period)
        pairs = [(self.sample(t), self.sample(t + self.period))
                 for t in times]
        ref = max(max(frob(m) for pair in pairs for m in pair), 1e-300)
        for t, (a, b) in zip(times, pairs):
            if frob(b - a) > 1e-10 * ref:
                raise ValueError(
                    f"declared period {self.period} violated at t={t}: "
                    f"relative defect {frob(b - a) / ref:.3e}")

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    @property
    def is_constant(self) -> bool:
        return self.base is not None and self.profile is None

    def base_eig(self):
        """Cached eigendecomposition of the constant/profile base matrix."""
        if self.base is None:
            raise ValueError("schedule has no base matrix")
        if self._eig is None:
            self._eig = linalg.eigh(self.base, check_hermitian=False)
        return self._eig

    def sample(self, t: float) -> np.ndarray:
        """Raw Hermitian ndarray H(t) (hot-path evaluation)."""
        return self._fn(t)

    def __repr__(self):
        return (f"HamiltonianSchedule(dim={self.dim}, "
                f"period={self.period}, label={self.label!r})")


def _interp(grid: np.ndarray, table: np.ndarray, period, t: float):
    """Cubic Lagrange interpolation of ``table`` on the uniform ``grid``."""
    n_iv = grid.size - 1
    step = grid[1] - grid[0]
    if period is not None:
        t = t % period
    s = t / step
    j0 = int(np.floor(s))
    u = s - j0
    if period is not None:
        idx = [(j0 + off) % n_iv for off in (-1, 0, 1, 2)]
    else:
        if t < grid[0] - 1e-9 * step or t > grid[-1] + 1e-9 * step:
            raise ValueError(
                f"t={t} outside tabulated range [0, {grid[-1]}]")
        j0 = min(max(j0, 1), n_iv - 2)
        u = s - j0
        idx = [j0 - 1, j0, j0 + 1, j0 + 2]
    w = (
        -u * (u - 1.0) * (u - 2.0) / 6.0,
        (u * u - 1.0) * (u - 2.0) / 2.0,
        -u * (u + 1.0) * (u - 2.0) / 2.0,
        u * (u * u - 1.0) / 6.0,
    )
    # real weights on rows of a Hermitized table: the sum is Hermitian
    out = w[0] * table[idx[0]]
    for c, j in zip(w[1:], idx[1:]):
        if c != 0.0:
            out += c * table[j]
    return out


def _closes(table: np.ndarray) -> bool:
    """Whether ``table[-1]`` is ``table[0]`` to 1e-10 of the largest norm."""
    scale = max(map(frob, table))        # row by row: no table-sized temporary
    return frob(table[-1] - table[0]) <= 1e-10 * max(scale, 1e-300)


def _commutator_defects(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``||[a, x_k]||_F / max(||x_k||_F, 1e-300)`` for each ``x_k`` of a
    stack; ``a`` is one matrix or a stack as long as ``x``."""
    comm = a @ x - x @ a
    scale = np.maximum(np.linalg.norm(x, axis=(-2, -1)), 1e-300)
    return np.linalg.norm(comm, axis=(-2, -1)) / scale


def grid_index(grid: np.ndarray, t: float) -> int:
    """Index of grid point ``t`` (``ValueError`` beyond 1e-9 max(1, |t|))."""
    k = int(np.argmin(np.abs(grid - t)))
    if abs(grid[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t} is not on the grid")
    return k


def uniform_spacing(grid: np.ndarray) -> float:
    """Spacing of a uniform grid (``ValueError`` beyond relative 1e-9)."""
    deltas = np.diff(grid)
    if not np.allclose(deltas, deltas[0], rtol=1e-9, atol=0.0):
        raise ValueError("operation requires a uniform grid")
    return float(deltas[0])


class UnitaryPath:
    """Evolution operator sampled on a time grid.

    Attributes
    ----------
    grid : ndarray
        Strictly increasing stored times, starting at 0.
    samples : ndarray, shape (len(grid), dim, dim)
        Unitary ``U(t)`` at each stored time; ``samples[0]`` is the identity.
    tol_achieved : float
        Largest step-doubling local-error estimate seen during integration.
    drift_max : float
        Largest unitarity defect ``||U U^H - 1||_F`` observed before any
        re-unitarization.
    """

    def __init__(self, grid, samples, tol_achieved=0.0, drift_max=0.0):
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=complex)
        if grid.ndim != 1 or samples.ndim != 3 or samples.shape[0] != grid.size:
            raise DimensionMismatch("grid and samples are inconsistent")
        if grid.size == 0:
            raise DimensionMismatch(
                "empty grid: a path needs at least one point")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must start at 0 and strictly increase")
        dim = samples.shape[1]
        if frob(samples[0] - np.eye(dim)) > 1e-12:
            raise ValueError("samples[0] must be the identity")
        self.grid = grid
        self.samples = samples
        self.tol_achieved = float(tol_achieved)
        self.drift_max = float(drift_max)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.grid.size

    def at(self, t: float) -> np.ndarray:
        """Stored unitary at grid time ``t``."""
        return self.samples[grid_index(self.grid, t)]

    def final(self) -> np.ndarray:
        """Stored unitary at the last grid time."""
        return self.samples[-1]

    def __repr__(self):
        return (f"UnitaryPath(dim={self.dim}, points={len(self)}, "
                f"t_max={self.grid[-1]:.6g}, tol={self.tol_achieved:.3e})")


def _cf4_step(schedule, t0: float, h: float) -> np.ndarray:
    """One commutator-free 4th-order step over [t0, t0+h] (exactly unitary)."""
    h1 = schedule.sample(t0 + _GAUSS_C1 * h)
    h2 = schedule.sample(t0 + _GAUSS_C2 * h)
    right = expm_igen(_CF4_A1 * h1 + _CF4_A2 * h2, h, check_hermitian=False)
    left = expm_igen(_CF4_A2 * h1 + _CF4_A1 * h2, h, check_hermitian=False)
    return left @ right


def _adaptive_step(schedule, t0, h, tol, depth=0):
    """Step-doubled CF4 over [t0, t0+h]: returns (transfer, error-estimate)."""
    coarse = _cf4_step(schedule, t0, h)
    fine = _cf4_step(schedule, t0 + 0.5 * h, 0.5 * h) @ _cf4_step(
        schedule, t0, 0.5 * h)
    err = frob(coarse - fine)
    if err <= tol:
        return fine, err
    if depth >= _MAX_SPLIT_DEPTH:
        raise ToleranceNotMet(
            f"local error {err:.3e} > tol {tol:.3e} at t={t0:.6g} after "
            f"{_MAX_SPLIT_DEPTH} interval splits (schedule too stiff or "
            f"grid too coarse)")
    tl, el = _adaptive_step(schedule, t0, 0.5 * h, tol, depth + 1)
    tr, er = _adaptive_step(schedule, t0 + 0.5 * h, 0.5 * h, tol, depth + 1)
    return tr @ tl, max(el, er)


def propagate(schedule: HamiltonianSchedule, grid: np.ndarray, tol: float,
              keep: np.ndarray):
    """Time-ordered exponential ``U(t) = Texp(-i int_0^t H)`` on a grid.

    The stepping kernel shared by :func:`evolve`, :func:`compose_geq` and
    :func:`invphase.phases.solve_un`.  A constant schedule is exponentiated
    spectrally at each kept time.  Any other schedule is advanced by one
    step-doubled CF4 step per interval ``[grid[k], grid[k+1]]`` (split
    recursively until the estimate meets ``tol``), and the running product
    is re-unitarized whenever ``||U U^H - 1||_F > 1e-12``.

    Parameters
    ----------
    schedule : HamiltonianSchedule
    grid : ndarray
        Strictly increasing times starting at 0.
    tol : float
        Local-error budget per interval.
    keep : ndarray of int
        Sorted grid indices to store, starting with 0.

    Returns
    -------
    (samples, err_max, drift_max)
        ``samples[row] = U(grid[keep[row]])``, the largest local-error
        estimate, and the largest unitarity defect seen before any
        re-unitarization.

    Raises
    ------
    ToleranceNotMet
        If an interval still exceeds ``tol`` after maximal splitting.
    """
    if schedule.is_constant:
        samples = linalg.spectral_exp(*schedule.base_eig(), grid[keep])
        samples[0] = np.eye(schedule.dim)
        return samples, 0.0, 0.0

    dim = schedule.dim
    samples = np.empty((keep.size, dim, dim), dtype=complex)
    samples[0] = np.eye(dim)
    keep_set = {int(k): row for row, k in enumerate(keep)}
    u = np.eye(dim, dtype=complex)
    eye = np.eye(dim)
    err_max = 0.0
    drift_max = 0.0
    for k in range(grid.size - 1):
        h = grid[k + 1] - grid[k]
        transfer, err = _adaptive_step(schedule, grid[k], h, tol)
        u = transfer @ u
        err_max = max(err_max, err)
        drift = frob(u @ u.conj().T - eye)
        drift_max = max(drift_max, drift)
        if drift > 1e-12:
            u = linalg.polar_unitary(u)
        row = keep_set.get(k + 1)
        if row is not None:
            samples[row] = u
    return samples, err_max, drift_max


def _resolve_store(grid: np.ndarray, store) -> np.ndarray:
    """Map requested store times onto integration-grid indices."""
    if store is None:
        return np.arange(grid.size)
    idx = {0, grid.size - 1}
    for t in np.atleast_1d(np.asarray(store, dtype=float)):
        idx.add(grid_index(grid, t))
    return np.array(sorted(idx), dtype=int)


def evolve(schedule: HamiltonianSchedule, t_max: float, steps: int = None,
           tol: float = 1e-10, store=None) -> UnitaryPath:
    """Integrate ``i dU/dt = H(t) U`` from ``U(0) = 1`` up to ``t_max``.

    Parameters
    ----------
    schedule : HamiltonianSchedule
        The Hermitian generator.
    t_max : float
        Final time (> 0).
    steps : int, optional
        Number of grid intervals.  Defaults to 2048 per declared period
        (2048 total when no period is declared).
    tol : float
        Local-error budget per step, estimated by step-doubling; intervals
        that exceed it are split recursively.  Must be >= 1e-14.
    store : sequence of float, optional
        Times (on the integration grid) at which to keep ``U``; ``0`` and
        ``t_max`` are always kept.  Default: the whole grid.

    Returns
    -------
    UnitaryPath

    Raises
    ------
    ToleranceNotMet
        If an interval still exceeds ``tol`` after maximal splitting.
    """
    t_max = float(t_max)
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if tol < linalg.TOL_FLOOR:
        raise ValueError(f"tol must be >= {linalg.TOL_FLOOR}")
    if steps is None:
        if schedule.period is not None:
            steps = DEFAULT_STEPS_PER_PERIOD * max(
                1, int(np.ceil(t_max / schedule.period - 1e-12)))
        else:
            steps = DEFAULT_STEPS_PER_PERIOD
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be a positive integer")

    grid = np.linspace(0.0, t_max, steps + 1)
    keep = _resolve_store(grid, store)
    samples, err_max, drift_max = propagate(schedule, grid, tol, keep)
    return UnitaryPath(grid[keep], samples, tol_achieved=err_max,
                       drift_max=drift_max)


def compose_geq(path: UnitaryPath, y: HamiltonianSchedule,
                invariant0=None, tol: float = 1e-10) -> UnitaryPath:
    """Compose ``U(t) -> U(t) V(t)`` with ``i dV/dt = Y(t) V(t)``.

    ``Y`` must commute with the initial invariant; this is revalidated on
    the stored grid when ``invariant0`` is supplied.

    Parameters
    ----------
    path : UnitaryPath
        Evolution operator of the base system, stored densely enough for
        the ``V`` integration (``V`` is integrated on ``path.grid``).
    y : HamiltonianSchedule
        Symmetry generator ``Y(t)`` in the initial frame.
    invariant0 : array_like, optional
        ``I(0)``; when given, ``comm_norm(Y(t), I(0)) <= 1e-8 ||Y(t)||_F``
        is enforced at every stored grid point.
    tol : float
        Local-error budget for the ``V`` integration.

    ``V`` comes from :func:`propagate` on ``path.grid`` (spectral for a
    constant ``Y``, stepped under the drift policy otherwise), except for a
    scalar-profile ``Y(t) = f(t) Y0``, where ``V(t) = exp(-i F(t) Y0)`` with
    ``F`` the cumulative Simpson integral of ``f``.

    Returns
    -------
    UnitaryPath
        The composed path.  ``tol_achieved`` and ``drift_max`` are the
        larger of the base path's and ``V``'s.  When ``Y`` is the constant
        zero schedule the samples are ``path.samples`` itself.

    Raises
    ------
    SymmetryViolation
        If the commutation precondition fails, reporting the offending time.
    """
    if y.dim != path.dim:
        raise DimensionMismatch(
            f"Y has dim {y.dim}, path has dim {path.dim}")
    grid = path.grid
    if invariant0 is not None:
        defects = _commutator_defects(linalg.as_matrix(invariant0),
                                      np.array([y.sample(t) for t in grid]))
        k = int(np.argmax(defects > 1e-8))
        if defects[k] > 1e-8:
            raise SymmetryViolation(
                f"[Y(t), I(0)] relative norm {defects[k]:.3e} > 1e-8 "
                f"at grid point t={grid[k]:.9g}")

    # zero schedule -> exact identity transformation, bit-identical samples
    if y.is_constant and not np.any(y.base):
        return UnitaryPath(grid, path.samples,
                           tol_achieved=path.tol_achieved,
                           drift_max=path.drift_max)

    if y.profile is not None:
        # V(t) = exp(-i F(t) Y0): exact up to the quadrature of F; row 0
        # of the product is set to the identity below
        f_vals = np.array([float(y.profile(t)) for t in grid])
        v_samples = linalg.spectral_exp(
            *y.base_eig(), cumulative_simpson(f_vals, x=grid, initial=0))
        err_max = v_drift = 0.0
    else:
        v_samples, err_max, v_drift = propagate(y, grid, tol,
                                                np.arange(grid.size))

    out = np.einsum("kij,kjl->kil", path.samples, v_samples)
    out[0] = np.eye(path.dim)
    return UnitaryPath(grid, out,
                       tol_achieved=max(path.tol_achieved, err_max),
                       drift_max=max(path.drift_max, v_drift))


def loop_check(path: UnitaryPath, t: float, tol: float = 1e-10):
    """Detect an evolution loop: is ``U(t)`` proportional to the identity?

    Returns the best-fit complex unit ``c = tr U(t)/dim`` (normalized) when
    ``||U(t) - c * identity||_F <= tol * dim``, otherwise ``None``.
    """
    u = path.at(t)
    dim = path.dim
    c = np.trace(u) / dim
    mag = abs(c)
    if mag < 1e-3:
        return None
    c = c / mag
    if frob(u - c * np.eye(dim)) <= tol * dim:
        return complex(c)
    return None
