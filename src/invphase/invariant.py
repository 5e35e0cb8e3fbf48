"""Dynamical invariants: construction, verification, eigenframes, and the
symmetry structure of geometrically equivalent Hamiltonians.

A dynamical invariant of ``H(t)`` is a Hermitian ``I(t)`` obeying the
Liouville-von Neumann equation ``dI/dt = i [I, H(t)]``; equivalently
``I(t) = U(t) I(0) U(t)^+``.  Its eigenvalues are constants of motion and
its (smooth, single-valued) eigenframe organizes exact solutions of the
Schrodinger equation.  This module

* transports ``I(0)`` along a :class:`~invphase.propagator.UnitaryPath`,
* verifies candidate invariants via the LvN residual,
* builds smooth eigenframes (maximal-overlap matching, parallel-transport
  phase convention, uniform holonomy redistribution for periodic closure),
* assembles geometrically equivalent Hamiltonians ``H + X`` with
  ``[I(t), X(t)] = 0``,
* realizes the purely geometric Hamiltonian ``H* = i dW/dt W^+`` of a
  frame, for which every eigenframe phase is geometric, and
* applies gauge transformations ``W -> W Z`` with block-diagonal ``Z``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import linalg
from .errors import (
    ComputeError,
    DegeneracyCrossing,
    DimensionMismatch,
    GridTooCoarse,
    NonHermitianInput,
    OverlapTooSmall,
    SymmetryViolation,
)
from .linalg import frob, hermitize
from .propagator import (HamiltonianSchedule, UnitaryPath,
                         _commutator_defects, grid_index, uniform_spacing)

__all__ = [
    "InvariantPath",
    "InvariantFrame",
    "transport",
    "lvn_residual",
    "eigenframe",
    "build_geq",
    "symmetry_check",
    "hstar",
    "gauge_transform",
]

#: relative eigenvalue gap below which states are grouped into one block
DEGENERACY_GAP = 1e-9

#: per-eigenvalue drift bound: |lam_n(t) - lam_n(0)| <= 1e-8 * (1 + |lam_n(0)|)
SPECTRUM_DRIFT = 1e-8

#: bytes of samples that one step of a chunked pass over a path reads; the
#: temporaries of that step are a small multiple of it
_CHUNK_BYTES = 1 << 21


def _row_chunks(samples: np.ndarray):
    """Consecutive row slices of a sample stack, ``_CHUNK_BYTES`` each."""
    rows = max(1, _CHUNK_BYTES // max(1, samples[:1].nbytes))
    for start in range(0, samples.shape[0], rows):
        yield start, samples[start:start + rows]


class InvariantPath:
    """Hermitian invariant ``I(t)`` sampled on a time grid.

    Attributes
    ----------
    grid : ndarray
        Strictly increasing times.
    samples : ndarray, shape (len(grid), dim, dim)
        ``I(t)`` per grid point (Hermitian).
    """

    def __init__(self, grid, samples):
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=complex)
        if grid.ndim != 1 or samples.ndim != 3 or samples.shape[0] != grid.size:
            raise DimensionMismatch("grid and samples are inconsistent")
        if grid.size == 0:
            raise DimensionMismatch(
                "empty grid: a path needs at least one point")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must strictly increase")
        self.grid = grid
        self.samples = samples
        # every sample passes the Hermiticity rule; the spectrum is
        # spot-checked at three samples, and eigenframe() checks every one
        for start, chunk in _row_chunks(samples):
            bad, defect, scale = linalg.hermitian_defects(chunk)
            if bad.any():
                k = int(np.argmax(bad))
                where = f"invariant sample at t={grid[start + k]:.6g}"
                if not np.isfinite(scale[k]):
                    raise NonHermitianInput(f"{where} is not finite")
                raise NonHermitianInput(
                    f"{where}: max|A - A^H| = {defect[k]:.3e} > "
                    f"{linalg.HERMITIAN_TOL:g} * {scale[k]:.3e}")
        spots = [0, samples.shape[0] // 2, samples.shape[0] - 1]
        w = linalg.eigvalsh(samples[spots])
        drift = np.abs(w - w[0]) > SPECTRUM_DRIFT * (1 + np.abs(w[0]))
        if drift.any():
            k = spots[int(np.argmax(drift.any(axis=1)))]
            raise ComputeError(
                f"invariant spectrum drifts at t={grid[k]:.6g}: not a "
                "dynamical invariant path")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.grid.size

    def at(self, t: float) -> np.ndarray:
        return self.samples[grid_index(self.grid, t)]

    @property
    def is_periodic(self) -> bool:
        """True when the last sample returns to the first (relative 1e-8)."""
        ref = max(frob(self.samples[0]), 1e-300)
        return frob(self.samples[-1] - self.samples[0]) <= 1e-8 * ref

    def spectrum_drift(self) -> float:
        """max over grid and levels of |lam(t) - lam(0)| / (1 + |lam(0)|).

        The spectra come from stacked :func:`invphase.linalg.eigvalsh`
        calls on chunks of ``_CHUNK_BYTES`` of samples, so the extra memory
        is O(chunk), not O(grid).  Each call splits its chunk into the
        connected blocks of the chunk's own union nonzero pattern (the two
        parity blocks of the oscillator), which is exact for every sample
        in it; a dense chunk is one dense solve.
        """
        w0 = linalg.eigvalsh(self.samples[0])
        worst = 0.0
        for _, chunk in _row_chunks(self.samples[1:]):
            w = linalg.eigvalsh(chunk)
            worst = max(worst, float(np.max(np.abs(w - w0) / (1 + np.abs(w0)))))
        return worst

    def __repr__(self):
        return f"InvariantPath(dim={self.dim}, points={len(self)})"


class InvariantFrame:
    """Smooth orthonormal eigenframe of an invariant along its grid.

    Attributes
    ----------
    grid : ndarray
        Times (inherited from the invariant path).
    eigenvalues : ndarray
        One constant eigenvalue per degenerate block, ascending.
    degeneracies : ndarray of int
        Block dimension ``d_n`` per eigenvalue.
    frames : ndarray, shape (len(grid), dim, dim)
        Per grid point, orthonormal eigenvector columns grouped by block
        (ascending eigenvalue); ``frames[k]`` is the unitary ``W(t_k)``.
    periodic : bool
        Whether the frame closes exactly at the final grid point.
    min_overlap : float
        Smallest cross-step matching overlap encountered.
    """

    def __init__(self, grid, eigenvalues, degeneracies, frames, periodic,
                 min_overlap):
        self.grid = np.asarray(grid, dtype=float)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.degeneracies = np.asarray(degeneracies, dtype=int)
        self.frames = np.asarray(frames, dtype=complex)
        self.periodic = bool(periodic)
        self.min_overlap = float(min_overlap)
        if int(self.degeneracies.sum()) != self.frames.shape[1]:
            raise DimensionMismatch("degeneracies do not sum to dim")

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.eigenvalues.size

    def block_slice(self, n: int) -> slice:
        """Column slice of block ``n`` inside each frame."""
        start = int(self.degeneracies[:n].sum())
        return slice(start, start + int(self.degeneracies[n]))

    def initial(self) -> np.ndarray:
        """The frame unitary W(0)."""
        return self.frames[0]

    def validate(self, invariant: InvariantPath = None,
                 overlap_floor: float = 0.99) -> None:
        """Check orthonormality, eigen-residuals, and cross-step overlaps.

        Raises ``ComputeError``/``OverlapTooSmall`` on violation.
        """
        w = self.frames
        gram = w.conj().swapaxes(1, 2) @ w - np.eye(self.dim)
        bad = np.linalg.norm(gram, axis=(1, 2)) > 1e-10 * self.dim
        res = bound = np.zeros(bad.size)
        if invariant is not None:
            s = invariant.samples
            lam = np.repeat(self.eigenvalues, self.degeneracies)
            res = np.linalg.norm(s @ w - w * lam, axis=(1, 2))
            bound = 1e-8 * np.maximum(np.linalg.norm(s, axis=(1, 2)), 1e-300)
        k = int(np.argmax(bad | (res > bound)))  # 0 when nothing fails
        if bad[k]:
            raise ComputeError(f"frame not orthonormal at index {k}")
        if res[k] > bound[k]:
            raise ComputeError(
                f"eigen-residual {res[k]:.3e} too large at index {k}")
        if self.min_overlap < overlap_floor:
            raise OverlapTooSmall(
                f"cross-step overlap {self.min_overlap:.4f} < {overlap_floor}")

    def __repr__(self):
        return (f"InvariantFrame(dim={self.dim}, blocks={self.n_blocks}, "
                f"points={self.grid.size}, periodic={self.periodic})")


def transport(path: UnitaryPath, i0) -> InvariantPath:
    """Transport an initial invariant: ``I(t_k) = U(t_k) I(0) U(t_k)^+``.

    ``I(0)`` passes :func:`invphase.linalg.require_hermitian` (so a
    non-Hermitian one raises ``NonHermitianInput``) and its Hermitian part
    is transported.
    """
    arr = linalg.require_hermitian(i0, "I0")
    if arr.shape[0] != path.dim:
        raise DimensionMismatch(
            f"I0 has dim {arr.shape[0]}, path has dim {path.dim}")
    u = path.samples
    samples = np.einsum("kij,jl,kml->kim", u, arr, u.conj(), optimize=True)
    return InvariantPath(path.grid, samples)


def lvn_residual(invariant: InvariantPath, schedule: HamiltonianSchedule
                 ) -> np.ndarray:
    """Liouville-von Neumann residual series ``||dI/dt - i[I, H(t)]||_F``.

    ``dI/dt`` uses second-order central differences (one-sided second-order
    stencils at the endpoints), formed one grid point at a time, so the
    extra memory is O(one sample), not O(grid).

    Raises
    ------
    GridTooCoarse
        If the invariant path has fewer than 3 points.
    """
    grid = invariant.grid
    if grid.size < 3:
        raise GridTooCoarse("lvn_residual needs at least 3 grid points")
    h = uniform_spacing(grid)
    s = invariant.samples

    def didt():
        yield (-3 * s[0] + 4 * s[1] - s[2]) / (2 * h)
        for k in range(1, grid.size - 1):
            yield (s[k + 1] - s[k - 1]) / (2 * h)
        yield (3 * s[-1] - 4 * s[-2] + s[-3]) / (2 * h)

    return lvn_defect(invariant, schedule, didt())


def lvn_defect(invariant: InvariantPath, schedule: HamiltonianSchedule,
               didt) -> np.ndarray:
    """``||dI/dt - i[I, H(t)]||_F`` per grid point for a given ``dI/dt``.

    ``didt`` is an array or any iterable with one row per grid point; it is
    read one row at a time.

    Raises
    ------
    DimensionMismatch
        If the dims differ, or ``didt`` has more or fewer rows than the
        grid, or a row is not ``(dim, dim)``.
    """
    if schedule.dim != invariant.dim:
        raise DimensionMismatch("invariant and schedule dims differ")
    s = invariant.samples
    out = np.empty(invariant.grid.size)
    for k, (t, d_k) in enumerate(_per_point(invariant.grid, didt)):
        if np.shape(d_k) != s.shape[1:]:
            raise DimensionMismatch(
                f"dI/dt row {k} has shape {np.shape(d_k)}, "
                f"expected {s.shape[1:]}")
        h_k = schedule.sample(t)
        bracket = s[k] @ h_k - h_k @ s[k]
        out[k] = frob(d_k - 1j * bracket)
    return out


def _per_point(grid: np.ndarray, rows):
    """``zip(grid, rows, strict=True)``; a length mismatch raises
    ``DimensionMismatch``."""
    try:
        yield from zip(grid, rows, strict=True)
    except ValueError as exc:
        raise DimensionMismatch(
            f"dI/dt needs one row per grid point ({grid.size}): {exc}"
        ) from exc


def eigenframe(invariant: InvariantPath,
               enforce_periodic: bool = False) -> InvariantFrame:
    """Smooth single-valued eigenframe of an invariant path.

    Frames are matched across consecutive grid points block by block
    (blocks cannot mix because the spectrum is constant): within each
    degenerate block the new columns are rotated by the adjoint polar
    factor of the overlap matrix, which for non-degenerate levels reduces
    to the parallel-transport convention ``<v_k|v_{k+1}>`` real positive.
    When ``enforce_periodic`` is set and the invariant is periodic, the
    per-block holonomy accumulated over the loop is redistributed
    uniformly (step ``k`` multiplied by the holonomy to the power ``k/K``,
    taken from the holonomy's complex Schur form ``Q T Q^H`` as
    ``Q exp(i arg(diag T) k/K) Q^H``) so the frame closes exactly while
    staying smooth.

    Raises
    ------
    DegeneracyCrossing
        If the block structure changes along the path.
    OverlapTooSmall
        If a cross-step matching overlap falls below 0.5.
    ComputeError
        If the spectrum drifts beyond the invariant-path bound.
    """
    s = invariant.samples
    grid = invariant.grid
    n_pts = grid.size
    dim = invariant.dim

    # transported samples are Hermitian only to rounding: take the
    # Hermitian part of each one that is decomposed
    w0, v0 = linalg.eigh(hermitize(s[0]), check_hermitian=False)
    thresh = DEGENERACY_GAP * max(frob(s[0]), 1.0)
    bounds = linalg.cluster_bounds(w0, thresh)
    starts, sizes = bounds[:-1].tolist(), np.diff(bounds).tolist()
    eigenvalues = w0[starts]

    frames = np.empty((n_pts, dim, dim), dtype=complex)
    frames[0] = v0
    min_overlap = 1.0

    for k in range(1, n_pts):
        w, v = linalg.eigh(hermitize(s[k]), check_hermitian=False)
        bounds_k = linalg.cluster_bounds(w, thresh)
        if not np.array_equal(bounds_k, bounds):
            raise DegeneracyCrossing(
                f"degeneracy structure changed at t={grid[k]:.6g}: "
                f"{np.diff(bounds_k).tolist()} vs {sizes} at t=0")
        if np.any(np.abs(w - w0) > SPECTRUM_DRIFT * (1 + np.abs(w0))):
            raise ComputeError(
                f"invariant spectrum drifted at t={grid[k]:.6g}")
        prev = frames[k - 1]
        for st, d in zip(starts, sizes):
            sl = slice(st, st + d)
            overlap = prev[:, sl].conj().T @ v[:, sl]
            if d == 1:
                o = overlap[0, 0]
                mag = abs(o)
                if mag < 0.5:
                    raise OverlapTooSmall(
                        f"overlap {mag:.3f} for eigenvalue {w0[st]:.6g} "
                        f"between t={grid[k-1]:.6g} and t={grid[k]:.6g}")
                v[:, st] *= np.conj(o) / mag
                min_overlap = min(min_overlap, mag)
            else:
                sv = np.linalg.svd(overlap, compute_uv=False)
                if sv[-1] < 0.5:
                    raise OverlapTooSmall(
                        f"block overlap {sv[-1]:.3f} for eigenvalue "
                        f"{w0[st]:.6g} between t={grid[k-1]:.6g} and "
                        f"t={grid[k]:.6g}")
                q = linalg.polar_unitary(overlap)
                v[:, sl] = v[:, sl] @ q.conj().T
                min_overlap = min(min_overlap, float(sv[-1]))
        frames[k] = v

    periodic = False
    if enforce_periodic:
        if not invariant.is_periodic:
            raise ValueError(
                "enforce_periodic requested but the invariant path does "
                "not return to its initial value")
        n_iv = n_pts - 1
        ks = np.arange(n_pts)
        for st, d in zip(starts, sizes):
            sl = slice(st, st + d)
            if d == 1:
                theta = float(np.angle(
                    np.vdot(frames[-1][:, st], frames[0][:, st])))
                frames[:, :, st] *= np.exp(1j * theta * ks / n_iv)[:, None]
            else:
                hol = frames[-1][:, sl].conj().T @ frames[0][:, sl]
                tri, q = scipy.linalg.schur(linalg.polar_unitary(hol),
                                            output="complex")
                frames[:, :, sl] = frames[:, :, sl] @ linalg.spectral_exp(
                    -np.angle(np.diag(tri)), q, ks / n_iv)
            frames[-1][:, sl] = frames[0][:, sl]  # close exactly
        periodic = True

    return InvariantFrame(grid, eigenvalues, np.array(sizes), frames,
                          periodic, min_overlap)


def symmetry_check(x: HamiltonianSchedule, invariant: InvariantPath,
                   rel_tol: float = 1e-8) -> float:
    """Verify ``[I(t), X(t)] = 0`` on the invariant's grid.

    Returns the worst relative commutator norm; raises
    ``SymmetryViolation`` (naming the offending grid point) beyond
    ``rel_tol * ||X(t)||_F``.
    """
    grid = invariant.grid
    defects = _commutator_defects(invariant.samples,
                                  np.array([x.sample(t) for t in grid]))
    k = int(np.argmax(defects > rel_tol))
    if defects[k] > rel_tol:
        raise SymmetryViolation(
            f"[I(t), X(t)] relative norm {defects[k]:.3e} > {rel_tol:.1e} "
            f"at grid point t={grid[k]:.9g}")
    return float(defects.max())


def build_geq(h: HamiltonianSchedule, x: HamiltonianSchedule,
              invariant: InvariantPath = None) -> HamiltonianSchedule:
    """Geometrically equivalent Hamiltonian ``H~(t) = H(t) + X(t)``.

    ``X(t)`` must commute with the invariant the equivalence class is built
    on; this is enforced on the invariant's grid when ``invariant`` is
    supplied.  The evolution operator of the result is obtained through
    :func:`invphase.propagator.compose_geq` with ``Y(t) = U^+ X U``; for
    polynomial symmetries ``X = sum_i f_i(t) I(t)**i`` that generator is
    ``Y(t) = sum_i f_i(t) I(0)**i``.

    Raises
    ------
    SymmetryViolation
        With the offending grid point, if the commutation check fails.
    """
    if h.dim != x.dim:
        raise DimensionMismatch(f"H dim {h.dim} != X dim {x.dim}")
    if invariant is not None:
        symmetry_check(x, invariant)
    period = None
    if h.period is not None:
        if x.period is None:
            period = None
        elif np.isclose(h.period, x.period, rtol=1e-12):
            period = h.period
    label = f"{h.label}+{x.label}"
    return HamiltonianSchedule.from_callable(
        lambda t: h.sample(t) + x.sample(t), h.dim, period=period,
        label=label)


# five-point finite-difference stencils, denominator 12 h
_D1_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE = {
    0: (np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0, 0),
    1: (np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0, 0),
    -2: (np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0, -4),
    -1: (np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0, -4),
}


def frame_derivative(frames: np.ndarray, h: float,
                     periodic: bool) -> np.ndarray:
    """d/dt of a matrix series by 5-point 4th-order stencils.

    Periodic series (last sample equal to the first) use wraparound
    stencils everywhere; otherwise one-sided 4th-order stencils cover the
    two points at each end.
    """
    n_pts = frames.shape[0]
    if n_pts < 5:
        raise GridTooCoarse("4th-order differentiation needs >= 5 points")
    out = np.zeros_like(frames)
    if periodic:
        n_iv = n_pts - 1  # frames[n_iv] == frames[0]
        for c, off in zip(_D1_INTERIOR, range(-2, 3)):
            if c != 0.0:
                out += frames[(np.arange(n_pts) + off) % n_iv] * c
        return out / h
    out[2:-2] = (frames[:-4] - 8 * frames[1:-3] + 8 * frames[3:-1]
                 - frames[4:]) / (12 * h)
    for pos, (coeffs, base) in _D1_EDGE.items():
        idx = pos if pos >= 0 else n_pts + pos
        window = frames[base: base + 5] if base >= 0 else frames[-5:]
        out[idx] = np.tensordot(coeffs, window, axes=1) / h
    return out


def hstar(frame: InvariantFrame) -> HamiltonianSchedule:
    """Purely geometric Hamiltonian ``H*(t) = i dW/dt W^+`` of a frame.

    The evolution operator of ``H*`` is the frame itself (``U* = W``), so
    every invariant-eigenframe phase is geometric: the difference matrices
    ``Delta^n`` vanish and ``u^n(t) = 1``.  The finite-difference result is
    Hermitized by averaging with its adjoint; the discarded anti-Hermitian
    part (worst case, relative) is reported on the returned schedule as
    ``hstar_residual``.

    Raises
    ------
    GridTooCoarse
        If the frame has fewer than 5 points.
    NonHermitianInput
        If the anti-Hermitian residual exceeds ``1e-6 * ||H*||``.
    """
    grid = frame.grid
    if grid.size < 5:
        raise GridTooCoarse("hstar needs at least 5 grid points")
    h = uniform_spacing(grid)
    raw = (frame_derivative(frame.frames, h, frame.periodic)
           @ frame.frames.conj().swapaxes(1, 2)) * 1j
    samples = hermitize(raw)
    worst_residual = float(np.linalg.norm(raw - samples, axis=(1, 2)).max())
    scale = float(np.linalg.norm(samples, axis=(1, 2)).max())
    if worst_residual > 1e-6 * scale + 1e-12:
        raise NonHermitianInput(
            f"anti-Hermitian residual {worst_residual:.3e} exceeds "
            f"1e-6 * ||H*|| = {1e-6 * scale:.3e}; frame too coarse")
    period = grid[-1] if frame.periodic else None
    sched = HamiltonianSchedule.from_samples(
        grid, samples, period=period, label="hstar")
    sched.hstar_residual = worst_residual / max(scale, 1e-300)
    return sched


def gauge_transform(frame: InvariantFrame, z) -> tuple:
    """Gauge-transform a frame: ``W'(t) = W(t) Z(t)``.

    ``Z`` must be block-diagonal in the invariant eigenbasis (i.e. commute
    with ``I(0)`` expressed in the frame's initial basis) at every grid
    point, and single-valued on the grid.  Returns the primed frame
    together with its purely geometric Hamiltonian ``H*'`` (which absorbs
    the extra ``i W Zdot Z^+ W^+`` term); the primed loop operator is
    ``U*' = U* Z``.

    Parameters
    ----------
    frame : InvariantFrame
    z : UnitaryPath or ndarray, shape (len(grid), dim, dim)
        Gauge unitaries on the frame's grid (a plain array allows constant
        gauges with ``Z(0) != 1``).

    Raises
    ------
    SymmetryViolation
        If some ``Z(t_k)`` mixes invariant eigenblocks.
    """
    if isinstance(z, UnitaryPath):
        if z.grid.size != frame.grid.size or not np.allclose(
                z.grid, frame.grid, rtol=1e-12, atol=1e-12):
            raise DimensionMismatch("gauge path grid must match frame grid")
        z_samples = z.samples
    else:
        z_samples = np.asarray(z, dtype=complex)
        if z_samples.shape != frame.frames.shape:
            raise DimensionMismatch(
                f"gauge array shape {z_samples.shape} does not match "
                f"frames {frame.frames.shape}")
    lam = np.repeat(frame.eigenvalues, frame.degeneracies)
    defects = _commutator_defects(np.diag(lam), z_samples)
    bound = 1e-8 * max(float(np.max(np.abs(lam))), 1.0)
    k = int(np.argmax(defects > bound))
    if defects[k] > bound:
        raise SymmetryViolation(
            f"gauge Z(t) mixes invariant eigenblocks at grid index {k} "
            f"(t={frame.grid[k]:.6g})")
    primed = np.einsum("kij,kjl->kil", frame.frames, z_samples)
    closes = frob(primed[-1] - primed[0]) <= 1e-8 * np.sqrt(frame.dim)
    new_frame = InvariantFrame(frame.grid, frame.eigenvalues,
                               frame.degeneracies, primed,
                               frame.periodic and closes,
                               frame.min_overlap)
    return new_frame, hstar(new_frame)
