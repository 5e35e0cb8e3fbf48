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
                         _commutator_defects, _path_arrays, _path_grid,
                         grid_index, uniform_spacing)

__all__ = [
    "InvariantPath",
    "InvariantFrame",
    "transport",
    "lvn_residual",
    "lvn_defect",
    "lvn_blocks",
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

#: bytes of samples that :func:`eigenframe` decomposes in one stacked call;
#: its temporaries are about eight times that
_FRAME_CHUNK_BYTES = 1 << 15


def _chunk_bounds(path: "InvariantPath", start: int = 0,
                  nbytes: int = _CHUNK_BYTES):
    """``(k0, k1)`` of consecutive row blocks of a path from row ``start``
    on, ``nbytes`` of complex samples each."""
    step = max(1, nbytes // (16 * path.dim * path.dim))
    n_pts = len(path)
    for k0 in range(start, n_pts, step):
        yield k0, min(k0 + step, n_pts)


def _row_chunks(path: "InvariantPath", start: int = 0):
    """``(k0, rows k0:k1)`` for each block of :func:`_chunk_bounds`."""
    for k0, k1 in _chunk_bounds(path, start):
        yield k0, path.rows(k0, k1)


class InvariantPath:
    """Hermitian invariant ``I(t)`` sampled on a time grid.

    A path holds either a stored stack of samples (``InvariantPath(grid,
    samples)``) or the closed form of a diagonal-phase rotation
    (:meth:`rotated`), whose samples are computed when they are read.
    A stored stack is read-only, so no edit made after construction can
    bypass the Hermiticity gate: a writeable ``samples`` array is copied,
    and a read-only one is kept as it is.
    The diagnostics (the Hermiticity gate, :meth:`spectrum_drift`,
    :func:`lvn_residual`, :func:`lvn_defect`, :meth:`at`,
    :attr:`is_periodic`) read either kind chunk by chunk, through
    :meth:`rows` or :meth:`parts`, so their extra memory is O(chunk), not
    O(grid).  The spectra (the spot check and :meth:`spectrum_drift`) are
    solved on one block partition fixed when the path is built: that of
    the stored stack's union nonzero pattern, or of ``I0``'s pattern for a
    rotated path.  :meth:`parts` reads the rows as that partition's parts,
    one stack of blocks per block size, which a rotated path computes from
    ``I0``'s blocks without forming a dense row; the spectra, and the
    residual of a constant schedule that keeps the partition
    (:func:`lvn_residual`), are computed on those parts.  Every sample is
    exactly zero outside the partition, so reading only its blocks drops
    no entry of ``I(t)``.  A part that is tridiagonal in a chunk's data
    (the oscillator's parity blocks: the su(1,1) generators move the Fock
    index by 0 or 2, and a diagonal ``K`` keeps that pattern) has its
    spectrum solved through the real symmetric tridiagonal form of
    :func:`invphase.linalg.parts_eigvalsh`, which a diagonal unitary
    similarity makes exact; every sample's spectrum is still computed.

    Attributes
    ----------
    grid : ndarray
        Finite, strictly increasing times.
    """

    def __init__(self, grid, samples):
        grid, stack = _path_arrays(grid, samples)
        if stack.flags.writeable:        # the gate below must stay valid
            stack = stack.copy()
            stack.setflags(write=False)
        self._set_source(grid, stack)
        # every sample passes the Hermiticity rule; the same pass takes the
        # stack's union nonzero pattern, which cannot go stale: the stack
        # is read-only
        nonzero = np.zeros(stack.shape[1:], dtype=bool)
        for start, chunk in _row_chunks(self):
            bad, defect, scale = linalg.hermitian_defects(chunk)
            if bad.any():
                k = int(np.argmax(bad))
                where = f"invariant sample at t={self.grid[start + k]:.6g}"
                if not np.isfinite(scale[k]):
                    raise NonHermitianInput(f"{where} is not finite")
                raise NonHermitianInput(
                    f"{where}: max|A - A^H| = {defect[k]:.3e} > "
                    f"{linalg.HERMITIAN_TOL:g} * {scale[k]:.3e}")
            nonzero |= (chunk != 0).any(axis=0)
        self._blocks = linalg.block_partition(nonzero)
        self._check_spectrum()

    @classmethod
    def rotated(cls, grid, i0, k_diag) -> "InvariantPath":
        """The path ``I(t) = e^{-iKt} I0 e^{iKt}`` of a diagonal ``K``.

        In the basis where ``K = diag(k_diag)`` every sample is the
        similarity ``D I0 D^H`` with ``D = diag(exp(-1j k_diag t))``.  The
        path keeps ``I0`` and the phase table ``exp(-1j outer(grid,
        k_diag))`` (``len(grid) * dim`` numbers), not the samples: each
        read computes its rows with one ``einsum`` over them, and the rows
        of any chunk have the bits of the whole-stack ``einsum``.

        ``I0`` passes :func:`invphase.linalg.require_hermitian`.  A
        unitary diagonal similarity keeps it Hermitian, so no per-sample
        Hermiticity pass is made; the spectrum is spot-checked at three
        samples as for a stored path.

        Raises
        ------
        NonHermitianInput
            If ``I0`` is not Hermitian or not finite, or ``k_diag`` is not
            real and finite.
        DimensionMismatch
            If the grid is not a non-empty 1-D array, ``I0`` is not a
            non-empty square matrix, or ``k_diag`` is not one value per
            row of ``I0``.
        ValueError
            If the grid is not finite and strictly increasing.
        """
        grid = _path_grid(grid)
        i0 = linalg.require_hermitian(i0, "I0")
        if i0.shape[0] == 0:
            raise DimensionMismatch("I0 must be a non-empty matrix")
        kd = np.asarray(k_diag)
        if kd.shape != i0.shape[:1]:
            raise DimensionMismatch(
                f"k_diag has shape {kd.shape}, I0 has dim {i0.shape[0]}")
        if np.iscomplexobj(kd) and np.any(kd.imag != 0):
            raise NonHermitianInput("k_diag: K must be real")
        kd = kd.real.astype(float)
        if not np.all(np.isfinite(kd)):
            raise NonHermitianInput("k_diag: entries are not all finite")
        path = cls.__new__(cls)
        path._set_source(grid, i0=i0, k_diag=kd)
        # a unit-modulus diagonal similarity keeps the pattern of I0
        path._blocks = linalg.block_partition(i0 != 0)
        if path._blocks is not None:
            # each block's rows (= its columns), and I0's blocks
            path._members = tuple(idx[:, 0] % kd.size for idx in path._blocks)
            path._i0_parts = linalg.parts(i0, path._blocks)
        path._check_spectrum()
        return path

    def _set_source(self, grid, stack=None, *, i0=None, k_diag=None):
        """Set the grid and the rows' source: a stored ``stack``, or ``I0``
        and the phase table of ``k_diag``.  ``grid`` is a checked path
        grid (:func:`invphase.propagator._path_grid`)."""
        self.grid = grid
        self._stack = stack
        self._i0 = i0
        self._phases = (None if k_diag is None
                        else np.exp(-1j * np.outer(grid, k_diag)))

    def _check_spectrum(self) -> None:
        """Spot check of the spectrum at the first, middle and last
        samples; :func:`eigenframe` checks every one."""
        spots = [0, len(self) // 2, len(self) - 1]
        w = linalg.parts_eigvalsh(
            [np.concatenate(p) for p in
             zip(*(self.parts(k, k + 1) for k in spots))], self._blocks)
        drift = np.abs(w - w[0]) > SPECTRUM_DRIFT * (1 + np.abs(w[0]))
        if drift.any():
            k = spots[int(np.argmax(drift.any(axis=1)))]
            raise ComputeError(
                f"invariant spectrum drifts at t={self.grid[k]:.6g}: not a "
                "dynamical invariant path")

    def rows(self, k0: int, k1: int) -> np.ndarray:
        """``I(t_k)`` for ``k0 <= k < k1`` as a ``(k1 - k0, dim, dim)``
        array: a view of a stored stack, or new rows of a rotated path."""
        if self._stack is not None:
            return self._stack[k0:k1]
        p = self._phases[k0:k1]
        return np.einsum("ti,ij,tj->tij", p, self._i0, p.conj())

    def parts(self, k0: int, k1: int) -> tuple:
        """The rows ``k0 <= k < k1`` as the parts of the path's partition:
        one ``(k1 - k0, k, n, n)`` stack per block size, or ``(rows(k0,
        k1),)`` for one component.

        A stored path gathers them from its stack.  A rotated path computes
        each block ``D_b I0_b D_b^H`` from ``I0``'s block and the block's
        columns of the phase table, with the bits of the same entries of
        :meth:`rows`.
        """
        if self._blocks is None:
            return (self.rows(k0, k1),)
        if self._stack is not None:
            return linalg.parts(self._stack[k0:k1], self._blocks)
        out = []
        for members, i0_b in zip(self._members, self._i0_parts):
            p = self._phases[k0:k1, members]
            out.append(np.einsum("tki,kij,tkj->tkij", p, i0_b, p.conj()))
        return tuple(out)

    @property
    def samples(self) -> np.ndarray:
        """The whole ``(len(grid), dim, dim)`` stack of ``I(t)``.

        A stored path returns its read-only stack.  A rotated path builds a
        new read-only stack on every read, an O(grid) cost in time and
        memory (so bind it once rather than index it), for the consumers
        that need every sample at once (:func:`eigenframe`,
        :meth:`InvariantFrame.validate`, :func:`symmetry_check`).
        """
        if self._stack is not None:
            return self._stack
        stack = self.rows(0, len(self))
        stack.setflags(write=False)
        return stack

    @property
    def dim(self) -> int:
        source = self._stack if self._stack is not None else self._i0
        return source.shape[-1]

    def __len__(self) -> int:
        return self.grid.size

    def at(self, t: float) -> np.ndarray:
        k = grid_index(self.grid, t)
        return self.rows(k, k + 1)[0]

    @property
    def is_periodic(self) -> bool:
        """True when the last sample returns to the first (relative 1e-8)."""
        first, last = self.rows(0, 1)[0], self.rows(len(self) - 1,
                                                     len(self))[0]
        ref = max(frob(first), 1e-300)
        return frob(last - first) <= 1e-8 * ref

    def spectrum_drift(self) -> float:
        """max over grid and levels of |lam(t) - lam(0)| / (1 + |lam(0)|).

        The spectra come from stacked
        :func:`invphase.linalg.parts_eigvalsh` calls on the :meth:`parts`
        of chunks of ``_CHUNK_BYTES`` of samples, so the extra memory is
        O(chunk), not O(grid).  The parts are the path's blocks (the two
        parity blocks of the oscillator): the partition of the path's union
        nonzero pattern, built once with the path, which is exact for every
        sample; a dense path is one dense solve per chunk.  A part that is
        tridiagonal in the chunk's data (3 or more rows, nothing off the
        three central diagonals in any of its samples) is solved as the
        real symmetric tridiagonal matrix similar to it, about half the
        cost of the complex solve, with eigenvalues that agree with it to
        rounding: the oscillator's parity blocks.  One entry off the band
        in one sample sends the chunk's part to the dense solve.
        """
        w0 = linalg.parts_eigvalsh(self.parts(0, 1), self._blocks)[0]
        worst = 0.0
        for k0, k1 in _chunk_bounds(self, start=1):
            w = linalg.parts_eigvalsh(self.parts(k0, k1), self._blocks)
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
    samples.setflags(write=False)        # stored as it is, not copied
    return InvariantPath(path.grid, samples)


def lvn_residual(invariant: InvariantPath, schedule: HamiltonianSchedule
                 ) -> np.ndarray:
    """Liouville-von Neumann residual series ``||dI/dt - i[I, H(t)]||_F``.

    ``dI/dt`` uses second-order central differences (one-sided second-order
    stencils at the endpoints).  The path is read one chunk at a time with
    a one-row halo on each side, and each chunk's stencil rows and ``I``
    rows come from that one block, so the extra memory is O(chunk), not
    O(grid).

    The route is that of :func:`lvn_blocks`.  For a constant schedule whose
    ``base`` lies inside the path's partition, the rows are read as the
    path's :meth:`~InvariantPath.parts`: ``I(t)``, its stencil and ``H``
    are zero outside the partition, so the blocks hold every nonzero entry
    of the residual.  Every other schedule reads the whole matrix as one
    part.  Both routes run the one stacked loop that :func:`lvn_defect`
    runs on the whole matrix.

    Raises
    ------
    GridTooCoarse
        If the invariant path has fewer than 3 points.
    """
    grid = invariant.grid
    n_pts = grid.size
    if n_pts < 3:
        raise GridTooCoarse("lvn_residual needs at least 3 grid points")
    h = uniform_spacing(grid)
    blocks = _residual_blocks(invariant, schedule)

    def stencil(s, k0, k1, lo):
        """Rows ``k0:k1`` of dI/dt from the rows ``lo:`` in ``s``."""
        didt = np.empty((k1 - k0,) + s.shape[1:], dtype=complex)
        a, b = max(k0, 1), min(k1, n_pts - 1)      # interior rows a:b
        # (s[k + 1] - s[k - 1]) / (2 h), in place
        inner = didt[a - k0:b - k0]
        np.subtract(s[a + 1 - lo:b + 1 - lo], s[a - 1 - lo:b - 1 - lo],
                    out=inner)
        inner /= 2 * h
        if k0 == 0:
            didt[0] = (-3 * s[0] + 4 * s[1] - s[2]) / (2 * h)
        if k1 == n_pts:
            didt[-1] = (3 * s[-1] - 4 * s[-2] + s[-3]) / (2 * h)
        return didt

    def chunk(k0, k1):
        # rows lo:hi hold the chunk, its halo, and the three rows of an
        # endpoint stencil
        lo = max(0, min(k0 - 1, n_pts - 3))
        hi = min(n_pts, max(k1 + 1, 3))
        s = (invariant.parts(lo, hi) if blocks is not None
             else (invariant.rows(lo, hi),))
        return (tuple(p[k0 - lo:k1 - lo] for p in s),
                tuple(stencil(p, k0, k1, lo) for p in s))

    return _defect_series(invariant, schedule, blocks, chunk)


def lvn_defect(invariant: InvariantPath, schedule: HamiltonianSchedule,
               didt) -> np.ndarray:
    """``||dI/dt - i[I, H(t)]||_F`` per grid point for a given ``dI/dt``.

    ``didt`` is a ``(len(grid), dim, dim)`` array.  It is read one chunk of
    rows at a time, together with the same rows of the path, through the
    stacked loop of :func:`lvn_residual`'s whole-matrix route.  Every point
    is read whole, so each entry of ``didt`` counts.

    Raises
    ------
    DimensionMismatch
        If the dims differ, or ``didt`` is not ``(len(grid), dim, dim)``.
    """
    if schedule.dim != invariant.dim:
        raise DimensionMismatch("invariant and schedule dims differ")
    didt = np.asarray(didt)
    shape = (len(invariant), invariant.dim, invariant.dim)
    if didt.shape != shape:
        raise DimensionMismatch(
            f"dI/dt has shape {didt.shape}, expected {shape}")
    return _defect_series(
        invariant, schedule, None,
        lambda k0, k1: ((invariant.rows(k0, k1),), (didt[k0:k1],)))


def lvn_blocks(invariant: InvariantPath, schedule: HamiltonianSchedule
               ) -> list:
    """Sizes of the blocks :func:`lvn_residual` solves for this path and
    schedule: ``[dim]`` on the whole-matrix route.

    The residual takes the path's partition only for a constant schedule
    whose ``base`` is zero outside it: ``H`` is then zero outside the
    partition, and so is ``[I, H]``.  Every other schedule is read as one
    part, the whole matrix; a callable's partition is a guess from its
    probes that a later sample may break.
    """
    return linalg.block_sizes(_residual_blocks(invariant, schedule),
                              invariant.dim)


def _residual_blocks(invariant: InvariantPath,
                     schedule: HamiltonianSchedule):
    """The partition of :func:`lvn_blocks`, or ``None`` for the whole
    matrix."""
    if schedule.dim != invariant.dim:
        raise DimensionMismatch("invariant and schedule dims differ")
    blocks, base = invariant._blocks, schedule.base
    if blocks is None or base is None or np.any(
            (base != 0) & ~linalg.block_mask(blocks, invariant.dim)):
        return None
    return blocks


def _defect_series(invariant: InvariantPath, schedule: HamiltonianSchedule,
                   blocks, read) -> np.ndarray:
    """``||dI/dt - i[I, H(t)]||_F`` per grid point on the partition
    ``blocks`` (``None``: the whole matrix as one part).

    ``read(k0, k1)`` returns the ``I`` parts and the ``dI/dt`` parts of
    the rows ``k0:k1``.  ``H`` is the parts of a constant schedule's
    ``base``, taken once; any other schedule, read whole, gives each
    chunk's samples stacked as one part.  Each row's squares are summed
    part by part.  A chunk holds up to five arrays of its size at once
    (``I``, ``dI/dt``, the stacked ``H``, the bracket and one product), so
    the chunks are a quarter of ``_CHUNK_BYTES``.

    When every part of a constant ``H`` is exactly diagonal (validate's
    ``K``), the bracket is formed elementwise, ``s_ij k_j - k_i s_ij``,
    instead of by two matrix products.  Each entry is the one term of its
    product sum that is not an exact zero, so the two routes agree to
    rounding (bit for bit on validate's oscillator path); the bracket is
    written in C order, as a product is, so each row's squares are summed
    in the same order on both.
    """
    grid = invariant.grid
    h_base = (None if schedule.base is None
              else linalg.parts(schedule.base, blocks))
    diag = None
    if h_base is not None and all(_is_diagonal(p) for p in h_base):
        diag = [np.diagonal(p, 0, -2, -1) for p in h_base]
    out = np.empty(grid.size)
    for k0, k1 in _chunk_bounds(invariant, nbytes=_CHUNK_BYTES // 4):
        s, didt = read(k0, k1)
        h = diag or h_base or (schedule.samples(grid[k0:k1]),)
        total = 0.0
        for s_p, d_p, h_p in zip(s, didt, h):
            # d - 1j (s h - h s), in place in the bracket's buffer
            if diag is None:
                r = s_p @ h_p
                r -= h_p @ s_p
            else:                        # in C order, as a product is
                r = np.multiply(s_p, h_p[..., None, :], order="C")
                r -= h_p[..., :, None] * s_p
            r *= 1j
            np.subtract(d_p, r, out=r)
            sq = np.square(r.real)
            sq += np.square(r.imag)
            total = total + sq.reshape(len(sq), -1).sum(axis=1)
        out[k0:k1] = np.sqrt(total)
        # the loop's names keep this chunk alive: drop them before the
        # next one is built
        s = didt = h = s_p = d_p = h_p = r = sq = None
    return out


def _is_diagonal(p: np.ndarray) -> bool:
    """True when every matrix of the ``(..., n, n)`` stack ``p`` has no
    nonzero entry off its diagonal."""
    return np.count_nonzero(p) == np.count_nonzero(np.diagonal(p, 0, -2, -1))


def _frame_failure(grid, k, w, thresh, sizes, crossed, drifted, small,
                   least, levels) -> None:
    """Raise what :func:`eigenframe`'s matching raises at row ``k``: a
    structure change first, then drift, then the first block (in column
    order) whose overlap is below 0.5."""
    if crossed:
        raise DegeneracyCrossing(
            f"degeneracy structure changed at t={grid[k]:.6g}: "
            f"{np.diff(linalg.cluster_bounds(w, thresh)).tolist()} vs "
            f"{sizes} at t=0")
    if drifted:
        raise ComputeError(f"invariant spectrum drifted at t={grid[k]:.6g}")
    b = int(np.argmax(small))
    what = "overlap" if sizes[b] == 1 else "block overlap"
    raise OverlapTooSmall(
        f"{what} {least[b]:.3f} for eigenvalue {levels[b]:.6g} "
        f"between t={grid[k - 1]:.6g} and t={grid[k]:.6g}")


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

    The first sample's eigenvectors fix the gauge through
    :func:`invphase.linalg.canonical_basis`.  The others are read in
    chunks of ``_FRAME_CHUNK_BYTES`` of samples, each decomposed by one
    stacked :func:`invphase.linalg.eigh` call of its Hermitian parts, whose
    eigenvectors ``v_k`` carry LAPACK's gauge; the chunk's
    degeneracy-structure, drift and overlap checks run on the whole chunk.
    The matching is then written through the raw overlaps
    ``M_k = v_{k-1}^H v_k`` of each block, which the previous frame's
    gauge only rotates: a non-degenerate column is ``v_k p_k`` with the
    phase chain ``p_k = p_{k-1} conj(M_k) / |M_k|``, and a degenerate
    block is ``v_k R_k`` with the running product ``R_k = P_k^H R_{k-1}``
    of the polar factors ``P_k`` of ``M_k``, stacked over the chunk.  The
    overlap magnitudes and singular values are those of the row-by-row
    matching, and the frames agree with it to rounding.  The first row
    that fails a check raises what the row-by-row matching raises there,
    in its order: structure, drift, then each block's overlap.

    Raises
    ------
    DegeneracyCrossing
        If the block structure changes along the path.
    OverlapTooSmall
        If a cross-step matching overlap falls below 0.5.
    ComputeError
        If the spectrum drifts beyond the invariant-path bound.
    """
    grid = invariant.grid
    n_pts = grid.size
    dim = invariant.dim

    # transported samples are Hermitian only to rounding: take the
    # Hermitian part of each one that is decomposed
    s0 = invariant.rows(0, 1)[0]
    w0, v0 = linalg.eigh(hermitize(s0), check_hermitian=False)
    v0 = linalg.canonical_basis(w0, v0)
    thresh = DEGENERACY_GAP * max(frob(s0), 1.0)
    bounds = linalg.cluster_bounds(w0, thresh)
    starts, sizes = bounds[:-1].tolist(), np.diff(bounds).tolist()
    eigenvalues = w0[starts]
    # adjacent levels of one cluster, and the drift bound of each level
    close0 = np.ones(max(dim - 1, 0), dtype=bool)
    close0[bounds[1:-1] - 1] = False
    drift_tol = SPECTRUM_DRIFT * (1 + np.abs(w0))
    # the blocks, by position in ``starts``: the non-degenerate ones and
    # their columns, and the degenerate ones of each size with their
    # column slices
    single = [b for b, d in enumerate(sizes) if d == 1]
    single_cols = np.array([starts[b] for b in single], dtype=int)
    groups = [([b for b, size in enumerate(sizes) if size == d],
               [slice(st, st + d) for st, size in zip(starts, sizes)
                if size == d]) for d in sorted(set(sizes) - {1})]

    frames = np.empty((n_pts, dim, dim), dtype=complex)
    frames[0] = v0
    prev = v0                            # the last row's raw eigenvectors
    phase = np.ones(single_cols.size, dtype=complex)     # p_{k-1}
    gauge = [np.eye(cols[0].stop - cols[0].start, dtype=complex)
             for _, cols in groups]      # R_{k-1}, broadcast over blocks
    min_overlap = 1.0

    for k0, k1 in _chunk_bounds(invariant, 1, _FRAME_CHUNK_BYTES):
        w, v = linalg.eigh(hermitize(invariant.rows(k0, k1)),
                           check_hermitian=False)
        back = np.concatenate([prev[None], v[:-1]])   # raw row k - 1
        least = np.empty((k1 - k0, len(sizes)))       # overlap per block
        overlap = np.einsum("kij,kij->kj", back[:, :, single_cols].conj(),
                            v[:, :, single_cols])
        least[:, single] = np.abs(overlap)
        polars = []
        for bs, cols in groups:
            m = np.stack([back[:, :, c].conj().swapaxes(1, 2) @ v[:, :, c]
                          for c in cols], axis=1)
            left, sv, right = np.linalg.svd(m)
            least[:, bs] = sv[..., -1]
            polars.append((left @ right).conj().swapaxes(-1, -2))
        crossed = ((w[:, 1:] - w[:, :-1] < thresh) != close0).any(axis=1)
        drifted = (np.abs(w - w0) > drift_tol).any(axis=1)
        small = least < 0.5
        failed = crossed | drifted | small.any(axis=1)
        if failed.any():
            j = int(np.argmax(failed))
            _frame_failure(grid, k0 + j, w[j], thresh, sizes, crossed[j],
                           drifted[j], small[j], least[j], eigenvalues)
        min_overlap = min(min_overlap, float(least.min()))

        out = frames[k0:k1]
        out[...] = v
        chain = np.cumprod(overlap.conj() / least[:, single], axis=0) * phase
        chain /= np.abs(chain)
        out[:, :, single_cols] *= chain[:, None, :]
        phase = chain[-1]
        for g, ((_, cols), adjoint) in enumerate(zip(groups, polars)):
            run = np.empty_like(adjoint)         # R_k = P_k^H R_{k-1}
            r = gauge[g]
            for i, p_h in enumerate(adjoint):
                r = run[i] = p_h @ r
            gauge[g] = r
            for j, c in enumerate(cols):
                out[:, :, c] = v[:, :, c] @ run[:, j]
        prev = v[-1].copy()

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
                phases, q = linalg.unitary_schur(linalg.polar_unitary(hol))
                frames[:, :, sl] = frames[:, :, sl] @ linalg.spectral_exp(
                    -phases, q, ks / n_iv)
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
    defects = _commutator_defects(invariant.samples, x.samples(grid))
    k = int(np.argmax(~(defects <= rel_tol)))   # a NaN defect fails too
    if not defects[k] <= rel_tol:
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


#: the largest truncation constant of those stencils, the one-sided
#: endpoint stencil's: its error is ``h^4 / 5 * f^(5)``
_D1_TRUNCATION = 1.0 / 5.0


def frame_derivative_error(frames: np.ndarray, h: float) -> float:
    """Estimated Frobenius error of :func:`frame_derivative`'s non-periodic
    stencils on ``frames``, at worst over the grid.

    The truncation term is the endpoint stencil's constant times
    ``h^4 * max ||f^(5)||``, with ``f^(5)`` estimated by the fifth
    differences of ``frames`` over ``h^5``; it shrinks as ``h^4`` with the
    step.  The rounding term is ``eps * max ||f||`` times the endpoint
    stencil's gain ``sum |c| / h``.  The fifth differences of the samples
    also carry their noise, so neither term assumes exact samples.
    """
    fifth = np.diff(frames, n=5, axis=0)
    truncation = _D1_TRUNCATION * float(
        np.linalg.norm(fifth, axis=(1, 2)).max()) / h
    gain = float(np.abs(_D1_EDGE[0][0]).sum()) / h
    rounding = gain * np.finfo(float).eps * float(
        np.linalg.norm(frames, axis=(1, 2)).max())
    return truncation + rounding


def frame_derivative(frames: np.ndarray, h: float,
                     periodic: bool) -> np.ndarray:
    """d/dt of a matrix series by 5-point 4th-order stencils.

    Periodic series (last sample equal to the first) use wraparound
    stencils everywhere; otherwise one-sided 4th-order stencils cover the
    two points at each end.  Each stencil term is formed in one reused
    temporary and the sums run in place, so the extra memory is one
    series, not three.
    """
    n_pts = frames.shape[0]
    if n_pts < 5:
        raise GridTooCoarse("4th-order differentiation needs >= 5 points")
    out = np.zeros_like(frames)
    if periodic:
        n_iv = n_pts - 1  # frames[n_iv] == frames[0]
        term = np.empty_like(frames)
        for c, off in zip(_D1_INTERIOR, range(-2, 3)):
            if c != 0.0:
                # mode="clip": the indices are in range, and the default
                # mode="raise" would take into a buffer before ``term``
                np.take(frames, (np.arange(n_pts) + off) % n_iv, axis=0,
                        out=term, mode="clip")
                term *= c
                out += term
        out /= h
        return out
    # (f[k-2] - 8 f[k-1] + 8 f[k+1] - f[k+2]) / (12 h), in place
    inner = out[2:-2]
    term = np.multiply(frames[1:-3], 8)
    np.subtract(frames[:-4], term, out=inner)
    np.multiply(frames[3:-1], 8, out=term)
    inner += term
    inner -= frames[4:]
    inner /= 12 * h
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
    k = int(np.argmax(~(defects <= bound)))     # a NaN defect fails too
    if not defects[k] <= bound:
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
