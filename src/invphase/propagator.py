"""Unitary propagation of the operator Schrodinger equation.

Integrates ``i dU/dt = H(t) U(t)`` with a commutator-free fourth-order
exponential integrator (two Gauss-node exponentials per step, each computed
spectrally so every factor is exactly unitary), estimates the local error by
step-doubling, composes evolution operators of geometrically equivalent
systems, and detects evolution loops ``U(t) = c * identity``.

One kernel, :func:`propagate`, computes the evolution operator of
:func:`evolve`, the symmetry factor ``V`` of :func:`compose_geq` and the
block evolutions ``u^n`` of :func:`invphase.phases.solve_un`, which steps
every block of the invariant in one call.  The one other time-ordered
exponential of the package is the holonomy of
:func:`invphase.phases.nonabelian_holonomy`, a second-order midpoint product
over the stored grid with one stacked exponential per step and block size.

Design notes
------------
* Time step for interval ``[t0, t0+h]``::

      H1 = H(t0 + (1/2 - sqrt(3)/6) h),  H2 = H(t0 + (1/2 + sqrt(3)/6) h)
      step = exp(-i h (a2 H1 + a1 H2)) @ exp(-i h (a1 H1 + a2 H2))

  with ``a1 = 1/4 + sqrt(3)/6`` and ``a2 = 1/4 - sqrt(3)/6``.  For constant
  ``H`` this collapses to ``exp(-i h H)`` exactly.
* Local error per step is ``||step_coarse - step_fine||_F`` (unitarily
  invariant, so no reference propagator is needed); the fine value is kept.
  Intervals whose estimate exceeds ``tol`` are split recursively, and each
  half takes the parent's fine half-step as its coarse step.
* Gauss samples ahead of the product: the six first-level nodes of an
  interval (the coarse step's two and each half step's two) depend on
  ``H`` only, never on ``U`` (Blanes, Casas, Oteo & Ros, Phys. Rep. 470
  (2009) 151), so the kernel samples a chunk of intervals' nodes, about
  64 KiB of dense samples, in one :meth:`HamiltonianSchedule.parts_many`
  call, with the float expressions of the on-demand sampling, and then
  steps the chunk.  Nodes below the first split level are sampled on demand.
  The exponentials stay one :func:`invphase.linalg.expm_igen` call each:
  each is one LAPACK solve however it is batched, and
  ``perfbench/selftest.py`` pins one ``linalg.eigh`` call per exponential.
* Many-times sampler: every schedule evaluates a sequence of times in one
  call (:meth:`HamiltonianSchedule.samples`), each row with the bits of
  its one-time sample; the kernel's nodes, the periodicity check,
  :func:`invphase.phases.project`, the LvN defect of a varying ``H`` and
  the symmetry checks read ``H`` through it.
* Drift policy: after each interval the accumulated product is
  re-unitarized (polar factor) when ``||U U^H - 1||_F > 1e-12``; the largest
  defect seen is reported as ``drift_max``.
* Block partition: each schedule fixes, when it is built, the connected
  blocks of a nonzero pattern that covers its samples (``blocks``, from
  :func:`invphase.linalg.block_partition`; none for one component).
  Commutator-free exponential integrators keep any structure the
  generator keeps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151),
  so the kernel steps each block size as one stack, with the same CF4
  method; each stacked exponential is one :func:`invphase.linalg.eigh`
  call on the stack.  Error estimate and drift are the whole-matrix
  Frobenius norms ``sqrt(sum_b x_b^2)``, so ``tol`` keeps its meaning.  A
  coupling is never dropped: a callable schedule checks every sample
  against its partition, and the first sample outside it collapses the
  partition to one component and restarts the integration densely.
* Parts: the kernel holds every matrix as its parts, one ``(k, n, n)``
  stack per block size (the matrix itself for one component).  A
  tabulated schedule stores and interpolates its table as parts, so a
  block-diagonal one (:meth:`HamiltonianSchedule.from_blocks`) never forms
  a dense ``dim x dim`` matrix on the stepping path, and :func:`propagate`
  returns its kept rows as parts; :func:`evolve` and :func:`compose_geq`
  scatter them into dense samples.
* Closed forms bypass the stepper: a constant schedule has
  ``U(t) = exp(-i t H)`` from a single eigendecomposition, and a cranked
  schedule ``e^{-iKt} H0 e^{iKt}`` has the exact ``U(t) = e^{-iKt}
  e^{-i(H0-K)t}`` of :class:`CrankedSystem`.
* No interpolation between stored grid points is offered; consumers sample
  on the grid.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    SymmetryViolation,
    ToleranceNotMet,
)
from .linalg import OperatorMatrix, expm_igen, frob, hermitize

__all__ = [
    "CrankedSystem",
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

#: uniform times of the first period at which a declared period is checked
_PERIOD_PROBES = 32

#: bytes of dense samples that one many-times sampler call of the stepping
#: kernel (six first-level Gauss nodes per interval) or of the periodicity
#: check reads
_SAMPLE_CHUNK_BYTES = 1 << 16


class CrankedSystem:
    """Constant data of a cranked Hamiltonian ``e^{-iKt} H0 e^{iKt}``.

    The one home of the cranked closed forms: :meth:`rotate` gives the
    Hamiltonian and the invariant, :meth:`evolution` the exact evolution
    operator ``U(t) = e^{-iKt} e^{-i I0 t}``, both from eigendecompositions
    of ``K`` and ``I0`` that are computed once, on first use.
    :meth:`HamiltonianSchedule.cranked` and the functions of
    :mod:`invphase.cranked` read them from here.

    The inputs are gated here, where outside data enters; everything built
    from them is Hermitian or unitary by construction and is returned
    without further checks.

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

    def _expk(self, t) -> np.ndarray:
        """``exp(-1j * t * K)`` from the cached eigendecomposition of K."""
        if self._k_eig is None:
            self._k_eig = linalg.eigh(self.k.array, check_hermitian=False)
        return linalg.spectral_exp(*self._k_eig, t)

    def _expi0(self, t) -> np.ndarray:
        """``exp(-1j * t * I0)`` from the cached eigendecomposition of I0."""
        if self._i0_eig is None:
            self._i0_eig = linalg.eigh(self.i0.array, check_hermitian=False)
        return linalg.spectral_exp(*self._i0_eig, t)

    def rotate(self, x: np.ndarray, t) -> np.ndarray:
        """Hermitian ndarray ``e^{-iKt} X e^{iKt}`` of a Hermitian ndarray
        X: one matrix for a float ``t``, a stack over the times of a 1-D
        array ``t`` (one stacked exponential, batched products, and each
        matrix with the bits of its time's own call)."""
        e = self._expk(t if np.ndim(t) else float(t))
        return hermitize(e @ x @ e.conj().swapaxes(-1, -2))

    def evolution(self, t) -> np.ndarray:
        """Exact ``U(t) = e^{-iKt} e^{-i I0 t}``, which solves
        ``i dU/dt = H(t) U`` with ``U(0) = 1``; one matrix for a float
        ``t``, a stack over the times of an array ``t``.  Both factors are
        spectral exponentials, so each result is unitary to machine
        precision."""
        return self._expk(t) @ self._expi0(t)

    def __repr__(self):
        return f"CrankedSystem(dim={self.dim})"


class HamiltonianSchedule:
    """Time-dependent Hermitian generator ``t -> H(t)``.

    Construct through one of the classmethods:

    * :meth:`constant` -- a fixed Hermitian matrix,
    * :meth:`cranked` -- ``e^{-iKt} H0 e^{iKt}``, whose ``U(t)`` is exact,
    * :meth:`from_callable` -- an arbitrary smooth map ``t -> matrix``,
    * :meth:`from_terms` -- ``H(t) = sum_j c_j(t) M_j``, real coefficient
      functions of fixed Hermitian matrices,
    * :meth:`from_samples` -- matrices tabulated on a uniform grid,
      interpolated with cubic Lagrange stencils (periodic wraparound when
      the table spans one declared period),
    * :meth:`from_blocks` -- one such table per diagonal block.

    Each constructor builds its evaluation function once, a many-times
    sampler: :meth:`samples` calls it on a sequence of times,
    :meth:`parts_many` gives the result as the kernel's parts, and
    :meth:`sample` and :meth:`parts_at` are its one-time calls.  It does
    per call what a per-time sampler would do per time: a cranked schedule
    takes one stacked exponential and batched products, a callable one
    stacked Hermiticity gate and partition check after one call of the
    callable per time, a term schedule sums ``c_j M_j`` in term order
    over a time axis, and a table interpolates every time at once.
    :func:`propagate`'s first-level Gauss nodes, the periodicity check,
    :func:`invphase.phases.project`, the LvN defect of a varying ``H`` and
    the symmetry checks read ``H`` through it.  The structure a kernel
    exploits is plain data:

    * ``base`` is the read-only matrix of a constant schedule and ``None``
      for every other schedule, a one-term schedule included, which
      :func:`propagate` steps like any callable;
    * ``crank`` is the :class:`CrankedSystem` of a cranked schedule, whose
      exact evolution :func:`propagate` takes, and ``None`` for every
      other schedule;
    * ``blocks`` is the block partition, fixed on construction by
      :func:`invphase.linalg.block_partition` from a nonzero pattern: the
      declared blocks of :meth:`from_blocks`, or the union pattern of the
      table (:meth:`from_samples`, exact: interpolants combine table
      rows), of the terms (:meth:`from_terms`, exact: samples combine the
      terms) or of the probes (:meth:`from_callable`: ``t = 0`` and the
      periodicity probes).  It holds, for each block size ``n`` in
      ascending order, a ``(k, n, n)`` array of the flat indices
      ``i * dim + j`` of the ``k`` blocks of that size; it is ``None`` for
      one component and for a constant or a cranked schedule.
      A callable schedule checks every sample to be exactly zero outside
      its partition; a sample that is not sets ``blocks`` to ``None`` for
      good, so no coupling is ever dropped.

    Parameters validated on construction: every term matrix, every
    tabulated sample, and every sample a callable returns, is Hermitian
    (defect at most ``1e-12 * max(1, max|H|)``), a declared ``period`` is
    finite and positive, and when one is declared, ``H(t + T)`` and
    ``H(t)`` agree at each of 32 uniform times ``t = 0, T/32, ...,
    31 T/32`` of the first period: ``||H(t+T) - H(t)||_F`` is at most
    ``1e-10`` times the largest ``||H||_F`` among the probed samples (the
    whole table of a sampled schedule), so a schedule that vanishes at a
    probe point still passes.
    """

    def __init__(self):
        raise TypeError(
            "use HamiltonianSchedule.constant / .cranked / .from_callable / "
            ".from_terms / .from_samples / .from_blocks")

    @classmethod
    def _make(cls, many, dim, period, label, base=None):
        obj = object.__new__(cls)
        obj._many = many
        obj.dim = int(dim)
        obj.period = period
        obj.label = label
        obj.base = base
        obj.crank = None
        obj.blocks = None
        obj._table = None
        return obj

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, matrix, *, label="constant"):
        """Schedule for a time-independent Hermitian ``matrix``."""
        arr = linalg.require_hermitian(matrix, "constant matrix")
        arr.setflags(write=False)
        return cls._make(
            lambda times: np.broadcast_to(arr, (len(times),) + arr.shape),
            arr.shape[0], None, label, base=arr)

    @classmethod
    def cranked(cls, h0, k, *, label="cranked"):
        """Cranked schedule ``H(t) = e^{-iKt} H0 e^{iKt}``.

        ``H0`` and ``K`` are gated once, by :class:`CrankedSystem`, which
        the schedule keeps as ``crank``.  A sample has the bits of
        :meth:`CrankedSystem.rotate` and no further check: a unitary
        conjugate of a Hermitian matrix is Hermitian.
        """
        crank = CrankedSystem(h0, k)
        h0 = crank.h0.array
        obj = cls._make(lambda times: crank.rotate(h0, times), crank.dim,
                        None, label)
        obj.crank = crank
        return obj

    @classmethod
    def from_callable(cls, fn, dim, *, period=None, label="callable"):
        """Schedule wrapping ``fn(t) -> (dim, dim) Hermitian array``.

        The partition is the union pattern of the probes the constructor
        makes (``t = 0`` and the periodicity probes).  Every later sample
        is checked to be zero outside it; the first one that is not
        collapses the partition to one component for good.  Many times
        call ``fn`` once per time, then gate the stack at once; the first
        non-Hermitian sample raises the gate's message, naming ``H(t)``.
        """
        outside = None

        def samples(times):
            nonlocal outside
            raw = np.empty((len(times), obj.dim, obj.dim), dtype=complex)
            for k, t in enumerate(times):
                m = linalg.as_matrix(fn(t))
                if m.shape != raw.shape[1:]:
                    raise DimensionMismatch(
                        f"H({t}) has shape {m.shape}, expected "
                        f"({obj.dim}, {obj.dim})")
                raw[k] = m
            h = linalg.require_hermitian_stack(raw, lambda k: f"H({times[k]})")
            if outside is not None and np.count_nonzero(
                    h.reshape(len(h), -1)[:, outside]):
                obj.blocks = outside = None   # never drop a coupling
            return h

        obj = cls._make(samples, dim, cls._check_period(period), label)
        pattern = (obj.sample(0.0) != 0) | obj._check_periodicity()
        obj.blocks = linalg.block_partition(pattern)
        if obj.blocks is not None:
            outside = np.flatnonzero(~linalg.block_mask(obj.blocks, obj.dim))
        return obj

    @classmethod
    def from_terms(cls, terms, *, period=None, label="terms"):
        """Schedule ``H(t) = c_0(t) M_0 + c_1(t) M_1 + ...`` over
        ``(c_j, M_j)`` pairs of real coefficient functions and Hermitian
        matrices of one dimension.

        Each ``M_j`` is gated once, named ``term j``; a real combination of
        Hermitian matrices is Hermitian, so the samples, summed in term
        order (one term gives ``float(c_0(t)) * M_0``), need no further
        check.  The partition is that of the terms' union nonzero pattern,
        exact for every sample.
        """
        terms = list(terms)
        if not terms:
            raise DimensionMismatch("a term schedule needs a term")
        coeffs = [c for c, _ in terms]
        mats = [linalg.require_hermitian(m, f"term {j}")
                for j, (_, m) in enumerate(terms)]
        for j, (c, m) in enumerate(zip(coeffs, mats)):
            if m.shape != mats[0].shape:
                raise DimensionMismatch(
                    f"term {j} has dim {m.shape[0]}, term 0 has dim "
                    f"{mats[0].shape[0]}")
            value = c(0.0)
            if not (np.isrealobj(value) and np.ndim(value) == 0):
                raise TypeError(f"term {j}: coefficient must be a real "
                                f"number, got {value!r}")

        def samples(times):
            def column(c):
                return np.array([float(c(t)) for t in times])[:, None, None]
            h = column(coeffs[0]) * mats[0]
            for c, m in zip(coeffs[1:], mats[1:]):
                h += column(c) * m
            return h

        obj = cls._make(samples, mats[0].shape[0], cls._check_period(period),
                        label)
        obj._check_periodicity()
        obj.blocks = linalg.block_partition(
            np.logical_or.reduce([m != 0 for m in mats]))
        return obj

    @classmethod
    def from_samples(cls, grid, samples, *, period=None, label="sampled"):
        """Schedule from Hermitian matrices tabulated on a uniform grid.

        ``grid`` must be uniform, start at 0 and be strictly increasing.
        Evaluation uses 4-point cubic Lagrange interpolation; when
        ``period == grid[-1]`` the stencil wraps around periodically and
        arbitrary ``t`` is reduced modulo the period.  The table is kept
        as the parts of its partition, as :meth:`from_blocks` keeps its
        blocks: the partition of the samples' union nonzero pattern, and
        each part gathered from a sample's gated Hermitian part.
        """
        raw = np.asarray(samples, dtype=complex)
        grid = _table_grid(grid, raw.shape[0])
        if raw.ndim != 3 or raw.shape[1] != raw.shape[2]:
            raise DimensionMismatch(
                f"samples have shape {raw.shape}, expected "
                f"({grid.size}, d, d)")
        # interpolants combine table rows, so the union pattern covers them
        # all; a sample's Hermitian part is nonzero only where the sample
        # or its transpose is, and a block holds both (i, j) and (j, i)
        pattern = np.zeros(raw.shape[1:], dtype=bool)
        for sample in raw:
            pattern |= sample != 0
        blocks = linalg.block_partition(pattern)
        index = blocks
        if index is None:                # one part, the whole matrix
            index = (np.arange(raw[0].size).reshape(raw.shape[1:]),)
        # the gate, sample by sample: its Hermitian part fills the parts,
        # which are never formed beside a Hermitized table, and gives the
        # largest norm and the first and last rows the closure test reads
        table = [np.empty((grid.size,) + idx.shape, dtype=complex)
                 for idx in index]
        scale = 0.0
        for k, sample in enumerate(raw):
            h = linalg.require_hermitian(sample, f"sample {k}")
            for part, idx in zip(table, index):
                part[k] = h.take(idx)
            scale = max(scale, frob(h))
            if k == 0:
                first = h
        period = _table_period(grid, period)
        defect = frob(h - first)
        if period is not None and not defect <= 1e-10 * max(scale, 1e-300):
            raise ValueError(
                f"samples at t=0 and t=period differ by {defect:.3e}")
        obj = cls._make(None, raw.shape[1], period, label)
        obj.blocks = blocks
        return obj._tabulate(grid, table)

    @classmethod
    def from_blocks(cls, grid, series, *, period=None, label="blocks"):
        """Block-diagonal schedule from per-block tables on a uniform grid.

        ``series`` holds one ``(len(grid), d_b, d_b)`` table of Hermitian
        matrices per diagonal block, in diagonal order.  The blocks are the
        partition, exact by construction, and no dense ``dim x dim``
        sample is stored: the tables are kept grouped by block size, as
        the kernel steps them.  Grid, interpolation and the Hermiticity
        gate are those of :meth:`from_samples`; with a ``period``, every
        block's table must close by itself (last sample equal to the first
        to 1e-10 of that table's largest norm).
        """
        tables = [np.asarray(s, dtype=complex) for s in series]
        if not tables:
            raise DimensionMismatch("a block schedule needs a block")
        grid = _table_grid(grid, tables[0].shape[0])
        for n, s in enumerate(tables):
            if (s.ndim != 3 or s.shape[0] != grid.size
                    or s.shape[1] != s.shape[2] or s.shape[1] == 0):
                raise DimensionMismatch(
                    f"block {n} has shape {s.shape}, expected "
                    f"({grid.size}, d, d) with d >= 1")
        period = _table_period(grid, period)
        sizes = [s.shape[1] for s in tables]
        groups = linalg.size_groups(sizes)
        parts = [np.empty((grid.size, len(members), d, d), dtype=complex)
                 for d, members in groups]
        for part, (d, members) in zip(parts, groups):
            for j, n in enumerate(members):
                for k, sample in enumerate(tables[n]):
                    part[k, j] = linalg.require_hermitian(
                        sample, f"block {n} sample {k}")
                if period is not None and not _closes(part[:, j]):
                    raise ValueError(
                        f"block {n}: samples at t=0 and t=period differ "
                        f"by {frob(part[-1, j] - part[0, j]):.3e}")
        obj = cls._make(None, sum(sizes), period, label)
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        obj.blocks = linalg.block_partition(block_of[:, None] == block_of)
        if obj.blocks is None:           # one declared block
            return obj._tabulate(grid, [parts[0][:, 0]])
        return obj._tabulate(grid, parts)

    def _tabulate(self, grid, table):
        """Keep ``table``, one ``(len(grid), ...)`` array per part, as the
        interpolated source of every sample."""
        table = tuple(table)
        self._table = (grid, table)
        # no reference to self: the schedule and its table are freed as
        # soon as the last caller lets go, not at the next cyclic collection
        blocks, dim, period = self.blocks, self.dim, self.period
        self._many = lambda times: linalg.dense(
            _interp(grid, table, period, times), blocks, dim)
        return self

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_period(period):
        if period is None:
            return None
        period = float(period)
        if not 0 < period < math.inf:
            raise ValueError(
                f"period must be finite and positive, got {period}")
        return period

    def _check_periodicity(self) -> np.ndarray:
        """Compare ``H(t)`` and ``H(t + period)`` at ``_PERIOD_PROBES``
        uniform times ``t`` of the first period, read by :meth:`samples`
        in batches of about ``_SAMPLE_CHUNK_BYTES``; returns the union
        nonzero pattern of the probed samples (all False without a
        period)."""
        pattern = np.zeros((self.dim, self.dim), dtype=bool)
        if self.period is None:
            return pattern
        times = self.period * np.arange(_PERIOD_PROBES) / _PERIOD_PROBES
        per = max(1, _SAMPLE_CHUNK_BYTES // (16 * self.dim ** 2))
        norms, defects = [], []
        for k0 in range(0, _PERIOD_PROBES, per):
            first = self.samples(times[k0:k0 + per])
            later = self.samples(times[k0:k0 + per] + self.period)
            for probes in (first, later):
                pattern |= (probes != 0).any(axis=0)
                norms.append(np.linalg.norm(probes, axis=(1, 2)))
            defects.append(np.linalg.norm(later - first, axis=(1, 2)))
        ref = max(float(np.concatenate(norms).max()), 1e-300)
        defects = np.concatenate(defects)
        bad = ~(defects <= 1e-10 * ref)          # a NaN defect fails too
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"declared period {self.period} violated at t={times[k]}: "
                f"relative defect {defects[k] / ref:.3e}")
        return pattern

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    @property
    def is_constant(self) -> bool:
        return self.base is not None

    def sample(self, t: float) -> np.ndarray:
        """Dense Hermitian ndarray H(t): row 0 of :meth:`samples` at
        ``[t]``."""
        return self._many(np.array([t], dtype=float))[0]

    def samples(self, times) -> np.ndarray:
        """``H(t)`` at each of a 1-D sequence of ``times``, as one
        ``(len(times), dim, dim)`` stack (a constant schedule gives a
        read-only broadcast of its ``base``)."""
        return self._many(times)

    def parts_at(self, t: float, blocks) -> tuple:
        """``H(t)`` as the kernel's parts for the partition ``blocks``
        (``schedule.blocks``, or ``None`` for the whole matrix): row 0 of
        :meth:`parts_many` at ``[t]``."""
        return tuple(p[0] for p in self.parts_many(np.array([t], dtype=float),
                                                  blocks))

    def parts_many(self, times, blocks) -> tuple:
        """``H(t)`` at each of a 1-D sequence of ``times`` as the kernel's
        parts, each with a leading time axis.

        A tabulated schedule interpolates its stored parts, whose
        partition is its own, so it never forms the dense matrix.  Any
        other schedule gathers the parts from :meth:`samples`, which keeps
        a callable's check of its partition.
        """
        if self._table is None:
            return linalg.parts(self.samples(times), blocks)
        grid, table = self._table
        return _interp(grid, table, self.period, times)

    def __repr__(self):
        return (f"HamiltonianSchedule(dim={self.dim}, "
                f"period={self.period}, label={self.label!r})")


def _table_grid(grid, n_rows: int) -> np.ndarray:
    """The grid of a tabulated schedule with ``n_rows`` samples, checked:
    at least 4 points, one per sample, uniform, from 0, increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 4:
        raise GridTooCoarse(
            "sampled schedule needs at least 4 grid points")
    if n_rows != grid.size:
        raise DimensionMismatch(
            f"{n_rows} samples for {grid.size} grid points")
    deltas = np.diff(grid)
    if grid[0] != 0.0 or np.any(deltas <= 0):
        raise ValueError("grid must start at 0 and strictly increase")
    if not np.allclose(deltas, deltas[0], rtol=1e-10, atol=0.0):
        raise ValueError("sampled schedule requires a uniform grid")
    return grid


def _table_period(grid: np.ndarray, period):
    """The checked ``period`` of a table on ``grid``: ``None``, or the
    span of the grid (one period exactly)."""
    period = HamiltonianSchedule._check_period(period)
    if period is not None and not np.isclose(period, grid[-1], rtol=1e-12):
        raise ValueError(
            "periodic sampled schedule must be tabulated over "
            "exactly one period")
    return period


def _interp(grid: np.ndarray, table: tuple, period, t) -> tuple:
    """Cubic Lagrange interpolation on the uniform ``grid`` of each part
    of ``table`` (one array per part, rows along the first axis) at each
    of a 1-D sequence of times ``t``, a leading time axis of each part;
    the stencil and its weights are computed once for all parts, and row
    ``k`` has the bits of an interpolation at ``t[k]`` alone.
    """
    n_iv = grid.size - 1
    step = grid[1] - grid[0]
    t = np.asarray(t, dtype=float)
    if period is not None:
        t = t % period
    s = t / step
    j0 = np.floor(s).astype(int)
    u = s - j0
    if period is not None:
        idx = [(j0 + off) % n_iv for off in (-1, 0, 1, 2)]
    else:
        out = (t < grid[0] - 1e-9 * step) | (t > grid[-1] + 1e-9 * step)
        if out.any():
            raise ValueError(
                f"t={t[int(np.argmax(out))]} outside tabulated range "
                f"[0, {grid[-1]}]")
        j0 = np.clip(j0, 1, n_iv - 2)
        u = s - j0
        idx = [j0 - 1, j0, j0 + 1, j0 + 2]
    w = (
        -u * (u - 1.0) * (u - 2.0) / 6.0,
        (u * u - 1.0) * (u - 2.0) / 2.0,
        -u * (u + 1.0) * (u - 2.0) / 2.0,
        u * (u * u - 1.0) / 6.0,
    )
    # real weights on rows of Hermitized tables: each sum is Hermitian, and
    # the sums are elementwise, so a part has the bits of the dense entries;
    # a zero weight past the first adds nothing, not even a signed zero
    skip = [c == 0.0 for c in w[1:]]
    out = []
    for rows in table:
        axes = (-1,) + (1,) * (rows.ndim - 1)
        x = w[0].reshape(axes) * rows[idx[0]]
        for c, j, zero in zip(w[1:], idx[1:], skip):
            if not zero.any():
                x += c.reshape(axes) * rows[j]
            elif not zero.all():
                np.add(x, c.reshape(axes) * rows[j], out=x,
                       where=~zero.reshape(axes))
        out.append(x)
    return tuple(out)


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


def _path_grid(grid) -> np.ndarray:
    """The grid of a sampled path as a float array: ``DimensionMismatch``
    unless it is a non-empty 1-D array, ``ValueError`` unless it is finite
    and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatch(
            "empty grid: a path needs at least one point"
            if grid.size == 0 else "grid must be a 1-D array")
    if not np.isfinite(grid).all() or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be finite and strictly increase")
    return grid


def _path_arrays(grid, samples):
    """``(grid, samples)`` of a sampled path as float and complex arrays.

    Raises :class:`DimensionMismatch` unless ``grid`` is a non-empty 1-D
    array and ``samples`` one square, non-empty matrix per grid point, and
    ``ValueError`` unless ``grid`` is finite and strictly increasing.
    """
    grid = _path_grid(grid)
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 3 or samples.shape[0] != grid.size:
        raise DimensionMismatch("grid and samples are inconsistent")
    if samples.shape[1] != samples.shape[2] or samples.shape[1] == 0:
        raise DimensionMismatch(
            f"samples must be non-empty square matrices, got shape "
            f"{samples.shape[1:]}")
    return grid, samples


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
        grid, samples = _path_arrays(grid, samples)
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
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


def _products(left: tuple, right: tuple) -> tuple:
    return tuple(a @ b for a, b in zip(left, right))


def _frob_parts(parts) -> float:
    """Frobenius norm of the block-diagonal matrix the parts make up."""
    return math.hypot(*(np.linalg.norm(p) for p in parts))


def _cf4(x1: tuple, x2: tuple, h: float) -> tuple:
    """One commutator-free 4th-order step of length ``h`` (exactly
    unitary) from the parts ``x1`` and ``x2`` of ``H`` at its two Gauss
    nodes, as parts."""
    return tuple(
        expm_igen(_CF4_A2 * a + _CF4_A1 * b, h, check_hermitian=False)
        @ expm_igen(_CF4_A1 * a + _CF4_A2 * b, h, check_hermitian=False)
        for a, b in zip(x1, x2))


def _cf4_step(schedule, blocks, t0: float, h: float) -> tuple:
    """One CF4 step over [t0, t0+h], sampling its two Gauss nodes."""
    return _cf4(schedule.parts_at(t0 + _GAUSS_C1 * h, blocks),
                schedule.parts_at(t0 + _GAUSS_C2 * h, blocks), h)


def _node_times(t0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The six first-level Gauss nodes of each interval ``[t0, t0 + h]``,
    ``(len(t0), 6)``: the coarse step's two, then the first and the second
    half step's two, with the float expressions of :func:`_cf4_step`."""
    half = 0.5 * h
    mid = t0 + half
    return np.stack([t0 + _GAUSS_C1 * h, t0 + _GAUSS_C2 * h,
                     t0 + _GAUSS_C1 * half, t0 + _GAUSS_C2 * half,
                     mid + _GAUSS_C1 * half, mid + _GAUSS_C2 * half], axis=1)


def _adaptive_step(schedule, blocks, t0, h, tol, coarse=None, depth=0,
                   nodes=None):
    """Step-doubled CF4 over [t0, t0+h]: returns (transfer, error-estimate).

    ``nodes`` holds the parts of ``H`` at the six Gauss nodes of
    :func:`_node_times` when the caller sampled them ahead; otherwise they
    are sampled here.  ``coarse`` is the CF4 step over the whole interval
    when the caller already has it: a split passes each half its own fine
    half-step, and the halves sample their nodes on demand.
    """
    if nodes is not None:
        coarse = _cf4(nodes[0], nodes[1], h)
        first = _cf4(nodes[2], nodes[3], 0.5 * h)
        second = _cf4(nodes[4], nodes[5], 0.5 * h)
    else:
        if coarse is None:
            coarse = _cf4_step(schedule, blocks, t0, h)
        first = _cf4_step(schedule, blocks, t0, 0.5 * h)
        second = _cf4_step(schedule, blocks, t0 + 0.5 * h, 0.5 * h)
    fine = _products(second, first)
    err = _frob_parts(c - f for c, f in zip(coarse, fine))
    if err <= tol:
        return fine, err
    if depth >= _MAX_SPLIT_DEPTH:
        raise ToleranceNotMet(
            f"local error {err:.3e} > tol {tol:.3e} at t={t0:.6g} after "
            f"{_MAX_SPLIT_DEPTH} interval splits (schedule too stiff or "
            f"grid too coarse)")
    tl, el = _adaptive_step(schedule, blocks, t0, 0.5 * h, tol, first,
                            depth + 1)
    tr, er = _adaptive_step(schedule, blocks, t0 + 0.5 * h, 0.5 * h, tol,
                            second, depth + 1)
    return _products(tr, tl), max(el, er)


def propagate(schedule: HamiltonianSchedule, grid: np.ndarray, tol: float,
              keep: np.ndarray):
    """Time-ordered exponential ``U(t) = Texp(-i int_0^t H)`` on a grid.

    The stepping kernel shared by :func:`evolve`, :func:`compose_geq` and
    :func:`invphase.phases.solve_un`.  A constant schedule is exponentiated
    spectrally at each kept time, and a cranked schedule takes its exact
    ``e^{-iKt} e^{-i I0 t}`` (:meth:`CrankedSystem.evolution`); both
    report ``err_max = drift_max = 0``.  Any other schedule is advanced by
    one step-doubled CF4 step per interval ``[grid[k], grid[k+1]]`` (split
    recursively until the estimate meets ``tol``), and the running product
    is re-unitarized whenever ``||U U^H - 1||_F > 1e-12``.

    A schedule with ``blocks`` is stepped block by block: ``U`` is then
    exactly block-diagonal, and the error estimate and the unitarity
    defect are the Frobenius norms of the whole matrix,
    ``sqrt(sum_b x_b^2)``.  When a sample leaves the partition (the
    schedule collapses it), the integration restarts from ``t = 0`` on the
    whole matrix; a collapse seen while a chunk's Gauss nodes are sampled
    ahead restarts before that chunk is stepped.

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
    (rows, err_max, drift_max)
        ``rows`` holds ``U(grid[keep[row]])`` at ``[row]`` of each of the
        kernel's parts for ``schedule.blocks`` as it stands after the call
        (:func:`invphase.linalg.dense` makes the dense samples); then the
        largest local-error estimate, and the largest unitarity defect seen
        before any re-unitarization.

    Raises
    ------
    ToleranceNotMet
        If an interval still exceeds ``tol`` after maximal splitting.
    """
    if schedule.is_constant:
        samples = linalg.spectral_exp(
            *linalg.eigh(schedule.base, check_hermitian=False), grid[keep])
    elif schedule.crank is not None:
        samples = schedule.crank.evolution(grid[keep])
    else:
        return _stepped(schedule, grid, tol, keep)
    samples[0] = np.eye(schedule.dim)
    return (samples,), 0.0, 0.0


def _stepped(schedule, grid, tol, keep):
    """:func:`propagate` by step-doubled CF4 steps, for a schedule with no
    closed form.

    The first-level Gauss nodes of a chunk of intervals, about
    ``_SAMPLE_CHUNK_BYTES`` of dense samples, come from one
    :meth:`HamiltonianSchedule.parts_many` call before the chunk is
    stepped; a partition that collapses in that call restarts the
    integration densely before any of the chunk's steps.
    """
    blocks = schedule.blocks
    keep_set = {int(k): row for row, k in enumerate(keep)}
    u = linalg.parts(np.eye(schedule.dim, dtype=complex), blocks)
    rows = tuple(np.empty((keep.size,) + p.shape, dtype=complex) for p in u)
    for r, p in zip(rows, u):
        r[0] = p
    eyes = [np.eye(p.shape[-1]) for p in u]
    err_max = 0.0
    drift_max = 0.0
    per_chunk = max(1, _SAMPLE_CHUNK_BYTES // (6 * 16 * schedule.dim ** 2))
    n_iv = grid.size - 1
    for k0 in range(0, n_iv, per_chunk):
        k1 = min(k0 + per_chunk, n_iv)
        times = _node_times(grid[k0:k1], grid[k0 + 1:k1 + 1] - grid[k0:k1])
        nodes = schedule.parts_many(times.ravel(), blocks)
        if schedule.blocks is not blocks:    # a coupling outside the blocks
            return _stepped(schedule, grid, tol, keep)
        nodes = [p.reshape(times.shape + p.shape[1:]) for p in nodes]
        for k in range(k0, k1):
            h = grid[k + 1] - grid[k]
            transfer, err = _adaptive_step(
                schedule, blocks, grid[k], h, tol,
                nodes=[tuple(p[k - k0, j] for p in nodes) for j in range(6)])
            if schedule.blocks is not blocks:
                return _stepped(schedule, grid, tol, keep)
            u = _products(transfer, u)
            err_max = max(err_max, err)
            drift = _frob_parts(p @ p.conj().swapaxes(-1, -2) - eye
                                for p, eye in zip(u, eyes))
            drift_max = max(drift_max, drift)
            if drift > 1e-12:
                u = tuple(linalg.polar_unitary(p) for p in u)
            row = keep_set.get(k + 1)
            if row is not None:
                for r, p in zip(rows, u):
                    r[row] = p
    return rows, err_max, drift_max


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
        Final time, finite and > 0.
    steps : int, optional
        Number of grid intervals, an integral value (``64`` or ``64.0``).
        Defaults to 2048 per declared period (2048 total when no period is
        declared).
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
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if tol < linalg.TOL_FLOOR:
        raise ValueError(f"tol must be >= {linalg.TOL_FLOOR}")
    if steps is None:
        if schedule.period is not None:
            steps = DEFAULT_STEPS_PER_PERIOD * max(
                1, int(np.ceil(t_max / schedule.period - 1e-12)))
        else:
            steps = DEFAULT_STEPS_PER_PERIOD
    if not float(steps).is_integer() or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    steps = int(steps)

    grid = np.linspace(0.0, t_max, steps + 1)
    keep = _resolve_store(grid, store)
    rows, err_max, drift_max = propagate(schedule, grid, tol, keep)
    return UnitaryPath(grid[keep],
                       linalg.dense(rows, schedule.blocks, schedule.dim),
                       tol_achieved=err_max, drift_max=drift_max)


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
        ``I(0)``; when given, :func:`_commutator_defects` of ``I(0)`` and
        the stored ``Y(t)``, ``||[I(0), Y(t)]||_F / ||Y(t)||_F``, must be at
        most 1e-8 at every stored grid point.
    tol : float
        Local-error budget for the ``V`` integration.

    ``V`` comes from :func:`propagate` on ``path.grid`` for every ``Y``:
    spectral for a constant ``Y``, stepped under the error budget and the
    drift policy otherwise (a term schedule ``f(t) Y0`` included).

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
                                      y.samples(grid))
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

    v_rows, err_max, v_drift = propagate(y, grid, tol, np.arange(grid.size))
    out = np.einsum("kij,kjl->kil", path.samples,
                    linalg.dense(v_rows, y.blocks, y.dim))
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
