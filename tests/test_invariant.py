import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from invphase import invariant, linalg
from invphase.errors import (
    ComputeError,
    DegeneracyCrossing,
    DimensionMismatch,
    GridTooCoarse,
    NonHermitianInput,
    OverlapTooSmall,
    SymmetryViolation,
)
from invphase.invariant import (
    InvariantFrame,
    InvariantPath,
    build_geq,
    eigenframe,
    gauge_transform,
    hstar,
    lvn_defect,
    lvn_residual,
    symmetry_check,
    transport,
)
from invphase.linalg import (comm_norm, expm_igen, frob, hermitian_defects,
                             hermitize, polar_unitary, spectral_exp)
from invphase.propagator import (HamiltonianSchedule, UnitaryPath,
                                 compose_geq, evolve,
                                 uniform_spacing)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def integer_spectrum_hermitian(dim, seed):
    """Hermitian with spectrum 0..dim-1 so exp(-2 pi i K) = identity."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q @ np.diag(np.arange(dim, dtype=float)) @ q.conj().T


def cranked_setup(dim=6, steps=512, seed=0):
    """Cranked system with exactly periodic invariant (period 2 pi)."""
    k = integer_spectrum_hermitian(dim, seed)
    i0 = np.diag(np.linspace(0.5, 3.0, dim))  # distinct spectrum
    h0 = i0 + k

    def ham(t):
        u = expm_igen(k, t)
        return u @ h0 @ u.conj().T

    period = 2 * np.pi
    sched = HamiltonianSchedule.from_callable(ham, dim, period=period)
    path = evolve(sched, period, steps=steps, tol=1e-10)
    return k, i0, sched, path, period


def analytic_path(dim, n_pts, seed):
    """``I(t) = e^{-iKt} I0 e^{iKt}`` for a diagonal ``K``, on [0, 2.3]."""
    kd = np.random.default_rng(seed).normal(size=dim)
    grid = np.linspace(0.0, 2.3, n_pts)
    samples = rotation_stack(grid, random_hermitian(dim, seed), kd)
    return InvariantPath(grid, samples), kd


def rotation_stack(grid, i0, kd):
    """The whole-stack ``einsum`` of ``e^{-iKt} I0 e^{iKt}``."""
    p = np.exp(-1j * np.outer(grid, kd))
    return np.einsum("ti,ij,tj->tij", p, i0, p.conj())


def chunk_rows(dim):
    """Rows of a complex dim x dim stack in one chunk of a chunked pass."""
    return invariant._CHUNK_BYTES // (16 * dim * dim)


def reference_lvn_residual(inv, sched):
    """``lvn_residual`` with a whole-stack stencil and an indexed loop."""
    s = inv.samples
    h = uniform_spacing(inv.grid)
    didt = np.empty_like(s)
    didt[1:-1] = (s[2:] - s[:-2]) / (2 * h)
    didt[0] = (-3 * s[0] + 4 * s[1] - s[2]) / (2 * h)
    didt[-1] = (3 * s[-1] - 4 * s[-2] + s[-3]) / (2 * h)
    out = np.empty(inv.grid.size)
    for k, t in enumerate(inv.grid):
        h_k = sched.sample(t)
        out[k] = frob(didt[k] - 1j * (s[k] @ h_k - h_k @ s[k]))
    return out


def product_bracket(s, h):
    return s @ h - h @ s


def diagonal_bracket(s, h):
    """``[s, h]`` of a diagonal ``h`` (one matrix or a stack), elementwise:
    ``s_ij k_j - k_i s_ij``."""
    k = np.diagonal(h, 0, -2, -1)
    return s * k[..., None, :] - k[..., :, None] * s


def reference_block_lvn_residual(inv, sched, blocks, bracket=product_bracket):
    """``lvn_residual`` on the block route, as a per-point, per-block loop:
    the whole-stack stencil, each block's commutator, and the squares
    summed block by block in the partition's order."""
    s = inv.samples
    h = uniform_spacing(inv.grid)
    didt = np.empty_like(s)
    didt[1:-1] = (s[2:] - s[:-2]) / (2 * h)
    didt[0] = (-3 * s[0] + 4 * s[1] - s[2]) / (2 * h)
    didt[-1] = (3 * s[-1] - 4 * s[-2] + s[-3]) / (2 * h)
    out = np.empty(inv.grid.size)
    for k, t in enumerate(inv.grid):
        total = 0.0
        for s_b, d_b, h_b in zip(linalg.parts(s[k], blocks),
                                 linalg.parts(didt[k], blocks),
                                 linalg.parts(sched.sample(t), blocks)):
            r = d_b - 1j * bracket(s_b, h_b)
            total = total + np.sum(np.square(r.real) + np.square(r.imag))
        out[k] = np.sqrt(total)
    return out


def block_eigvalsh(a, blocks):
    """Eigenvalues of each matrix of a dense stack, solved on the parts of
    ``blocks``."""
    return linalg.parts_eigvalsh(linalg.parts(a, blocks), blocks)


def reference_chunked_drift(inv):
    """``spectrum_drift`` as it solved dense rows: a per-chunk
    ``block_eigvalsh(rows, blocks)`` on the path's partition."""
    blocks = inv._blocks
    w0 = block_eigvalsh(inv.rows(0, 1)[0], blocks)
    worst = 0.0
    for k0, k1 in invariant._chunk_bounds(inv, start=1):
        w = block_eigvalsh(inv.rows(k0, k1), blocks)
        worst = max(worst, float(np.max(np.abs(w - w0) / (1 + np.abs(w0)))))
    return worst


def parity_mask(dim):
    """Entries without even/odd coupling: two blocks for dim >= 2."""
    return np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 0


def reference_spectrum_drift(inv):
    """``spectrum_drift`` with one ``eigvalsh`` call per grid point."""
    w0 = np.linalg.eigvalsh(hermitize(inv.samples[0]))
    worst = 0.0
    for a in inv.samples[1:]:
        w = np.linalg.eigvalsh(hermitize(a))
        worst = max(worst, float(np.max(np.abs(w - w0) / (1 + np.abs(w0)))))
    return worst


@st.composite
def drift_paths(draw):
    """Paths of 1 to 40 points, or of lengths around the chunk boundaries
    (of the whole stack and of ``samples[1:]``), with one sample scaled
    by 1 + 1e-9 so that the drift peaks at a chosen row."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 12))
        n_pts = draw(st.integers(1, 40))
        rows = list(range(1, n_pts))
    else:
        dim = draw(st.integers(8, 16))
        c = chunk_rows(dim)
        n_pts = draw(st.sampled_from(
            [c - 1, c, c + 1, c + 2, 2 * c + 1, 2 * c + 2]))
        rows = [k for k in (1, c - 1, c, c + 1, n_pts - 1) if k < n_pts]
    seed = draw(st.integers(0, 2**32 - 1))
    grid = np.linspace(0.0, 2.3, n_pts)
    samples = rotation_stack(grid, random_hermitian(dim, seed),
                             np.random.default_rng(seed).normal(size=dim))
    if rows:
        samples[draw(st.sampled_from(rows))] *= 1 + 1e-9
    return InvariantPath(grid, samples)


@st.composite
def rotated_cases(draw):
    """``(grid, I0, k_diag)`` of a rotated path: 1 to 40 points, or lengths
    around the chunk boundaries; ``I0`` dense or without even/odd coupling
    (two blocks), and ``k_diag`` generic or integer (a closed loop over
    ``[0, 2 pi]``)."""
    if draw(st.booleans()):
        dim, n_pts = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    else:
        dim = draw(st.integers(8, 16))
        c = chunk_rows(dim)
        n_pts = draw(st.sampled_from(
            [c - 1, c, c + 1, c + 2, 2 * c + 1, 2 * c + 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    i0 = random_hermitian(dim, seed)
    if draw(st.booleans()):
        i0 = i0 * parity_mask(dim)
    if draw(st.booleans()):
        kd = rng.integers(-3, 4, size=dim).astype(float)
    else:
        kd = rng.normal(size=dim)
    return np.linspace(0.0, 2 * np.pi, n_pts), i0, kd


class TestTransport:
    def test_identity_path_constant(self):
        grid = np.linspace(0, 1, 5)
        eye = np.stack([np.eye(3, dtype=complex)] * 5)
        path = UnitaryPath(grid, eye)
        i0 = np.diag([1.0, 2.0, 3.0])
        inv = transport(path, i0)
        for s in inv.samples:
            assert np.allclose(s, i0, atol=1e-15)

    def test_cranked_matches_analytic(self):
        k, i0, _, path, _ = cranked_setup()
        inv = transport(path, i0)
        for idx in (57, 253, 490):
            t = inv.grid[idx]
            u = expm_igen(k, t)
            analytic = u @ i0 @ u.conj().T
            assert frob(inv.samples[idx] - analytic) < 1e-8

    def test_dimension_mismatch(self):
        grid = np.linspace(0, 1, 3)
        path = UnitaryPath(grid, np.stack([np.eye(2, dtype=complex)] * 3))
        with pytest.raises(DimensionMismatch):
            transport(path, np.eye(3))

    def test_non_hermitian_i0_rejected_and_hermitian_i0_kept(self):
        # I0 goes through the Hermiticity gate: a non-Hermitian one is
        # rejected, not Hermitized, and a Hermitian one keeps its bits
        grid = np.linspace(0, 1, 3)
        path = UnitaryPath(grid, np.stack([np.eye(2, dtype=complex)] * 3))
        with pytest.raises(NonHermitianInput, match="I0"):
            transport(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
        _, _, _, path, _ = cranked_setup(dim=4, steps=64)
        i0 = random_hermitian(4, 8)              # exactly Hermitian
        u = path.samples
        assert np.array_equal(
            transport(path, i0).samples,
            np.einsum("kij,jl,kml->kim", u, i0, u.conj(), optimize=True))

    def test_spectrum_drift_rejected(self):
        grid = np.linspace(0, 1, 3)
        samples = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 2.0]),
                            np.diag([1.0, 2.5])]).astype(complex)
        with pytest.raises(ComputeError):
            InvariantPath(grid, samples)


class TestInvariantPath:
    def test_stored_stack_is_read_only(self):
        # the Hermiticity gate runs once, at construction: an edit made
        # afterwards must not reach the stored samples
        grid = np.linspace(0.0, 1.0, 5)
        samples = np.stack([np.diag([1.0, 2.0]).astype(complex)] * 5)
        path = InvariantPath(grid, samples)
        samples[2] = [[0.0, 1.0], [0.0, 0.0]]
        assert np.array_equal(path.samples[2], np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="read-only"):
            path.samples[2] *= 2
        # a read-only stack, as transport builds it, is kept without a copy
        assert InvariantPath(grid, path.samples).samples is path.samples
        u = evolve(HamiltonianSchedule.constant(np.diag([0.0, 1.0])), 1.0,
                   steps=4)
        assert not transport(u, np.diag([1.0, 2.0])).samples.flags.writeable

    def test_empty_path_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty grid"):
            InvariantPath(np.array([]), np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 0, 0)],
                             ids=["non-square", "0x0"])
    def test_non_square_or_empty_samples_rejected(self, shape):
        grid = np.arange(shape[0], dtype=float)
        with pytest.raises(DimensionMismatch, match="square"):
            InvariantPath(grid, np.zeros(shape))

    @pytest.mark.parametrize("k, i, j, value", [
        (2, 0, 0, np.nan), (2, 0, 1, np.nan), (2, 1, 1, np.inf),
        (0, 2, 2, np.nan), (8, 1, 2, complex(0, np.inf))])
    def test_non_finite_sample_rejected(self, k, i, j, value):
        grid = np.linspace(0, 1, 9)
        samples = np.stack([np.diag([1.0, 2.0, 3.0])] * 9).astype(complex)
        samples[k, i, j] = value
        with pytest.raises(NonHermitianInput, match=f"t={grid[k]:.6g} "):
            InvariantPath(grid, samples)

    def test_spot_sample_defect_above_gate_bound_named(self):
        # the spot samples go through the 1e-12 Hermiticity gate: a relative
        # defect of 1e-11 at the middle one is rejected and its t named
        path, _ = analytic_path(3, 9, seed=5)
        samples = path.samples.copy()
        k = 4
        samples[k, 0, 1] += 1e-11 * max(1.0, np.max(np.abs(samples[k])))
        with pytest.raises(NonHermitianInput,
                           match=rf"t={path.grid[k]:.6g}: max\|A - A\^H\|"):
            InvariantPath(path.grid, samples)

    def test_defect_at_mid_chunk_sample_named(self):
        # every sample goes through the Hermiticity rule, not only the
        # first, middle and last ones (here samples 0, c + 4 and 2c + 8)
        dim = 8
        c = chunk_rows(dim)
        path, _ = analytic_path(dim, 2 * c + 9, seed=7)
        samples = path.samples.copy()
        k = c + c // 2
        samples[k, 2, 5] += 1e-9
        with pytest.raises(NonHermitianInput,
                           match=rf"t={path.grid[k]:.6g}: max\|A - A\^H\|"):
            InvariantPath(path.grid, samples)

    def test_non_finite_sample_in_later_chunk_named(self):
        dim = 8
        k = 2 * chunk_rows(dim) + 5
        path, _ = analytic_path(dim, k + 9, seed=4)
        samples = path.samples.copy()
        samples[k, 3, 4] = np.nan
        with pytest.raises(NonHermitianInput,
                           match=f"t={path.grid[k]:.6g} "):
            InvariantPath(path.grid, samples)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(path=drift_paths())
    def test_spectrum_drift_matches_reference(self, path):
        drift = path.spectrum_drift()
        assert drift == reference_spectrum_drift(path)
        assert (drift == 0.0) == (len(path) == 1)

    def test_spectrum_drift_sees_coupling_in_one_mid_chunk_sample(self):
        # I0 without even/odd coupling keeps two parity blocks at every t;
        # one sample in the middle of a chunk couples them, and only that
        # chunk's own union pattern shows it
        dim = 8
        c = chunk_rows(dim)
        path, _ = analytic_path(dim, 4 * c + 1, seed=6)
        parity = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 0
        samples = path.samples * parity
        k = 1 + c + c // 2          # chunks of spectrum_drift run over [1:]
        samples[k, 0, 1] += 0.5
        samples[k, 1, 0] += 0.5
        inv = InvariantPath(path.grid, samples)
        drift = inv.spectrum_drift()
        assert drift > 1e-8
        assert drift == pytest.approx(reference_spectrum_drift(inv), rel=1e-9)

    def test_spectrum_drift_on_the_union_partition_of_the_path(self):
        # blocks {0, 1}, {2, 3}, {4}, {5} in the first chunk; the last chunk
        # holds the same matrix with rows and columns 1 and 2 swapped, so
        # the path's union pattern is {0, 1, 2, 3}, {4}, {5}, exact for
        # every sample, and no chunk's own pattern is
        dim = 6
        c = chunk_rows(dim)
        a = np.zeros((dim, dim), dtype=complex)
        a[:2, :2] = random_hermitian(2, 1)
        a[2:4, 2:4] = random_hermitian(2, 2)
        a[4, 4], a[5, 5] = 0.25, -1.5
        swap = [0, 2, 1, 3, 4, 5]
        samples = np.repeat(a[None], 2 * c + 3, axis=0)
        samples[2 * c:] = a[np.ix_(swap, swap)]
        samples[2 * c + 1] *= 1 + 1e-9        # the drift peaks in chunk 3
        grid = np.linspace(0.0, 1.0, samples.shape[0])
        inv = InvariantPath(grid, samples)
        union = linalg.block_partition((samples != 0).any(axis=0))
        assert [idx.shape for idx in union] == [(2, 1, 1), (1, 4, 4)]
        w0 = block_eigvalsh(samples[0], union)
        ref = max(float(np.max(np.abs(block_eigvalsh(s, union) - w0)
                               / (1 + np.abs(w0)))) for s in samples[1:])
        drift = inv.spectrum_drift()
        assert drift == ref
        assert drift == pytest.approx(reference_spectrum_drift(inv), rel=1e-6)
        assert 1e-10 < drift < 1e-8

    @pytest.mark.parametrize("kind", ["stored", "rotated"])
    def test_spectrum_drift_builds_no_partition(self, kind):
        # the path fixes its partition when it is built: the chunks of
        # spectrum_drift (about 100 on the oscillator's validate path)
        # reuse its gathers
        dim = 8
        parity = np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 0
        i0 = random_hermitian(dim, 4) * parity
        kd = np.random.default_rng(4).normal(size=dim)
        grid = np.linspace(0.0, 2.3, 3 * chunk_rows(dim) + 2)
        path = (InvariantPath.rotated(grid, i0, kd) if kind == "rotated"
                else InvariantPath(grid, rotation_stack(grid, i0, kd)))
        with mock.patch.object(linalg, "block_partition",
                               wraps=linalg.block_partition) as spy:
            drift = path.spectrum_drift()
        assert spy.call_count == 0
        assert drift == pytest.approx(reference_spectrum_drift(path),
                                      rel=1e-9, abs=1e-15)


def tridiagonal_parity_i0(dim, seed):
    """Hermitian ``I0`` coupling index ``i`` only to ``i`` and ``i +- 2``,
    as the su(1,1) generators do: each parity block is tridiagonal."""
    i = np.arange(dim)
    return random_hermitian(dim, seed) * np.isin(
        np.abs(np.subtract.outer(i, i)), (0, 2))


class TestTridiagonalParityPath:
    """Paths whose parity blocks are tridiagonal take the real-form solve
    in the spectra; the drift and the spot check still see every
    departure from isospectrality."""

    dim = 8

    def _path(self, kind, n_pts):
        i0 = tridiagonal_parity_i0(self.dim, 9)
        kd = np.random.default_rng(9).normal(size=self.dim)
        grid = np.linspace(0.0, 2.3, n_pts)
        if kind == "rotated":
            return InvariantPath.rotated(grid, i0, kd)
        return InvariantPath(grid, rotation_stack(grid, i0, kd))

    @staticmethod
    def _scale_row(path, k, factor):
        """Scale sample ``k`` of a path by ``factor``: a new path from a
        copy of a stored stack, or the rotated path with its phase row
        scaled in place (``|p|^2`` scales ``p_i I0_ij conj(p_j)``)."""
        if path._stack is not None:
            samples = path.samples.copy()
            samples[k] *= factor
            return InvariantPath(path.grid, samples)
        path._phases[k] *= np.sqrt(factor)
        return path

    @pytest.mark.parametrize("kind", ["stored", "rotated"])
    def test_scaled_mid_chunk_sample_drifts(self, kind):
        c = chunk_rows(self.dim)
        path = self._path(kind, 3 * c + 1)
        assert [idx.shape for idx in path._blocks] == [(2, 4, 4)]
        with mock.patch.object(linalg, "_tridiagonal_form",
                               wraps=linalg._tridiagonal_form) as spy:
            assert path.spectrum_drift() < 1e-13
        assert spy.call_count > 0
        path = self._scale_row(path, 1 + c + c // 2, 1 + 1e-7)
        drift = path.spectrum_drift()
        assert drift > 1e-8
        assert drift == pytest.approx(reference_spectrum_drift(path), rel=1e-6)

    def test_coupling_off_the_band_takes_the_dense_solve(self):
        # a (0, 2) coupling of the even block (entries 0 and 4) in one
        # mid-chunk sample sends that chunk's even part to the dense solve
        c = chunk_rows(self.dim)
        samples = self._path("stored", 3 * c + 1).samples.copy()
        k = 1 + c + c // 2
        samples[k, 0, 4] += 0.5
        samples[k, 4, 0] += 0.5
        path = InvariantPath(np.linspace(0.0, 2.3, 3 * c + 1), samples)
        assert [idx.shape for idx in path._blocks] == [(2, 4, 4)]
        even = path.parts(k, k + 1)[0][:, 0]
        assert not linalg._is_tridiagonal(even)
        drift = path.spectrum_drift()
        assert drift > 1e-8
        assert drift == pytest.approx(reference_spectrum_drift(path), rel=1e-9)

    @pytest.mark.parametrize("kind", ["stored", "rotated"])
    def test_spot_check_sees_a_middle_sample_off_the_spectrum(self, kind):
        # a stored path is checked when it is built, the rotated one when
        # the check runs again on its scaled phase row
        n_pts = 33
        with pytest.raises(ComputeError, match="spectrum drifts"):
            self._scale_row(self._path(kind, n_pts), n_pts // 2,
                            1 + 1e-7)._check_spectrum()


class TestRotatedPath:
    """``InvariantPath.rotated`` computes its rows chunk by chunk; every
    diagnostic gives the bits of the path stored from the same stack."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=rotated_cases(), size=st.sampled_from([1, 7, 41, 100]))
    def test_rows_are_the_whole_stack_einsum(self, case, size):
        grid, i0, kd = case
        stack = rotation_stack(grid, i0, kd)
        path = InvariantPath.rotated(grid, i0, kd)
        for k0 in range(0, grid.size, size):
            assert np.array_equal(path.rows(k0, k0 + size),
                                  stack[k0:k0 + size])
        n_rows = 0
        for k0, chunk in invariant._row_chunks(path):
            assert np.array_equal(chunk, stack[k0:k0 + len(chunk)])
            bad, _, _ = hermitian_defects(chunk)
            assert not bad.any()
            n_rows += len(chunk)
        assert n_rows == grid.size
        assert np.array_equal(path.samples, stack)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=rotated_cases(),
           kind=st.sampled_from(["constant", "callable"]))
    def test_diagnostics_match_stored_path(self, case, kind):
        grid, i0, kd = case
        path = InvariantPath.rotated(grid, i0, kd)
        stored = InvariantPath(grid, rotation_stack(grid, i0, kd))
        assert path.spectrum_drift() == stored.spectrum_drift()
        assert path.is_periodic == stored.is_periodic
        for t in grid[[0, grid.size // 2, -1]]:
            assert np.array_equal(path.at(t), stored.at(t))
        if grid.size >= 3:
            if kind == "constant":
                sched = HamiltonianSchedule.constant(np.diag(kd))
            else:
                h1 = random_hermitian(kd.size, 1)
                sched = HamiltonianSchedule.from_callable(
                    lambda t: np.diag(kd) + np.cos(t) * h1, kd.size)
            residual = lvn_residual(path, sched)
            assert np.array_equal(residual, lvn_residual(stored, sched))
            dense = reference_lvn_residual(stored, sched)
            blocks = invariant._residual_blocks(path, sched)
            if blocks is None:
                # the stacked loop sums each row's squares in another
                # order than frob
                np.testing.assert_allclose(residual, dense, rtol=1e-14)
            else:
                # a two-block I0 under a constant diagonal H: the block
                # route, summed block by block
                assert kind == "constant"
                assert np.array_equal(residual, reference_block_lvn_residual(
                    stored, sched, blocks))
                np.testing.assert_allclose(residual, dense, rtol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=rotated_cases(), kind=st.sampled_from(["stored", "rotated"]),
           size=st.sampled_from([1, 7, 41, 100]))
    def test_parts_are_a_gather_of_the_rows(self, case, kind, size):
        grid, i0, kd = case
        path = (InvariantPath.rotated(grid, i0, kd) if kind == "rotated"
                else InvariantPath(grid, rotation_stack(grid, i0, kd)))
        for k0 in [0, grid.size - 1] + list(range(0, grid.size, size)):
            got = path.parts(k0, k0 + size)
            want = linalg.parts(path.rows(k0, k0 + size), path._blocks)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=rotated_cases(), kind=st.sampled_from(["stored", "rotated"]))
    def test_spectrum_drift_keeps_the_dense_row_bits(self, case, kind):
        grid, i0, kd = case
        path = (InvariantPath.rotated(grid, i0, kd) if kind == "rotated"
                else InvariantPath(grid, rotation_stack(grid, i0, kd)))
        assert path.spectrum_drift() == reference_chunked_drift(path)

    def test_integer_generator_closes_the_loop(self):
        grid = np.linspace(0.0, 2 * np.pi, 65)
        path = InvariantPath.rotated(grid, random_hermitian(5, 2),
                                     np.arange(5.0) - 2)
        assert path.is_periodic
        assert not InvariantPath.rotated(grid, random_hermitian(5, 2),
                                         np.arange(5.0) / 3).is_periodic

    def test_non_hermitian_i0_rejected(self):
        i0 = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(NonHermitianInput, match="I0"):
            InvariantPath.rotated(np.linspace(0, 1, 5), i0, [0.0, 1.0])
        with pytest.raises(NonHermitianInput, match="I0"):
            InvariantPath.rotated(np.linspace(0, 1, 5),
                                  np.diag([1.0, np.nan]), [0.0, 1.0])

    @pytest.mark.parametrize("kd", [[0.0, np.nan], [0.0, np.inf],
                                    [0.0, 1.0 + 1e-3j]],
                             ids=["nan", "inf", "complex"])
    def test_non_real_or_non_finite_generator_rejected(self, kd):
        with pytest.raises(NonHermitianInput, match="k_diag"):
            InvariantPath.rotated(np.linspace(0, 1, 5), np.eye(2), kd)

    def test_real_complex_generator_accepted(self):
        grid = np.linspace(0, 1, 5)
        i0 = random_hermitian(3, 4)
        kd = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(
            InvariantPath.rotated(grid, i0, kd.astype(complex)).samples,
            rotation_stack(grid, i0, kd))

    def test_empty_grid_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty grid"):
            InvariantPath.rotated(np.array([]), np.eye(2), [0.0, 1.0])

    @pytest.mark.parametrize("grid", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0],
                                      [0.0, 1.0, np.inf], [np.nan, 1.0]],
                             ids=["repeat", "decrease", "inf", "nan"])
    def test_grid_must_be_finite_and_increase(self, grid):
        with pytest.raises(ValueError, match="strictly increase"):
            InvariantPath.rotated(np.array(grid), np.eye(2), [0.0, 1.0])
        with pytest.raises(ValueError, match="strictly increase"):
            InvariantPath(np.array(grid),
                          np.stack([np.eye(2, dtype=complex)] * len(grid)))

    @pytest.mark.parametrize("i0, kd", [
        (np.eye(2), [0.0, 1.0, 2.0]), (np.eye(3), [[0.0, 1.0, 2.0]]),
        (np.ones((2, 3)), [0.0, 1.0]), (np.zeros((0, 0)), [])],
        ids=["short-k", "2-D k", "i0", "empty-i0"])
    def test_dimension_mismatch(self, i0, kd):
        with pytest.raises(DimensionMismatch):
            InvariantPath.rotated(np.linspace(0, 1, 5), i0, kd)

    def test_samples_are_read_only(self):
        # a rotated path builds its stack on each read: an in-place edit
        # would be lost, so it raises instead
        path = InvariantPath.rotated(np.linspace(0, 1, 5),
                                     random_hermitian(3, 5), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            path.samples[2] *= 2

    def test_spectrum_spot_check_kept(self):
        # a rotated path makes no per-sample Hermiticity pass but keeps the
        # three-point spectrum spot check: rows whose spectrum drifts fail
        # (the check reads the rows as the path's parts: patch that reader)
        grid = np.linspace(0, 1, 9)

        def drifting(self, k0, k1):
            rows = np.stack([np.diag([1.0, 2.0 + k])
                             for k in range(k0, k1)]).astype(complex)
            return linalg.parts(rows, self._blocks)

        with mock.patch.object(InvariantPath, "parts", drifting):
            with pytest.raises(ComputeError, match="spectrum drifts"):
                InvariantPath.rotated(grid, np.diag([1.0, 2.0]), [0.0, 1.0])


class TestLvnResidual:
    def test_constant_commuting(self):
        grid = np.linspace(0, 1, 9)
        i0 = np.diag([1.0, 2.0])
        inv = InvariantPath(grid, np.stack([i0.astype(complex)] * 9))
        sched = HamiltonianSchedule.constant(np.diag([5.0, -1.0]))
        res = lvn_residual(inv, sched)
        assert np.max(res) < 1e-13

    def test_transported_at_floor_with_factor4_decay(self):
        k, i0, sched, _, period = cranked_setup(steps=256)
        maxima = []
        for steps in (512, 1024):
            path = evolve(sched, period, steps=steps, tol=1e-10)
            inv = transport(path, i0)
            maxima.append(np.max(lvn_residual(inv, sched)))
        scale = frob(i0)
        assert maxima[0] < 1e-3 * scale
        # 2nd-order stencil: error shrinks ~4x per halving
        assert maxima[0] / maxima[1] > 3.0

    def test_invariant_for_both_hamiltonians(self):
        # I(t) = e^{-iKt} I0 e^{iKt} with [I0, H0 - K] = 0 satisfies the
        # LvN equation against the cranked H(t) and against constant K.
        k, i0, sched, path, period = cranked_setup(steps=1024)
        inv = transport(path, i0)
        res_h = np.max(lvn_residual(inv, sched))
        res_k = np.max(lvn_residual(
            inv, HamiltonianSchedule.constant(k)))
        scale = frob(i0)
        assert res_h < 1e-3 * scale
        assert res_k < 1e-3 * scale

    def test_grid_too_coarse(self):
        grid = np.array([0.0, 1.0])
        inv = InvariantPath(grid, np.stack([np.eye(2, dtype=complex)] * 2))
        with pytest.raises(GridTooCoarse):
            lvn_residual(inv, HamiltonianSchedule.constant(np.eye(2)))

    @pytest.mark.parametrize("shape", [(8, 2, 2), (10, 2, 2), (9, 2), (9,)],
                             ids=["8", "10", "9x2", "9"])
    @pytest.mark.parametrize("kind", ["array", "generator"])
    def test_defect_rejects_row_count_mismatch(self, shape, kind):
        # wrong row counts, and rows of the wrong shape that would
        # broadcast against the 2 x 2 bracket; dI/dt is an array, so a
        # generator of rows is rejected whatever its rows
        grid = np.linspace(0, 1, 9)
        inv = InvariantPath(grid, np.stack([np.eye(2, dtype=complex)] * 9))
        didt = np.zeros(shape, dtype=complex)
        if kind == "generator":
            didt = (row for row in didt)
        with pytest.raises(DimensionMismatch):
            lvn_defect(inv, HamiltonianSchedule.constant(np.eye(2)), didt)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 12), n_pts=st.integers(3, 40),
           seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["constant", "callable"]))
    @example(dim=1, n_pts=3, seed=0, kind="constant")
    @example(dim=12, n_pts=3, seed=1, kind="callable")
    def test_residual_matches_reference(self, dim, n_pts, seed, kind):
        path, kd = analytic_path(dim, n_pts, seed)
        if kind == "constant":
            sched = HamiltonianSchedule.constant(np.diag(kd))
        else:
            h1 = random_hermitian(dim, seed + 1)
            sched = HamiltonianSchedule.from_callable(
                lambda t: np.diag(kd) + np.cos(t) * h1, dim)
        np.testing.assert_allclose(lvn_residual(path, sched),
                                   reference_lvn_residual(path, sched),
                                   rtol=1e-14)

    @staticmethod
    def _diagnostic_peaks(path, kd):
        """tracemalloc peak of each streamed diagnostic of ``path``; the
        ``dI/dt`` of ``lvn_defect`` is the caller's, allocated before."""
        sched = HamiltonianSchedule.constant(np.diag(kd))
        peaks = []
        tracemalloc.start()
        try:
            didt = np.zeros((len(path), path.dim, path.dim), dtype=complex)
            for run in (lambda: lvn_residual(path, sched),
                        path.spectrum_drift,
                        lambda: lvn_defect(path, sched, didt)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return peaks

    def test_diagnostics_run_in_bounded_memory(self):
        # a dense path, and a two-block one on the block route of the
        # residual and the spectra
        dim = 32
        grid = np.linspace(0.0, 2.3, 16 * chunk_rows(dim) + 1)
        kd = np.random.default_rng(3).normal(size=dim)
        dense = random_hermitian(dim, 3)
        for i0, blocks in ((dense, [dim]),
                           (dense * parity_mask(dim), [dim // 2] * 2)):
            path = InvariantPath(grid, rotation_stack(grid, i0, kd))
            assert invariant.lvn_blocks(
                path, HamiltonianSchedule.constant(np.diag(kd))) == blocks
            # the stack itself is 32 MiB; whole-stack temporaries are
            # 100 % each
            peaks = self._diagnostic_peaks(path, kd)
            assert max(peaks) < 0.25 * path.samples.nbytes

    def test_rotated_diagnostics_run_in_bounded_memory(self):
        # the same bound for a path that never holds its 32 MiB stack
        dim = 32
        n_pts = 16 * chunk_rows(dim) + 1
        kd = np.random.default_rng(3).normal(size=dim)
        path = InvariantPath.rotated(np.linspace(0.0, 2.3, n_pts),
                                     random_hermitian(dim, 3), kd)
        stack_bytes = n_pts * dim * dim * 16
        assert max(self._diagnostic_peaks(path, kd)) < 0.25 * stack_bytes


class TestResidualRoute:
    """The residual takes the path's blocks only for a constant schedule
    that keeps them; no coupling is ever dropped."""

    @staticmethod
    def _two_block_path(dim=8, n_pts=None, seed=5, sign=1.0):
        kd = np.random.default_rng(seed).normal(size=dim)
        n_pts = n_pts or 2 * chunk_rows(dim) + 3
        grid = np.linspace(0.0, 2.3, n_pts)
        i0 = random_hermitian(dim, seed) * parity_mask(dim)
        return InvariantPath.rotated(grid, i0, sign * kd), i0, kd

    def test_constant_inside_the_partition_takes_the_block_route(self):
        path, _, kd = self._two_block_path()
        sched = HamiltonianSchedule.constant(np.diag(kd))
        assert invariant.lvn_blocks(path, sched) == [4, 4]
        blocks = invariant._residual_blocks(path, sched)
        assert np.array_equal(
            lvn_residual(path, sched),
            reference_block_lvn_residual(path, sched, blocks))

    @staticmethod
    def _residual_and_route(path, sched):
        """``lvn_residual`` and the diagonal test of each part of ``H``
        (True: the elementwise bracket)."""
        routes = []
        is_diagonal = invariant._is_diagonal

        def spy(p):
            routes.append(is_diagonal(p))
            return routes[-1]
        with mock.patch.object(invariant, "_is_diagonal", spy):
            return lvn_residual(path, sched), routes

    def test_diagonal_base_takes_the_elementwise_bracket(self):
        # validate's case: a diagonal K on 28 x 28 parity blocks; the
        # elementwise bracket has the products' values, entry by entry, as
        # the zero terms of each product add nothing
        path, _, kd = self._two_block_path(dim=56, n_pts=90)
        sched = HamiltonianSchedule.constant(np.diag(kd))
        blocks = invariant._residual_blocks(path, sched)
        assert invariant.lvn_blocks(path, sched) == [28, 28]
        residual, routes = self._residual_and_route(path, sched)
        assert routes == [True]
        assert np.array_equal(residual, reference_block_lvn_residual(
            path, sched, blocks, diagonal_bracket))
        np.testing.assert_allclose(residual, reference_block_lvn_residual(
            path, sched, blocks), rtol=1e-14)
        np.testing.assert_allclose(residual,
                                   reference_lvn_residual(path, sched),
                                   rtol=1e-14)

    def test_non_diagonal_base_keeps_the_product_bits(self):
        # one coupling inside a parity block: the two products, as before
        path, _, kd = self._two_block_path(dim=56, n_pts=90)
        h = np.diag(kd).astype(complex)
        h[0, 2] = h[2, 0] = 0.3
        sched = HamiltonianSchedule.constant(h)
        blocks = invariant._residual_blocks(path, sched)
        assert invariant.lvn_blocks(path, sched) == [28, 28]
        residual, routes = self._residual_and_route(path, sched)
        assert routes == [False]
        assert np.array_equal(residual, reference_block_lvn_residual(
            path, sched, blocks))
        np.testing.assert_allclose(residual,
                                   reference_lvn_residual(path, sched),
                                   rtol=1e-14)

    def test_constant_with_a_coupling_outside_takes_the_whole_matrix(self):
        path, _, kd = self._two_block_path()
        h = np.diag(kd).astype(complex)
        h[0, 1] = h[1, 0] = 1e-3          # even/odd: outside the blocks
        sched = HamiltonianSchedule.constant(h)
        assert invariant.lvn_blocks(path, sched) == [8]
        residual = lvn_residual(path, sched)
        np.testing.assert_allclose(residual,
                                   reference_lvn_residual(path, sched),
                                   rtol=1e-14)
        inside = lvn_residual(path, HamiltonianSchedule.constant(np.diag(kd)))
        assert residual.max() > 1e3 * inside.max()

    @pytest.mark.parametrize("kind", ["callable", "tabulated"])
    def test_non_constant_schedule_never_takes_the_block_route(self, kind):
        # each schedule's own partition lies inside the path's; it is
        # still read whole
        path, _, kd = self._two_block_path(n_pts=41)
        if kind == "callable":
            sched = HamiltonianSchedule.from_callable(
                lambda t: np.diag(kd), kd.size)
        else:
            grid = path.grid - path.grid[0]
            wobble = np.diag(np.cos(np.arange(kd.size)))
            sched = HamiltonianSchedule.from_samples(
                grid, [np.diag(kd) + np.sin(t) * wobble for t in grid])
        assert sched.blocks is not None
        assert invariant.lvn_blocks(path, sched) == [8]
        np.testing.assert_allclose(lvn_residual(path, sched),
                                   reference_lvn_residual(path, sched),
                                   rtol=1e-14)

    def test_wrong_sign_path_fails_on_the_block_route(self):
        # e^{+iKt} I0 e^{-iKt} keeps the spectrum and the blocks, but is
        # not an invariant of K
        path, i0, kd = self._two_block_path(sign=-1.0)
        sched = HamiltonianSchedule.constant(np.diag(kd))
        assert invariant.lvn_blocks(path, sched) == [4, 4]
        assert path.spectrum_drift() < 1e-12
        assert lvn_residual(path, sched).max() / frob(i0) > 1e-2

    def test_defect_reads_the_whole_matrix(self):
        # a constant schedule inside the path's partition: lvn_defect
        # still takes every entry of dI/dt, with frob's bits
        path, _, kd = self._two_block_path()
        h = np.diag(kd).astype(complex)
        sched = HamiltonianSchedule.constant(h)
        assert invariant.lvn_blocks(path, sched) == [4, 4]
        s = path.samples
        didt = 1j * (s @ h - h @ s)       # exact: the residual is rounding
        didt[7, 0, 3] += 0.25             # an even/odd entry
        residual = lvn_defect(path, sched, didt)
        ref = np.array([frob(d - 1j * (a @ h - h @ a))
                        for a, d in zip(s, didt)])
        assert residual[7] == pytest.approx(0.25, rel=1e-12)
        assert np.array_equal(residual, ref)


def reference_closure(frame):
    """The per-grid-point periodic closure loop, applied to an open frame:
    each block times its holonomy to the power ``k/K`` at step ``k``."""
    frames = frame.frames.copy()
    n_iv = frames.shape[0] - 1
    ks = np.arange(n_iv + 1)
    for n in range(frame.n_blocks):
        sl = frame.block_slice(n)
        if sl.stop - sl.start == 1:
            col = sl.start
            theta = float(np.angle(np.vdot(frames[-1][:, col],
                                           frames[0][:, col])))
            frames[:, :, col] *= np.exp(1j * theta * ks / n_iv)[:, None]
        else:
            hol = polar_unitary(frames[-1][:, sl].conj().T @ frames[0][:, sl])
            tri, q = scipy.linalg.schur(hol, output="complex")
            phases = np.angle(np.diag(tri))
            for k, f in enumerate(ks / n_iv):
                power = (q * np.exp(1j * phases * f)) @ q.conj().T
                frames[k][:, sl] = frames[k][:, sl] @ power
        frames[-1][:, sl] = frames[0][:, sl]
    return frames


@st.composite
def degenerate_periodic_paths(draw):
    """``I(t) = e^{-iKt} I0 e^{iKt}`` over one period ``2 pi`` of an
    integer-spectrum crank ``K``, with ``I0`` having a repeated level."""
    sizes = [draw(st.integers(2, 3))] + draw(
        st.lists(st.integers(1, 3), max_size=2))
    dim = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pts = draw(st.integers(24, 80))

    def basis():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return np.linalg.qr(g)[0]

    q = basis()
    k = (q * rng.integers(-1, 2, size=dim)) @ q.conj().T
    levels = np.repeat(1.5 * np.arange(len(sizes)) + rng.random(), sizes)
    q = basis()
    i0 = (q * rng.permutation(levels)) @ q.conj().T
    grid = np.linspace(0.0, 2 * np.pi, n_pts)
    samples = []
    for t in grid:
        e = expm_igen(k, t)
        samples.append(e @ i0 @ e.conj().T)
    return InvariantPath(grid, np.array(samples))


class TestEigenframe:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(path=degenerate_periodic_paths())
    def test_periodic_closure_matches_per_point_loop(self, path):
        closed = eigenframe(path, enforce_periodic=True)
        assert closed.periodic and np.any(closed.degeneracies > 1)
        ref = reference_closure(eigenframe(path))
        assert closed.frames.tobytes() == ref.tobytes()

    def test_constant_diagonal(self):
        grid = np.linspace(0, 1, 8)
        i0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 8))
        frame = eigenframe(inv)
        assert frame.n_blocks == 3
        assert np.all(frame.degeneracies == 1)
        for w in frame.frames:
            assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_parallel_transport_convention(self):
        k, i0, _, path, _ = cranked_setup()
        frame = eigenframe(transport(path, i0))
        v = frame.frames
        for n in range(frame.dim):
            overlaps = np.sum(v[:-1, :, n].conj() * v[1:, :, n], axis=1)
            assert np.all(np.abs(overlaps.imag) < 1e-12)
            assert np.all(overlaps.real > 0.99)

    def test_eigen_residual_and_orthonormality(self):
        k, i0, _, path, _ = cranked_setup()
        inv = transport(path, i0)
        frame = eigenframe(inv)
        frame.validate(inv)

    def test_reconstruct_invariant(self):
        k, i0, _, path, _ = cranked_setup()
        inv = transport(path, i0)
        frame = eigenframe(inv)
        lam = np.repeat(frame.eigenvalues, frame.degeneracies)
        for k_pt in (0, 100, 512):
            w = frame.frames[k_pt]
            recon = (w * lam) @ w.conj().T
            assert frob(recon - inv.samples[k_pt]) < 1e-8 * frob(i0)

    def test_periodic_closure_and_redistribution(self):
        k, i0, _, path, _ = cranked_setup()
        inv = transport(path, i0)
        open_frame = eigenframe(inv, enforce_periodic=False)
        closed = eigenframe(inv, enforce_periodic=True)
        assert closed.periodic
        assert np.array_equal(closed.frames[-1], closed.frames[0])
        # redistribution is a pure per-step phase on each eigenvector
        n_iv = closed.grid.size - 1
        for n in range(closed.dim):
            theta = np.angle(np.vdot(open_frame.frames[-1][:, n],
                                     open_frame.frames[0][:, n]))
            k_mid = n_iv // 2
            expected = open_frame.frames[k_mid][:, n] * np.exp(
                1j * theta * k_mid / n_iv)
            assert np.linalg.norm(
                closed.frames[k_mid][:, n] - expected) < 1e-12

    def test_matches_analytic_rotating_frame(self):
        # I(t) = e^{-iKt} I0 e^{iKt}: columns of e^{-iKt} V0 are an
        # analytic eigenframe; numeric frame matches up to per-vector phase
        k, i0, _, path, _ = cranked_setup()
        inv = transport(path, i0)
        frame = eigenframe(inv)
        _, v0 = np.linalg.eigh(i0)
        for k_pt in (64, 256, 511):
            t = frame.grid[k_pt]
            analytic = expm_igen(k, t) @ frame.frames[0]
            for n in range(frame.dim):
                ov = abs(np.vdot(analytic[:, n], frame.frames[k_pt][:, n]))
                assert ov > 1 - 1e-6

    def test_degenerate_blocks_doubled_system(self):
        k, i0, _, path, _ = cranked_setup(dim=4, steps=256)
        inv = transport(path, i0)
        doubled = InvariantPath(
            inv.grid, np.stack([np.kron(s, np.eye(2)) for s in inv.samples]))
        frame = eigenframe(doubled, enforce_periodic=True)
        assert np.all(frame.degeneracies == 2)
        frame.validate(doubled)
        assert np.array_equal(frame.frames[-1], frame.frames[0])

    def test_degeneracy_crossing(self):
        grid = np.linspace(0, 1, 9)
        samples = np.stack([np.diag([0.0, 1.0, 1.0])] * 9).astype(complex)
        samples[1] = np.diag([0.0, 1.0 - 1e-3, 1.0])
        with pytest.raises(DegeneracyCrossing):
            eigenframe(InvariantPath(grid, samples))

    def test_overlap_too_small(self):
        grid = np.arange(5.0)
        c, s = np.cos(1.4), np.sin(1.4)
        r = np.array([[c, -s], [s, c]])
        samples = np.stack([
            np.linalg.matrix_power(r, k) @ np.diag([1.0, 2.0])
            @ np.linalg.matrix_power(r, k).T for k in range(5)
        ]).astype(complex)
        with pytest.raises(OverlapTooSmall):
            eigenframe(InvariantPath(grid, samples))

    def test_spectrum_drift_detected_midpath(self):
        grid = np.linspace(0, 1, 9)
        samples = np.stack([np.diag([1.0, 2.0])] * 9).astype(complex)
        samples[1] = np.diag([1.0 + 1e-6, 2.0])
        with pytest.raises(ComputeError):
            eigenframe(InvariantPath(grid, samples))

    def test_commutes_with_loop_operator(self):
        # periodic invariant => [U(T), I(0)] = 0
        k, i0, sched, path, period = cranked_setup()
        u_T = path.at(period)
        assert comm_norm(u_T, i0) < 1e-7 * frob(i0)


class TestBuildGeq:
    def test_zero_x(self):
        k, i0, sched, path, _ = cranked_setup(dim=4, steps=128)
        zero = HamiltonianSchedule.constant(np.zeros((4, 4)))
        h2 = build_geq(sched, zero, invariant=transport(path, i0))
        for t in (0.0, 1.0):
            assert np.allclose(h2.sample(t), sched.sample(t), atol=1e-15)

    def test_scalar_invariant_x(self):
        k, i0, sched, path, _ = cranked_setup(dim=4, steps=128)
        inv = transport(path, i0)
        x = HamiltonianSchedule.from_callable(
            lambda t: np.sin(t) * (expm_igen(k, t) @ i0 @ expm_igen(k, -t)),
            4)
        h2 = build_geq(sched, x, invariant=inv)
        t = 1.5
        expected = sched.sample(t) + np.sin(t) * (
            expm_igen(k, t) @ i0 @ expm_igen(k, -t))
        assert frob(h2.sample(t) - expected) < 1e-10

    def test_symmetry_violation_names_point(self):
        k, i0, sched, path, _ = cranked_setup(dim=4, steps=128)
        inv = transport(path, i0)
        bad = HamiltonianSchedule.constant(random_hermitian(4, 5))
        with pytest.raises(SymmetryViolation) as exc:
            build_geq(sched, bad, invariant=inv)
        assert "t=" in str(exc.value)

    def test_symmetry_check_reports_worst(self):
        k, i0, sched, path, _ = cranked_setup(dim=4, steps=128)
        inv = transport(path, i0)
        x = HamiltonianSchedule.from_callable(
            lambda t: np.cos(t) * (expm_igen(k, t) @ i0 @ expm_igen(k, -t)),
            4)
        worst = symmetry_check(x, inv)
        assert worst < 1e-8


class TestHstar:
    def test_constant_frame_zero(self):
        grid = np.linspace(0, 1, 16)
        i0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 16))
        sched = hstar(eigenframe(inv))
        assert frob(sched.sample(0.5)) < 1e-10

    def test_evolution_operator_is_frame(self):
        # U*(t) = W(t) W(0)^+ for the purely geometric Hamiltonian
        k, i0, _, path, period = cranked_setup(steps=1024)
        inv = transport(path, i0)
        frame = eigenframe(inv, enforce_periodic=True)
        sched = hstar(frame)
        star = evolve(sched, period, steps=1024, tol=1e-8,
                      store=[period / 4, period / 2, period])
        w0 = frame.initial()
        for t in (period / 4, period / 2):
            k_pt = frame.grid[np.argmin(np.abs(frame.grid - t))]
            idx = int(np.argmin(np.abs(frame.grid - t)))
            expected = frame.frames[idx] @ w0.conj().T
            assert frob(star.at(t) - expected) < 1e-5
        assert frob(star.at(period) - np.eye(frame.dim)) < 1e-5

    def test_characterization_h_minus_hstar_is_symmetry(self):
        # any H admitting I splits as H = H* + X with [I, X] = 0
        k, i0, sched, path, period = cranked_setup(steps=1024)
        inv = transport(path, i0)
        frame = eigenframe(inv, enforce_periodic=True)
        hs = hstar(frame)
        x = HamiltonianSchedule.from_callable(
            lambda t: sched.sample(t) - hs.sample(t), sched.dim)
        worst = symmetry_check(x, inv, rel_tol=1e-5)
        assert worst < 1e-6

    def test_grid_too_coarse(self):
        grid = np.linspace(0, 1, 4)
        i0 = np.diag([1.0, 2.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 4))
        with pytest.raises(GridTooCoarse):
            hstar(eigenframe(inv))


def reference_periodic_derivative(frames, h):
    """The per-grid-point wraparound stencil loop of ``frame_derivative``."""
    n_iv = frames.shape[0] - 1
    coeffs = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    out = np.empty_like(frames)
    for k in range(frames.shape[0]):
        acc = np.zeros_like(frames[0])
        for c, off in zip(coeffs, range(-2, 3)):
            if c != 0.0:
                acc += c * frames[(k + off) % n_iv]
        out[k] = acc / h
    return out


def reference_open_derivative(frames, h):
    """``frame_derivative``'s non-periodic stencils as whole-stack
    expressions."""
    n_pts = frames.shape[0]
    out = np.zeros_like(frames)
    out[2:-2] = (frames[:-4] - 8 * frames[1:-3] + 8 * frames[3:-1]
                 - frames[4:]) / (12 * h)
    for pos, (coeffs, base) in invariant._D1_EDGE.items():
        idx = pos if pos >= 0 else n_pts + pos
        window = frames[base: base + 5] if base >= 0 else frames[-5:]
        out[idx] = np.tensordot(coeffs, window, axes=1) / h
    return out


def reference_wraparound_derivative(frames, h):
    """``frame_derivative``'s periodic stencil as whole-stack gathers."""
    n_pts = frames.shape[0]
    out = np.zeros_like(frames)
    for c, off in zip(invariant._D1_INTERIOR, range(-2, 3)):
        if c != 0.0:
            out += frames[(np.arange(n_pts) + off) % (n_pts - 1)] * c
    return out / h


def reference_hstar_samples(frame):
    """``hstar`` samples as the per-grid-point loop formed them."""
    wdot = invariant.frame_derivative(
        frame.frames, uniform_spacing(frame.grid), frame.periodic)
    samples = np.empty_like(frame.frames)
    for k in range(frame.grid.size):
        samples[k] = hermitize(1j * (wdot[k] @ frame.frames[k].conj().T))
    return samples


class TestStackedFrameAlgebra:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_pts=st.integers(5, 20), rows=st.integers(1, 8),
           cols=st.integers(1, 8), h=st.sampled_from([0.1, 1 / 3, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_periodic_derivative_matches_per_point_loop(self, n_pts, rows,
                                                        cols, h, seed):
        rng = np.random.default_rng(seed)
        shape = (n_pts, rows, cols)
        frames = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        frames.real[rng.random(shape) < 0.1] = -0.0
        frames[-1] = frames[0]
        out = invariant.frame_derivative(frames, h, periodic=True)
        assert out.tobytes() == reference_periodic_derivative(
            frames, h).tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n_pts=st.integers(5, 40), rows=st.integers(1, 8),
           cols=st.integers(1, 8), h=st.sampled_from([0.1, 1 / 3, 2.0]),
           periodic=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_derivative_keeps_the_whole_stack_bits(self, n_pts, rows, cols,
                                                   h, periodic, seed):
        rng = np.random.default_rng(seed)
        shape = (n_pts, rows, cols)
        frames = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        frames.real[rng.random(shape) < 0.1] = -0.0
        frames.imag[rng.random(shape) < 0.1] = 0.0
        if periodic:
            frames[-1] = frames[0]
            ref = reference_wraparound_derivative(frames, h)
        else:
            ref = reference_open_derivative(frames, h)
        out = invariant.frame_derivative(frames, h, periodic=periodic)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("periodic", [True, False],
                             ids=["periodic", "open"])
    def test_derivative_holds_one_extra_series(self, periodic):
        # the oscillator's W-frame columns: out and one reused stencil term
        # (the whole-stack expressions held three series at once)
        rng = np.random.default_rng(8)
        shape = (513, 56, 6)
        frames = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        frames[-1] = frames[0]
        tracemalloc.start()
        try:
            invariant.frame_derivative(frames, 0.01, periodic=periodic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * frames.nbytes

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), n_pts=st.sampled_from([129, 257]),
           periodic=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_hstar_samples_match_per_point_loop(self, dim, n_pts, periodic,
                                                seed):
        # smooth unitary frames e^{-iKt} V with spec K in {-1, 0, 1}
        rng = np.random.default_rng(seed)
        q, v = (np.linalg.qr(rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))[0]
                for _ in range(2))
        grid = np.linspace(0.0, 2 * np.pi, n_pts)
        spec = rng.integers(-1, 2, size=dim).astype(float)
        frames = spectral_exp(spec, q, grid) @ v
        if periodic:
            frames[-1] = frames[0]
        frame = InvariantFrame(grid, np.arange(dim, dtype=float),
                               np.ones(dim, dtype=int), frames, periodic, 1.0)
        captured = []
        build = HamiltonianSchedule.from_samples.__func__

        def spy(cls, grid, samples, **kw):
            captured.append(samples)
            return build(cls, grid, samples, **kw)

        with mock.patch.object(HamiltonianSchedule, "from_samples",
                               classmethod(spy)):
            hstar(frame)
        assert captured[0].tobytes() == reference_hstar_samples(
            frame).tobytes()


class TestFirstFailingPoint:
    """Each whole-grid check names the first failing grid point."""

    grid = np.linspace(0.0, 1.0, 9)
    lam = np.array([1.0, 2.0, 3.0])
    mix = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)

    def _invariant(self, bad=()):
        samples = np.stack([np.diag(self.lam).astype(complex)] * 9)
        for k in bad:
            samples[k] += 1e-3 * (self.mix - np.diag([0, 0, 1]))
        return InvariantPath(self.grid, samples)

    def _frame(self, bad=()):
        frames = np.stack([np.eye(3, dtype=complex)] * 9)
        for k in bad:
            frames[k] *= 2.0
        return InvariantFrame(self.grid, self.lam, [1, 1, 1], frames,
                              False, 1.0)

    def test_validate_orthonormality_first_at_same_index(self):
        with pytest.raises(ComputeError, match="eigen-residual .* index 3$"):
            self._frame(bad=[5]).validate(self._invariant(bad=[3, 6]))
        with pytest.raises(ComputeError, match="not orthonormal at index 3$"):
            self._frame(bad=[3, 5]).validate(self._invariant(bad=[3]))

    def test_commutator_checks_name_first_point(self):
        t3 = self.grid[3]
        x = HamiltonianSchedule.from_callable(
            lambda t: np.diag(self.lam) + (t > t3 - 1e-12) * self.mix, 3)
        with pytest.raises(SymmetryViolation, match=f"t={t3:.9g}$"):
            symmetry_check(x, self._invariant())
        path = evolve(HamiltonianSchedule.constant(np.diag(self.lam)), 1.0,
                      steps=8)
        with pytest.raises(SymmetryViolation, match=f"t={t3:.9g}$"):
            compose_geq(path, x, invariant0=np.diag(self.lam))
        z = np.stack([np.eye(3, dtype=complex)] * 9)
        z[[3, 6]] = self.mix
        with pytest.raises(SymmetryViolation, match="grid index 3 "):
            gauge_transform(self._frame(), z)

    def test_commutator_checks_fail_on_nan(self):
        # a NaN defect is not within the bound, so its point fails; an X
        # whose commutator overflows gives one
        t4 = self.grid[4]
        x = HamiltonianSchedule.from_callable(
            lambda t: np.diag(self.lam) + (t > t4 - 1e-12) * 1e308 * self.mix,
            3)
        with np.errstate(all="ignore"), pytest.raises(
                SymmetryViolation, match=f"norm nan > 1.0e-08 .* t={t4:.9g}$"):
            symmetry_check(x, self._invariant())
        path = evolve(HamiltonianSchedule.constant(np.diag(self.lam)), 1.0,
                      steps=8)
        y = HamiltonianSchedule.constant(np.diag(self.lam))
        with pytest.raises(SymmetryViolation,
                           match=r"norm nan > 1e-8 at grid point t=0$"):
            compose_geq(path, y, invariant0=np.diag([np.nan, 2.0, 3.0]))
        z = np.stack([np.eye(3, dtype=complex)] * 9)
        z[4, 0, 0] = np.nan
        with pytest.raises(SymmetryViolation, match="grid index 4 "):
            gauge_transform(self._frame(), z)


class TestGaugeTransform:
    def _frame(self):
        k, i0, _, path, period = cranked_setup(steps=512)
        inv = transport(path, i0)
        return eigenframe(inv, enforce_periodic=True), period

    def test_identity_gauge(self):
        frame, period = self._frame()
        z = np.stack([np.eye(frame.dim, dtype=complex)] * frame.grid.size)
        primed, sched = gauge_transform(frame, z)
        assert np.array_equal(primed.frames, frame.frames)

    def test_constant_gauge(self):
        frame, period = self._frame()
        phases = np.exp(1j * np.linspace(0.1, 2.0, frame.dim))
        z0 = np.diag(phases)
        z = np.stack([z0] * frame.grid.size)
        primed, sched_p = gauge_transform(frame, z)
        sched = hstar(frame)
        # H*' = H* for constant gauges; U*' = U* Z
        for t in (0.5, 3.0):
            assert frob(sched_p.sample(t) - sched.sample(t)) < 1e-8
        assert frob(primed.frames[7] - frame.frames[7] @ z0) < 1e-14

    def test_periodic_phase_gauge_keeps_closure(self):
        frame, period = self._frame()
        n_pts = frame.grid.size
        thetas = np.sin(2 * np.pi * np.arange(n_pts) / (n_pts - 1))
        z = np.stack([
            np.diag(np.exp(1j * th * np.arange(1, frame.dim + 1)))
            for th in thetas
        ])
        primed, _ = gauge_transform(frame, z)
        assert primed.periodic

    def test_mixing_gauge_rejected(self):
        frame, period = self._frame()
        x = np.eye(frame.dim)
        x[:2, :2] = [[0, 1], [1, 0]]  # swaps two eigenvectors
        z = np.stack([x.astype(complex)] * frame.grid.size)
        with pytest.raises(SymmetryViolation):
            gauge_transform(frame, z)

    def test_grid_mismatch(self):
        frame, period = self._frame()
        grid = np.linspace(0, period, 8)
        z = UnitaryPath(grid, np.stack([np.eye(frame.dim, dtype=complex)] * 8))
        with pytest.raises(DimensionMismatch):
            gauge_transform(frame, z)


def reference_eigenframe(inv):
    """The row-by-row matching ``eigenframe`` made before it decomposed
    chunks: an ``eigh`` per sample (row 0 in the gauge of
    ``canonical_basis``, as ``eigenframe`` takes it), its checks in the
    order structure, drift, then each block's overlap, and each block
    matched to the previous frame (phase for one column, adjoint polar
    factor of the overlap for a degenerate block).  Returns
    ``(frames, min_overlap)``."""
    s = inv.samples
    grid = inv.grid
    w0, v0 = linalg.eigh(hermitize(s[0]), check_hermitian=False)
    v0 = linalg.canonical_basis(w0, v0)
    thresh = invariant.DEGENERACY_GAP * max(frob(s[0]), 1.0)
    bounds = linalg.cluster_bounds(w0, thresh)
    starts, sizes = bounds[:-1].tolist(), np.diff(bounds).tolist()
    frames = [v0]
    min_overlap = 1.0
    for k in range(1, grid.size):
        w, v = linalg.eigh(hermitize(s[k]), check_hermitian=False)
        bounds_k = linalg.cluster_bounds(w, thresh)
        if not np.array_equal(bounds_k, bounds):
            raise DegeneracyCrossing(
                f"degeneracy structure changed at t={grid[k]:.6g}: "
                f"{np.diff(bounds_k).tolist()} vs {sizes} at t=0")
        if np.any(np.abs(w - w0) > invariant.SPECTRUM_DRIFT
                  * (1 + np.abs(w0))):
            raise ComputeError(
                f"invariant spectrum drifted at t={grid[k]:.6g}")
        prev = frames[-1]
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
                v[:, sl] = v[:, sl] @ polar_unitary(overlap).conj().T
                min_overlap = min(min_overlap, float(sv[-1]))
        frames.append(v)
    return np.array(frames), min_overlap


def mixed_degenerate_path(n_pts, seed, t_max=2.3):
    """A rotated path whose ``I0`` has levels of multiplicity 1, 2 and 3
    in a random basis: single columns and degenerate blocks of two sizes,
    each moving with ``e^{-iKt}``."""
    rng = np.random.default_rng(seed)
    levels = np.array([0.5, 1.0, 1.0, 1.7, 2.2, 2.2, 2.2, 3.0])
    q = np.linalg.qr(rng.normal(size=(8, 8))
                     + 1j * rng.normal(size=(8, 8)))[0]
    i0 = hermitize((q * levels) @ q.conj().T)
    grid = np.linspace(0.0, t_max, n_pts)
    return InvariantPath.rotated(grid, i0, rng.normal(size=8)), levels


def failure_of(fn, *args):
    """``(type, message)`` of what ``fn(*args)`` raises."""
    with pytest.raises((DegeneracyCrossing, ComputeError,
                        OverlapTooSmall)) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


class TestChunkedEigenframe:
    """``eigenframe`` decomposes chunks of samples at once and matches
    them through phase chains and running polar products; it agrees with
    the row-by-row matching and fails where and as it failed."""

    def test_longer_than_one_chunk_matches_the_row_loop(self):
        path, levels = mixed_degenerate_path(
            2 * invariant._FRAME_CHUNK_BYTES // (16 * 64) + 77, 3)
        frame = eigenframe(path)
        ref, ref_min = reference_eigenframe(path)
        assert list(frame.degeneracies) == [1, 2, 1, 3, 1]
        assert np.abs(frame.frames - ref).max() < 1e-12
        assert frame.min_overlap == pytest.approx(ref_min, abs=1e-14)
        frame.validate(path)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n_pts=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           rows=st.integers(1, 7))
    def test_any_chunking_matches_the_row_loop(self, n_pts, seed, rows):
        path, _ = mixed_degenerate_path(n_pts, seed, t_max=0.02 * n_pts)
        with mock.patch.object(invariant, "_FRAME_CHUNK_BYTES",
                               rows * 16 * 64):
            frame = eigenframe(path)
        ref, ref_min = reference_eigenframe(path)
        assert np.abs(frame.frames - ref).max() < 1e-12
        assert frame.min_overlap == pytest.approx(ref_min, abs=1e-14)

    @staticmethod
    def _stack(n_pts=30):
        """Levels 0, 1 (two-fold) and 2 in a random basis, rotated slowly."""
        grid = np.linspace(0.0, 1.0, n_pts)
        q = np.linalg.qr(random_hermitian(4, 8))[0]
        kd = np.array([0.3, -0.2, 0.5, 0.1])
        p = np.exp(-1j * np.outer(grid, kd))
        i0 = (q * np.array([0.0, 1.0, 1.0, 2.0])) @ q.conj().T
        return grid, np.einsum("ti,ij,tj->tij", p, i0, p.conj())

    @staticmethod
    def _break(s, what, k):
        """Make row ``k`` fail: ``crossing`` splits the two-fold level
        (which also drifts), ``drift`` scales the row, ``overlap`` reflects
        rows ``k:`` to swap the two single levels (both overlaps vanish),
        ``block`` turns rows ``k:`` so the two-fold block and the top level
        overlap by cos 1.2."""
        w, v = np.linalg.eigh(s[k])
        if what == "crossing":
            w[2] -= 1e-3
            s[k] = (v * w) @ v.conj().T
        elif what == "drift":
            s[k] *= 1 + 1e-6
        else:
            if what == "overlap":
                u = v[:, 0] - v[:, 3]
                r = np.eye(4) - np.outer(u, u.conj())
            else:
                a, b = v[:, 2], v[:, 3]
                c, sn = np.cos(1.2), np.sin(1.2)
                r = (np.eye(4) + (c - 1) * (np.outer(a, a.conj())
                                            + np.outer(b, b.conj()))
                     + sn * (np.outer(b, a.conj()) - np.outer(a, b.conj())))
            s[k:] = r @ s[k:] @ r.conj().T

    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("breaks, expected", [
        ([("crossing", 11)], DegeneracyCrossing),
        ([("drift", 11)], ComputeError),
        ([("overlap", 11)], OverlapTooSmall),
        ([("block", 11)], OverlapTooSmall),
        ([("overlap", 11), ("drift", 11)], ComputeError),
        ([("block", 11), ("crossing", 11)], DegeneracyCrossing),
        ([("drift", 23), ("overlap", 17)], OverlapTooSmall),
        ([("overlap", 23), ("drift", 17)], ComputeError),
    ], ids=["crossing", "drift", "overlap", "block", "drift-first",
            "crossing-first", "earlier-overlap", "earlier-drift"])
    def test_failures_match_the_row_loop(self, breaks, expected, rows):
        grid, s = self._stack()
        for what, k in breaks:
            self._break(s, what, k)
        path = InvariantPath(grid, hermitize(s))
        with mock.patch.object(invariant, "_FRAME_CHUNK_BYTES",
                               rows * 16 * 16):
            got = failure_of(eigenframe, path)
        assert got == failure_of(reference_eigenframe, path)
        assert got[0] is expected
        k = min(k for _, k in breaks)
        assert got[1].endswith(f"t={grid[k]:.6g}") or (
            f"t={grid[k]:.6g}:" in got[1])
        if breaks[0][0] == "block" and expected is OverlapTooSmall:
            assert got[1].startswith("block overlap 0.3")
        if breaks[0][0] == "overlap" and expected is OverlapTooSmall:
            assert got[1].startswith("overlap 0.0")
