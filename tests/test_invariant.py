import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from invphase import invariant
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
from invphase.linalg import (comm_norm, expm_igen, frob, hermitize,
                             polar_unitary, spectral_exp)
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
    phases = np.exp(-1j * np.outer(grid, kd))
    samples = np.einsum("ti,ij,tj->tij", phases,
                        random_hermitian(dim, seed), phases.conj())
    return InvariantPath(grid, samples), kd


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
    path, _ = analytic_path(dim, n_pts, draw(st.integers(0, 2**32 - 1)))
    if rows:
        path.samples[draw(st.sampled_from(rows))] *= 1 + 1e-9
    return path


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
    def test_empty_path_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty grid"):
            InvariantPath(np.array([]), np.zeros((0, 2, 2)))

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
        # broadcast against the 2 x 2 bracket
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
        assert np.array_equal(lvn_residual(path, sched),
                              reference_lvn_residual(path, sched))

    def test_diagnostics_run_in_bounded_memory(self):
        dim = 32
        path, kd = analytic_path(dim, 16 * chunk_rows(dim) + 1, seed=3)
        sched = HamiltonianSchedule.constant(np.diag(kd))
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: lvn_residual(path, sched),
                        path.spectrum_drift):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        # the stack itself is 32 MiB; whole-stack temporaries are 100 % each
        assert max(peaks) < 0.25 * path.samples.nbytes


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
