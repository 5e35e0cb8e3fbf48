import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invphase import phases
from invphase.cranked import CrankedSystem, cranked_U
from invphase.errors import (
    DegenerateEigenvalue,
    IncompleteRecord,
    NotCyclic,
    SymmetryViolation,
)
from invphase.invariant import (
    InvariantFrame,
    InvariantPath,
    build_geq,
    eigenframe,
    frame_derivative,
    gauge_transform,
    hstar,
    transport,
)
from invphase.linalg import expm_igen, frob, hermitize
from invphase.phases import (
    abelian_phases,
    nonabelian_holonomy,
    project,
    reconstruct_U,
    solve_un,
    total_phase_decompose,
    wrap_angle,
)
from invphase.propagator import (HamiltonianSchedule, UnitaryPath, evolve,
                                 uniform_spacing)


def integer_spectrum_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q @ np.diag(np.arange(dim, dtype=float)) @ q.conj().T


class CrankedFixture:
    """Cranked system with exact phase anchors.

    H(t) = e^{-iKt} H0 e^{iKt}, H0 = I0 + K, I0 diagonal, K with integer
    spectrum so everything is exactly periodic with T = 2 pi:
      total_n = -2 pi lam_n  (mod 2 pi),   delta_n(T) = -(lam_n + K_nn) T,
      geometric_n = 2 pi K_nn (mod 2 pi).
    """

    def __init__(self, dim=5, steps=1024, seed=0):
        self.dim = dim
        self.period = 2 * np.pi
        self.k = integer_spectrum_hermitian(dim, seed)
        self.lam = np.linspace(0.25, 2.25, dim)
        self.i0 = np.diag(self.lam)
        h0 = self.i0 + self.k

        def ham(t):
            u = expm_igen(self.k, t)
            return u @ h0 @ u.conj().T

        self.sched = HamiltonianSchedule.from_callable(
            ham, dim, period=self.period)
        self.path = evolve(self.sched, self.period, steps=steps, tol=1e-10)
        self.inv = transport(self.path, self.i0)
        self.frame = eigenframe(self.inv, enforce_periodic=True)
        self.record = project(self.frame, self.sched)
        self.k_diag = np.diag(self.k).real


@pytest.fixture(scope="module")
def cranked():
    return CrankedFixture()


@pytest.fixture(scope="module")
def hstar_setup(cranked):
    sched = hstar(cranked.frame)
    record = project(cranked.frame, sched)
    return sched, record


class TestProject:
    def test_constant_frame_constant_diag(self):
        grid = np.linspace(0, 1, 9)
        i0 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 9))
        frame = eigenframe(inv)
        sched = HamiltonianSchedule.constant(np.diag([5.0, -2.0, 0.5]))
        rec = project(frame, sched)
        for n, e_val in enumerate([5.0, -2.0, 0.5]):
            assert np.allclose(rec.A[n], 0.0, atol=1e-12)
            assert np.allclose(rec.E[n], e_val, atol=1e-12)
            assert np.array_equal(rec.Delta[n], rec.E[n] - rec.A[n])

    def test_cranked_energy_projection(self, cranked):
        # E^n(t) = lam_n + K_nn, constant in t
        for n in range(cranked.dim):
            expected = cranked.lam[n] + cranked.k_diag[n]
            e_series = cranked.record.E[n][:, 0, 0].real
            assert np.max(np.abs(e_series - expected)) < 1e-7

    def test_hstar_delta_vanishes(self, cranked, hstar_setup):
        _, record = hstar_setup
        scale = max(frob(cranked.k), 1.0)
        for n in range(cranked.dim):
            assert np.max(np.abs(record.Delta[n])) < 1e-6 * scale

    def test_a_residual_reported(self, cranked):
        assert 0.0 <= cranked.record.a_residual < 1e-6

    def test_non_uniform_grid_rejected(self):
        # a path stored on a non-uniform subset of its integration grid
        h = integer_spectrum_hermitian(3, 4)
        sched = HamiltonianSchedule.constant(h)
        grid = np.linspace(0.0, 1.0, 65)
        path = evolve(sched, 1.0, steps=64,
                      store=np.delete(grid, [3, 17, 18, 40]))
        frame = eigenframe(transport(path, np.diag([0.5, 1.0, 2.0])))
        with pytest.raises(ValueError, match="uniform grid"):
            project(frame, sched)


class TestSolveUn:
    def test_zero_delta_gives_identity(self, cranked, hstar_setup):
        _, record = hstar_setup
        solve_un(record)
        for n in range(cranked.dim):
            assert np.max(np.abs(record.u[n] - 1.0)) < 1e-5

    def test_constant_delta_scalar_exponential(self):
        grid = np.linspace(0, 1, 9)
        i0 = np.diag([1.0, 2.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 9))
        frame = eigenframe(inv)
        c = 0.7
        rec = project(frame, HamiltonianSchedule.constant(
            np.diag([c, -0.3])))
        solve_un(rec)
        for k, t in enumerate(grid):
            assert abs(rec.u[0][k, 0, 0] - np.exp(-1j * c * t)) < 1e-12

    def test_closed_series_below_unit_norm(self):
        # Delta = 0.1 cos(2 pi t) on a periodic 1x1 frame, last sample off
        # by 5e-11: within 1e-10 of a unit floor, so solve_un once asked
        # for periodic interpolation, which from_samples' wrap check (1e-10
        # of the largest sample norm) rejected with ValueError
        grid = np.linspace(0.0, 1.0, 129)
        frame = InvariantFrame(grid, [0.0], [1], np.ones((129, 1, 1)),
                               True, 1.0)
        e = 0.1 * np.cos(2 * np.pi * grid)
        e[-1] += 5e-11
        rec = phases.PhaseRecord(
            frame, [e.reshape(-1, 1, 1).astype(complex)],
            [np.zeros((129, 1, 1), dtype=complex)], 0.0)
        u = solve_un(rec).u[0][:, 0, 0]
        exact = np.exp(-0.1j * np.sin(2 * np.pi * grid) / (2 * np.pi))
        assert np.max(np.abs(u - exact)) < 1e-8

    def test_u_unitary_and_initial(self, cranked):
        rec = solve_un(cranked.record)
        for n in range(cranked.dim):
            assert np.array_equal(rec.u[n][0], np.eye(1))
            mags = np.abs(rec.u[n][:, 0, 0])
            assert np.max(np.abs(mags - 1.0)) < 1e-10

    def test_arg_u_equals_delta_plus_gamma(self, cranked):
        rec = abelian_phases(solve_un(cranked.record))
        for n in range(cranked.dim):
            arg_u = np.unwrap(np.angle(rec.u[n][:, 0, 0]))
            total = rec.delta_angle[n] + rec.gamma_angle[n]
            diff = wrap_angle(arg_u - total)
            assert np.max(np.abs(diff)) < 1e-7


class TestAbelianPhases:
    def test_cranked_dynamical_closed_form(self, cranked):
        rec = abelian_phases(cranked.record)
        T = cranked.period
        for n in range(cranked.dim):
            expected = -(cranked.lam[n] + cranked.k_diag[n]) * T
            assert abs(rec.delta_angle[n][-1] - expected) < 1e-7

    def test_cranked_geometric_mod_2pi(self, cranked):
        rec = abelian_phases(cranked.record)
        for n in range(cranked.dim):
            expected = wrap_angle(2 * np.pi * cranked.k_diag[n])
            got = wrap_angle(rec.gamma_angle[n][-1])
            assert abs(wrap_angle(got - expected)) < 1e-6

    def test_hstar_phases_cancel(self, cranked, hstar_setup):
        _, record = hstar_setup
        abelian_phases(record)
        for n in range(cranked.dim):
            total = record.delta_angle[n] + record.gamma_angle[n]
            assert np.max(np.abs(total)) < 1e-5

    def test_degenerate_request_rejected(self, cranked):
        doubled = InvariantPath(
            cranked.inv.grid,
            np.stack([np.kron(s, np.eye(2)) for s in cranked.inv.samples]))
        frame = eigenframe(doubled, enforce_periodic=True)
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.kron(cranked.sched.sample(t), np.eye(2)),
            2 * cranked.dim, period=cranked.period)
        rec = project(frame, sched)
        with pytest.raises(DegenerateEigenvalue):
            abelian_phases(rec, n=0)
        # without an explicit n, degenerate blocks are skipped silently
        abelian_phases(rec)
        assert rec.delta_angle == {}


class TestHolonomy:
    def test_zero_a_identity(self):
        grid = np.linspace(0, 1, 9)
        i0 = np.diag([1.0, 2.0]).astype(complex)
        inv = InvariantPath(grid, np.stack([i0] * 9))
        frame = eigenframe(inv)
        rec = project(frame, HamiltonianSchedule.constant(np.diag([1.0, 2.0])))
        nonabelian_holonomy(rec)
        for n in range(2):
            assert np.allclose(rec.Gamma_T[n], np.eye(1), atol=1e-12)

    def test_scalar_reduces_to_abelian(self, cranked):
        rec = abelian_phases(nonabelian_holonomy(cranked.record))
        for n in range(cranked.dim):
            gamma = rec.gamma_angle[n][-1]
            got = rec.Gamma_T[n][0, 0]
            assert abs(got - np.exp(1j * gamma)) < 1e-8

    def test_unitary(self, cranked):
        rec = nonabelian_holonomy(cranked.record)
        for n in range(cranked.dim):
            g = rec.Gamma_T[n]
            assert frob(g @ g.conj().T - np.eye(g.shape[0])) < 1e-8

    def test_block_diagonal_matches_per_block_abelian(self, cranked):
        doubled = InvariantPath(
            cranked.inv.grid,
            np.stack([np.kron(s, np.eye(2)) for s in cranked.inv.samples]))
        frame = eigenframe(doubled, enforce_periodic=True)
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.kron(cranked.sched.sample(t), np.eye(2)),
            2 * cranked.dim, period=cranked.period)
        rec = nonabelian_holonomy(project(frame, sched))
        # brute-force Abelian reference per 1-dimensional sub-branch
        for n in range(frame.n_blocks):
            a_block = rec.A[n]
            off = np.max(np.abs(a_block - np.einsum(
                "kab,ab->kab", a_block, np.eye(2))))
            gam = rec.Gamma_T[n]
            for a in range(2):
                scalar = np.concatenate(
                    ([0.0],
                     np.cumsum(0.5 * (a_block[:-1, a, a].real
                                      + a_block[1:, a, a].real)
                               * np.diff(rec.grid))))
                ref = np.exp(1j * scalar[-1])
                assert abs(gam[a, a] - ref) < 1e-7
            assert abs(gam[0, 1]) < 1e-7 + 10 * off


class TestReconstruct:
    def test_identity_at_zero(self, cranked):
        rec = solve_un(cranked.record)
        path = reconstruct_U(cranked.frame, rec)
        assert np.array_equal(path.samples[0], np.eye(cranked.dim))

    def test_matches_evolve(self, cranked):
        rec = solve_un(cranked.record)
        path = reconstruct_U(cranked.frame, rec)
        for idx in (137, 512, 1024):
            diff = frob(path.samples[idx] - cranked.path.samples[idx])
            assert diff < 1e-6

    def test_hstar_reconstruct_is_frame(self, cranked, hstar_setup):
        _, record = hstar_setup
        solve_un(record)
        path = reconstruct_U(cranked.frame, record)
        w0h = cranked.frame.initial().conj().T
        for idx in (256, 768):
            expected = cranked.frame.frames[idx] @ w0h
            assert frob(path.samples[idx] - expected) < 1e-5

    def test_block_drift_reaches_reconstructed_path(self, monkeypatch):
        # degenerate kron(H, 1_2) system: 2x2 blocks, each with its own drift
        small = CrankedFixture(dim=3, steps=256)
        doubled = InvariantPath(
            small.inv.grid,
            np.stack([np.kron(s, np.eye(2)) for s in small.inv.samples]))
        frame = eigenframe(doubled, enforce_periodic=True)
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.kron(small.sched.sample(t), np.eye(2)),
            2 * small.dim, period=small.period)
        drifts = []
        kernel = phases.propagate

        def recording_kernel(*args):
            out = kernel(*args)
            drifts.append(out[2])
            return out

        monkeypatch.setattr(phases, "propagate", recording_kernel)
        rec = solve_un(project(frame, sched))
        assert len(drifts) == frame.n_blocks == small.dim
        assert max(drifts) > 0.0
        assert rec.u_drift_max == max(drifts)
        assert reconstruct_U(frame, rec).drift_max == max(drifts)

    def test_incomplete_record(self, cranked):
        rec = project(cranked.frame, cranked.sched)
        with pytest.raises(IncompleteRecord):
            reconstruct_U(cranked.frame, rec)


class TestTotalPhaseDecompose:
    def test_cranked_split(self, cranked):
        rec = cranked.record
        splits = total_phase_decompose(cranked.path, cranked.frame, rec)
        T = cranked.period
        for n in range(cranked.dim):
            s = splits[(n, 0)]
            assert s.fidelity >= 1 - 1e-8
            assert abs(wrap_angle(s.total + 2 * np.pi * cranked.lam[n])) \
                < 1e-7
            expected_dyn = -(cranked.lam[n] + cranked.k_diag[n]) * T
            assert abs(s.dynamical - expected_dyn) < 1e-7
            expected_geo = wrap_angle(2 * np.pi * cranked.k_diag[n])
            assert abs(wrap_angle(s.geometric - expected_geo)) < 1e-6
            assert s.cross_check < 1e-6

    def test_hstar_total_zero(self, cranked, hstar_setup):
        sched, record = hstar_setup
        path = evolve(sched, cranked.period, steps=1024, tol=1e-8)
        splits = total_phase_decompose(path, cranked.frame, record)
        for n in range(cranked.dim):
            assert abs(splits[(n, 0)].total) < 1e-5

    def test_not_cyclic(self, cranked):
        rec = project(cranked.frame, cranked.sched)
        with pytest.raises(NotCyclic):
            total_phase_decompose(cranked.path, cranked.frame, rec,
                                  T=cranked.period / 2)

    def test_gauge_invariance_of_total(self, cranked):
        # periodic pure-phase gauge: total phases unchanged
        n_pts = cranked.frame.grid.size
        thetas = 2 * np.pi * np.arange(n_pts) / (n_pts - 1)
        z = np.stack([
            np.diag(np.exp(1j * th * np.arange(cranked.dim)))
            for th in thetas
        ])
        primed, _ = gauge_transform(cranked.frame, z)
        rec0 = project(cranked.frame, cranked.sched)
        rec1 = project(primed, cranked.sched)
        s0 = total_phase_decompose(cranked.path, cranked.frame, rec0)
        s1 = total_phase_decompose(cranked.path, primed, rec1)
        for n in range(cranked.dim):
            d = abs(wrap_angle(s0[(n, 0)].total - s1[(n, 0)].total))
            assert d < 1e-8


class TestGeometricEquivalenceProperties:
    def test_a_series_bitwise_invariant_under_geq_shift(self, cranked):
        x = HamiltonianSchedule.from_callable(
            lambda t: np.sin(t) * (expm_igen(cranked.k, t) @ cranked.i0
                                   @ expm_igen(cranked.k, -t)),
            cranked.dim, )
        h2 = build_geq(cranked.sched, x, invariant=cranked.inv)
        rec1 = project(cranked.frame, cranked.sched)
        rec2 = project(cranked.frame, h2)
        for n in range(cranked.dim):
            assert np.array_equal(rec1.A[n], rec2.A[n])
        # dynamical phases differ by int f(t) lam_n dt; geometric agree
        abelian_phases(rec1)
        abelian_phases(rec2)
        T = cranked.period
        for n in range(cranked.dim):
            shift = cranked.lam[n] * (1 - np.cos(T))  # int_0^T sin(t) lam dt
            d1 = rec1.delta_angle[n][-1]
            d2 = rec2.delta_angle[n][-1]
            assert abs((d1 - d2) - shift) < 1e-8
            assert np.array_equal(rec1.gamma_angle[n], rec2.gamma_angle[n])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           c=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
    def test_polynomial_symmetry_keeps_a_and_shifts_e(self, dim, seed, c):
        # X = f I + g I^2 commutes with I(t): A^n is bitwise unchanged and
        # E^n moves by f lam_n + g lam_n^2.  Measured worst error over 40
        # random systems: 3.5e-15 in units of 1 + |f lam_n| + |g| lam_n^2.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = np.linalg.qr(g)[0]
        k = (q * rng.integers(-2, 3, size=dim)) @ q.conj().T
        lam = np.sort(rng.uniform(-3.0, 3.0, size=dim))
        system = CrankedSystem(np.diag(lam) + k, k)
        grid = np.linspace(0.0, 2 * np.pi, 129)
        inv = InvariantPath(grid, np.array(
            [system.rotate(system.i0.array, t) for t in grid]))
        frame = eigenframe(inv, enforce_periodic=True)
        h = HamiltonianSchedule.from_callable(
            lambda t: system.rotate(system.h0.array, t), dim,
            period=2 * np.pi)

        def f(t):
            return c[0] + c[1] * np.cos(t) + c[2] * np.sin(2 * t)

        def gfn(t):
            return c[3] + c[4] * np.cos(t) + c[5] * np.sin(t)

        def x(t):
            i_t = system.rotate(system.i0.array, t)
            return f(t) * i_t + gfn(t) * (i_t @ i_t)

        rec = project(frame, h)
        rec_geq = project(frame, build_geq(
            h, HamiltonianSchedule.from_callable(x, dim), inv))
        fs, gs = f(grid), gfn(grid)
        for n, lam_n in enumerate(frame.eigenvalues):
            assert np.array_equal(rec_geq.A[n], rec.A[n])
            shift = fs * lam_n + gs * lam_n ** 2
            err = np.abs(rec_geq.E[n][:, 0, 0] - rec.E[n][:, 0, 0] - shift)
            scale = 1 + np.abs(fs * lam_n) + np.abs(gs) * lam_n ** 2
            assert np.all(err <= 1e-13 * scale)

        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        bad = HamiltonianSchedule.from_callable(
            lambda t: (1.0 + f(t) ** 2) * (r + r.conj().T), dim)
        with pytest.raises(SymmetryViolation):
            build_geq(h, bad, inv)

    def test_simpson_fourth_order_decay(self):
        # quadrature property on a synthetic integrand with known integral
        def build(n_steps):
            grid = np.linspace(0, 1, n_steps + 1)
            i0 = np.diag([1.0, 2.0]).astype(complex)
            inv = InvariantPath(grid, np.stack([i0] * (n_steps + 1)))
            frame = eigenframe(inv)
            rec = project(frame, HamiltonianSchedule.constant(i0))
            rec.E[0] = np.exp(np.cos(
                2 * np.pi * grid)).reshape(-1, 1, 1).astype(complex)
            rec.A[0] = np.zeros_like(rec.E[0])
            return abelian_phases(rec, n=0)

        from scipy.special import iv
        exact = -float(iv(0, 1.0))  # -integral of e^{cos 2 pi t} over [0,1]
        errs = [abs(build(n).delta_angle[0][-1] - exact) for n in (16, 32)]
        assert errs[0] / errs[1] > 12


def _reference_project(frame, schedule):
    """``E``, ``A`` and ``a_residual`` as the per-grid-point loop of
    ``project`` computed them."""
    vdot = frame_derivative(frame.frames, uniform_spacing(frame.grid),
                            frame.periodic)
    slices = [frame.block_slice(n) for n in range(frame.n_blocks)]
    E = [np.empty((frame.grid.size, d, d), dtype=complex)
         for d in frame.degeneracies]
    A = [np.empty_like(e) for e in E]
    a_residual = 0.0
    for k, t in enumerate(frame.grid):
        w = frame.frames[k]
        hw = schedule.sample(t) @ w
        aw = 1j * (w.conj().T @ vdot[k])
        for n, sl in enumerate(slices):
            E[n][k] = hermitize(w[:, sl].conj().T @ hw[:, sl])
            A[n][k] = hermitize(aw[sl, sl])
            a_residual = max(a_residual, frob(aw[sl, sl] - A[n][k]))
    return E, A, a_residual


def _reference_reconstruct(frame, u):
    """``reconstruct_U`` samples as the per-grid-point loop built them."""
    dim = frame.dim
    w0h = frame.initial().conj().T
    samples = np.empty_like(frame.frames)
    for k in range(frame.grid.size):
        block = np.zeros((dim, dim), dtype=complex)
        for n in range(frame.n_blocks):
            sl = frame.block_slice(n)
            block[sl, sl] = u[n][k]
        samples[k] = frame.frames[k] @ block @ w0h
    samples[0] = np.eye(dim)
    return samples


def _complex_with_signed_zeros(rng, shape):
    out = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out.real[rng.random(shape) < 0.1] = -0.0
    out.imag[rng.random(shape) < 0.1] = 0.0
    return out


class TestStackedFrameAlgebra:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 8), n_pts=st.integers(5, 20),
           periodic=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_project_and_reconstruct_match_per_point_loops(
            self, dim, n_pts, periodic, seed):
        # random consecutive blocks (degenerate ones included) on frames
        # that need not be unitary; every block must keep its bits
        rng = np.random.default_rng(seed)
        cuts = np.flatnonzero(rng.random(dim - 1) < 0.5) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [dim])))
        frames = _complex_with_signed_zeros(rng, (n_pts, dim, dim))
        if periodic:
            frames[-1] = frames[0]
        frame = InvariantFrame(np.linspace(0.0, 1.0, n_pts),
                               np.arange(sizes.size, dtype=float), sizes,
                               frames, periodic, 1.0)
        a, b = (hermitize(_complex_with_signed_zeros(rng, (dim, dim)))
                for _ in range(2))
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.cos(3 * t) * a + t * b, dim)
        rec = project(frame, sched)
        E, A, a_residual = _reference_project(frame, sched)
        for n in range(frame.n_blocks):
            assert rec.E[n].tobytes() == E[n].tobytes()
            assert rec.A[n].tobytes() == A[n].tobytes()
        # stacked Frobenius norms sum in another order
        assert rec.a_residual == pytest.approx(a_residual, rel=1e-13)

        rec.u = [_complex_with_signed_zeros(rng, (n_pts, d, d))
                 for d in sizes]
        assert (reconstruct_U(frame, rec).samples.tobytes()
                == _reference_reconstruct(frame, rec.u).tobytes())


class TestGaugeInvarianceProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_total_phase_is_gauge_invariant(self, dim, seed):
        # single-valued Z(t) = diag(exp(i theta_n(t))) with
        # theta_n = 2 pi m_n t/T + a_n sin(2 pi t/T) and Z(0) = 1.  The
        # totals keep their bits, delta_n agrees to rounding and gamma_n
        # moves by -2 pi m_n.  Measured worst over 40 random systems at
        # 513 points: delta 7.6e-16 relative, gamma 4.5e-6 (the 4th-order
        # stencil and Simpson error of the extra connection term).
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q = np.linalg.qr(g)[0]
        k = (q * rng.integers(-2, 3, size=dim)) @ q.conj().T
        system = CrankedSystem(
            np.diag(np.sort(rng.uniform(-3.0, 3.0, size=dim))) + k, k)
        T = 2 * np.pi
        grid = np.linspace(0.0, T, 513)
        frame = eigenframe(InvariantPath(grid, np.array(
            [system.rotate(system.i0.array, t) for t in grid])),
            enforce_periodic=True)
        h = HamiltonianSchedule.from_callable(
            lambda t: system.rotate(system.h0.array, t), dim, period=T)
        path = UnitaryPath([0.0, T], [np.eye(dim),
                                      cranked_U(system, T).array])
        m = rng.integers(-2, 3, size=dim)
        theta = (np.outer(grid, 2 * np.pi * m / T)
                 + np.outer(np.sin(2 * np.pi * grid / T),
                            rng.uniform(-1.0, 1.0, size=dim)))
        z = np.zeros((grid.size, dim, dim), dtype=complex)
        z[:, np.arange(dim), np.arange(dim)] = np.exp(1j * theta)
        primed, _ = gauge_transform(frame, z)
        rec, rec_p = project(frame, h), project(primed, h)
        splits = total_phase_decompose(path, frame, rec)
        splits_p = total_phase_decompose(path, primed, rec_p)
        for n in range(dim):
            s, s_p = splits[(n, 0)], splits_p[(n, 0)]
            assert s_p.total == s.total
            assert abs(s_p.dynamical - s.dynamical) <= 1e-13 * (
                1 + abs(s.dynamical))
            shift = rec_p.gamma_angle[n][-1] - rec.gamma_angle[n][-1]
            assert abs(wrap_angle(shift)) < 2e-5
            assert abs(shift + 2 * np.pi * m[n]) < 2e-5
