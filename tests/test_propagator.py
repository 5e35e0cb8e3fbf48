import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invphase import linalg
from invphase.errors import (
    DimensionMismatch,
    NonHermitianInput,
    SymmetryViolation,
    ToleranceNotMet,
)
from invphase.linalg import expm_igen, frob, hermitize
from invphase.propagator import (
    HamiltonianSchedule,
    UnitaryPath,
    _adaptive_step,
    compose_geq,
    evolve,
    loop_check,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestSchedule:
    def test_constant(self):
        h = HamiltonianSchedule.constant(np.diag([1.0, 2.0]))
        assert h.is_constant and h.dim == 2
        assert np.array_equal(h.sample(0.0), h.sample(3.7))

    def test_callable_periodicity_enforced(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        fn = lambda t: np.cos(t) * x
        HamiltonianSchedule.from_callable(fn, 2, period=2 * np.pi)
        with pytest.raises(ValueError):
            HamiltonianSchedule.from_callable(fn, 2, period=1.0)

    @pytest.mark.parametrize("form", ["scalar_profile", "callable",
                                      "samples"])
    def test_periodic_schedule_vanishing_at_zero_accepted(self, form):
        # H(0) = 0: the defect is measured against the largest probed
        # ||H||_F, not against ||H(0)||_F (rounding read as 3.5e284)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        grid = np.linspace(0.0, 1.0, 9)
        if form == "scalar_profile":
            HamiltonianSchedule.scalar_profile(
                lambda t: np.sin(2 * np.pi * t), x, period=1.0)
        elif form == "callable":
            HamiltonianSchedule.from_callable(
                lambda t: np.sin(t) * x, 2, period=2 * np.pi)
        else:
            HamiltonianSchedule.from_samples(
                grid, [np.sin(2 * np.pi * t) * x for t in grid], period=1.0)

    def test_wrong_periods_still_rejected(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="declared period 0.7"):
            HamiltonianSchedule.scalar_profile(
                lambda t: np.sin(2 * np.pi * t), x, period=0.7)
        grid = np.linspace(0.0, 1.0, 9)
        table = np.array([np.cos(2 * np.pi * t) * x for t in grid])
        table[-1] *= 1 + 1e-6
        with pytest.raises(ValueError, match="differ"):
            HamiltonianSchedule.from_samples(grid, table, period=1.0)

    def test_callable_must_be_hermitian(self):
        bad = lambda t: np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianInput):
            HamiltonianSchedule.from_callable(bad, 2)

    def test_sampled_interpolation_accuracy(self):
        # cubic Lagrange on a smooth schedule: O(h^4) interior error
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        exact = lambda t: np.sin(t) * x + np.cos(2 * t) * z
        errs = []
        for n in (64, 128):
            grid = np.linspace(0.0, 1.0, n + 1)
            tab = HamiltonianSchedule.from_samples(
                grid, [exact(t) for t in grid])
            probes = np.linspace(0.013, 0.97, 37)
            errs.append(max(frob(tab.sample(t) - exact(t)) for t in probes))
        assert errs[0] < 1e-7
        assert errs[0] / errs[1] > 10  # ~16x for 4th order

    def test_sampled_periodic_wraparound(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        period = 2 * np.pi
        exact = lambda t: np.cos(t) * x
        grid = np.linspace(0.0, period, 257)
        tab = HamiltonianSchedule.from_samples(
            grid, [exact(t) for t in grid], period=period)
        # wraparound both near the seam and far outside the base interval
        for t in (-0.1, 0.02, period - 0.02, 3.4 * period):
            assert frob(tab.sample(t) - exact(t)) < 1e-8

    def test_scalar_profile(self):
        base = np.diag([1.0, 3.0])
        sched = HamiltonianSchedule.scalar_profile(np.sin, base)
        assert np.allclose(sched.sample(0.7), np.sin(0.7) * base)
        assert sched.profile is np.sin and not sched.is_constant
        assert np.array_equal(sched.base, base)
        assert not sched.base.flags.writeable

    @pytest.mark.parametrize("bad", [
        pytest.param([[0.0, 1.0], [0.0, 0.0]], id="non-hermitian"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="non-finite"),
    ])
    def test_sampled_checks_every_sample(self, bad):
        # index 1 is none of the first, middle and last samples
        grid = np.linspace(0.0, 1.0, 9)
        table = np.stack([np.eye(2, dtype=complex)] * 9)
        table[1] = bad
        with pytest.raises(NonHermitianInput, match="sample 1:"):
            HamiltonianSchedule.from_samples(grid, table)

    def test_periodic_table_costs_one_table(self):
        # the wrap check takes the largest norm row by row: the peak is the
        # constructor's own copy of the table plus per-sample temporaries
        grid = np.linspace(0.0, 1.0, 129)
        x = random_hermitian(48, 4)
        table = np.cos(2 * np.pi * grid)[:, None, None] * x
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            HamiltonianSchedule.from_samples(grid, table, period=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table.nbytes


_ENTRIES = np.array([0.0, -0.0, 1.0, -0.5, 0.75, 2.0])


def _signed_zero_hermitian(rng, dim):
    """Exactly Hermitian matrix whose entries include signed zeros."""
    def draw():
        pick = _ENTRIES[rng.integers(_ENTRIES.size, size=(dim, dim))]
        return np.where(rng.random((dim, dim)) < 0.5, pick,
                        rng.normal(size=(dim, dim)))
    re, im = draw(), draw()
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
    h = np.empty((dim, dim), dtype=complex)
    h.real = np.where(upper, re, re.T)
    h.imag = np.where(upper, im, -im.T)
    np.fill_diagonal(h.imag, 0.0 * im.diagonal())
    return h


def _reference_interp(grid, table, period, t):
    """Cubic Lagrange evaluation as the string-dispatched schedule did it."""
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
    out = w[0] * table[idx[0]]
    for c, j in zip(w[1:], idx[1:]):
        if c != 0.0:
            out += c * table[j]
    return hermitize(out)


def _reference_sample(kind, parts, t):
    """``sample(t)`` as the string-dispatched schedule computed it."""
    if kind == "constant":
        return parts["matrix"]
    if kind == "scalar_profile":
        return float(parts["profile"](t)) * parts["matrix"]
    if kind == "callable":
        return hermitize(parts["fn"](t))
    return _reference_interp(parts["grid"], parts["table"], parts["period"],
                             t)


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestScheduleStructure:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["constant", "callable", "scalar_profile",
                                 "sampled", "sampled_periodic"]),
           dim=st.integers(1, 6), n_pts=st.integers(4, 24),
           t_max=st.sampled_from([1.0, 0.3, 2 * np.pi]),
           seed=st.integers(0, 2**32 - 1),
           offsets=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=6))
    def test_sample_matches_string_dispatch(self, kind, dim, n_pts, t_max,
                                            seed, offsets):
        rng = np.random.default_rng(seed)
        a = _signed_zero_hermitian(rng, dim)
        b = _signed_zero_hermitian(rng, dim)
        grid = np.linspace(0.0, t_max, n_pts)
        periodic = kind in ("sampled_periodic", "scalar_profile")
        period = t_max if periodic else None
        parts = {}
        if kind == "constant":
            sched = HamiltonianSchedule.constant(a)
        elif kind == "callable":
            parts["fn"] = lambda t: np.cos(t) * a + t * b
            sched = HamiltonianSchedule.from_callable(parts["fn"], dim)
        elif kind == "scalar_profile":
            parts["profile"] = lambda t: np.cos(2 * np.pi * t / t_max)
            sched = HamiltonianSchedule.scalar_profile(
                parts["profile"], a, period=period)
        else:
            table = np.stack([np.cos(t) * a + np.sin(3 * t) * b
                              for t in grid])
            if periodic:
                table[-1] = table[0]
            sched = HamiltonianSchedule.from_samples(grid, table,
                                                     period=period)
            parts.update(grid=grid, period=period,
                         table=0.5 * (table + np.conj(np.swapaxes(table, 1,
                                                                  2))))
        if kind in ("constant", "scalar_profile"):
            parts["matrix"] = hermitize(a)
            assert _same_bits(sched.base, parts["matrix"])
            for x, y in zip(sched.base_eig(),
                            linalg.eigh(parts["matrix"],
                                        check_hermitian=False)):
                assert _same_bits(x, y)
        else:
            assert sched.base is None
            with pytest.raises(ValueError):
                sched.base_eig()
        assert sched.is_constant == (kind == "constant")
        assert sched.profile is parts.get("profile")

        # every grid point (exact zero Lagrange weights), the end points
        # and inner points; periodic tables also before 0 and past a period
        inner = [t_max * (0.5 + x / 5.0) for x in offsets]
        ts = [*grid, *inner]
        if kind == "sampled_periodic" or not kind.startswith("sampled"):
            ts += [t_max * x for x in offsets] + [-t_max, 3 * t_max]
        for t in ts:
            assert _same_bits(sched.sample(t),
                              _reference_sample(kind, parts, t)), t


class TestEvolve:
    def test_constant_diagonal_exact(self):
        # U(t) = diag(e^{-i wtilde (n+1/2) t}) for constant diagonal H
        wtilde = np.sqrt(3.5)
        levels = wtilde * (np.arange(8) + 0.5)
        sched = HamiltonianSchedule.constant(np.diag(levels))
        path = evolve(sched, 2.0, steps=16)
        for t in (0.125, 1.0, 2.0):
            expected = np.diag(np.exp(-1j * levels * t))
            assert frob(path.at(t) - expected) < 1e-13
        assert np.array_equal(path.samples[0], np.eye(8))
        assert path.tol_achieved == 0.0

    def test_cranked_closed_form(self):
        # H(t) = e^{-iKt} H0 e^{iKt}  ->  U(t) = e^{-iKt} e^{-i(H0-K)t}
        dim = 6
        k = random_hermitian(dim, 1)
        h0 = random_hermitian(dim, 2)

        def ham(t):
            u = expm_igen(k, t)
            return u @ h0 @ u.conj().T

        sched = HamiltonianSchedule.from_callable(ham, dim)
        path = evolve(sched, 1.5, steps=512, tol=1e-10)
        for t in (0.375, 0.75, 1.5):
            closed = expm_igen(k, t) @ expm_igen(h0 - k, t)
            assert frob(path.at(t) - closed) < 1e-8

    def test_frame_derivative_loop(self):
        # W(t) = exp(-i a(t) A) exp(-i b(t) B) with a, b vanishing at 0, T:
        # H* = i dW/dt W^+ makes U*(t) = W(t), so U*(T) = identity.
        dim = 5
        a_op = random_hermitian(dim, 3)
        b_op = random_hermitian(dim, 4)
        T = 2.0
        w_ang = 2 * np.pi / T
        a = lambda t: 0.3 * np.sin(w_ang * t)
        da = lambda t: 0.3 * w_ang * np.cos(w_ang * t)
        b = lambda t: 0.5 * (1 - np.cos(w_ang * t))
        db = lambda t: 0.5 * w_ang * np.sin(w_ang * t)

        def w_frame(t):
            return expm_igen(a_op, a(t)) @ expm_igen(b_op, b(t))

        def hstar(t):
            ua = expm_igen(a_op, a(t))
            return da(t) * a_op + db(t) * (ua @ b_op @ ua.conj().T)

        sched = HamiltonianSchedule.from_callable(hstar, dim, period=T)
        path = evolve(sched, T, steps=1024, tol=1e-10)
        for t in (0.5, 1.0, 1.5):
            assert frob(path.at(t) - w_frame(t)) < 1e-8
        assert frob(path.at(T) - np.eye(dim)) < 1e-6

    def test_fourth_order_convergence(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.cos(3 * t) * x + np.sin(t) * z, 2)
        ref = evolve(sched, 1.0, steps=1024, tol=1e-14,
                     store=[1.0]).final()
        errs = [frob(evolve(sched, 1.0, steps=n, tol=1.0,
                            store=[1.0]).final() - ref)
                for n in (16, 32)]
        # halving the step reduces the error ~16x (allow margin)
        assert errs[0] / errs[1] > 12

    def test_unitarity_drift_bounded(self):
        sched = HamiltonianSchedule.from_callable(
            lambda t: random_hermitian(4, 9) * np.cos(t), 4)
        tol = 1e-10
        path = evolve(sched, 3.0, steps=256, tol=tol)
        assert path.drift_max <= 10 * tol
        for s in path.samples:
            assert frob(s.conj().T @ s - np.eye(4)) <= 1e-10 * 4

    def test_store_subset(self):
        sched = HamiltonianSchedule.constant(np.diag([1.0, 2.0]))
        path = evolve(sched, 1.0, steps=8, store=[0.25, 0.5])
        assert np.allclose(path.grid, [0.0, 0.25, 0.5, 1.0])
        with pytest.raises(ValueError):
            path.at(0.125)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, steps=8, store=[0.3])  # off-grid

    def test_tolerance_not_met(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.sin(1e6 * t) * x, 2)
        with pytest.raises(ToleranceNotMet):
            evolve(sched, 1.0, steps=1, tol=1e-14)

    def test_bad_args(self):
        sched = HamiltonianSchedule.constant(np.eye(2))
        with pytest.raises(ValueError):
            evolve(sched, -1.0)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, steps=0)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, tol=1e-18)


class TestComposeGeq:
    def setup_method(self):
        dim = 5
        self.i0 = np.diag(np.arange(dim, dtype=float))
        self.k = random_hermitian(dim, 12)
        self.sched = HamiltonianSchedule.from_callable(
            lambda t: expm_igen(self.k, t) @ (self.i0 + self.k)
            @ expm_igen(self.k, -t), dim)
        self.path = evolve(self.sched, 1.0, steps=256, tol=1e-10)

    def test_zero_schedule_bit_identical(self):
        zero = HamiltonianSchedule.constant(np.zeros((5, 5)))
        out = compose_geq(self.path, zero, invariant0=self.i0)
        assert out.samples is self.path.samples  # same buffer, bitwise equal

    def test_constant_y_exact(self):
        y = HamiltonianSchedule.constant(np.diag([1.0, 2.0, 0.5, -1.0, 0.0]))
        out = compose_geq(self.path, y, invariant0=self.i0)
        for t in (0.25, 1.0):
            expected = self.path.at(t) @ expm_igen(y.sample(0), t)
            assert frob(out.at(t) - expected) < 1e-13

    def test_scalar_profile_matches_cumulative_integral(self):
        f = lambda t: np.sin(3 * t)
        F = lambda t: (1 - np.cos(3 * t)) / 3
        y = HamiltonianSchedule.scalar_profile(f, self.i0)
        out = compose_geq(self.path, y, invariant0=self.i0)
        for t in (0.5, 1.0):
            expected = self.path.at(t) @ expm_igen(self.i0, F(t))
            assert frob(out.at(t) - expected) < 1e-9

    def test_callable_y_against_ode(self):
        # generic commuting Y(t): diagonal with time-dependent entries
        d1 = np.diag([1.0, 0.0, 0.0, 0.0, 0.0])
        d2 = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        yfn = lambda t: np.cos(t) * d1 + t * d2
        y = HamiltonianSchedule.from_callable(yfn, 5)
        out = compose_geq(self.path, y, invariant0=self.i0)
        # diagonal commuting family: V(t) = exp(-i * int_0^t Y)
        Yint = lambda t: np.sin(t) * d1 + 0.5 * t * t * d2
        for t in (0.5, 1.0):
            expected = self.path.at(t) @ expm_igen(Yint(t), 1.0)
            assert frob(out.at(t) - expected) < 1e-9

    @pytest.mark.parametrize("form", ["scalar_profile", "callable"])
    def test_y_zero_at_first_and_last_points_is_applied(self, form):
        # Y = sin^2(pi (t - 1/2)) I0 on (1/2, 3/2), zero elsewhere: zero at
        # the first three grid points and the last, yet int_0^2 Y = I0 / 2
        def f(t):
            return np.sin(np.pi * (t - 0.5)) ** 2 if 0.5 < t < 1.5 else 0.0
        if form == "scalar_profile":
            y = HamiltonianSchedule.scalar_profile(f, self.i0)
        else:
            y = HamiltonianSchedule.from_callable(lambda t: f(t) * self.i0, 5)
        path = evolve(HamiltonianSchedule.constant(self.k), 2.0, steps=64)
        out = compose_geq(path, y, invariant0=self.i0)
        expected = path.final() @ expm_igen(self.i0, 0.5)
        assert frob(out.final() - expected) < 1e-10

    def test_symmetry_violation(self):
        bad = HamiltonianSchedule.constant(random_hermitian(5, 77))
        with pytest.raises(SymmetryViolation) as exc:
            compose_geq(self.path, bad, invariant0=self.i0)
        assert "t=" in str(exc.value)


def _reference_stepping(schedule, grid, tol):
    """Stepping loop each caller carried before the shared kernel."""
    u = np.eye(schedule.dim, dtype=complex)
    out = [u]
    for k in range(grid.size - 1):
        h = grid[k + 1] - grid[k]
        transfer, _ = _adaptive_step(schedule, grid[k], h, tol)
        u = transfer @ u
        out.append(u)
    return np.array(out)


class TestKernel:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           stored=st.sets(st.integers(1, 31), min_size=1, max_size=12))
    def test_compose_geq_matches_reference_on_nonuniform_grid(
            self, dim, seed, stored):
        a = random_hermitian(dim, seed) / dim
        b = random_hermitian(dim, seed + 1) / dim
        full = np.linspace(0.0, 1.0, 33)
        path = evolve(HamiltonianSchedule.constant(a), 1.0, steps=32,
                      store=full[sorted(stored)])
        y = HamiltonianSchedule.from_callable(
            lambda t: a + np.cos(t) * b, dim)
        out = compose_geq(path, y)
        expected = path.samples @ _reference_stepping(y, path.grid, 1e-10)
        eye = np.eye(dim)
        for k in range(len(path)):
            assert frob(out.samples[k] - expected[k]) <= 1e-12
            u = out.samples[k]
            assert frob(u @ u.conj().T - eye) <= 1e-12 * dim


class TestLoopCheck:
    def test_sho_loops(self):
        # K = diag(omega (n + 1/2)): U(tau) = -1, U(2 tau) = +1, tau/2 absent
        omega = 1.0
        tau = 2 * np.pi / omega
        levels = omega * (np.arange(12) + 0.5)
        sched = HamiltonianSchedule.constant(np.diag(levels))
        path = evolve(sched, 2 * tau, steps=16)
        c1 = loop_check(path, tau, tol=1e-10)
        assert c1 is not None and abs(c1 + 1.0) < 1e-12
        c2 = loop_check(path, 2 * tau, tol=1e-10)
        assert c2 is not None and abs(c2 - 1.0) < 1e-12
        assert loop_check(path, tau / 2, tol=1e-10) is None

    def test_requires_grid_point(self):
        sched = HamiltonianSchedule.constant(np.diag([0.5, 1.5]))
        path = evolve(sched, 1.0, steps=4)
        with pytest.raises(ValueError):
            loop_check(path, 0.3, tol=1e-10)


class TestUnitaryPath:
    def test_empty_path_rejected(self):
        with pytest.raises(DimensionMismatch, match="empty grid"):
            UnitaryPath(np.array([]), np.zeros((0, 2, 2)))

    def test_identity_required_at_zero(self):
        grid = np.array([0.0, 1.0])
        bad = np.stack([2 * np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(ValueError):
            UnitaryPath(grid, bad)


def _drawn_schedule(dim, seed, omega, constant, shift=0.0):
    """``A + cos(w (t + shift)) B``, or the constant ``A``."""
    rng = np.random.default_rng(seed)
    a = _signed_zero_hermitian(rng, dim) / dim
    if constant:
        return HamiltonianSchedule.constant(a)
    b = _signed_zero_hermitian(rng, dim) / dim
    return HamiltonianSchedule.from_callable(
        lambda t: a + np.cos(omega * (t + shift)) * b, dim)


class TestEvolveProperties:
    """Unitarity and the group law of ``evolve`` (ROADMAP item 4(c))."""

    TOL = 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5), steps=st.integers(32, 128),
           seed=st.integers(0, 2**32 - 1), omega=st.floats(0.5, 6.0),
           constant=st.booleans(), t_max=st.sampled_from([1.0, 2.0]),
           cut=st.floats(0.0, 1.0), end=st.floats(0.0, 1.0),
           stretch=st.floats(1.0, 2.0))
    def test_unitarity_and_group_law(self, dim, steps, seed, omega,
                                     constant, t_max, cut, end, stretch):
        drawn = (dim, seed, omega, constant)
        path = evolve(_drawn_schedule(*drawn), t_max, steps=steps,
                      tol=self.TOL)
        eye = np.eye(dim)
        # every stored U is unitary within the drift policy's 1e-12
        # (measured worst 1.4e-13)
        for u in path.samples:
            assert frob(u @ u.conj().T - eye) <= 1e-12

        # U(t2) = U_shift(t2 - t1) U(t1), t1 = grid[k1]; U_shift evolves
        # H(t + t1) on its own grid, aligned with this one or not
        k1 = 1 + int(cut * (steps - 2))
        k2 = k1 + 1 + int(end * (steps - k1 - 1))
        t1 = path.grid[k1]
        shift_steps = int(stretch * (k2 - k1))
        u_shift = evolve(_drawn_schedule(*drawn, shift=t1),
                         path.grid[k2] - t1, steps=shift_steps,
                         tol=self.TOL).final()
        defect = frob(path.samples[k2] - u_shift @ path.samples[k1])
        if constant:
            # spectral exponentials: rounding only (measured worst 1.6e-15)
            assert defect <= 1e-13
        else:
            # a kept CF4 value has local error ~ estimate / 15 (the
            # step-doubled estimate of a fourth-order step), at most tol / 15
            # per interval on either side (measured worst 0.012 tol per
            # interval against the bound's 0.067; swapped CF4 weights, a
            # second-order step, reach 1.8)
            assert defect <= self.TOL * (k2 + shift_steps) / 15
