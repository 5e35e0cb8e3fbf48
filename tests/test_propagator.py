import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invphase import linalg, propagator
from invphase.cranked import CrankedSystem, cranked_H
from invphase.errors import (
    DimensionMismatch,
    NonHermitianInput,
    SymmetryViolation,
    ToleranceNotMet,
)
from invphase.linalg import eigh, expm_igen, frob, hermitize
from invphase.propagator import (
    HamiltonianSchedule,
    UnitaryPath,
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
            HamiltonianSchedule.from_terms(
                [(lambda t: np.sin(2 * np.pi * t), x)], period=1.0)
        elif form == "callable":
            HamiltonianSchedule.from_callable(
                lambda t: np.sin(t) * x, 2, period=2 * np.pi)
        else:
            HamiltonianSchedule.from_samples(
                grid, [np.sin(2 * np.pi * t) * x for t in grid], period=1.0)

    def test_wrong_periods_still_rejected(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="declared period 0.7"):
            HamiltonianSchedule.from_terms(
                [(lambda t: np.sin(2 * np.pi * t), x)], period=0.7)
        grid = np.linspace(0.0, 1.0, 9)
        table = np.array([np.cos(2 * np.pi * t) * x for t in grid])
        table[-1] *= 1 + 1e-6
        with pytest.raises(ValueError, match="differ"):
            HamiltonianSchedule.from_samples(grid, table, period=1.0)

    @pytest.mark.parametrize("period", [np.nan, np.inf])
    @pytest.mark.parametrize("form", ["scalar_profile", "callable"])
    def test_period_must_be_finite(self, form, period):
        # a NaN period built a scalar profile that evolve failed on later,
        # and reached from_callable's probes as "H(nan)"
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="finite and positive"):
            if form == "scalar_profile":
                HamiltonianSchedule.from_terms([(np.sin, x)], period=period)
            else:
                HamiltonianSchedule.from_callable(lambda t: np.cos(t) * x, 2,
                                                  period=period)

    def test_periodicity_probe_sees_nan(self):
        # NaN > bound is False: the probe must fail, not pass, a NaN defect
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="declared period 1.0"):
            HamiltonianSchedule.from_terms(
                [(lambda t: np.nan if t > 0.2 else 1.0, x)], period=1.0)

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
        sched = HamiltonianSchedule.from_terms([(np.sin, base)])
        assert np.allclose(sched.sample(0.7), np.sin(0.7) * base)
        assert sched.base is None and not sched.is_constant

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

    @pytest.mark.parametrize("shape", [(9, 2, 3), (9, 4)],
                             ids=["non-square", "flat"])
    def test_sampled_table_must_hold_square_samples(self, shape):
        with pytest.raises(DimensionMismatch):
            HamiltonianSchedule.from_samples(np.linspace(0.0, 1.0, 9),
                                             np.zeros(shape))

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

    def test_partitioned_table_keeps_only_its_parts(self):
        # two interleaved 24 x 24 blocks: the parts are gathered from the
        # caller's samples and Hermitized, so no Hermitized dense table is
        # held beside them (that took 1.5x the table); parts and samples
        # have the bits of gathering from the Hermitized table
        grid = np.linspace(0.0, 1.0, 129)
        rng = np.random.default_rng(5)
        perm = rng.permutation(48)
        x = _block_hermitian(rng, [24, 24], perm)
        y = _block_hermitian(rng, [24, 24], perm)
        noise = 1e-15 * _block_hermitian(rng, [24, 24], perm) * 1j
        table = (np.cos(2 * np.pi * grid)[:, None, None] * x
                 + np.sin(2 * np.pi * grid)[:, None, None] * y + noise)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sched = HamiltonianSchedule.from_samples(grid, table, period=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * table.nbytes
        assert _block_sizes(sched) == [24, 24]
        flat = hermitize(table).reshape(grid.size, -1)
        ref = tuple(flat[:, idx] for idx in sched.blocks)
        _, parts = sched._table
        assert [p.tobytes() for p in parts] == [r.tobytes() for r in ref]
        for t in (0.0, 0.3, 0.77, 1.0):
            want = linalg.dense(
                propagator._interp(grid, ref, 1.0, np.array([t])),
                sched.blocks, 48)[0]
            assert _same_bits(sched.sample(t), want)


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           n_pts=st.integers(4, 12), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 1e-15]),
           zeros=st.booleans(), periodic=st.booleans())
    def test_table_has_the_bits_of_hermitizing_each_part(
            self, sizes, n_pts, seed, noise, zeros, periodic):
        # samples dense inside permuted blocks, with non-Hermitian noise
        # inside the blocks (within the gate's bound), or with signed zeros
        # and a zero row of samples: the partition and every part are those
        # of gathering each Hermitized sample's blocks
        rng = np.random.default_rng(seed)
        dim = sum(sizes)
        perm = rng.permutation(dim)
        x, y = (_block_hermitian(rng, sizes, perm) for _ in range(2))
        grid = np.linspace(0.0, 1.0, n_pts)
        phase = 2 * np.pi * grid[:, None, None]
        table = np.cos(phase) * x + np.sin(phase) * y
        inside = x != 0
        table = table + noise * (rng.normal(size=table.shape)
                                 + 1j * rng.normal(size=table.shape)) * inside
        if zeros:
            table[1] = -0.0 * table[1]
            table[2] = np.where(rng.random((dim, dim)) < 0.3, 0.0, table[2])
            table[2] = hermitize(table[2])
        if periodic:
            table[-1] = table[0]
        sched = HamiltonianSchedule.from_samples(
            grid, table, period=1.0 if periodic else None)
        gated = [linalg.require_hermitian(a, "sample") for a in table]
        pattern = np.zeros((dim, dim), dtype=bool)
        for h in gated:
            pattern |= h != 0
        blocks = linalg.block_partition(pattern)
        assert (sched.blocks is None) == (blocks is None)
        index = blocks or (np.arange(dim * dim).reshape(dim, dim),)
        ref = [np.stack([hermitize(a.reshape(-1).take(idx)) for a in table])
               for idx in index]
        if blocks is not None:
            assert all(np.array_equal(g, r)
                       for g, r in zip(sched.blocks, blocks))
        _, parts = sched._table
        assert [p.tobytes() for p in parts] == [r.tobytes() for r in ref]


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
            sched = HamiltonianSchedule.from_terms(
                [(parts["profile"], a)], period=period)
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
        if kind == "constant":
            assert _same_bits(sched.base, parts["matrix"])
        else:
            assert sched.base is None
        assert sched.is_constant == (kind == "constant")

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

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_non_finite_t_max_rejected_by_name(self, t_max):
        # inf used to exponentiate NaNs before the grid check, and NaN
        # returned a path of NaNs
        sched = HamiltonianSchedule.constant(np.eye(2))
        with pytest.raises(ValueError, match="t_max must be finite"):
            evolve(sched, t_max)

    def test_bad_args(self):
        sched = HamiltonianSchedule.constant(np.eye(2))
        with pytest.raises(ValueError):
            evolve(sched, -1.0)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, steps=0)
        with pytest.raises(ValueError):
            evolve(sched, 1.0, tol=1e-18)

    def test_non_integral_steps_rejected(self):
        # steps=2.5 used to run 2 intervals without a word
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sched = HamiltonianSchedule.from_callable(lambda t: np.cos(t) * x, 2)
        with pytest.raises(ValueError, match="steps must be a positive "
                                             "integer, got 2.5"):
            evolve(sched, 1.0, steps=2.5)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive integer"):
                evolve(sched, 1.0, steps=bad)
        paths = [evolve(sched, 1.0, steps=n)
                 for n in (64, 64.0, np.int64(64), np.float64(64.0))]
        for path in paths:
            assert len(path) == 65
            assert _same_bits(path.samples, paths[0].samples)


def _crank_pair(dim, seed, shape):
    """``(H0, K)``: random Hermitian (``"generic"``), ``K`` with a
    degenerate spectrum (``"degenerate"``), or a commuting pair
    (``"commuting"``), entries of order one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(a)[0]
    h0 = random_hermitian(dim, seed + 1) / max(dim, 2)
    if shape == "generic":
        k = random_hermitian(dim, seed + 2) / max(dim, 2)
    elif shape == "degenerate":
        levels = np.where(np.arange(dim) < (dim + 1) // 2, 0.4, -0.7)
        k = hermitize((q * levels) @ q.conj().T)
    else:
        h0 = hermitize((q * rng.uniform(-1.0, 1.0, dim)) @ q.conj().T)
        k = hermitize((q * rng.uniform(-1.0, 1.0, dim)) @ q.conj().T)
    return h0, k


class TestCrankedSchedule:
    """``HamiltonianSchedule.cranked`` takes the exact ``U(t)`` of
    :class:`CrankedSystem` instead of the stepper."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 3),
           shape=st.sampled_from(["generic", "degenerate", "commuting"]))
    def test_exact_evolve_matches_the_integrated_one(self, dim, seed, shape):
        h0, k = _crank_pair(dim, seed, shape)
        sched = HamiltonianSchedule.cranked(h0, k)
        exact = evolve(sched, 1.0, steps=32)
        system = CrankedSystem(h0, k)
        stepped = evolve(HamiltonianSchedule.from_callable(
            lambda t: cranked_H(system, t).array, dim), 1.0, steps=32,
            tol=1e-12)
        # the criterion 04 bound on the integrator's agreement
        assert np.max(np.linalg.norm(exact.samples - stepped.samples,
                                     axis=(1, 2))) <= 1e-7
        eye = np.eye(dim)
        for u in exact.samples:
            assert frob(u @ u.conj().T - eye) <= 1e-13
        assert np.array_equal(exact.samples[0], eye)
        assert exact.tol_achieved == 0.0 and exact.drift_max == 0.0
        for t in exact.grid[::7]:
            assert np.array_equal(sched.sample(t),
                                  cranked_H(system, t).array)

    def test_structure(self):
        h0, k = _crank_pair(4, 3, "generic")
        sched = HamiltonianSchedule.cranked(h0, k, label="spin")
        assert not sched.is_constant and sched.base is None
        assert sched.blocks is None and sched.period is None
        assert sched.label == "spin" and sched.dim == 4
        assert isinstance(sched.crank, CrankedSystem)
        np.testing.assert_array_equal(sched.crank.i0.array,
                                      sched.crank.h0.array - k)
        for other in (HamiltonianSchedule.constant(k),
                      HamiltonianSchedule.from_callable(lambda t: k, 4)):
            assert other.crank is None

    def test_propagate_takes_the_closed_form(self, monkeypatch):
        # no stepper exponential, and K and I0 are decomposed once for the
        # samples and the evolution together
        h0, k = _crank_pair(5, 8, "generic")
        sched = HamiltonianSchedule.cranked(h0, k)
        calls = []
        real_eigh = linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(linalg, "eigh", counted)
        monkeypatch.setattr(propagator, "expm_igen", None)
        sched.sample(0.3)
        path = evolve(sched, 2.0, steps=64, store=[0.5, 1.0])
        sched.sample(1.7)
        evolve(sched, 1.0, steps=16)
        assert calls == [(5, 5), (5, 5)]
        np.testing.assert_allclose(
            path.at(1.0), sched.crank.evolution(1.0), rtol=0, atol=1e-14)

    def test_inputs_are_gated(self):
        good = np.eye(2)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianInput, match="H0"):
            HamiltonianSchedule.cranked(bad, good)
        with pytest.raises(NonHermitianInput, match="K"):
            HamiltonianSchedule.cranked(good, bad)
        for value in (np.nan, np.inf):
            broken = np.array([[1.0, 0.0], [0.0, value]])
            with pytest.raises(NonHermitianInput, match="not all finite"):
                HamiltonianSchedule.cranked(broken, good)
            with pytest.raises(NonHermitianInput, match="not all finite"):
                HamiltonianSchedule.cranked(good, broken)
        with pytest.raises(DimensionMismatch):
            HamiltonianSchedule.cranked(np.eye(3), good)
        with pytest.raises(DimensionMismatch):
            HamiltonianSchedule.cranked(good, np.zeros((2, 3)))


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
        y = HamiltonianSchedule.from_terms([(f, self.i0)])
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

    def test_scalar_profile_is_stepped_like_a_callable(self):
        # Y = sin(3t) I0 on a coarse grid: the scalar profile and the same
        # callable take one path, with the same samples and a nonzero error
        # estimate, and stay within tol x intervals of exp(-i F(t) I0)
        f = lambda t: np.sin(3 * t)
        F = lambda t: (1 - np.cos(3 * t)) / 3
        steps, tol = 64, 1e-10
        path = evolve(HamiltonianSchedule.constant(self.k), 1.0, steps=steps)
        outs = [compose_geq(path, y, invariant0=self.i0, tol=tol) for y in (
            HamiltonianSchedule.from_terms([(f, self.i0)]),
            HamiltonianSchedule.from_callable(lambda t: f(t) * self.i0, 5))]
        assert np.array_equal(outs[0].samples, outs[1].samples)
        assert outs[0].tol_achieved == outs[1].tol_achieved > 0
        for out in outs:
            for t, u, sample in zip(path.grid, path.samples, out.samples):
                expected = u @ expm_igen(self.i0, F(t))
                assert frob(sample - expected) <= tol * steps

    @pytest.mark.parametrize("form", ["scalar_profile", "callable"])
    def test_y_zero_at_first_and_last_points_is_applied(self, form):
        # Y = sin^2(pi (t - 1/2)) I0 on (1/2, 3/2), zero elsewhere: zero at
        # the first three grid points and the last, yet int_0^2 Y = I0 / 2
        def f(t):
            return np.sin(np.pi * (t - 0.5)) ** 2 if 0.5 < t < 1.5 else 0.0
        if form == "scalar_profile":
            y = HamiltonianSchedule.from_terms([(f, self.i0)])
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


def _reference_cf4_step(schedule, t0, h):
    """One dense CF4 step, as the kernel took it before block stepping."""
    h1 = schedule.sample(t0 + propagator._GAUSS_C1 * h)
    h2 = schedule.sample(t0 + propagator._GAUSS_C2 * h)
    a1, a2 = propagator._CF4_A1, propagator._CF4_A2
    right = expm_igen(a1 * h1 + a2 * h2, h, check_hermitian=False)
    left = expm_igen(a2 * h1 + a1 * h2, h, check_hermitian=False)
    return left @ right


def _reference_adaptive_step(schedule, t0, h, tol, depth=0):
    """The dense step-doubling recursion before a split reused the parent's
    half-steps: 3 CF4 steps at every level."""
    coarse = _reference_cf4_step(schedule, t0, h)
    fine = _reference_cf4_step(schedule, t0 + 0.5 * h, 0.5 * h) @ (
        _reference_cf4_step(schedule, t0, 0.5 * h))
    err = frob(coarse - fine)
    if err <= tol:
        return fine, err
    assert depth < propagator._MAX_SPLIT_DEPTH
    tl, el = _reference_adaptive_step(schedule, t0, 0.5 * h, tol, depth + 1)
    tr, er = _reference_adaptive_step(schedule, t0 + 0.5 * h, 0.5 * h, tol,
                                      depth + 1)
    return tr @ tl, max(el, er)


def _reference_stepping(schedule, grid, tol):
    """The dense stepping loop with its drift policy: ``(samples, err_max,
    drift_max)`` at every grid point, as the kernel computed them before
    block stepping."""
    eye = np.eye(schedule.dim)
    u = np.eye(schedule.dim, dtype=complex)
    out = [u]
    err_max = drift_max = 0.0
    for k in range(grid.size - 1):
        h = grid[k + 1] - grid[k]
        transfer, err = _reference_adaptive_step(schedule, grid[k], h, tol)
        u = transfer @ u
        err_max = max(err_max, err)
        drift = frob(u @ u.conj().T - eye)
        drift_max = max(drift_max, drift)
        if drift > 1e-12:
            left, _, right = np.linalg.svd(u)
            u = left @ right
        out.append(u)
    return np.array(out), err_max, drift_max


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
        expected = path.samples @ _reference_stepping(y, path.grid, 1e-10)[0]
        eye = np.eye(dim)
        for k in range(len(path)):
            assert frob(out.samples[k] - expected[k]) <= 1e-12
            u = out.samples[k]
            assert frob(u @ u.conj().T - eye) <= 1e-12 * dim


def _block_hermitian(rng, sizes, perm):
    """Hermitian matrix, dense inside the diagonal blocks of ``sizes`` and
    zero outside them, with its indices permuted by ``perm``."""
    dim = sum(sizes)
    a = np.zeros((dim, dim), dtype=complex)
    start = 0
    for n in sizes:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a[start:start + n, start:start + n] = (g + g.conj().T) / (2 * dim)
        start += n
    return a[np.ix_(perm, perm)]


def _block_sizes(schedule):
    return sorted(idx.shape[-1] for group in schedule.blocks for idx in group)


def _dense(blocks, parts, dim):
    out = np.zeros((dim, dim), dtype=complex)
    for idx, p in zip(blocks, parts):
        np.put(out, idx, p)
    return out


class TestBlockPropagation:
    """Schedules that split into blocks are stepped block by block."""

    TOL = 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
           seed=st.integers(0, 2**32 - 1),
           form=st.sampled_from(["periodic", "aperiodic", "sampled"]),
           omega=st.floats(0.5, 4.0), steps=st.integers(8, 40))
    def test_block_schedule_matches_dense_kernel(self, sizes, seed, form,
                                                 omega, steps):
        rng = np.random.default_rng(seed)
        dim = sum(sizes)
        perm = rng.permutation(dim)
        a = _block_hermitian(rng, sizes, perm)
        b = _block_hermitian(rng, sizes, perm)
        fn = lambda t: a + np.cos(omega * t) * b
        t_max = 2 * np.pi / omega if form == "periodic" else 1.0
        if form == "sampled":
            table_grid = np.linspace(0.0, t_max, 33)
            sched = HamiltonianSchedule.from_samples(
                table_grid, [fn(t) for t in table_grid])
        else:
            sched = HamiltonianSchedule.from_callable(
                fn, dim, period=t_max if form == "periodic" else None)
        assert _block_sizes(sched) == sorted(sizes)
        outside = (a == 0) & (b == 0)

        path = evolve(sched, t_max, steps=steps, tol=self.TOL)
        assert sched.blocks is not None
        ref, _, _ = _reference_stepping(sched, path.grid, self.TOL)
        eye = np.eye(dim)
        for u, r in zip(path.samples, ref):
            assert frob(u - r) <= self.TOL * steps
            assert frob(u @ u.conj().T - eye) <= 1e-12 * dim
            assert not np.any(u[outside])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           steps=st.integers(4, 24), periodic=st.booleans())
    def test_one_component_schedule_keeps_dense_bits(self, dim, seed, steps,
                                                     periodic):
        a = random_hermitian(dim, seed) / dim
        b = random_hermitian(dim, seed + 1) / dim
        sched = HamiltonianSchedule.from_callable(
            lambda t: a + np.cos(t) * b, dim,
            period=2 * np.pi if periodic else None)
        assert sched.blocks is None
        path = evolve(sched, 2.0, steps=steps, tol=self.TOL)
        ref, err, drift = _reference_stepping(sched, path.grid, self.TOL)
        assert np.array_equal(path.samples, ref)
        assert (path.tol_achieved, path.drift_max) == (err, drift)

    @pytest.mark.parametrize("blocked", [False, True],
                             ids=["dense", "blocks"])
    def test_split_reuses_the_parents_half_steps(self, blocked, monkeypatch):
        # an interval that splits to depth 2: 1 + 2 + 4 CF4 steps for the
        # coarse values, 2 per node for the fine ones, 15 in all (21
        # without reuse), with the bits of the recursion without reuse
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        if blocked:
            zero = np.zeros((2, 2))
            fn = lambda t: np.block([
                [np.cos(3 * t) * x + np.sin(t) * z, zero],
                [zero, np.cos(2 * t) * x + z]])
        else:
            fn = lambda t: np.cos(3 * t) * x + np.sin(t) * z
        sched = HamiltonianSchedule.from_callable(fn, 4 if blocked else 2)
        assert (sched.blocks is not None) == blocked
        t0, h = 0.2, 0.5
        est = [[_reference_adaptive_step(sched, t0 + j * h / n, h / n,
                                         np.inf)[1] for j in range(n)]
               for n in (2, 4)]
        tol = np.sqrt(min(est[0]) * max(est[1]))
        assert max(est[1]) < tol < min(est[0])
        ref, ref_err = _reference_adaptive_step(sched, t0, h, tol)

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return expm_igen(*args, **kwargs)
        monkeypatch.setattr(propagator, "expm_igen", counted)
        transfer, err = propagator._adaptive_step(sched, sched.blocks, t0, h,
                                                  tol)
        assert len(calls) == 2 * 15
        if blocked:
            assert set(calls) == {(2, 2, 2)}
            assert frob(_dense(sched.blocks, transfer, 4) - ref) <= 1e-13
            assert abs(err - ref_err) <= 1e-13
        else:
            assert np.array_equal(transfer[0], ref) and err == ref_err

    def test_block_steps_decompose_through_linalg_eigh(self, monkeypatch):
        # every stacked exponential is one linalg.eigh call on its stack,
        # so whatever wraps linalg.eigh sees the block eigen work: six
        # calls per unsplit interval, one per block size in each
        rng = np.random.default_rng(3)
        perm = rng.permutation(7)
        a = _block_hermitian(rng, [3, 3, 1], perm)
        b = _block_hermitian(rng, [3, 3, 1], perm)
        sched = HamiltonianSchedule.from_callable(
            lambda t: a + np.cos(t) * b, 7)
        shapes = []

        def counted(h, **kwargs):
            shapes.append(np.shape(h))
            return eigh(h, **kwargs)
        monkeypatch.setattr(linalg, "eigh", counted)
        evolve(sched, 0.5, steps=4, tol=1.0)
        assert sorted(set(shapes)) == [(1, 1, 1), (2, 3, 3)]
        assert len(shapes) == 4 * 6 * 2

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
           n_pts=st.integers(8, 40), seed=st.integers(0, 2**32 - 1),
           periodic=st.booleans())
    def test_from_blocks_steps_as_the_dense_table(self, sizes, n_pts, seed,
                                                  periodic):
        # per-block tables in any diagonal order, and the dense
        # block-diagonal table they make up: the same partition, and the
        # bits of every kept row of every part
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, n_pts)
        wave = np.cos(2 * np.pi * grid)[:, None, None]
        series = [_block_hermitian(rng, [d], np.arange(d))
                  + wave * _block_hermitian(rng, [d], np.arange(d))
                  for d in sizes]
        dim = sum(sizes)
        table = np.zeros((n_pts, dim, dim), dtype=complex)
        start = 0
        for block in series:
            d = block.shape[1]
            table[:, start:start + d, start:start + d] = block
            start += d
        period = 1.0 if periodic else None
        by_blocks = HamiltonianSchedule.from_blocks(grid, series,
                                                    period=period)
        by_table = HamiltonianSchedule.from_samples(grid, table,
                                                    period=period)
        assert (by_blocks.dim, by_blocks.period) == (dim, period)
        assert (by_blocks.blocks is None) == (by_table.blocks is None)
        assert (by_blocks.blocks is None) == (len(sizes) == 1)
        if by_blocks.blocks is not None:
            assert len(by_blocks.blocks) == len(by_table.blocks)
            assert all(np.array_equal(x, y) for x, y
                       in zip(by_blocks.blocks, by_table.blocks))
        keep = np.arange(n_pts)
        rows, err, drift = propagator.propagate(by_blocks, grid, self.TOL,
                                                keep)
        ref_rows, ref_err, ref_drift = propagator.propagate(
            by_table, grid, self.TOL, keep)
        assert (err, drift) == (ref_err, ref_drift)
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in ref_rows]
        for t in (0.0, 0.37, 1.0):
            assert _same_bits(by_blocks.sample(t), by_table.sample(t))

    def test_from_blocks_checks_every_block(self):
        grid = np.linspace(0.0, 1.0, 9)
        wave = np.cos(2 * np.pi * grid)[:, None, None]
        closed = [wave * np.eye(2), 0.5 + wave * np.ones((9, 1, 1))]
        HamiltonianSchedule.from_blocks(grid, closed, period=1.0)
        opened = [closed[0], closed[1].copy()]
        opened[1][-1] += 1e-3
        with pytest.raises(ValueError, match="block 1: samples at t=0"):
            HamiltonianSchedule.from_blocks(grid, opened, period=1.0)
        HamiltonianSchedule.from_blocks(grid, opened)
        bad = [closed[0].astype(complex), closed[1]]
        bad[0][3, 0, 1] = 1j
        with pytest.raises(NonHermitianInput, match="block 0 sample 3"):
            HamiltonianSchedule.from_blocks(grid, bad)
        for shapes in ([], [closed[0][:8]], [np.zeros((9, 2, 3))],
                       [np.zeros((9, 0, 0))]):
            with pytest.raises(DimensionMismatch):
                HamiltonianSchedule.from_blocks(grid, shapes)

    @pytest.mark.parametrize("switch", ["sin", "late"])
    def test_coupling_no_probe_sees_is_never_dropped(self, switch):
        # the probe at t = 0 sees only the blocks of B; the off-block C
        # enters with sin(t), or only after t = 0.5: the partition collapses
        # and the kernel restarts on the whole matrix
        rng = np.random.default_rng(7)
        perm = rng.permutation(5)
        b = _block_hermitian(rng, [2, 3], perm)
        c = random_hermitian(5, 8) / 5
        c[b != 0] = 0.0
        c[np.eye(5, dtype=bool)] = 0.0
        f = np.sin if switch == "sin" else lambda t: max(t - 0.5, 0.0) ** 3
        sched = HamiltonianSchedule.from_callable(lambda t: b + f(t) * c, 5)
        assert _block_sizes(sched) == [2, 3]
        path = evolve(sched, 1.0, steps=16, tol=self.TOL)
        assert sched.blocks is None
        ref, err, drift = _reference_stepping(sched, path.grid, self.TOL)
        assert np.array_equal(path.samples, ref)
        assert (path.tol_achieved, path.drift_max) == (err, drift)
        assert np.abs(path.final()[c != 0]).max() > 1e-6

    def test_compose_geq_collapse_keeps_the_dense_bits(self):
        # Y's probe at t = 0 misses the off-block coupling sin(t) C, so the
        # partition collapses inside propagate: V and the composed samples
        # have the bits of the dense stepping
        rng = np.random.default_rng(11)
        perm = rng.permutation(5)
        b = _block_hermitian(rng, [2, 3], perm)
        c = random_hermitian(5, 12) / 5
        c[b != 0] = 0.0
        c[np.eye(5, dtype=bool)] = 0.0
        y = HamiltonianSchedule.from_callable(lambda t: b + np.sin(t) * c, 5)
        assert _block_sizes(y) == [2, 3]
        path = evolve(HamiltonianSchedule.constant(random_hermitian(5, 13)),
                      1.0, steps=16)
        out = compose_geq(path, y, tol=self.TOL)
        assert y.blocks is None
        v, err, drift = _reference_stepping(y, path.grid, self.TOL)
        want = np.einsum("kij,kjl->kil", path.samples, v)
        want[0] = np.eye(5)
        assert _same_bits(out.samples, want)
        assert (out.tol_achieved, out.drift_max) == (err, drift)


class TestTermSchedule:
    """``from_terms``: ``sum_j c_j(t) M_j`` with gated matrices, unchecked
    samples and the exact partition of the terms."""

    TOL = 1e-10

    def test_one_term_has_the_bits_of_a_real_multiple(self):
        # f > 0, so no sample has a signed zero that a gate would fold
        rng = np.random.default_rng(3)
        base = _block_hermitian(rng, [2, 3], rng.permutation(5))
        f = lambda t: 1.5 + np.cos(3 * t)
        sched = HamiltonianSchedule.from_terms([(f, base)])
        assert sched.base is None and not sched.is_constant
        assert _block_sizes(sched) == [2, 3]
        for t in (0.0, 0.3, 0.77, 1.0):
            assert _same_bits(sched.sample(t), float(f(t)) * hermitize(base))
        # the callable of the same samples, whose probe sees the same blocks
        callable_ = HamiltonianSchedule.from_callable(
            lambda t: float(f(t)) * base, 5)
        path = evolve(sched, 1.0, steps=16, tol=self.TOL)
        ref = evolve(callable_, 1.0, steps=16, tol=self.TOL)
        assert callable_.blocks is not None
        assert _same_bits(path.samples, ref.samples)
        assert (path.tol_achieved, path.drift_max) == (ref.tol_achieved,
                                                       ref.drift_max)

    def test_coupling_no_probe_sees_is_in_the_partition(self):
        # the sin(t) coupling C is zero at t = 0, the only probe of the
        # same callable, which collapses when it steps; the term schedule
        # has the union partition from the start and keeps it
        rng = np.random.default_rng(7)
        b = _block_hermitian(rng, [1, 1, 3], np.arange(5))
        c = np.zeros((5, 5), dtype=complex)
        c[0, 1], c[1, 0] = 0.4 + 0.1j, 0.4 - 0.1j
        sched = HamiltonianSchedule.from_terms([(lambda t: 1.0, b),
                                                (np.sin, c)])
        blocks = sched.blocks
        assert _block_sizes(sched) == [2, 3]
        callable_ = HamiltonianSchedule.from_callable(
            lambda t: b + np.sin(t) * c, 5)
        assert _block_sizes(callable_) == [1, 1, 3]
        path = evolve(sched, 1.0, steps=16, tol=self.TOL)
        assert sched.blocks is blocks
        dense = evolve(callable_, 1.0, steps=16, tol=self.TOL)
        assert callable_.blocks is None
        assert np.abs(path.final()[0, 1]) > 1e-3
        for u, r in zip(path.samples, dense.samples):
            assert frob(u - r) <= 1e-13

    def test_bad_terms_rejected(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch, match="needs a term"):
            HamiltonianSchedule.from_terms([])
        with pytest.raises(DimensionMismatch, match="term 1 has dim 3"):
            HamiltonianSchedule.from_terms([(np.sin, x),
                                            (np.cos, np.eye(3))])
        with pytest.raises(NonHermitianInput, match="term 1:"):
            HamiltonianSchedule.from_terms(
                [(np.sin, x), (np.cos, [[0.0, 1.0], [0.0, 0.0]])])
        for complex_coefficient in (lambda t: 1.0 + 0.5j,
                                    lambda t: np.complex128(1.0)):
            with pytest.raises(TypeError, match="term 0: coefficient"):
                HamiltonianSchedule.from_terms([(complex_coefficient, x)])


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

    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 0, 0)],
                             ids=["non-square", "0x0"])
    def test_non_square_or_empty_samples_rejected(self, shape):
        grid = np.arange(shape[0], dtype=float)
        with pytest.raises(DimensionMismatch, match="square"):
            UnitaryPath(grid, np.zeros(shape))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf]],
                             ids=["nan", "inf"])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite and strictly increase"):
            UnitaryPath(grid, np.stack([np.eye(2)] * 3))

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


def _six_schedules(kind, dim, seed, period):
    """One schedule of each constructor, with signed zeros in its data and
    a block structure for the kinds that keep one."""
    rng = np.random.default_rng(seed)
    a = _signed_zero_hermitian(rng, dim)
    b = _signed_zero_hermitian(rng, dim)
    t_max = period or 1.7
    grid = np.linspace(0.0, t_max, 9)
    if kind == "constant":
        return HamiltonianSchedule.constant(a)
    if kind == "cranked":
        return HamiltonianSchedule.cranked(a, b)
    if kind == "callable":
        return HamiltonianSchedule.from_callable(
            lambda t: np.cos(2 * np.pi * t / t_max) * a
            + np.sin(2 * np.pi * t / t_max) ** 2 * b, dim, period=period)
    if kind == "terms":
        return HamiltonianSchedule.from_terms(
            [(lambda t: np.cos(2 * np.pi * t / t_max), a),
             (lambda t: 0.0 * np.sin(2 * np.pi * t / t_max), b),
             (lambda t: np.sin(4 * np.pi * t / t_max), a + b)],
            period=period)
    if kind == "samples":
        table = np.stack([np.cos(2 * np.pi * t / t_max) * a
                          + np.sin(2 * np.pi * t / t_max) * b for t in grid])
        if period is not None:
            table[-1] = table[0]
        return HamiltonianSchedule.from_samples(grid, table, period=period)
    sizes = [1 + int(rng.integers(3)) for _ in range(1 + int(rng.integers(3)))]
    wave = np.cos(2 * np.pi * grid / t_max)[:, None, None]
    series = [_block_hermitian(rng, [d], np.arange(d))
              + wave * _block_hermitian(rng, [d], np.arange(d))
              for d in sizes]
    return HamiltonianSchedule.from_blocks(grid, series, period=period)


class TestManyTimesSampler:
    """``samples`` and ``parts_many`` give, row by row, the bits of
    ``sample`` and ``parts_at``; the stepper's first-level Gauss nodes come
    from them."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["constant", "cranked", "callable", "terms",
                                 "samples", "blocks"]),
           dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           periodic=st.booleans(),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=9),
           nodes=st.sets(st.integers(0, 8), max_size=4))
    def test_rows_have_the_bits_of_one_time_calls(self, kind, dim, seed,
                                                  periodic, fractions, nodes):
        period = 1.7 if periodic else None
        sched = _six_schedules(kind, dim, seed, period)
        t_max = 1.7
        # table nodes (exact zero Lagrange weights), inner times, and for
        # the schedules that allow it times before 0 and past the span
        times = [t_max * x for x in fractions] + [t_max * j / 8 for j in nodes]
        if periodic or kind not in ("samples", "blocks"):
            times += [-0.3 * t_max, 2.6 * t_max]
        times = np.array(times)
        many = sched.samples(times)
        assert many.shape == (times.size, sched.dim, sched.dim)
        for k, t in enumerate(times):
            assert _same_bits(np.asarray(many[k]), sched.sample(t)), (k, t)
        for blocks in {id(sched.blocks): sched.blocks, 0: None}.values():
            if sched._table is not None and blocks is not sched.blocks:
                continue                 # a table reads its own partition
            parts = sched.parts_many(times, blocks)
            for k, t in enumerate(times):
                one = sched.parts_at(t, blocks)
                assert len(parts) == len(one)
                assert all(_same_bits(np.ascontiguousarray(p[k]), q)
                           for p, q in zip(parts, one)), (k, t)

    def test_stacked_gate_names_the_first_bad_time(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def fn(t):
            if t > 0.75:
                return np.full((2, 2), np.inf)
            return x + (t > 0.5) * skew
        sched = HamiltonianSchedule.from_callable(fn, 2)
        with pytest.raises(NonHermitianInput) as one:
            linalg.require_hermitian(fn(0.625), "H(0.625)")
        with pytest.raises(NonHermitianInput) as many:
            sched.samples(np.array([0.25, 0.625, 0.6875, 0.875]))
        assert str(many.value) == str(one.value)
        with pytest.raises(NonHermitianInput,
                           match=r"^H\(0\.875\): entries are not all"):
            sched.samples(np.array([0.25, 0.875, 0.625]))
        with pytest.raises(DimensionMismatch, match=r"H\(0\.5\) has shape"):
            HamiltonianSchedule.from_callable(
                lambda t: x if t < 0.5 else np.eye(3), 2).samples([0.0, 0.5])

    def test_stepper_raises_at_the_first_bad_gauss_node(self):
        # the chunk's nodes are gated at once, and the first bad one in the
        # order the steps sample them is named, as the per-step gate did
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fn = lambda t: x + (t > 0.3) * skew
        sched = HamiltonianSchedule.from_callable(fn, 2)
        with pytest.raises(NonHermitianInput) as ref:
            _reference_stepping(sched, np.linspace(0.0, 1.0, 9), 1e-10)
        with pytest.raises(NonHermitianInput) as got:
            evolve(sched, 1.0, steps=8)
        assert str(got.value) == str(ref.value)

    def test_prefetched_nodes_keep_the_bits_across_chunks(self, monkeypatch):
        # chunks of 3 intervals: every chunk boundary, a split inside a
        # chunk and the last short chunk step as the per-interval loop
        monkeypatch.setattr(propagator, "_SAMPLE_CHUNK_BYTES", 3 * 6 * 16 * 4)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.diag([1.0, -1.0])
        sched = HamiltonianSchedule.from_callable(
            lambda t: np.cos(9 * t) * x + np.sin(t) * z, 2)
        grid = np.linspace(0.0, 1.0, 12)
        path = evolve(sched, 1.0, steps=11, tol=1e-7)
        ref, err, drift = _reference_stepping(sched, grid, 1e-7)
        assert np.array_equal(path.samples, ref)
        assert (path.tol_achieved, path.drift_max) == (err, drift)

    @pytest.mark.parametrize("form", ["callable", "terms"])
    def test_periodicity_is_checked_over_the_whole_period(self, form):
        # A + t sin(100 pi t / T) B equals A at t = 0, 0.31 T and 0.77 T
        # and one period later, but it is not periodic
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        T = 1.0
        wobble = lambda t: t * np.sin(100 * np.pi * t / T)
        with pytest.raises(ValueError, match="declared period 1.0 violated"):
            if form == "callable":
                HamiltonianSchedule.from_callable(
                    lambda t: a + wobble(t) * b, 2, period=T)
            else:
                HamiltonianSchedule.from_terms(
                    [(lambda t: 1.0, a), (wobble, b)], period=T)
