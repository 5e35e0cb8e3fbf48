"""Tests for the cranked-Hamiltonian closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invphase.cranked import (
    CrankedSystem,
    cranked_H,
    cranked_I,
    cranked_U,
    geq_member,
    generalized_cranked,
    nondeg_phase_formulas,
)
from invphase.errors import (
    DimensionMismatch,
    NonHermitianInput,
    SymmetryViolation,
)
from invphase.invariant import InvariantFrame, InvariantPath, lvn_residual
from invphase.linalg import expm_igen, frob
from invphase.phases import abelian_phases, project, solve_un
from invphase.propagator import HamiltonianSchedule, evolve

T_CYCLE = 2 * np.pi


def integer_spectrum_hermitian(dim, seed):
    """Random Hermitian with spectrum 0, 1, ..., dim-1 (so e^{-2pi i K} = 1)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q @ np.diag(np.arange(dim, dtype=float)) @ q.conj().T


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


@pytest.fixture(scope="module")
def sys6():
    k = integer_spectrum_hermitian(6, seed=7)
    i0 = np.diag(np.linspace(0.5, 3.0, 6)).astype(complex)
    return CrankedSystem(i0 + k, k)


class TestCrankedSystem:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        good = np.eye(2)
        with pytest.raises(NonHermitianInput, match=r"H0: max\|A - A\^H\|"):
            CrankedSystem(bad, good)
        with pytest.raises(NonHermitianInput, match=r"K: max\|A - A\^H\|"):
            CrankedSystem(good, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        a[1, 1] = bad
        good = np.eye(3)
        with pytest.raises(NonHermitianInput, match="H0: entries are not"):
            CrankedSystem(a, good)
        with pytest.raises(NonHermitianInput, match="K: entries are not"):
            CrankedSystem(good, a)

    def test_caller_arrays_stay_writeable(self):
        h0 = np.diag([1.0, 2.0]).astype(complex)
        k = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sys = CrankedSystem(h0, k)
        assert h0.flags.writeable and k.flags.writeable
        h0[0, 0] = k[0, 0] = 7.0
        assert sys.h0.array[0, 0] == 1.0 and sys.k.array[0, 0] == 0.0

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CrankedSystem(np.eye(3), np.eye(2))

    def test_i0_field(self, sys6):
        assert np.allclose(sys6.i0.array,
                           sys6.h0.array - sys6.k.array, atol=1e-15)
        assert np.array_equal(sys6.i0.array, sys6.i0.array.conj().T)
        assert sys6.dim == 6


class TestClosedForms:
    def test_H_and_I_at_zero(self, sys6):
        assert frob(cranked_H(sys6, 0.0).array - sys6.h0.array) < 1e-12
        assert frob(cranked_I(sys6, 0.0).array - sys6.i0.array) < 1e-12

    def test_commuting_crank_is_static(self):
        # [K, H0] = 0: the conjugation does nothing and U(t) = e^{-iH0 t}
        k = np.diag([0.0, 1.0, 2.0])
        h0 = np.diag([0.5, 1.5, 2.5])
        sys = CrankedSystem(h0, k)
        for t in (0.3, 1.7, 9.2):
            assert frob(cranked_H(sys, t).array - h0) < 1e-12
            expected = np.diag(np.exp(-1j * np.diag(h0) * t))
            assert frob(cranked_U(sys, t).array - expected) < 1e-12

    def test_I_is_H_minus_K(self, sys6):
        for t in (0.4, 2.2, 5.9):
            diff = cranked_H(sys6, t).array - sys6.k.array
            assert frob(cranked_I(sys6, t).array - diff) < 1e-11

    def test_spectrum_invariance(self, sys6):
        w_i0 = np.linalg.eigvalsh(sys6.i0.array)
        w_h0 = np.linalg.eigvalsh(sys6.h0.array)
        for t in (0.4, 2.2, 5.9):
            assert np.allclose(
                np.linalg.eigvalsh(cranked_I(sys6, t).array), w_i0,
                atol=1e-10)
            assert np.allclose(
                np.linalg.eigvalsh(cranked_H(sys6, t).array), w_h0,
                atol=1e-10)

    def test_U_unitary_property(self):
        for dim, seed in ((2, 0), (3, 1), (6, 2), (9, 3)):
            sys = CrankedSystem(random_hermitian(dim, seed),
                                random_hermitian(dim, seed + 50))
            assert frob(cranked_U(sys, 0.0).array - np.eye(dim)) < 1e-13
            for t in (0.7, 3.1):
                u = cranked_U(sys, t).array
                assert frob(u @ u.conj().T - np.eye(dim)) < 1e-12

    def test_transport_consistency(self, sys6):
        # I(t) = U(t) I0 U(t)^+
        for t in (0.6, 1.9, 4.4):
            u = cranked_U(sys6, t).array
            moved = u @ sys6.i0.array @ u.conj().T
            assert frob(cranked_I(sys6, t).array - moved) < 1e-10

    def test_U_solves_schrodinger(self, sys6):
        sched = HamiltonianSchedule.from_callable(
            lambda t: cranked_H(sys6, t).array, 6, period=T_CYCLE)
        path = evolve(sched, T_CYCLE, steps=2048, tol=1e-12)
        for k in (587, 2048):
            t = path.grid[k]
            assert frob(path.samples[k] - cranked_U(sys6, t).array) < 1e-8

    def test_I_satisfies_lvn_for_H_and_K(self, sys6):
        steps = 1024
        grid = np.linspace(0.0, T_CYCLE, steps + 1)
        samples = np.array([cranked_I(sys6, t).array for t in grid])
        inv = InvariantPath(grid, samples)
        scale = frob(sys6.i0.array)
        sched_h = HamiltonianSchedule.from_callable(
            lambda t: cranked_H(sys6, t).array, 6, period=T_CYCLE)
        sched_k = HamiltonianSchedule.constant(sys6.k.array)
        assert lvn_residual(inv, sched_h).max() < 1e-3 * scale
        assert lvn_residual(inv, sched_k).max() < 1e-3 * scale


class TestGeqMember:
    def test_zero_ytilde_gives_crank(self, sys6):
        y0 = HamiltonianSchedule.constant(np.zeros((6, 6)))
        hsched, upath = geq_member(sys6, y0, T_CYCLE, steps=256)
        assert hsched.is_constant
        assert frob(hsched.sample(1.234) - sys6.k.array) < 1e-14
        assert upath.tol_achieved == 0.0
        for k in (64, 197, 256):
            t = upath.grid[k]
            assert frob(upath.samples[k]
                        - expm_igen(sys6.k.array, t)) < 1e-12

    def test_ytilde_i0_recovers_cranked(self, sys6):
        y = HamiltonianSchedule.constant(sys6.i0.array)
        hsched, upath = geq_member(sys6, y, T_CYCLE, steps=256)
        for k in (77, 256):
            t = upath.grid[k]
            assert frob(hsched.sample(t) - cranked_H(sys6, t).array) < 1e-11
            assert frob(upath.samples[k] - cranked_U(sys6, t).array) < 1e-10

    def test_scalar_profile_family(self, sys6):
        # Y~ = f(t) I0: H~ = f H + (1-f) K and U~ = e^{-iKt} e^{-iF(t) I0}
        f = lambda t: 0.6 + 0.4 * np.cos(t)
        F = lambda t: 0.6 * t + 0.4 * np.sin(t)
        y = HamiltonianSchedule.from_terms([(f, sys6.i0.array)],
                                           period=T_CYCLE)
        hsched, upath = geq_member(sys6, y, T_CYCLE, steps=512)
        for k in (0, 133, 407, 512):
            t = upath.grid[k]
            mix = (f(t) * cranked_H(sys6, t).array
                   + (1.0 - f(t)) * sys6.k.array)
            assert frob(hsched.sample(t) - mix) < 1e-11
            closed = expm_igen(sys6.k.array, t) @ expm_igen(
                sys6.i0.array, F(t))
            assert frob(upath.samples[k] - closed) < 1e-8

    def test_family_member_solves_schrodinger(self, sys6):
        f = lambda t: 0.6 + 0.4 * np.cos(t)
        y = HamiltonianSchedule.from_terms([(f, sys6.i0.array)],
                                           period=T_CYCLE)
        hsched, upath = geq_member(sys6, y, T_CYCLE, steps=512)
        path = evolve(hsched, T_CYCLE, steps=1024, tol=1e-12)
        assert frob(path.final() - upath.final()) < 1e-8

    def test_noncommuting_ytilde_rejected(self, sys6):
        y = HamiltonianSchedule.constant(sys6.k.array)
        with pytest.raises(SymmetryViolation, match="t="):
            geq_member(sys6, y, T_CYCLE, steps=64)

    def test_dim_mismatch(self, sys6):
        y = HamiltonianSchedule.constant(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            geq_member(sys6, y, T_CYCLE, steps=16)


@st.composite
def hermitian_matrices(draw, dim):
    """Hermitian ``dim x dim`` matrices, dense or sparse, real or complex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        a = a + 1j * rng.normal(size=(dim, dim))
    if draw(st.booleans()):
        a = a * (rng.random((dim, dim)) < 0.4)
    return draw(st.sampled_from([0.01, 1.0, 100.0])) * (a + a.conj().T)


@st.composite
def cranked_systems(draw):
    dim = draw(st.integers(1, 8))
    return draw(hermitian_matrices(dim)), draw(hermitian_matrices(dim))


class TestByConstruction:
    """The closed forms are Hermitian or unitary by construction, and
    ``OperatorMatrix`` does not check them: ``H(t)``, ``I(t)`` and the
    generalized crank equal their conjugate transposes exactly, and
    ``U(t)`` is unitary to the rounding bound
    ``||U^H U - 1||_F <= 1e-10 dim``."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system=cranked_systems(), t=st.floats(-20.0, 20.0),
           amp=st.floats(-3.0, 3.0), offset=st.floats(-2.0, 2.0))
    def test_hermitian_and_unitary(self, system, t, amp, offset):
        h0, k = system
        sys = CrankedSystem(h0, k)
        hermitian = (
            cranked_H(sys, t), cranked_I(sys, t),
            generalized_cranked(k, h0, lambda s: amp * np.sin(s),
                                lambda s: offset + np.cos(s), t))
        for op in hermitian:
            assert np.array_equal(op.array, op.array.conj().T)
        u = cranked_U(sys, t).array
        assert frob(u.conj().T @ u - np.eye(sys.dim)) <= 1e-10 * sys.dim


class TestGeneralizedCranked:
    def test_reduces_to_cranked(self, sys6):
        for t in (0.0, 0.9, 2.4):
            h = generalized_cranked(sys6.k.array, sys6.h0.array,
                                    lambda s: s, lambda s: 1.0, t)
            assert frob(h.array - cranked_H(sys6, t).array) < 1e-11

    def test_zero_scaling(self, sys6):
        h = generalized_cranked(sys6.k.array, sys6.h0.array,
                                np.sin, lambda s: 0.0, 1.3)
        assert not np.any(h.array)

    def test_g0_convention_enforced(self, sys6):
        with pytest.raises(ValueError, match="g\\(0\\)"):
            generalized_cranked(sys6.k.array, sys6.h0.array,
                                lambda s: s + 0.5, lambda s: 1.0, 0.8)

    @pytest.mark.parametrize("g, h, c_true", [
        (lambda t: 0.7 * t, lambda t: 1.0, 0.7),
        (np.sin, np.cos, 1.0),
    ])
    def test_invariant_scan_over_c(self, sys6, g, h, c_true):
        # e^{-igK}(H0 - cK)e^{igK} is invariant exactly when dg/dt = c h(t);
        # the LvN residual over a scan in c must dip at the true value.
        k, h0 = sys6.k.array, sys6.h0.array
        sched = HamiltonianSchedule.from_callable(
            lambda t: generalized_cranked(k, h0, g, h, t).array, 6)

        def residual_max(c, steps):
            grid = np.linspace(0.0, T_CYCLE, steps + 1)
            j = h0 - c * k
            samples = np.empty((grid.size, 6, 6), dtype=complex)
            for idx, t in enumerate(grid):
                e = expm_igen(k, float(g(t)))
                samples[idx] = e @ j @ e.conj().T
            return lvn_residual(InvariantPath(grid, samples), sched).max()

        scale = frob(h0 - c_true * k)
        best = residual_max(c_true, steps=1024)
        assert best < 2e-3 * scale
        for c in (c_true - 0.35, c_true + 0.35):
            assert residual_max(c, steps=1024) > 20 * best
        scan = [residual_max(c, steps=256)
                for c in c_true + np.linspace(-0.5, 0.5, 11)]
        assert int(np.argmin(scan)) == 5


class TestNondegFormulas:
    def test_trivial_ytilde(self):
        gamma, delta = nondeg_phase_formulas(0.35, 0.0, 0.0, T_CYCLE)
        assert abs(gamma - 0.35 * T_CYCLE) < 1e-14
        assert abs(delta + 0.35 * T_CYCLE) < 1e-14
        assert abs(gamma + delta) < 1e-14

    def test_quadrature(self):
        gamma, delta = nondeg_phase_formulas(
            0.35, lambda t: 0.1 * t ** 2, lambda t: np.sin(t) ** 2, T_CYCLE)
        assert abs(gamma - (0.35 * T_CYCLE + 0.4 * np.pi ** 2)) < 1e-10
        assert abs(delta - (-0.35 * T_CYCLE - np.pi)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            nondeg_phase_formulas(0.1, 0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            nondeg_phase_formulas(0.1, 0.0, 0.0, 1.0, steps=1)


@pytest.fixture(scope="module")
def gauge_setup():
    """Analytic gauge blocks Z_n inside a cranked-family eigenframe.

    With frames W(t) = e^{-iKt} blockdiag(Z_n(t)) and the family member
    H~ = e^{-iKt}[K + f(t) I0]e^{iKt}, the projected block matrices are

        E^n = Z_n^+ K_n Z_n + f(t) lam_n,   A^n = Z_n^+ K_n Z_n + i Z_n^+ dZ_n,
        Delta^n = f(t) lam_n - i Z_n^+ dZ_n,
        u^n(t) = Z_n(t)^+ e^{-i lam_n F(t)},

    where K_n is the n-th diagonal block of K in the I0 eigenbasis.
    """
    dim = 6
    lam = np.array([0.5, 1.5, 3.0])
    degs = np.array([2, 2, 2])
    i0 = np.diag(np.repeat(lam, degs)).astype(complex)
    k = integer_spectrum_hermitian(dim, seed=3)
    sys = CrankedSystem(i0 + k, k)

    f = lambda t: 0.5 + 0.3 * np.cos(t)
    F = lambda t: 0.5 * t + 0.3 * np.sin(t)
    y = HamiltonianSchedule.from_terms([(f, i0)], period=T_CYCLE)
    steps = 2048
    hsched, _ = geq_member(sys, y, T_CYCLE, steps=steps)
    grid = np.linspace(0.0, T_CYCLE, steps + 1)

    rng = np.random.default_rng(4)
    gens = []
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gens.append(0.5 * (a + a.conj().T))
    thetas = [lambda t, c=0.4 + 0.1 * n: c * np.sin(t) for n in range(3)]

    frames = np.empty((grid.size, dim, dim), dtype=complex)
    z_blocks = np.empty((grid.size, 3, 2, 2), dtype=complex)
    for idx, t in enumerate(grid):
        z = np.zeros((dim, dim), dtype=complex)
        for n in range(3):
            zn = expm_igen(gens[n], thetas[n](t), check_hermitian=False)
            z_blocks[idx, n] = zn
            z[2 * n: 2 * n + 2, 2 * n: 2 * n + 2] = zn
        frames[idx] = sys._expk(t) @ z
    frames[-1] = frames[0]
    frame = InvariantFrame(grid, lam, degs, frames, periodic=True,
                           min_overlap=1.0)
    return dict(sys=sys, frame=frame, hsched=hsched, grid=grid,
                lam=lam, f=f, F=F, gens=gens, thetas=thetas,
                z_blocks=z_blocks, k=k)


class TestFrameIdentities:
    def test_frame_is_valid_eigenframe(self, gauge_setup):
        grid = gauge_setup["grid"]
        sys = gauge_setup["sys"]
        idx = np.arange(0, grid.size, 128)
        samples = np.array([cranked_I(sys, t).array for t in grid[idx]])
        inv = InvariantPath(grid[idx], samples)
        sparse = InvariantFrame(grid[idx], gauge_setup["lam"], [2, 2, 2],
                                gauge_setup["frame"].frames[idx], False, 1.0)
        sparse.validate(inv)

    def test_projected_blocks_match_gauge_identities(self, gauge_setup):
        record = project(gauge_setup["frame"], gauge_setup["hsched"])
        grid, lam, f = gauge_setup["grid"], gauge_setup["lam"], gauge_setup["f"]
        k = gauge_setup["k"]
        worst = {"E": 0.0, "A": 0.0, "Delta": 0.0}
        for idx in range(0, grid.size, 64):
            t = grid[idx]
            for n in range(3):
                zn = gauge_setup["z_blocks"][idx, n]
                kn = k[2 * n: 2 * n + 2, 2 * n: 2 * n + 2]
                zkz = zn.conj().T @ kn @ zn
                thdot = (0.4 + 0.1 * n) * np.cos(t)
                gn = gauge_setup["gens"][n]
                e_ref = zkz + f(t) * lam[n] * np.eye(2)
                a_ref = zkz + thdot * gn
                d_ref = f(t) * lam[n] * np.eye(2) - thdot * gn
                worst["E"] = max(worst["E"], frob(record.E[n][idx] - e_ref))
                worst["A"] = max(worst["A"], frob(record.A[n][idx] - a_ref))
                worst["Delta"] = max(worst["Delta"],
                                     frob(record.Delta[n][idx] - d_ref))
        for key, value in worst.items():
            assert value < 1e-6, f"{key} deviates by {value:.3e}"

    def test_block_u_closed_form(self, gauge_setup):
        record = solve_un(project(gauge_setup["frame"], gauge_setup["hsched"]),
                          tol=1e-12)
        grid, lam, F = gauge_setup["grid"], gauge_setup["lam"], gauge_setup["F"]
        for idx in (grid.size // 4, grid.size // 2, grid.size - 1):
            t = grid[idx]
            for n in range(3):
                zn = gauge_setup["z_blocks"][idx, n]
                u_ref = zn.conj().T * np.exp(-1j * lam[n] * F(t))
                assert frob(record.u[n][idx] - u_ref) < 1e-6


class TestNondegPipeline:
    def test_formulas_match_phase_module(self):
        # Nondegenerate frame columns e^{-iKt} e^{-i zeta_n(t)} |n> with
        # zeta_n = c_n t (so zeta_n(T) != 0 and the frame does not close):
        # gamma_n(T) = K_n T + zeta_n(T), delta_n(T) = -K_n T - lam_n int f.
        dim = 4
        lam = np.linspace(0.5, 2.0, dim)
        i0 = np.diag(lam).astype(complex)
        k = integer_spectrum_hermitian(dim, seed=11)
        sys = CrankedSystem(i0 + k, k)
        f = lambda t: 0.8 + 0.2 * np.sin(t)
        y = HamiltonianSchedule.from_terms([(f, i0)], period=T_CYCLE)
        steps = 1024
        hsched, _ = geq_member(sys, y, T_CYCLE, steps=steps)
        grid = np.linspace(0.0, T_CYCLE, steps + 1)

        coeffs = 0.2 + 0.15 * np.arange(dim)
        frames = np.empty((grid.size, dim, dim), dtype=complex)
        for idx, t in enumerate(grid):
            z = np.diag(np.exp(-1j * coeffs * t))
            frames[idx] = sys._expk(t) @ z
        frame = InvariantFrame(grid, lam, np.ones(dim, dtype=int), frames,
                               periodic=False, min_overlap=1.0)
        record = abelian_phases(project(frame, hsched))

        int_f = 0.8 * T_CYCLE  # int_0^T f dt (the sine integrates to zero)
        for n in range(dim):
            gamma_ref, delta_ref = nondeg_phase_formulas(
                k[n, n].real, lambda t, c=coeffs[n]: c * t,
                lambda t, m=n: f(t) * lam[m], T_CYCLE)
            assert abs(gamma_ref - (k[n, n].real + coeffs[n])
                       * T_CYCLE) < 1e-12
            assert abs(delta_ref
                       - (-k[n, n].real * T_CYCLE - lam[n] * int_f)) < 1e-9
            assert abs(record.gamma_angle[n][-1] - gamma_ref) < 1e-6
            assert abs(record.delta_angle[n][-1] - delta_ref) < 1e-6
