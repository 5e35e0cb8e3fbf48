"""Tests for the generalized-harmonic-oscillator module."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import simpson

from invphase.cranked import CrankedSystem, cranked_H, geq_member
from invphase.errors import (
    ComputeError,
    ConstraintViolation,
    DegenerateParameters,
    DomainError,
    GridTooCoarse,
    TruncationTooSmall,
)
from invphase.invariant import (
    InvariantFrame,
    InvariantPath,
    eigenframe,
    frame_derivative,
    hstar,
    lvn_residual,
    transport,
)
from invphase.linalg import frob
from invphase.oscillator import (
    build_fock,
    closed_form_phases,
    cyclic_basis_evolution,
    derive_params,
    ermakov_check,
    gho_H,
    gho_I,
    hyperbolic_coords,
    w_operator,
)
from invphase.phases import (
    abelian_phases,
    project,
    reconstruct_U,
    solve_un,
    wrap_angle,
)
from invphase.propagator import HamiltonianSchedule, evolve


@pytest.fixture(scope="module")
def params():
    return derive_params(1.0, 3.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def fock_k(params):
    return build_fock(params, 120, "k")


@pytest.fixture(scope="module")
def fock_kt(params):
    return build_fock(params, 120, "ktilde")


@pytest.fixture(scope="module")
def small_fock(params):
    return build_fock(params, 60, "k")


def kn_rate(params):
    """Constant eigenframe energy slope: E_n = kn_rate * (2n + 1)."""
    return 0.25 * (params.mu + 1.0 / params.mu) * params.omega


def w_columns(params, fock, grid, n_cols):
    """Stack of the first ``n_cols`` W-frame columns along ``grid``."""
    cols = np.empty((grid.size, fock.N, n_cols), dtype=complex)
    thetas = np.empty(grid.size)
    for i, t in enumerate(grid):
        tb, pb = hyperbolic_coords(params, t)
        thetas[i] = tb
        cols[i] = w_operator(fock, tb, pb).array[:, :n_cols]
    return cols, thetas


def a_reference(params, thetas, grid, n):
    """Closed-form connection A_n(t) in the W gauge."""
    phidot = 2.0 * params.omega * (-params.xi) / (
        (params.xi**2 + 1.0)
        + (params.xi**2 - 1.0) * np.cos(2.0 * params.omega * grid))
    return 0.25 * (2 * n + 1) * (np.cosh(thetas) - 1.0) * phidot


class TestDeriveParams:
    def test_frozen_reference_values(self, params):
        assert params.mtilde == pytest.approx(2.0, abs=1e-14)
        assert params.wtilde == pytest.approx(np.sqrt(3.5), abs=1e-14)
        assert params.nu == pytest.approx(1.5, abs=1e-14)
        assert params.mu == pytest.approx(2.0 / (2.0 * np.sqrt(3.5)),
                                          abs=1e-14)
        assert params.zeta == pytest.approx(25.0 / 56.0, abs=1e-14)
        assert params.xi == pytest.approx(
            -2.0 * params.mu / (1.0 + params.mu**2), abs=1e-14)
        assert (params.a, params.b) == pytest.approx((1.625, -0.625))
        assert (params.c, params.d, params.e) == pytest.approx(
            (-1.25, 6.5, 2.5))
        assert params.T == pytest.approx(np.pi, abs=1e-15)
        assert params.tau == pytest.approx(2 * np.pi, abs=1e-15)
        assert params.bbar == pytest.approx(2 * params.wtilde, abs=1e-15)

    def test_parameter_cross_identities(self, params):
        # zeta has three equivalent closed forms
        assert params.zeta == pytest.approx(
            (1 - params.mu**2) ** 2 / (4 * params.mu**2), abs=1e-13)
        assert params.zeta == pytest.approx(
            params.c**2 / params.wtilde**2, abs=1e-13)
        # the invariant curve stays on the unit hyperboloid: be + c^2 = 0
        assert params.b * params.e + params.c**2 == pytest.approx(
            0.0, abs=1e-13)

    def test_mass_frequency_units(self):
        p = derive_params(0.7, 2.9, 1.9, 1.3)
        assert p.mtilde == pytest.approx(1.0 / (1 / 0.7 - 1 / 1.9), rel=1e-14)
        assert p.wtilde**2 == pytest.approx(
            (1 / 0.7 - 1 / 1.9) * (0.7 * 2.9**2 - 1.9 * 1.3**2), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_params(0.0, 3.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            derive_params(1.0, 3.0, 2.0, -1.0)

    def test_rejects_constraint_violations(self):
        with pytest.raises(ConstraintViolation):
            derive_params(2.0, 3.0, 1.0, 1.0)      # m <= M
        with pytest.raises(ConstraintViolation):
            derive_params(1.0, 1.0, 2.0, 1.0)      # M W^2 <= m w^2

    def test_degenerate_line_derives_but_is_flagged(self):
        p = derive_params(1.0, 2.0, 2.0, 1.0)      # nu = mu = 1
        assert p.b == pytest.approx(0.0, abs=1e-14)
        assert p.mu == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(DegenerateParameters):
            p.require_nondegenerate()


class TestFockSpace:
    def test_dimension_and_basis_guards(self, params):
        with pytest.raises(ValueError):
            build_fock(params, 8)
        with pytest.raises(ValueError):
            build_fock(params, 64, "position")

    def test_interior_block_policy(self, params):
        assert build_fock(params, 120, "k").N_int == 100
        assert build_fock(params, 32, "k").N_int == 16

    def test_exact_diagonals(self, params, fock_k, fock_kt):
        n = np.arange(120)
        i0 = fock_kt.I0.array
        assert np.max(np.abs(i0 - np.diag(np.diag(i0)))) == 0.0
        assert np.diag(i0).real == pytest.approx(
            params.wtilde * (n + 0.5), abs=1e-13)
        k3 = fock_kt.K3.array
        assert np.max(np.abs(k3 - np.diag(np.diag(k3)))) == 0.0
        assert np.diag(k3).real == pytest.approx((2 * n + 1) / 4.0,
                                                 abs=1e-14)
        k = fock_k.K.array
        assert np.max(np.abs(k - np.diag(np.diag(k)))) == 0.0
        assert np.diag(k).real == pytest.approx(
            params.omega * (n + 0.5), abs=1e-14)

    def test_initial_operators_are_consistent(self, params, fock_k, fock_kt):
        for fock in (fock_k, fock_kt):
            assert np.allclose(gho_H(params, fock, 0.0).array,
                               fock.H0.array, atol=1e-12)
            assert np.allclose(gho_I(params, fock, 0.0).array,
                               fock.I0.array, atol=1e-12)
            assert np.allclose(fock.I0.array,
                               fock.H0.array - fock.K.array, atol=1e-13)

    def test_su11_algebra_interior(self, fock_k, fock_kt):
        for fock in (fock_k, fock_kt):
            k1, k2, k3 = (fock.K1.array, fock.K2.array, fock.K3.array)
            comms = (
                k1 @ k2 - k2 @ k1 + 1j * k3,
                k2 @ k3 - k3 @ k2 - 1j * k1,
                k3 @ k1 - k1 @ k3 - 1j * k2,
            )
            for comm in comms:
                assert np.max(np.abs(fock.interior(comm))) < 1e-10

    def test_canonical_commutators_interior(self, fock_k, fock_kt):
        for fock in (fock_k, fock_kt):
            eye = np.eye(fock.N)
            cxp = fock.x.array @ fock.p.array - fock.p.array @ fock.x.array
            cXP = fock.X.array @ fock.P.array - fock.P.array @ fock.X.array
            assert np.max(np.abs(fock.interior(cxp - 1j * eye))) < 1e-10
            assert np.max(np.abs(fock.interior(cXP - 1j * eye))) < 1e-10

    def test_bch_rotations_full_matrix(self, params, fock_k):
        kd = np.diag(fock_k.K.array).real
        x, p = fock_k.x.array, fock_k.p.array
        mw = params.m * params.omega
        for t in np.linspace(0.0, params.tau, 9):
            ph = np.exp(-1j * kd * t)
            xr = (ph[:, None] * x) * ph.conj()[None, :]
            pr = (ph[:, None] * p) * ph.conj()[None, :]
            c, s = np.cos(params.omega * t), np.sin(params.omega * t)
            assert np.allclose(xr, c * x - (s / mw) * p, atol=1e-10)
            assert np.allclose(pr, mw * s * x + c * p, atol=1e-10)

    def test_cached_eig_is_memoized(self, fock_k):
        first = fock_k.cached_eig("I0", fock_k.I0)
        second = fock_k.cached_eig("I0", fock_k.I0)
        assert first[1] is second[1]


@st.composite
def oscillator_params(draw):
    """Parameters inside the domain (m > M, M Omega^2 > m omega^2) and off
    the degenerate mu = 1 / nu = 1 line."""
    M = draw(st.floats(0.3, 3.0))
    m = M * draw(st.floats(1.1, 4.0))
    omega = draw(st.floats(0.3, 3.0))
    Omega = omega * np.sqrt(m / M) * draw(st.floats(1.1, 3.0))
    params = derive_params(M, Omega, m, omega)
    assume(abs(params.mu - 1.0) > 1e-3 and abs(params.nu - 1.0) > 1e-3)
    return params


class TestByConstruction:
    """The operators are Hermitian or unitary by construction, and
    ``OperatorMatrix`` does not check them: every Hermitian one equals
    its conjugate transpose exactly, and ``W`` is unitary to the rounding
    bound ``||W^H W - 1||_F <= 1e-10 dim``."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(params=oscillator_params(), n=st.integers(16, 40),
           t=st.floats(-10.0, 10.0))
    def test_hermitian_and_unitary(self, params, n, t):
        for basis in ("k", "ktilde"):       # W needs the ktilde basis
            fock = build_fock(params, n, basis)
            ops = [getattr(fock, name) for name in
                   ("x", "p", "X", "P", "K1", "K2", "K3", "K", "H0", "I0")]
            ops += [gho_H(params, fock, t), gho_I(params, fock, t)]
            for op in ops:
                assert np.array_equal(op.array, op.array.conj().T)
        w = w_operator(fock, *hyperbolic_coords(params, t)).array
        assert frob(w.conj().T @ w - np.eye(n)) <= 1e-10 * n


class TestGhoSchedule:
    def test_periodicity(self, params, fock_k):
        for t in (0.3, 1.1):
            assert np.allclose(gho_H(params, fock_k, t).array,
                               gho_H(params, fock_k, t + params.T).array,
                               atol=1e-12)

    def test_invariant_is_h_minus_k(self, params, fock_k):
        for t in (0.0, 0.4, 1.7):
            expect = gho_H(params, fock_k, t).array - fock_k.K.array
            assert np.allclose(gho_I(params, fock_k, t).array, expect,
                               atol=1e-12)

    def test_matches_cranked_closed_form(self, params, fock_k, fock_kt):
        sys_k = CrankedSystem(fock_k.H0, fock_k.K)
        sys_kt = CrankedSystem(fock_kt.H0, fock_kt.K)
        for t in np.linspace(0.0, params.T, 7):
            d_k = cranked_H(sys_k, t).array - gho_H(params, fock_k, t).array
            assert np.max(np.abs(d_k)) < 1e-10
            d_kt = (cranked_H(sys_kt, t).array
                    - gho_H(params, fock_kt, t).array)
            assert np.max(np.abs(d_kt[:12, :12])) < 1e-10

    def test_spectrum_is_time_independent(self, params, fock_k):
        w0 = np.linalg.eigvalsh(fock_k.I0.array)[:12]
        for t in np.linspace(0.0, params.T, 9):
            w = np.linalg.eigvalsh(gho_I(params, fock_k, t).array)[:12]
            assert np.max(np.abs(w - w0)) < 1e-10

    def test_low_spectrum_matches_continuum(self, params, fock_k):
        w = np.linalg.eigvalsh(fock_k.I0.array)
        expect = params.wtilde * (np.arange(40) + 0.5)
        assert np.max(np.abs(w[:40] - expect)) < 1e-10
        assert np.max(np.abs(w[:30] - expect[:30])) < 1e-12


class TestLvnResidual:
    def conjugation_path(self, params, fock, steps):
        grid = np.linspace(0.0, params.T, steps + 1)
        kd = np.diag(fock.K.array).real
        ph = np.exp(-1j * np.outer(grid, kd))
        samples = np.einsum("ti,ij,tj->tij", ph, fock.I0.array, ph.conj())
        return InvariantPath(grid, samples)

    def test_residual_floor_and_refinement(self, params, small_fock):
        sched_k = HamiltonianSchedule.constant(small_fock.K.array, label="K")
        sched_h = HamiltonianSchedule.from_callable(
            lambda t: gho_H(params, small_fock, t).array, 60,
            period=params.T)
        nrm = frob(small_fock.I0.array)
        maxima = {}
        for steps in (1024, 2048):
            path = self.conjugation_path(params, small_fock, steps)
            assert path.spectrum_drift() < 1e-10
            r_k = lvn_residual(path, sched_k).max()
            r_h = lvn_residual(path, sched_h).max()
            assert r_k < 2e-5 * nrm
            assert r_h < 2e-5 * nrm
            maxima[steps] = r_k
        ratio = maxima[1024] / maxima[2048]
        assert 3.5 < ratio < 4.5

    def test_transported_path_matches_coefficient_form(
            self, params, small_fock):
        sched_h = HamiltonianSchedule.from_callable(
            lambda t: gho_H(params, small_fock, t).array, 60,
            period=params.T)
        grid = np.linspace(0.0, params.T, 513)
        u_rec = evolve(sched_h, params.T, steps=512, tol=1e-10, store=grid)
        path = transport(u_rec, small_fock.I0)
        for i in (0, 128, 307, 512):
            expect = gho_I(params, small_fock, grid[i]).array
            assert np.max(np.abs(path.samples[i] - expect)) < 1e-8

    def test_interior_residual_of_coefficient_pair(self, params, small_fock):
        # hand-rolled 2nd-order residual, restricted to the interior block
        maxima = {}
        for steps in (1024, 2048):
            grid = np.linspace(0.0, params.T, steps + 1)
            h = grid[1] - grid[0]
            isams = np.stack(
                [gho_I(params, small_fock, t).array for t in grid])
            karr = small_fock.K.array
            worst = 0.0
            for i in range(64, steps - 63, 64):
                idot = (isams[i + 1] - isams[i - 1]) / (2 * h)
                comm = isams[i] @ karr - karr @ isams[i]
                worst = max(worst, np.max(np.abs(
                    (idot - 1j * comm)[:30, :30])))
            maxima[steps] = worst
        assert maxima[1024] < 1e-3
        ratio = maxima[1024] / maxima[2048]
        assert 3.5 < ratio < 4.5


class TestHyperbolicCoords:
    def test_closure_and_branch(self, params):
        for t, (tb_w, pb_w) in ((0.0, (0.0, np.pi / 2)),
                                (params.T, (0.0, 3 * np.pi / 2)),
                                (2 * params.T, (0.0, 5 * np.pi / 2))):
            tb, pb = hyperbolic_coords(params, t)
            assert tb == pytest.approx(tb_w, abs=1e-12)
            assert pb == pytest.approx(pb_w, abs=1e-12)

    def test_phi_bar_is_continuous_and_monotone(self, params):
        grid = np.linspace(0.0, 2 * params.T, 4001)
        pbs = np.array([hyperbolic_coords(params, t)[1] for t in grid])
        dpb = np.diff(pbs)
        assert np.all(dpb > 0)
        assert np.max(dpb) < 0.01

    def test_cosh_identity_and_max_squeeze(self, params):
        for t in np.linspace(0.0, params.T, 17):
            tb, _ = hyperbolic_coords(params, t)
            want = 1.0 + params.zeta * (1 - np.cos(2 * params.omega * t))
            assert np.cosh(tb) == pytest.approx(want, abs=1e-12)
        tb_max, pb_mid = hyperbolic_coords(params, params.T / 2)
        assert tb_max == pytest.approx(-2 * np.log(params.mu), abs=1e-12)
        assert pb_mid == pytest.approx(np.pi, abs=1e-12)

    def test_angle_slope_matches_closed_form(self, params):
        grid = np.linspace(0.05, params.T - 0.05, 2001)
        pbs = np.array([hyperbolic_coords(params, t)[1] for t in grid])
        h = grid[1] - grid[0]
        fd = (pbs[2:] - pbs[:-2]) / (2 * h)
        xi = params.xi
        phi = 2 * params.omega * grid[1:-1]
        anal = 2 * params.omega * (-xi) / (
            (xi**2 + 1) + (xi**2 - 1) * np.cos(phi))
        assert np.max(np.abs(fd - anal)) < 1e-6

    def test_rejects_degenerate_parameters(self):
        p = derive_params(1.0, 2.0, 2.0, 1.0)
        with pytest.raises(DegenerateParameters):
            hyperbolic_coords(p, 0.3)


class TestWOperator:
    def test_identity_at_t0(self, params, fock_kt):
        tb, pb = hyperbolic_coords(params, 0.0)
        w = w_operator(fock_kt, tb, pb).array
        assert np.max(np.abs(w - np.eye(120))) < 1e-12

    def test_requires_ktilde_basis(self, params, fock_k):
        with pytest.raises(ValueError):
            w_operator(fock_k, 0.1, np.pi / 2)

    def test_diagonalizes_invariant_curve(self, params):
        fock = build_fock(params, 240, "ktilde")
        for t in np.linspace(0.0, params.T, 9):
            tb, pb = hyperbolic_coords(params, t)
            w = w_operator(fock, tb, pb).array
            rot = w @ fock.K3.array @ w.conj().T
            sh, ch = np.sinh(tb), np.cosh(tb)
            curve = (sh * np.cos(pb) * fock.K1.array
                     + sh * np.sin(pb) * fock.K2.array
                     + ch * fock.K3.array)
            assert np.max(np.abs((rot - curve)[:40, :40])) < 1e-8
            inv = gho_I(params, fock, t).array
            assert np.max(np.abs(
                (params.bbar * rot - inv)[:40, :40])) < 1e-7

    def test_matches_transported_eigenframe(self, params, fock_kt):
        sched = HamiltonianSchedule.constant(fock_kt.K.array, label="K")
        grid = np.linspace(0.0, params.T, 513)
        u_rec = evolve(sched, params.T, steps=512, tol=1e-10, store=grid)
        frame = eigenframe(transport(u_rec, fock_kt.I0))
        for i in (128, 256, 384):
            tb, pb = hyperbolic_coords(params, grid[i])
            cols = w_operator(fock_kt, tb, pb).array[:, :6]
            for n in range(6):
                overlap = abs(np.vdot(cols[:, n], frame.frames[i][:, n]))
                assert overlap > 1.0 - 1e-10


class TestClosedFormPhases:
    def test_total_phase_is_quantized(self, params):
        for n in range(8):
            delta, gamma = closed_form_phases(params, n, params.T)
            assert delta == pytest.approx(
                -0.25 * np.pi * (params.mu + 1 / params.mu) * (2 * n + 1),
                abs=1e-12)
            assert gamma == pytest.approx(
                0.25 * np.pi * (params.mu + 1 / params.mu - 2) * (2 * n + 1),
                abs=1e-12)
            assert delta + gamma == pytest.approx(
                -(2 * n + 1) * np.pi / 2, abs=1e-12)

    def test_geometric_phase_is_continuous(self, params):
        grid = np.linspace(0.0, 2 * params.T, 3001)
        gammas = np.array(
            [closed_form_phases(params, 0, t)[1] for t in grid])
        assert np.max(np.abs(np.diff(gammas))) < 2e-3
        assert gammas[-1] == pytest.approx(
            2 * closed_form_phases(params, 0, params.T)[1], abs=1e-12)

    def test_scaling_in_level_number(self, params):
        _, g0 = closed_form_phases(params, 0, 0.9)
        for n in (1, 4):
            _, gn = closed_form_phases(params, n, 0.9)
            assert gn == pytest.approx((2 * n + 1) * g0, abs=1e-12)

    def test_guards(self, params):
        with pytest.raises(ValueError):
            closed_form_phases(params, -1, 0.5)
        p_deg = derive_params(1.0, 2.0, 2.0, 1.0)
        with pytest.raises(DegenerateParameters):
            closed_form_phases(p_deg, 0, 0.5)


class TestCyclicBasisEvolution:
    def test_exact_cyclic_return(self, params, fock_k):
        rows = cyclic_basis_evolution(params, fock_k, 5)
        assert [r.n for r in rows] == list(range(6))
        for row in rows:
            delta, gamma = closed_form_phases(params, row.n, params.T)
            assert row.fidelity > 1.0 - 1e-12
            assert row.projector_defect < 1e-6
            err = wrap_angle(row.total_phase - (delta + gamma))
            assert abs(err) < 1e-12

    def test_crank_expectation_is_conserved(self, params, fock_k):
        _, vecs = fock_k.cached_eig("I0", fock_k.I0)
        kd = np.diag(fock_k.K.array).real
        rate = kn_rate(params)
        for n in range(6):
            vec = vecs[:, n]
            expect0 = np.vdot(vec, kd * vec).real
            assert expect0 == pytest.approx(rate * (2 * n + 1), abs=1e-10)
            for t in (0.4, 1.3):
                moved = np.exp(-1j * kd * t) * vec
                expect_t = np.vdot(moved, kd * moved).real
                assert expect_t == pytest.approx(expect0, abs=1e-13)

    def test_parity_protects_deep_levels(self, params, fock_k):
        rows = cyclic_basis_evolution(params, fock_k, 99)
        assert min(r.fidelity for r in rows) > 1.0 - 1e-12

    def test_guards(self, params, fock_k, fock_kt):
        with pytest.raises(ValueError):
            cyclic_basis_evolution(params, fock_kt, 3)
        with pytest.raises(ValueError):
            cyclic_basis_evolution(params, fock_k, -1)
        with pytest.raises(TruncationTooSmall):
            cyclic_basis_evolution(params, fock_k, fock_k.N_int)


class TestWGaugePhases:
    def test_connection_series_and_integrals(self, params, fock_kt):
        grid = np.linspace(0.0, params.T, 2049)
        cols, thetas = w_columns(params, fock_kt, grid, 6)
        cols[-1] = cols[0]
        dcols = frame_derivative(cols, grid[1] - grid[0], periodic=True)
        a_series = -np.einsum("tin,tin->tn", cols.conj(), dcols).imag
        gammas = [simpson(a_series[:, n], x=grid) for n in range(6)]
        for n in range(6):
            a_ref = a_reference(params, thetas, grid, n)
            assert np.max(np.abs(a_series[:, n] - a_ref)) < 5e-9
            _, g_ref = closed_form_phases(params, n, params.T)
            assert gammas[n] == pytest.approx(g_ref, abs=1e-8)
        for n in range(1, 6):
            assert gammas[n] / gammas[0] == pytest.approx(
                2 * n + 1, abs=2e-8)

    def test_phase_triangle_at_reference_truncation(self, params, fock_kt):
        steps = 512
        grid = np.linspace(0.0, params.T, steps + 1)
        frames = np.empty((steps + 1, 120, 120), dtype=complex)
        for i, t in enumerate(grid):
            tb, pb = hyperbolic_coords(params, t)
            frames[i] = w_operator(fock_kt, tb, pb).array
        frames[-1] = frames[0]
        frame = InvariantFrame(
            grid=grid,
            eigenvalues=params.wtilde * (np.arange(120) + 0.5),
            degeneracies=np.ones(120, dtype=int),
            frames=frames, periodic=True, min_overlap=1.0)
        sched = HamiltonianSchedule.constant(fock_kt.K.array, label="K")
        record = abelian_phases(project(frame, sched))
        rate = kn_rate(params)
        for n in range(6):
            e_series = record.E[n][:, 0, 0].real
            assert np.max(np.abs(e_series - rate * (2 * n + 1))) < 1e-12
            delta, gamma = closed_form_phases(params, n, params.T)
            assert record.delta_angle[n][-1] == pytest.approx(
                delta, abs=1e-10)
            assert record.gamma_angle[n][-1] == pytest.approx(
                gamma, abs=1e-6)
        record = solve_un(record)
        u_rec = reconstruct_U(frame, record)
        u_final = u_rec.final()
        parity = -1j * (-1.0) ** np.arange(6)
        for n in range(6):
            delta, gamma = closed_form_phases(params, n, params.T)
            err = wrap_angle(np.angle(u_final[n, n]) - (delta + gamma))
            assert abs(err) < 1e-6
        off = u_final[:40, :40] - np.diag(np.diag(u_final)[:40])
        assert np.max(np.abs(off)) < 1e-10
        assert np.max(np.abs(np.diag(u_final)[:6] - parity)) < 1e-6


class TestHstarFrame:
    def test_wframe_hstar_reproduces_loop(self, params):
        fock = build_fock(params, 24, "ktilde")
        steps = 2048
        grid = np.linspace(0.0, params.T, steps + 1)
        frames = np.empty((steps + 1, 24, 24), dtype=complex)
        for i, t in enumerate(grid):
            tb, pb = hyperbolic_coords(params, t)
            frames[i] = w_operator(fock, tb, pb).array
        frames[-1] = frames[0]
        frame = InvariantFrame(
            grid=grid,
            eigenvalues=params.wtilde * (np.arange(24) + 0.5),
            degeneracies=np.ones(24, dtype=int),
            frames=frames, periodic=True, min_overlap=1.0)
        sched = hstar(frame)
        u_star = evolve(sched, params.T, steps=steps, tol=1e-10,
                        store=[0.0, params.T])
        assert np.max(np.abs(u_star.final() - np.eye(24))) < 1e-6


class TestErmakov:
    def test_residual_converges_fourth_order(self, params):
        maxima = {}
        for steps in (1024, 2048, 4096):
            grid = np.linspace(0.0, params.T, steps + 1)
            maxima[steps] = ermakov_check(params, grid)
        assert maxima[4096] <= 1e-6
        for coarse, fine in ((1024, 2048), (2048, 4096)):
            assert 3.8 < maxima[coarse] / maxima[fine] < 4.2

    def test_pinney_decomposition_is_exact(self, params):
        grid = np.linspace(0.0, params.T, 1001)
        rho2 = 1.0 / params.mtilde - params.b * (
            1 - np.cos(2 * params.omega * grid))
        pinney = ((1.0 / params.mtilde - 2 * params.b)
                  * np.sin(params.omega * grid) ** 2
                  + (1.0 / params.mtilde)
                  * np.cos(params.omega * grid) ** 2)
        assert np.max(np.abs(rho2 - pinney)) < 1e-12

    def test_degenerate_line_has_constant_width(self):
        p = derive_params(1.0, 2.0, 2.0, 1.0)
        assert p.b == pytest.approx(0.0, abs=1e-15)
        res = ermakov_check(p, np.linspace(0.0, p.T, 257))
        assert res < 1e-12

    def test_guards(self, params):
        with pytest.raises(GridTooCoarse):
            ermakov_check(params, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ermakov_check(params, np.array([0.0, 0.1, 0.5, 0.6]))
        bad = dataclasses.replace(params, b=0.6)
        with pytest.raises(DomainError):
            ermakov_check(bad, np.linspace(0.0, params.T, 257))


class TestGhoFamily:
    def test_modulated_family_closed_form(self, params):
        fock = build_fock(params, 32, "k")
        system = CrankedSystem(fock.H0, fock.K)

        def f(t):
            return 0.6 + 0.4 * np.cos(2 * params.omega * t)

        def f_integral(t):
            return 0.6 * t + 0.2 * np.sin(2 * params.omega * t) / params.omega

        ysched = HamiltonianSchedule.from_terms(
            [(f, fock.I0.array)], period=params.T, label="f*I0")
        hsched, u_geq = geq_member(system, ysched, params.T, steps=512)
        for t in np.linspace(0.0, params.T, 7):
            coeff = (f(t) * gho_H(params, fock, t).array
                     + (1 - f(t)) * fock.K.array)
            assert np.max(np.abs(hsched.sample(t) - coeff)) < 1e-10
        direct = HamiltonianSchedule.from_callable(
            lambda t: f(t) * gho_H(params, fock, t).array
            + (1 - f(t)) * fock.K.array, 32, period=params.T)
        u_direct = evolve(direct, params.T, steps=512, tol=1e-10)
        assert np.max(np.abs(u_direct.final() - u_geq.final())) < 1e-9
        kd = np.diag(fock.K.array).real
        w_i0, v_i0 = fock.cached_eig("I0", fock.I0)
        phase_k = np.exp(-1j * kd * params.T)
        phase_i = np.exp(-1j * w_i0 * f_integral(params.T))
        u_closed = (phase_k[:, None] * v_i0) @ (
            phase_i[:, None] * v_i0.conj().T)
        assert np.max(np.abs(u_direct.final() - u_closed)) < 1e-9
