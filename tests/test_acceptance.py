"""End-to-end acceptance suite.

Each test below is one numbered acceptance criterion; the ``pytest -v``
line for the test is the per-criterion pass/fail record, and the printed
summary (visible with ``-s`` or on failure) carries the measured numbers.
All tolerances are fixed literals.  The reference oscillator throughout
is (M, Omega, m, omega) = (1, 3, 2, 1) with period T = pi / omega.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from invphase import cli, oscillator
from invphase.cranked import CrankedSystem, cranked_H, cranked_U, geq_member
from invphase.errors import DegenerateParameters
from invphase.invariant import (
    InvariantFrame,
    InvariantPath,
    eigenframe,
    frame_derivative,
    hstar,
    lvn_residual,
    transport,
)
from invphase.linalg import expm_igen, frob
from invphase.phases import (
    abelian_phases,
    nonabelian_holonomy,
    project,
    wrap_angle,
)
from invphase.propagator import HamiltonianSchedule, evolve, loop_check

N_TRUNC = 120
N_LEVELS = 6


def integer_spectrum_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    return q @ np.diag(np.arange(dim, dtype=float)) @ q.conj().T


def w_frame_stack(params, fock, grid, n_cols=None):
    """W(t) (or its leading columns) sampled on a periodic grid."""
    n_cols = fock.N if n_cols is None else n_cols
    stack = np.empty((grid.size, fock.N, n_cols), dtype=complex)
    for i, t in enumerate(grid):
        theta, phi = oscillator.hyperbolic_coords(params, t)
        stack[i] = oscillator.w_operator(fock, theta, phi).array[:, :n_cols]
    stack[-1] = stack[0]
    return stack


@pytest.fixture(scope="module")
def params():
    return oscillator.derive_params(1.0, 3.0, 2.0, 1.0)


@pytest.fixture(scope="module")
def fock_k(params):
    return oscillator.build_fock(params, N_TRUNC, "k")


@pytest.fixture(scope="module")
def fock_kt(params):
    return oscillator.build_fock(params, N_TRUNC, "ktilde")


@pytest.fixture(scope="module")
def cyclic_states(params, fock_k):
    return oscillator.cyclic_basis_evolution(params, fock_k, N_LEVELS - 1)


@pytest.fixture(scope="module")
def delta_measured(params, fock_k):
    """-int <K> dt over [0, T] per level, by Simpson quadrature."""
    grid = np.linspace(0.0, params.T, 513)
    kd = np.diag(fock_k.K.array).real
    _, vecs = fock_k.cached_eig("I0", fock_k.I0)
    amps = np.exp(-1j * np.outer(grid, kd))
    out = {}
    for n in range(N_LEVELS):
        vt = amps * vecs[:, n][None, :]
        e_series = np.einsum("ti,ij,tj->t", vt.conj(), fock_k.K.array,
                             vt).real
        out[n] = -simpson(e_series, x=grid)
    return out


@pytest.fixture(scope="module")
def w_gauge_gamma(params, fock_kt):
    """gamma_n(T) = int A^n dt from the analytic W-frame columns."""
    grid = np.linspace(0.0, params.T, 2049)
    cols = w_frame_stack(params, fock_kt, grid, N_LEVELS)
    dcols = frame_derivative(cols, grid[1] - grid[0], periodic=True)
    a_series = -np.einsum("tin,tin->tn", cols.conj(), dcols).imag
    return np.array([simpson(a_series[:, n], x=grid)
                     for n in range(N_LEVELS)])


def test_criterion_01_cyclic_phase_reproduction(params):
    started = time.perf_counter()
    fock = oscillator.build_fock(params, N_TRUNC, "k")
    states = oscillator.cyclic_basis_evolution(params, fock, N_LEVELS - 1)
    worst_phase = worst_fid = 0.0
    for state in states:
        d_ref, g_ref = oscillator.closed_form_phases(params, state.n,
                                                     params.T)
        err = abs(wrap_angle(state.total_phase - (d_ref + g_ref)))
        worst_phase = max(worst_phase, err)
        worst_fid = max(worst_fid, 1.0 - state.fidelity)
        assert err <= 1e-6
        assert state.fidelity >= 1.0 - 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    print(f"criterion 01: PASS  phase err {worst_phase:.2e}, "
          f"fidelity deficit {worst_fid:.2e}, {elapsed:.1f}s")


def test_criterion_02_dynamical_phase_closed_form(params, delta_measured):
    rate = (math.pi / 4.0) * (params.mu + 1.0 / params.mu)
    worst = 0.0
    for n in range(N_LEVELS):
        ref = -rate * (2 * n + 1)
        worst = max(worst, abs(delta_measured[n] - ref))
        assert abs(delta_measured[n] - ref) <= 1e-7
    print(f"criterion 02: PASS  dynamical-phase err {worst:.2e}")


def test_criterion_03_geometric_two_estimators(params, cyclic_states,
                                               delta_measured,
                                               w_gauge_gamma):
    worst_split = worst_gauge = worst_ratio = 0.0
    for state in cyclic_states:
        n = state.n
        _, g_ref = oscillator.closed_form_phases(params, n, params.T)
        split = abs(wrap_angle(state.total_phase - delta_measured[n]
                               - g_ref))
        gauge = abs(w_gauge_gamma[n] - g_ref)
        worst_split = max(worst_split, split)
        worst_gauge = max(worst_gauge, gauge)
        assert split <= 1e-6
        assert gauge <= 1e-6
        if n > 0:
            ratio = abs(w_gauge_gamma[n] / w_gauge_gamma[0] - (2 * n + 1))
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1e-8
    print(f"criterion 03: PASS  total-minus-dynamical err "
          f"{worst_split:.2e}, connection-integral err {worst_gauge:.2e}, "
          f"ratio err {worst_ratio:.2e}")


def test_criterion_04_cranked_closed_form(params, fock_k):
    sched = HamiltonianSchedule.from_callable(
        lambda t: oscillator.gho_H(params, fock_k, t).array, fock_k.N,
        period=params.T)
    steps = 4096
    indices = np.unique(np.round(np.linspace(0, steps, 10)).astype(int))
    times = indices * (params.T / steps)
    upath = evolve(sched, params.T, steps=steps, tol=1e-10, store=times)
    kd = np.diag(fock_k.K.array).real
    i0 = fock_k.I0.array
    worst = 0.0
    for row, t in enumerate(upath.grid):
        closed = np.exp(-1j * kd * t)[:, None] * expm_igen(i0, t)
        dev = frob(fock_k.interior(upath.samples[row] - closed))
        worst = max(worst, dev)
        assert dev <= 1e-7
    print(f"criterion 04: PASS  interior Frobenius deviation {worst:.2e} "
          f"at {upath.grid.size} sample times")


def test_criterion_05_invariant_residual(params):
    fock = oscillator.build_fock(params, 60, "k")
    kd = np.diag(fock.K.array).real
    scale = frob(fock.I0.array)
    sched_h = HamiltonianSchedule.from_callable(
        lambda t: oscillator.gho_H(params, fock, t).array, fock.N,
        period=params.T)
    sched_k = HamiltonianSchedule.constant(fock.K.array, label="K")
    res_h, res_k, drift = {}, {}, None
    for steps in (1024, 2048, 4096):
        grid = np.linspace(0.0, params.T, steps + 1)
        phases = np.exp(-1j * np.outer(grid, kd))
        samples = np.einsum("ti,ij,tj->tij", phases, fock.I0.array,
                            phases.conj())
        path = InvariantPath(grid, samples)
        res_h[steps] = lvn_residual(path, sched_h).max()
        res_k[steps] = lvn_residual(path, sched_k).max()
        if steps == 4096:
            drift = path.spectrum_drift()
    for res in (res_h, res_k):
        assert res[4096] <= 1e-6 * scale
        assert 3.5 < res[1024] / res[2048] < 4.5
        assert 3.5 < res[2048] / res[4096] < 4.5
    assert drift <= 1e-8
    print(f"criterion 05: PASS  relative residual vs H(t) "
          f"{res_h[4096] / scale:.2e}, vs K {res_k[4096] / scale:.2e}, "
          f"refinement ratio {res_h[1024] / res_h[2048]:.3f}, "
          f"drift {drift:.2e}")


def test_criterion_06_evolution_loops(params, fock_k):
    sched = HamiltonianSchedule.constant(fock_k.K.array, label="K")
    path = evolve(sched, 2 * params.tau, steps=2048,
                  store=[0.0, params.tau, 2 * params.tau])
    c_one = loop_check(path, params.tau)
    c_two = loop_check(path, 2 * params.tau)
    assert c_one is not None and abs(c_one - (-1.0)) <= 1e-12
    assert c_two is not None and abs(c_two - 1.0) <= 1e-12

    n_w = 24
    fock_w = oscillator.build_fock(params, n_w, "ktilde")
    grid = np.linspace(0.0, params.T, 2049)
    frames = w_frame_stack(params, fock_w, grid)
    frame = InvariantFrame(
        grid=grid,
        eigenvalues=params.wtilde * (np.arange(n_w) + 0.5),
        degeneracies=np.ones(n_w, dtype=int), frames=frames,
        periodic=True, min_overlap=1.0)
    star = hstar(frame)
    u_star = evolve(star, params.T, steps=2048, tol=1e-10,
                    store=[0.0, params.T])
    dev = frob(u_star.final() - np.eye(n_w))
    assert dev <= 1e-5
    print(f"criterion 06: PASS  loop(tau) err {abs(c_one + 1.0):.2e}, "
          f"loop(2 tau) err {abs(c_two - 1.0):.2e}, "
          f"U*(T) identity deviation {dev:.2e}")


def test_criterion_07_geometric_equivalence_suite():
    dim = 6
    t_max = 2 * math.pi
    k = integer_spectrum_hermitian(dim, seed=7)
    lam = np.linspace(0.5, 3.0, dim)
    i0 = np.diag(lam).astype(complex)
    system = CrankedSystem(i0 + k, k)
    grid = np.linspace(0.0, t_max, 1025)
    kw, kv = np.linalg.eigh(k)
    samples = np.empty((grid.size, dim, dim), dtype=complex)
    for i, t in enumerate(grid):
        expk = (kv * np.exp(-1j * kw * t)) @ kv.conj().T
        samples[i] = expk @ i0 @ expk.conj().T
    frame = eigenframe(InvariantPath(grid, samples),
                       enforce_periodic=True)
    base_sched = HamiltonianSchedule.from_callable(
        lambda t: cranked_H(system, t).array, dim, period=t_max)
    rec0 = abelian_phases(project(frame, base_sched))
    u_base = cranked_U(system, t_max).array
    w0 = frame.initial()

    cases = (
        ("constant", lambda t: 0.4 + 0.0 * t, 0.4 * t_max),
        ("sin", lambda t: 0.3 * np.sin(t), 0.3 * (1 - np.cos(t_max))),
        ("ramp", lambda t: 0.05 * t, 0.025 * t_max ** 2),
    )
    worst = {"gamma": 0.0, "delta": 0.0, "u": 0.0}
    for name, f, f_total in cases:
        ytilde = HamiltonianSchedule.from_terms(
            [(lambda t, f=f: 1.0 + f(t), i0)], label=name)
        hsched, upath = geq_member(system, ytilde, t_max, steps=1024)
        u_tilde = upath.final()
        u_ref = u_base @ expm_igen(i0, f_total)
        u_direct = evolve(hsched, t_max, steps=2048, tol=1e-12,
                          store=[0.0, t_max]).final()
        dev_u = max(frob(u_tilde - u_ref), frob(u_tilde - u_direct))
        worst["u"] = max(worst["u"], dev_u)
        assert dev_u <= 1e-7

        rec1 = abelian_phases(project(frame, hsched))
        f_quad = simpson(f(grid), x=grid)
        for n in range(dim):
            col = w0[:, frame.block_slice(n)][:, 0]
            d0, d1 = rec0.delta_angle[n][-1], rec1.delta_angle[n][-1]
            dev_d = abs((d1 - d0) + lam[n] * f_quad)
            worst["delta"] = max(worst["delta"], dev_d)
            assert dev_d <= 1e-7

            g_frame = abs(rec1.gamma_angle[n][-1]
                          - rec0.gamma_angle[n][-1])
            tot0 = np.angle(np.vdot(col, u_base @ col))
            tot1 = np.angle(np.vdot(col, u_tilde @ col))
            g_split = abs(wrap_angle((tot1 - d1) - (tot0 - d0)))
            dev_g = max(g_frame, g_split)
            worst["gamma"] = max(worst["gamma"], dev_g)
            assert dev_g <= 1e-7
    print(f"criterion 07: PASS  gamma agreement {worst['gamma']:.2e}, "
          f"dynamical shift err {worst['delta']:.2e}, "
          f"propagator deviation {worst['u']:.2e}")


def test_criterion_08_algebra_identities(params, fock_kt, fock_k):
    worst_su = worst_can = 0.0
    for fock in (fock_kt, fock_k):
        k1, k2, k3 = fock.K1.array, fock.K2.array, fock.K3.array
        for lhs, rhs in (((k1 @ k2 - k2 @ k1), -1j * k3),
                         ((k2 @ k3 - k3 @ k2), 1j * k1),
                         ((k3 @ k1 - k1 @ k3), 1j * k2)):
            worst_su = max(worst_su, np.max(np.abs(
                fock.interior(lhs - rhs))))
        x, p = fock.x.array, fock.p.array
        canon = fock.interior(x @ p - p @ x - 1j * np.eye(fock.N))
        worst_can = max(worst_can, np.max(np.abs(canon)))
    assert worst_su <= 1e-7
    assert worst_can <= 1e-7

    kd = np.diag(fock_k.K.array).real
    x, p = fock_k.x.array, fock_k.p.array
    mw = params.m * params.omega
    worst_crank = 0.0
    for t in np.linspace(0.0, params.tau, 9):
        ph = np.exp(-1j * kd * t)
        xr = (ph[:, None] * x) * ph.conj()[None, :]
        pr = (ph[:, None] * p) * ph.conj()[None, :]
        c, s = np.cos(params.omega * t), np.sin(params.omega * t)
        worst_crank = max(
            worst_crank,
            np.max(np.abs(fock_k.interior(xr - (c * x - (s / mw) * p)))),
            np.max(np.abs(fock_k.interior(pr - (mw * s * x + c * p)))))
    assert worst_crank <= 1e-7

    k1, k2, k3 = fock_kt.K1.array, fock_kt.K2.array, fock_kt.K3.array
    k3d = np.diag(k3).real
    worst_k3 = 0.0
    for phi in (0.3, 1.1, 2.7):
        ph = np.exp(-1j * phi * k3d)
        r1 = (ph[:, None] * k1) * ph.conj()[None, :]
        r2 = (ph[:, None] * k2) * ph.conj()[None, :]
        c, s = np.cos(phi), np.sin(phi)
        worst_k3 = max(
            worst_k3,
            np.max(np.abs(fock_kt.interior(r1 - (c * k1 + s * k2)))),
            np.max(np.abs(fock_kt.interior(r2 - (c * k2 - s * k1)))))
    assert worst_k3 <= 1e-7

    fock_w = oscillator.build_fock(params, 240, "ktilde")
    w1, w2, w3 = fock_w.K1.array, fock_w.K2.array, fock_w.K3.array
    worst_w = 0.0
    for t in np.linspace(0.05, params.T - 0.05, 6):
        theta, phi = oscillator.hyperbolic_coords(params, t)
        wop = oscillator.w_operator(fock_w, theta, phi).array
        lhs = wop @ w3 @ wop.conj().T
        rhs = (np.sinh(theta) * np.cos(phi) * w1
               + np.sinh(theta) * np.sin(phi) * w2
               + np.cosh(theta) * w3)
        worst_w = max(worst_w, np.max(np.abs((lhs - rhs)[:40, :40])))
    assert worst_w <= 1e-8
    print(f"criterion 08: PASS  su(1,1) {worst_su:.2e}, canonical "
          f"{worst_can:.2e}, rotations {max(worst_crank, worst_k3):.2e}, "
          f"W K3 W+ {worst_w:.2e}")


def test_criterion_09_ermakov(params):
    residuals = {steps: oscillator.ermakov_check(
        params, np.linspace(0.0, params.T, steps + 1))
        for steps in (1024, 2048, 4096)}
    assert residuals[4096] <= 1e-6
    assert 3.8 < residuals[1024] / residuals[2048] < 4.2
    assert 3.8 < residuals[2048] / residuals[4096] < 4.2

    grid = np.linspace(0.0, params.T, 1025)
    rho_sq = 1.0 / params.mtilde - params.b * (1.0 - np.cos(
        2.0 * params.omega * grid))
    pinney = ((1.0 / params.mtilde - 2.0 * params.b)
              * np.sin(params.omega * grid) ** 2
              + (1.0 / params.mtilde) * np.cos(params.omega * grid) ** 2)
    dev = np.max(np.abs(rho_sq - pinney))
    assert dev <= 1e-12
    print(f"criterion 09: PASS  residual {residuals[4096]:.2e}, "
          f"ratios {residuals[1024] / residuals[2048]:.3f}/"
          f"{residuals[2048] / residuals[4096]:.3f}, Pinney {dev:.2e}")


def test_criterion_10_degenerate_behavior():
    dp = oscillator.derive_params(1.0, 2.0, 2.0, 1.0)
    assert abs(dp.nu - 1.0) < 1e-12 and abs(dp.mu - 1.0) < 1e-12
    fock = oscillator.build_fock(dp, 32, "k")
    h_const = oscillator.gho_H(dp, fock, 0.0).array
    worst_h = max(frob(oscillator.gho_H(dp, fock, t).array - h_const)
                  for t in (0.3, 1.1, dp.T))
    assert worst_h <= 1e-12

    with pytest.raises(DegenerateParameters):
        oscillator.closed_form_phases(dp, 0, dp.T)
    with pytest.raises(DegenerateParameters):
        oscillator.hyperbolic_coords(dp, 0.4)

    # simulation still runs on the degenerate line
    states = oscillator.cyclic_basis_evolution(dp, fock, 3)
    assert all(s.fidelity >= 1.0 - 1e-8 for s in states)

    grid = np.linspace(0.0, dp.T, 257)
    samples = np.broadcast_to(fock.I0.array,
                              (grid.size, fock.N, fock.N)).copy()
    frame = eigenframe(InvariantPath(grid, samples))
    rec = abelian_phases(project(
        frame, HamiltonianSchedule.constant(h_const)))
    worst_g = max(abs(rec.gamma_angle[n][-1]) for n in range(N_LEVELS))
    assert worst_g <= 1e-7
    print(f"criterion 10: PASS  H(t) drift {worst_h:.2e}, "
          f"numeric |gamma| {worst_g:.2e}, closed form raises")


def test_criterion_11_nonabelian_holonomy():
    dim = 5
    t_max = 2 * math.pi
    k = integer_spectrum_hermitian(dim, seed=0)
    lam = np.linspace(0.25, 2.25, dim)
    i0 = np.diag(lam).astype(complex)

    sched = HamiltonianSchedule.from_callable(
        lambda t: expm_igen(k, t) @ (i0 + k) @ expm_igen(k, t).conj().T,
        dim, period=t_max)
    path = evolve(sched, t_max, steps=1024, tol=1e-10)
    frame = eigenframe(transport(path, i0), enforce_periodic=True)
    rec = abelian_phases(nonabelian_holonomy(project(frame, sched)))
    worst_scalar = 0.0
    for n in range(dim):
        gamma = rec.Gamma_T[n]
        assert gamma.shape == (1, 1)
        ref = np.exp(1j * rec.gamma_angle[n][-1])
        worst_scalar = max(worst_scalar, abs(gamma[0, 0] - ref))
        assert abs(gamma[0, 0] - ref) <= 1e-8

    doubled = InvariantPath(
        frame.grid[:path.grid.size],
        np.stack([np.kron(expm_igen(k, t) @ i0 @ expm_igen(k, t).conj().T,
                          np.eye(2)) for t in path.grid]))
    frame2 = eigenframe(doubled, enforce_periodic=True)
    sched2 = HamiltonianSchedule.from_callable(
        lambda t: np.kron(sched.sample(t), np.eye(2)), 2 * dim,
        period=t_max)
    rec2 = nonabelian_holonomy(project(frame2, sched2))
    worst_unitary = worst_block = 0.0
    for n in range(frame2.n_blocks):
        gamma = rec2.Gamma_T[n]
        assert gamma.shape == (2, 2)
        worst_unitary = max(worst_unitary, frob(
            gamma @ gamma.conj().T - np.eye(2)))
        assert frob(gamma @ gamma.conj().T - np.eye(2)) <= 1e-8
        a_block = rec2.A[n]
        off = np.max(np.abs(a_block - np.einsum(
            "kab,ab->kab", a_block, np.eye(2))))
        for a in range(2):
            scalar = np.sum(0.5 * (a_block[:-1, a, a].real
                                   + a_block[1:, a, a].real)
                            * np.diff(rec2.grid))
            dev = abs(gamma[a, a] - np.exp(1j * scalar))
            worst_block = max(worst_block, dev)
            assert dev <= 1e-7
        assert abs(gamma[0, 1]) <= 1e-7 + 10 * off
    print(f"criterion 11: PASS  scalar reduction {worst_scalar:.2e}, "
          f"unitarity {worst_unitary:.2e}, per-block match "
          f"{worst_block:.2e}")


def test_criterion_12_determinism(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({
        "system": {"oscillator": {"M": 1.0, "Omega": 3.0, "m": 2.0,
                                  "omega": 1.0}},
        "truncation": {"N": 48},
        "grid": {"t_max": math.pi, "steps": 256},
        "tasks": ["phases", "validate", "loop-check", "sweep"],
        "sweep": {"Omega": {"start": 2.5, "stop": 3.5, "count": 2},
                  "m": {"start": 1.8, "stop": 2.2, "count": 2}},
        "output": {"csv_path": "phases.csv",
                   "report_path": "report.json"},
    }), encoding="utf-8")
    config = cli.load_config(config_path)
    report_a = cli.run(config, out_dir=tmp_path / "a")
    report_b = cli.run(config, out_dir=tmp_path / "b")
    assert report_a.all_pass and report_b.all_pass
    for name in ("phases.csv", "phases-sweep.csv", "report.json"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b, f"{name} differs between runs"
    print("criterion 12: PASS  CSV and report byte-identical across runs")
