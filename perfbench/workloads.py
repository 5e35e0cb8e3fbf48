"""The benchmark's workloads.

Each workload is a class.  Its constructor is the set-up: it makes the
inputs from the seed and builds the program's inputs through the public
API (``cli.load_config``, ``build_fock``, schedules).  ``run_pass`` does
one pass of the work, and ``verify`` checks that pass's outputs against
closed forms, using numpy spectral exponentials and the package's scalar
closed-form formulas rather than the code under test.

* ``osc-cli`` runs the oscillator scenario through ``cli.run``: the
  W-frame phase series, ``validate``, ``loop-check`` and a 3x3 sweep.  The
  adaptive integrator does no work here.
* ``gho-evolve`` integrates the generalised oscillator ``H(t)`` over one
  period with ``evolve``.  Dense Hermitian eigensolves carry its cost.
* ``cranked-family`` runs small cranked systems: a CLI ``cranked``
  scenario, a geometric-equivalence member with a non-scalar ``Y(t)``,
  and a degenerate doubled system through the non-Abelian pipeline.
  Per-call Python overhead carries its cost.

The seed sets the inputs and nothing about the amount of work, so every
seed does the same work on different numbers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from invphase import cli, cranked, invariant, oscillator, phases, propagator

#: Agreement required of a phase angle, in radians.
PHASE_TOL = 1e-6
#: Agreement required of a propagator, in Frobenius norm (criterion 04).
UNITARY_TOL = 1e-7
#: Agreement required of the propagator rebuilt from invariant data
#: (the bound ``reconstruct_U`` documents).
RECONSTRUCT_TOL = 1e-6
#: Agreement required of a non-Abelian holonomy, whose time-ordered
#: midpoint product is second order in the step (errors up to about 6e-8
#: at the sizes here).
HOLONOMY_TOL = 1e-5
#: Phase series levels the CLI writes, and the columns of its CSV.
N_LEVELS = 6
CSV_HEADER = ["t", "n", "delta_unwrapped", "gamma_unwrapped",
              "total_mod_2pi", "fidelity"]
#: The paper's reference point (M, Omega, m, omega).
REFERENCE = {"M": 1.0, "Omega": 3.0, "m": 2.0, "omega": 1.0}
TWO_PI = 2.0 * math.pi


@dataclass
class Verdict:
    """Worst deviations of one pass from the closed forms.

    ``problems`` lists every comparison that broke its tolerance; the pass
    verifies when it is empty.  ``report_checks_failed`` counts the
    ``fail`` rows of the CLI reports the pass produced, which are the
    program's own checks and do not decide the verdict.
    """

    phase_err: float = 0.0
    unitary_err: float = 0.0
    report_checks_failed: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def phase(self, what, err, tol=PHASE_TOL) -> None:
        err = float(err)
        self.phase_err = max(self.phase_err, err)
        if not err <= tol:
            self.problems.append(f"{what}: phase error {err:.3e}")

    def unitary(self, what, err, tol=UNITARY_TOL) -> None:
        err = float(err)
        self.unitary_err = max(self.unitary_err, err)
        if not err <= tol:
            self.problems.append(f"{what}: propagator error {err:.3e}")

    def require(self, what, condition) -> None:
        if not condition:
            self.problems.append(what)

    def read_report(self, report) -> None:
        self.report_checks_failed += sum(
            row.status == "fail" for row in report.checks)


def wrap(theta):
    """Angle (or array) reduced to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(theta)))


def spectral_exp(a, t):
    """``exp(-i t A)`` for Hermitian ``A`` at every time in ``t``."""
    w, v = np.linalg.eigh(a)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.einsum("ij,tj,kj->tik", v, np.exp(-1j * np.outer(t, w)),
                     v.conj())


def random_basis(dim, rng, *, real=False):
    """Random orthogonal (``real``) or unitary matrix."""
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(a)[0]


def integer_spectrum(dim, rng, *, real=False):
    """Hermitian matrix with spectrum 0..dim-1 in a random basis.

    ``exp(-2 pi i K)`` is then the identity, so every cranked system
    built on it is cyclic at ``T = 2 pi``.
    """
    q = random_basis(dim, rng, real=real)
    k = (q * np.arange(dim, dtype=float)) @ q.conj().T
    return 0.5 * (k + k.conj().T)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def clear_outputs(out_dir: Path) -> None:
    for p in out_dir.iterdir():
        if p.is_file():
            p.unlink()


def write_config(path: Path, body: dict):
    path.write_text(json.dumps(body), encoding="utf-8")
    return cli.load_config(path)


# ---------------------------------------------------------------------------


class OscCli:
    """The oscillator scenario through ``cli.load_config`` + ``cli.run``.

    The system is the paper's reference point; the seed moves the 3x3
    sweep window over (Omega, m).  The W-frame phases of level 5 miss
    ``PHASE_TOL`` by truncation error at N = 48 and meet it at N = 56.
    """

    name = "osc-cli"

    def __init__(self, seed, workdir: Path, *, n_trunc=56, steps=512):
        rng = np.random.default_rng(seed)
        omega0 = 2.6 + 0.2 * rng.random()
        m0 = 1.6 + 0.2 * rng.random()
        self.out_dir = workdir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sizes = {"N": n_trunc, "steps": steps, "sweep": [3, 3]}
        self.config = write_config(workdir / f"{self.name}.json", {
            "system": {"oscillator": REFERENCE},
            "truncation": {"N": n_trunc},
            "grid": {"t_max": math.pi / REFERENCE["omega"], "steps": steps},
            "tasks": ["phases", "validate", "loop-check", "sweep"],
            "sweep": {"Omega": {"start": omega0, "stop": omega0 + 0.8,
                                "count": 3},
                      "m": {"start": m0, "stop": m0 + 0.8, "count": 3}},
            "output": {"csv_path": "phases.csv",
                       "report_path": "report.json"},
        })

    def run_pass(self):
        return cli.run(self.config, out_dir=self.out_dir)

    def verify(self, report) -> Verdict:
        out = Verdict()
        out.read_report(report)
        out.bytes_written = output_bytes(self.out_dir)
        params = oscillator.derive_params(**REFERENCE)

        header, rows = read_csv(self.out_dir / "phases.csv")
        out.require("phases.csv header", header == CSV_HEADER)
        table = np.array(rows, dtype=float)
        out.require("phases.csv row count",
                    table.shape == ((self.config.steps + 1) * N_LEVELS, 6))
        t, n = table[:, 0], table[:, 1].astype(int)
        ref = np.array([oscillator.closed_form_phases(params, int(a), b)
                        for a, b in zip(n, t)])
        out.phase("phase series delta", np.max(np.abs(table[:, 2]
                                                       - ref[:, 0])))
        out.phase("phase series gamma", np.max(np.abs(table[:, 3]
                                                       - ref[:, 1])))
        last = t == t.max()
        out.phase("cyclic total phase", np.max(np.abs(wrap(
            table[last, 4] - ref[last].sum(axis=1)))))
        out.unitary("cyclic return fidelity",
                    np.max(np.abs(1.0 - table[last, 5])))

        loops = {row.name: row.measured for row in report.checks}
        out.require("loop rows present", {"loop-one-period",
                                          "loop-two-periods"} <= set(loops))
        out.unitary("loop U(tau) = -1",
                    abs(loops.get("loop-one-period", 0.0) + 1.0))
        out.unitary("loop U(2 tau) = 1",
                    abs(loops.get("loop-two-periods", 0.0) - 1.0))

        header, rows = read_csv(self.out_dir / "phases-sweep.csv")
        out.require("sweep row count", len(rows) == 9)
        for row in rows:
            if row[-1] != "ok":
                continue
            point = oscillator.derive_params(
                *(float(v) for v in row[:4]))
            delta, gamma = oscillator.closed_form_phases(point, 0, point.T)
            out.phase("sweep delta0", abs(float(row[6]) - delta))
            out.phase("sweep gamma0", abs(float(row[7]) - gamma))
            out.phase("sweep total", abs(wrap(float(row[8])
                                              - (delta + gamma))))
        clear_outputs(self.out_dir)
        return out


# ---------------------------------------------------------------------------


class GhoEvolve:
    """Brute-force ``evolve`` of the generalised oscillator in the k basis.

    Criterion 04 scaled down.  The seed moves (Omega, m) by up to 2 % from
    the reference point and picks the stored times.  At N = 24, 1024 steps
    per period split no interval (512 steps split every one).
    """

    name = "gho-evolve"

    def __init__(self, seed, workdir: Path, *, n_trunc=24, steps=1024,
                 n_store=10):
        rng = np.random.default_rng(seed)
        jitter = 1.0 + 0.02 * (2.0 * rng.random(2) - 1.0)
        self.params = params = oscillator.derive_params(
            REFERENCE["M"], REFERENCE["Omega"] * jitter[0],
            REFERENCE["m"] * jitter[1], REFERENCE["omega"])
        self.fock = fock = oscillator.build_fock(params, n_trunc, "k")
        self.schedule = propagator.HamiltonianSchedule.from_callable(
            lambda t: oscillator.gho_H(params, fock, t).array, fock.N,
            period=params.T)
        self.steps = steps
        grid = np.linspace(0.0, params.T, steps + 1)
        inner = rng.choice(np.arange(1, steps), size=n_store - 2,
                           replace=False)
        self.store = grid[np.sort(np.concatenate(([0, steps], inner)))]
        self.sizes = {"N": n_trunc, "steps": steps, "stored": n_store}

    def run_pass(self):
        return propagator.evolve(self.schedule, self.params.T,
                                 steps=self.steps, tol=1e-10,
                                 store=self.store)

    def verify(self, upath) -> Verdict:
        out = Verdict()
        fock = self.fock
        out.require("stored times", np.array_equal(upath.grid, self.store))
        kd = np.diag(fock.K.array).real
        closed = (np.exp(-1j * np.outer(upath.grid, kd))[:, :, None]
                  * spectral_exp(fock.I0.array, upath.grid))
        dev = upath.samples - closed
        inner = fock.N_int
        out.unitary("interior e^{-iKt} e^{-iI0 t}", np.max(np.linalg.norm(
            dev[:, :inner, :inner], axis=(1, 2))))
        # closed_form_phases are the crank's; H(t) = K + I(t) adds the
        # dynamical phase -lam_n T of the invariant level lam_n.
        lam, vecs = np.linalg.eigh(fock.I0.array)
        T = self.params.T
        u_T = upath.samples[-1]
        for n in range(N_LEVELS):
            vec = vecs[:, n]
            total = np.angle(vec.conj() @ u_T @ vec)
            delta, gamma = oscillator.closed_form_phases(self.params, n, T)
            out.phase(f"cyclic total phase n={n}",
                      abs(wrap(total - (delta + gamma - lam[n] * T))))
        return out


# ---------------------------------------------------------------------------


class CrankedFamily:
    """Small dense cranked systems with integer-spectrum cranks (criterion 07).

    (i) a CLI ``cranked`` scenario with the ``phases`` task;
    (ii) ``geq_member`` with ``Y(t) = f(t) I0 + g(t) I0^2``, so
    ``compose_geq`` steps;
    (iii) a doubled system ``H(t) (x) 1_2`` with two-fold degenerate
    invariant levels, through evolve, transport, eigenframe, project,
    nonabelian_holonomy, solve_un and reconstruct_U.

    The seed draws the cranks' eigenbases and the ``Y(t)`` amplitudes.  A
    crank with spectrum 0..d-1 stiffens ``H(t)`` as d grows, so the grids
    are the coarsest at which no interval splits for any seed tried (half
    of each splits some seeds).
    """

    name = "cranked-family"

    def __init__(self, seed, workdir: Path, *, cli_dim=8, cli_steps=1024,
                 geq_dim=6, geq_steps=256, deg_dim=3, deg_steps=512):
        rng = np.random.default_rng(seed)
        self.out_dir = workdir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sizes = {"cli": [cli_dim, cli_steps],
                      "geq": [geq_dim, geq_steps],
                      "degenerate": [2 * deg_dim, deg_steps]}

        # (i) JSON carries real numbers only, so the crank is real symmetric.
        self.cli_k = integer_spectrum(cli_dim, rng, real=True)
        self.cli_lam = np.linspace(0.5, 3.0, cli_dim)
        self.config = write_config(workdir / f"{self.name}.json", {
            "system": {"cranked": {
                "h0": (np.diag(self.cli_lam) + self.cli_k).tolist(),
                "k": self.cli_k.tolist()}},
            "grid": {"t_max": TWO_PI, "steps": cli_steps},
            "tasks": ["phases"],
            "output": {"csv_path": "phases.csv",
                       "report_path": "report.json"},
        })

        # (ii) I0 in a random basis, so Y(t) is dense.
        basis = random_basis(geq_dim, rng)
        lam = np.linspace(0.5, 3.0, geq_dim)
        self.geq_i0 = i0 = (basis * lam) @ basis.conj().T
        self.geq_k = integer_spectrum(geq_dim, rng)
        self.geq_system = cranked.CrankedSystem(i0 + self.geq_k, self.geq_k)
        self.geq_ab = a, b = rng.uniform(0.2, 0.4), rng.uniform(0.05, 0.15)
        i0_sq = i0 @ i0
        self.ytilde = propagator.HamiltonianSchedule.from_callable(
            lambda t: (1.0 + a * np.sin(t)) * i0 + b * np.cos(2 * t) * i0_sq,
            geq_dim, label="f I0 + g I0^2")
        self.geq_steps = geq_steps

        # (iii)
        self.deg_k = integer_spectrum(deg_dim, rng)
        self.deg_lam = np.linspace(0.25, 2.25, deg_dim)
        system = cranked.CrankedSystem(np.diag(self.deg_lam) + self.deg_k,
                                       self.deg_k)
        eye2 = np.eye(2)
        self.deg_schedule = propagator.HamiltonianSchedule.from_callable(
            lambda t: np.kron(cranked.cranked_H(system, t).array, eye2),
            2 * deg_dim, period=TWO_PI)
        self.deg_i0 = np.kron(np.diag(self.deg_lam), eye2)
        self.deg_steps = deg_steps

    def run_pass(self):
        report = cli.run(self.config, out_dir=self.out_dir)
        _, geq_path = cranked.geq_member(self.geq_system, self.ytilde,
                                         TWO_PI, steps=self.geq_steps)
        path = propagator.evolve(self.deg_schedule, TWO_PI,
                                 steps=self.deg_steps, tol=1e-10)
        frame = invariant.eigenframe(invariant.transport(path, self.deg_i0),
                                     enforce_periodic=True)
        record = phases.project(frame, self.deg_schedule)
        phases.nonabelian_holonomy(record)
        phases.solve_un(record)
        rebuilt = phases.reconstruct_U(frame, record)
        return report, geq_path, path, record, rebuilt

    def verify(self, outputs) -> Verdict:
        report, geq_path, path, record, rebuilt = outputs
        out = Verdict()
        out.read_report(report)
        out.bytes_written = output_bytes(self.out_dir)
        self._verify_cli(out)
        self._verify_geq(out, geq_path)
        self._verify_degenerate(out, path, record, rebuilt)
        clear_outputs(self.out_dir)
        return out

    def _verify_cli(self, out):
        # |lam_n; t> = e^{-iKt} |n> up to phase, so E_n = lam_n + K_nn and
        # delta_n(t) = -(lam_n + K_nn) t; the return amplitude is
        # <n| e^{-iKt} |n>.
        header, rows = read_csv(self.out_dir / "phases.csv")
        out.require("phases.csv header", header == CSV_HEADER)
        table = np.array(rows, dtype=float)
        levels = min(N_LEVELS, self.cli_lam.size)
        out.require("phases.csv row count", table.shape == (
            (self.config.steps + 1) * levels, 6))
        t, n = table[:, 0], table[:, 1].astype(int)
        k_nn = np.diag(self.cli_k).real
        out.phase("cranked delta series", np.max(np.abs(
            table[:, 2] + (self.cli_lam[n] + k_nn[n]) * t)))
        kw, kv = np.linalg.eigh(self.cli_k)
        weights = np.abs(kv[n]) ** 2
        amp = np.abs(np.sum(weights * np.exp(-1j * np.outer(t, kw)), axis=1))
        out.unitary("cranked return fidelity",
                    np.max(np.abs(table[:, 5] - amp)))

    def _verify_geq(self, out, geq_path):
        a, b = self.geq_ab
        grid = geq_path.grid
        out.require("geq grid", grid.size == self.geq_steps + 1)
        big_f = grid + a * (1.0 - np.cos(grid))
        big_g = 0.5 * b * np.sin(2 * grid)
        lam, vecs = np.linalg.eigh(self.geq_i0)
        v = np.einsum("ij,tj,kj->tik", vecs, np.exp(
            -1j * (np.outer(big_f, lam) + np.outer(big_g, lam ** 2))),
            vecs.conj())
        u_ref = spectral_exp(self.geq_k, grid) @ v
        out.unitary("geq U~ = e^{-iKt} exp(-i(F I0 + G I0^2))", np.max(
            np.linalg.norm(geq_path.samples - u_ref, axis=(1, 2))))

    def _verify_degenerate(self, out, path, record, rebuilt):
        eye2 = np.eye(2)
        closed = (spectral_exp(self.deg_k, path.grid)
                  @ spectral_exp(np.diag(self.deg_lam), path.grid))
        closed = np.einsum("tij,ab->tiajb", closed, eye2).reshape(
            path.samples.shape)
        out.unitary("doubled U = (e^{-iKt} e^{-iI0 t}) (x) 1", np.max(
            np.linalg.norm(path.samples - closed, axis=(1, 2))))
        out.unitary("reconstruct_U against evolve", np.max(np.linalg.norm(
            rebuilt.samples - path.samples, axis=(1, 2))),
            tol=RECONSTRUCT_TOL)
        # The frame e^{-iKt}|n> (x) 1 closes at 2 pi and has the constant
        # connection K_nn, so Gamma^n(2 pi) = exp(2 pi i K_nn) 1_2 in any
        # periodic gauge.
        k_nn = np.diag(self.deg_k).real
        out.require("holonomy blocks", len(record.Gamma_T) == k_nn.size)
        for n, gamma in record.Gamma_T.items():
            out.phase(f"holonomy n={n}", np.max(np.abs(wrap(
                np.angle(np.linalg.eigvals(gamma)) - TWO_PI * k_nn[n]))),
                tol=HOLONOMY_TOL)
            out.unitary(f"holonomy n={n} proportional to 1", np.linalg.norm(
                gamma - np.exp(1j * TWO_PI * k_nn[n]) * eye2),
                tol=HOLONOMY_TOL)


WORKLOADS = {cls.name: cls for cls in (OscCli, GhoEvolve, CrankedFamily)}
