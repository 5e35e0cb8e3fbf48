import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from invphase import cli, oscillator
from invphase.errors import ConfigError, IoError
from invphase.linalg import frob

BASE_OSC = {"M": 1.0, "Omega": 3.0, "m": 2.0, "omega": 1.0}


def write_config(tmp_path, name="scenario.json", **overrides):
    payload = {
        "system": {"oscillator": dict(BASE_OSC)},
        "truncation": {"N": 48},
        "grid": {"t_max": math.pi, "steps": 256},
        "tasks": ["phases"],
        "output": {"csv_path": "phases.csv", "report_path": "report.json"},
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        path = write_config(tmp_path, tasks=["phases", "loop-check"])
        config = cli.load_config(path)
        assert config.kind == "oscillator"
        assert config.system == BASE_OSC
        assert config.n_trunc == 48
        assert config.n_interior == 28
        assert config.steps == 256
        assert config.tasks == ("phases", "loop-check")
        assert config.label == "scenario"

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.load_config(path, steps=512, truncation=64)
        assert config.steps == 512
        assert config.n_trunc == 64
        assert config.n_interior == 44

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        cases = [
            ({"grid": {"t_max": 1.0, "steps": 64, "dt": 0.1}}, "grid"),
            ({"system": {"oscillator": dict(BASE_OSC, hbar=1.0)}},
             "system.oscillator"),
            ({"banana": 1}, "config"),
            ({"output": {"csv_path": "a.csv", "report_path": "b.json",
                         "format": "tsv"}}, "output"),
        ]
        for overrides, where in cases:
            path = write_config(tmp_path, **overrides)
            with pytest.raises(ConfigError, match=where):
                cli.load_config(path)

    def test_mass_constraint_named(self, tmp_path):
        path = write_config(
            tmp_path,
            system={"oscillator": dict(BASE_OSC, M=2.0, m=1.0)})
        with pytest.raises(ConfigError, match="m > M"):
            cli.load_config(path)

    def test_frequency_constraint_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            system={"oscillator": dict(BASE_OSC, Omega=0.5)})
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            cli.load_config(tmp_path / "nope.json")

    def test_task_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown task"):
            cli.load_config(write_config(tmp_path, tasks=["phases",
                                                          "frobnicate"]))
        with pytest.raises(ConfigError, match="repeat"):
            cli.load_config(write_config(tmp_path,
                                         tasks=["phases", "phases"]))
        cranked = {"cranked": {"h0": [[1.0, 0.1], [0.1, 2.0]],
                               "k": [[0.5, 0.0], [0.0, 1.0]]}}
        with pytest.raises(ConfigError, match="oscillator system"):
            cli.load_config(write_config(tmp_path, system=cranked,
                                         tasks=["phases", "validate"]))

    def test_sweep_task_needs_ranges(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            cli.load_config(write_config(tmp_path, tasks=["sweep"]))

    def test_schedule_terms_validated(self, tmp_path):
        bad_herm = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": 2.0},
            {"matrix": [[0.0, 1.0], [0.0, 0.0]]}]}}
        with pytest.raises(ConfigError, match="Hermitian: term 1:"):
            cli.load_config(write_config(tmp_path, system=bad_herm))
        bad_pair = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "cos": [0.5]}]}}
        with pytest.raises(ConfigError, match="amplitude"):
            cli.load_config(write_config(tmp_path, system=bad_pair))
        bad_dims = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]]},
            {"matrix": [[1.0]]}]}}
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, system=bad_dims))
        mixed_dims = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]]},
            {"matrix": np.eye(3).tolist()}]}}
        with pytest.raises(ConfigError, match="term 1 has dim 3"):
            cli.load_config(write_config(tmp_path, system=mixed_dims))

    def test_truncation_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, truncation={"N": 8}))
        with pytest.raises(ConfigError, match="N_int"):
            cli.load_config(write_config(
                tmp_path, truncation={"N": 32, "N_int": 40}))


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("full")
    path = write_config(tmp_path,
                        tasks=["phases", "validate", "loop-check"])
    config = cli.load_config(path)
    report = cli.run(config, out_dir=tmp_path / "out")
    return tmp_path, config, report


class TestRun:
    def test_all_checks_pass(self, full_run):
        _, _, report = full_run
        assert report.all_pass
        failed = [row.name for row in report.checks
                  if row.status != "pass"]
        assert failed == []

    def test_check_expansion_exactly_once(self, full_run):
        _, _, report = full_run
        names = [row.name for row in report.checks]
        assert len(names) == len(set(names))
        # phases -> 6 total-phase + 6 fidelity, validate -> 6 rows,
        # loop-check -> 2 rows
        assert len(names) == 20
        for n in range(6):
            assert f"total-phase-n{n}" in names
            assert f"fidelity-n{n}" in names
        for name in ("su11-closure", "crank-rotation",
                     "invariant-residual", "invariant-drift",
                     "ermakov-residual", "gamma0-estimator",
                     "loop-one-period", "loop-two-periods"):
            assert name in names

    def test_loop_rows(self, full_run):
        _, _, report = full_run
        rows = {row.name: row for row in report.checks}
        assert rows["loop-one-period"].measured == pytest.approx(
            -1.0, abs=1e-12)
        assert rows["loop-two-periods"].measured == pytest.approx(
            1.0, abs=1e-12)

    def test_convergence_table(self, full_run):
        _, _, report = full_run
        sizes = [row["N"] for row in report.convergence]
        assert sizes == sorted(sizes) and sizes[-1] == 48
        assert all(row["gamma0_error"] < 1e-6
                   for row in report.convergence)

    def test_csv_artifact(self, full_run):
        tmp_path, config, _ = full_run
        lines = (tmp_path / "out" / "phases.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == ("t,n,delta_unwrapped,gamma_unwrapped,"
                            "total_mod_2pi,fidelity")
        assert len(lines) == 1 + (config.steps + 1) * 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[5]) == pytest.approx(1.0, abs=1e-12)
        # 17 significant digits, '.' decimal separator
        t_final = lines[-6].split(",")[0]
        assert t_final == format(math.pi, ".17g")

    def test_report_artifact(self, full_run):
        tmp_path, _, report = full_run
        payload = json.loads((tmp_path / "out" / "report.json").read_text(
            encoding="utf-8"))
        assert payload["all_pass"] is True
        assert payload["system_kind"] == "oscillator"
        assert len(payload["checks"]) == len(report.checks)
        row = payload["checks"][0]
        assert set(row) == {"name", "status", "measured", "expected",
                            "tolerance", "provenance"}
        assert payload["work"]["phases_grid_points"] == 257
        assert "loop_steps" in payload["work"]

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, tasks=["phases", "loop-check"])
        config = cli.load_config(path)
        cli.run(config, out_dir=tmp_path / "a")
        cli.run(config, out_dir=tmp_path / "b")
        for name in ("phases.csv", "report.json"):
            one = (tmp_path / "a" / name).read_bytes()
            two = (tmp_path / "b" / name).read_bytes()
            assert one == two

    def test_generic_cranked_run(self, tmp_path):
        system = {"cranked": {
            "h0": [[2.0, 0.4, 0.0], [0.4, 3.5, 0.3], [0.0, 0.3, 5.0]],
            "k": [[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 3.0]]}}
        path = write_config(tmp_path, system=system,
                            grid={"t_max": 1.5, "steps": 512})
        config = cli.load_config(path)
        report = cli.run(config, out_dir=tmp_path / "out")
        assert report.all_pass
        names = {row.name for row in report.checks}
        assert names == {"invariant-residual", "frame-overlap-deficit",
                         "invariant-drift"}
        lines = (tmp_path / "out" / "phases.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 513 * 3

    @staticmethod
    def _integer_crank_config(tmp_path, seed, dim=8, steps=1024):
        # K with spectrum 0..dim-1 in a random real basis: cyclic at 2 pi
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        k = (q * np.arange(dim, dtype=float)) @ q.T
        k = 0.5 * (k + k.T)
        h0 = np.diag(np.linspace(0.5, 3.0, dim)) + k
        system = {"cranked": {"h0": h0.tolist(), "k": k.tolist()}}
        return cli.load_config(write_config(
            tmp_path, system=system,
            grid={"t_max": 2 * math.pi, "steps": steps}))

    @staticmethod
    def _residual_row(report):
        return next(row for row in report.checks
                    if row.name == "invariant-residual")

    @staticmethod
    def _derived_bound(config):
        """The residual row's bound, derived from the transported path,
        and its floor ``RESIDUAL_TOL``."""
        sched = config.system["schedule"]
        i0 = (sched.sample(0.0) if sched.crank is None
              else sched.crank.i0.array)
        path = cli.invariant.transport(
            cli.propagator.evolve(sched, config.t_max, steps=config.steps,
                                  tol=1e-10), i0)
        h = config.t_max / config.steps
        derived = (cli.DERIVATIVE_SAFETY
                   * cli.invariant.frame_derivative_error(path.samples, h)
                   / frob(i0))
        return derived, max(cli.RESIDUAL_TOL, derived)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generic_residual_passes_correct_run(self, tmp_path, seed):
        config = self._integer_crank_config(tmp_path, seed)
        report = cli.run(config, out_dir=tmp_path / "out")
        row = self._residual_row(report)
        derived, bound = self._derived_bound(config)
        assert row.tolerance == bound
        # a fine grid: the derived bound is below its floor
        assert derived < bound == cli.RESIDUAL_TOL
        assert row.status == "pass"
        assert report.all_pass

    @pytest.mark.parametrize("steps", [16, 64, 512])
    def test_generic_residual_bound_scales_with_the_step(self, tmp_path,
                                                         steps):
        # a correct 2 x 2 schedule run: at 64 steps its fourth-order
        # residual is 1.3e-6, above the 1e-6 floor, and the bound follows
        # h^4 down to that floor
        config = cli.load_config(write_config(
            tmp_path, system={"schedule": {"terms": [
                {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": 2.0},
                {"matrix": [[0.0, 1.0], [1.0, 0.0]], "sin": [0.3, 2.0]}]}},
            grid={"t_max": 1.0, "steps": steps}))
        report = cli.run(config, out_dir=tmp_path / "out")
        row = self._residual_row(report)
        assert row.status == "pass"
        assert report.all_pass
        derived, bound = self._derived_bound(config)
        assert row.tolerance == bound
        assert row.measured <= derived <= 4 * row.measured
        assert (bound == derived) == (steps < 512)

    def test_generic_residual_catches_wrong_propagator(self, tmp_path,
                                                       monkeypatch):
        # transport I0 with the propagator of a slightly different H:
        # the residual against the configured H must fail
        evolve = cli.propagator.evolve

        def tilted_evolve(sched, *args, **kwargs):
            tilt = 1e-5 * np.diag(np.linspace(-1.0, 1.0, sched.dim))
            other = cli.propagator.HamiltonianSchedule.from_callable(
                lambda t: sched.sample(t) + np.cos(t) * tilt, sched.dim)
            return evolve(other, *args, **kwargs)

        monkeypatch.setattr(cli.propagator, "evolve", tilted_evolve)
        config = self._integer_crank_config(tmp_path, 1)
        report = cli.run(config, out_dir=tmp_path / "out")
        assert self._residual_row(report).status == "fail"

    def test_generic_residual_catches_wrong_closed_form(self, tmp_path,
                                                       monkeypatch):
        # the factors of the exact U in the wrong order,
        # e^{-i I0 t} e^{-iKt}: still unitary, but not the evolution of H
        def swapped(crank, t):
            return crank._expi0(t) @ crank._expk(t)

        monkeypatch.setattr(cli.propagator.CrankedSystem, "evolution",
                            swapped)
        config = self._integer_crank_config(tmp_path, 1)
        report = cli.run(config, out_dir=tmp_path / "out")
        assert self._residual_row(report).status == "fail"

    def test_cranked_matrices_are_gated_once(self, tmp_path, monkeypatch):
        seen = []
        gate = cli.propagator.linalg.require_hermitian

        def counted(a, what):
            seen.append(what)
            return gate(a, what)

        monkeypatch.setattr(cli.propagator.linalg, "require_hermitian",
                            counted)
        config = self._integer_crank_config(tmp_path, 2, dim=3, steps=64)
        cli.run(config, out_dir=tmp_path / "out")
        # transport gates I0 at its own boundary; H0 and K pass one gate
        assert [what for what in seen if what != "I0"] == ["H0", "K"]

    def test_cranked_config_must_be_hermitian(self, tmp_path):
        system = {"cranked": {"h0": [[1.0, 0.5], [0.0, 2.0]],
                              "k": [[0.5, 0.0], [0.0, 1.0]]}}
        with pytest.raises(ConfigError, match="Hermitian.*H0"):
            cli.load_config(write_config(tmp_path, system=system))
        system = {"cranked": {"h0": [[1.0, 0.0], [0.0, 2.0]],
                              "k": [[0.5, 0.3], [0.0, 1.0]]}}
        with pytest.raises(ConfigError, match="Hermitian.*K"):
            cli.load_config(write_config(tmp_path, system=system))

    def test_report_names_the_propagator(self, tmp_path):
        # deterministic counters: the cranked config takes the exact U,
        # a trig-table schedule is stepped by CF4 under the run's tol
        cranked = self._integer_crank_config(tmp_path, 3, dim=3, steps=64)
        schedule = cli.load_config(write_config(
            tmp_path, name="sched.json",
            system={"schedule": {"terms": [
                {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": 2.0},
                {"matrix": [[0.0, 1.0], [1.0, 0.0]], "cos": [0.3, 2.0]}]}},
            grid={"t_max": 1.0, "steps": 64}))
        work = {}
        for name, config in (("cranked", cranked), ("schedule", schedule)):
            cli.run(config, out_dir=tmp_path / name)
            work[name] = json.loads((tmp_path / name / "report.json")
                                    .read_text(encoding="utf-8"))["work"]
        assert work["cranked"]["phases_propagator"] == "closed-form"
        assert work["cranked"]["phases_tol_achieved"] == 0.0
        assert work["schedule"]["phases_propagator"] == "cf4"
        assert 0.0 < work["schedule"]["phases_tol_achieved"] <= 1e-10

    def test_sin_coupling_keeps_the_exact_partition(self, tmp_path):
        # levels 0 and 1 coupled by a sin term, level 2 constant: the
        # schedule holds the union partition of its terms from the start
        # (a probe at t = 0 sees three 1 x 1 blocks) and keeps it through
        # the run
        system = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
             "const": 2.0},
            {"matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
             "sin": [0.3, 2.0]},
            {"matrix": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 3.0]],
             "const": 1.0}]}}
        config = cli.load_config(write_config(
            tmp_path, system=system, grid={"t_max": 1.0, "steps": 256}))
        sched = config.system["schedule"]
        sizes = [idx.shape[-1] for idx in sched.blocks]
        assert sizes == [1, 2]
        report = cli.run(config, out_dir=tmp_path / "out")
        assert [idx.shape[-1] for idx in sched.blocks] == sizes
        assert report.all_pass

    def test_generic_schedule_run(self, tmp_path):
        system = {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": 2.0},
            {"matrix": [[0.0, 1.0], [1.0, 0.0]], "cos": [0.3, 2.0]},
        ]}}
        path = write_config(tmp_path, system=system,
                            grid={"t_max": 1.0, "steps": 512})
        config = cli.load_config(path)
        report = cli.run(config, out_dir=tmp_path / "out")
        assert report.all_pass


class TestOscillatorValidate:
    """The validate task's 4097-point invariant path is computed chunk by
    chunk from its closed form ``e^{-iKt} I0 e^{iKt}``."""

    @staticmethod
    def _validate(tmp_path, n_trunc):
        config = cli.load_config(write_config(
            tmp_path, truncation={"N": n_trunc}, tasks=["validate"]))
        report = cli.RunReport(label=config.label, kind=config.kind)
        cli._oscillator_validate(config, report)
        return {row.name: row for row in report.checks}, report.work

    def test_wrong_rotation_sign_fails_residual(self, tmp_path, monkeypatch):
        # e^{+iKt} I0 e^{-iKt} is not an invariant of K: its spectrum is
        # still constant, but the LvN residual row must fail
        rotated = cli.invariant.InvariantPath.rotated
        monkeypatch.setattr(
            cli.invariant.InvariantPath, "rotated",
            staticmethod(lambda grid, i0, kd: rotated(grid, i0, -kd)))
        rows, work = self._validate(tmp_path, 24)
        assert work["validate_residual_blocks"] == [12, 12]
        assert rows["invariant-residual"].status == "fail"
        assert rows["invariant-drift"].status == "pass"

    def test_residual_solves_the_parity_blocks(self, tmp_path):
        # the constant K is diagonal, inside I0's even/odd blocks
        rows, work = self._validate(tmp_path, 24)
        assert work["validate_residual_blocks"] == [12, 12]
        assert rows["invariant-residual"].status == "pass"
        assert rows["invariant-drift"].status == "pass"

    def test_runs_below_a_quarter_of_the_stack(self, tmp_path):
        # the 4097 x 24 x 24 complex stack would be 37.8 MB
        stack_bytes = (cli.RESIDUAL_STEPS + 1) * 24 * 24 * 16
        tracemalloc.start()
        try:
            self._validate(tmp_path, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * stack_bytes


class TestSweep:
    def test_grid_with_skipped_rows(self, tmp_path):
        # With M = 1, Omega = 2, omega = 1: m = 0.5 violates m > M,
        # m = 2 sits exactly on the degenerate line nu = 1.
        path = write_config(
            tmp_path,
            system={"oscillator": dict(BASE_OSC, Omega=2.0)},
            tasks=["phases"],
            sweep={"m": {"start": 0.5, "stop": 3.0, "count": 6}})
        config = cli.load_config(path)
        report, (header, rows) = cli.sweep(config)
        assert header[:4] == ("M", "Omega", "m", "omega")
        statuses = [row[-1] for row in rows]
        assert statuses[0] == "skipped-invalid"       # m = 0.5
        assert statuses[3] == "skipped-degenerate"    # m = 2.0
        assert statuses.count("ok") == report.work["sweep_valid_points"]
        assert report.all_pass

    def test_single_point_matches_direct_run(self, tmp_path):
        path = write_config(
            tmp_path, tasks=["phases"],
            sweep={"Omega": {"start": 3.0, "stop": 3.0, "count": 1}})
        config = cli.load_config(path)
        _, (_, rows) = cli.sweep(config)
        assert len(rows) == 1 and rows[0][-1] == "ok"
        params = oscillator.derive_params(**BASE_OSC)
        d_ref, g_ref = oscillator.closed_form_phases(params, 0, params.T)
        assert float(rows[0][6]) == pytest.approx(d_ref, abs=1e-12)
        assert float(rows[0][7]) == pytest.approx(g_ref, abs=1e-12)
        fock = oscillator.build_fock(params, config.n_trunc, "k")
        state = oscillator.cyclic_basis_evolution(params, fock, 0)[0]
        assert float(rows[0][8]) == pytest.approx(state.total_phase,
                                                  abs=1e-15)

    def test_sweep_task_inside_run(self, tmp_path):
        path = write_config(
            tmp_path, tasks=["sweep"],
            sweep={"Omega": {"start": 2.5, "stop": 3.5, "count": 3}})
        config = cli.load_config(path)
        report = cli.run(config, out_dir=tmp_path / "out")
        assert report.all_pass
        assert (tmp_path / "out" / "phases-sweep.csv").exists()
        names = {row.name for row in report.checks}
        assert "sweep-total-phase-match" in names
        assert "sweep-gamma0-monotone-in-shape" in names


class TestCommandLine:
    def test_run_json_exit_zero(self, tmp_path):
        path = write_config(tmp_path, tasks=["loop-check"])
        runner = CliRunner()
        result = runner.invoke(cli.main, [
            "run", str(path), "--out-dir", str(tmp_path / "out"),
            "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["all_pass"] is True

    @pytest.mark.parametrize("steps", [64, 512])
    def test_loose_tol_correct_run_passes_the_residual(self, tmp_path, steps):
        # the residual bound has no term for the propagator's tolerance: a
        # correct 2 x 2 schedule run at --tol 1e-4 must still pass it
        path = write_config(
            tmp_path, system={"schedule": {"terms": [
                {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": 2.0},
                {"matrix": [[0.0, 1.0], [1.0, 0.0]], "cos": [3.0, 8.0]}]}},
            grid={"t_max": 1.0, "steps": steps})
        result = CliRunner().invoke(cli.main, [
            "run", str(path), "--out-dir", str(tmp_path / "out"),
            "--tol", "1e-4", "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        row = next(row for row in payload["checks"]
                   if row["name"] == "invariant-residual")
        assert row["status"] == "pass"
        assert 0 < row["measured"] <= row["tolerance"]
        assert payload["all_pass"] is True

    def test_exit_code_config_error(self, tmp_path):
        path = write_config(
            tmp_path,
            system={"oscillator": dict(BASE_OSC, M=2.0, m=1.0)})
        result = CliRunner().invoke(cli.main, ["run", str(path)])
        assert result.exit_code == 2

    def test_exit_code_io_error(self, tmp_path):
        result = CliRunner().invoke(
            cli.main, ["run", str(tmp_path / "missing.json")])
        assert result.exit_code == 3

    def test_validate_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 0
        assert "config OK" in result.output
        bad = write_config(tmp_path, name="bad.json", banana=1)
        result = CliRunner().invoke(cli.main, ["validate", str(bad)])
        assert result.exit_code == 2

    def test_sweep_subcommand_writes_artifacts(self, tmp_path):
        path = write_config(
            tmp_path, tasks=["phases"],
            sweep={"m": {"start": 1.5, "stop": 2.5, "count": 3}})
        result = CliRunner().invoke(cli.main, [
            "sweep", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0
        lines = (tmp_path / "out" / "phases.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0].startswith("M,Omega,m,omega")
        assert len(lines) == 4
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("const", ["abc", [1], True],
                             ids=["string", "list", "bool"])
    def test_validate_rejects_non_numeric_const(self, tmp_path, const):
        path = write_config(tmp_path, system={"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "const": const}]}})
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "terms[0].const must be a number" in result.output

    @pytest.mark.parametrize("overrides, where", [
        ({"grid": {"t_max": math.pi, "steps": math.inf}}, "grid.steps"),
        ({"grid": {"t_max": math.nan, "steps": 256}}, "grid.t_max"),
        ({"truncation": {"N": -math.inf}}, "truncation.N"),
        ({"system": {"schedule": {"terms": [
            {"matrix": [[1.0, 0.0], [0.0, -1.0]], "cos": [math.nan, 1.0]}]}}},
         "system.schedule.terms[0].cos.amplitude"),
        ({"sweep": {"Omega": {"start": math.nan, "stop": 3.5, "count": 2}}},
         "sweep.Omega.start"),
    ], ids=["steps-inf", "t_max-nan", "N-minus-inf", "cos-nan",
            "sweep-start-nan"])
    def test_validate_rejects_non_finite_numbers(self, tmp_path, overrides,
                                                 where):
        # json reads the literals NaN, Infinity and -Infinity
        path = write_config(tmp_path, **overrides)
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        result = CliRunner().invoke(cli.main, ["validate", str(path)])
        assert result.exit_code == 2
        assert f"{where} must be finite" in result.output

    @pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--steps", "64"]],
                             ids=["tol", "steps"])
    def test_sweep_has_no_integrator_options(self, tmp_path, flag):
        path = write_config(
            tmp_path, sweep={"m": {"start": 1.5, "stop": 2.5, "count": 3}})
        result = CliRunner().invoke(cli.main, ["sweep", str(path), *flag])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_steps_flag_changes_grid(self, tmp_path):
        path = write_config(tmp_path, tasks=["phases"])
        runner = CliRunner()
        result = runner.invoke(cli.main, [
            "run", str(path), "--out-dir", str(tmp_path / "out"),
            "--steps", "64"])
        assert result.exit_code == 0
        lines = (tmp_path / "out" / "phases.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 65 * 6
