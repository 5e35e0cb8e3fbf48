"""Scenario runner and command-line interface.

A scenario is described by a JSON config file::

    {
      "system": {"oscillator": {"M": 1.0, "Omega": 3.0,
                                "m": 2.0, "omega": 1.0}},
      "truncation": {"N": 80},
      "grid": {"t_max": 3.141592653589793, "steps": 4096},
      "tasks": ["phases", "validate", "loop-check"],
      "output": {"csv_path": "phases.csv", "report_path": "report.json"}
    }

Exactly one system kind is given: ``oscillator`` (mass/frequency pairs),
``cranked`` (explicit Hermitian ``h0``/``k`` matrices as nested lists), or
``schedule`` (a trig-coefficient table: ``terms`` of ``{"matrix": [[...]],
"const": c, "cos": [amp, freq], "sin": [amp, freq]}`` summed to ``H(t)``;
no other time dependence is accepted).  Both explicit-matrix kinds are
built once, when the config is loaded, into the schedule that
``config.system["schedule"]`` holds: :meth:`HamiltonianSchedule.cranked`
or :meth:`HamiltonianSchedule.from_terms`, whose Hermiticity gate is the
config's (a term that fails it is a config error naming the term) and
whose block partition is the exact union of the term matrices.  Unknown
keys anywhere in the config are rejected.  Tasks:

* ``phases``   — phase time series to CSV (columns ``t, n, delta_unwrapped,
  gamma_unwrapped, total_mod_2pi, fidelity``) plus per-level total-phase
  and fidelity checks.  Closed-form comparisons run for oscillator
  systems; the other kinds go through the generic
  evolve/transport/eigenframe pipeline and get residual checks instead.
  There a ``cranked`` system's evolution is the paper's exact
  ``U(t) = e^{-iKt} e^{-i(h0-k)t}``, and a ``schedule`` is integrated by
  the CF4 stepper, block by block; the report's work counters name which
  (``phases_propagator``) and the path's ``phases_tol_achieved``.
* ``validate`` — operator-identity and residual checks (oscillator only):
  algebra closure, crank-rotation identity, invariant residual, width
  equation residual, connection-integral estimator, and a truncation
  convergence table.  The residual series is evaluated on a fixed
  4096-interval grid, whose samples are computed chunk by chunk, and (to
  bound time) at dimension ``min(N, 96)``; its relative size is
  dimension-independent for this family.
* ``loop-check`` — evolution-loop detection at one and two crank periods
  (oscillator only).
* ``sweep``    — closed-form versus numeric phases over parameter ranges
  (``"sweep": {"Omega": {"start": ..., "stop": ..., "count": ...}, ...}``);
  also available as the ``sweep`` subcommand.  Degenerate or invalid
  parameter combinations become skipped rows, not failures.

Artifacts are deterministic: identical configs produce byte-identical CSV
and report files (floats rendered with 17 significant digits, report keys
sorted, wall-clock timings go to stderr only — the report carries exact
work counters instead).  Exit codes: 0 all checks pass, 1 a check failed,
2 config error, 3 compute error.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import invariant, oscillator, propagator
from .errors import (ComputeError, ConfigError, DimensionMismatch,
                     InvphaseError, IoError, NonHermitianInput)
from .linalg import frob
from .phases import abelian_phases, project, wrap_angle
from .quadrature import cumulative_simpson

N_LEVELS = 6          # phase series cover n = 0 .. 5
PHASE_TOL = 1e-6      # total-phase and gamma-estimator agreement
FIDELITY_TOL = 1e-8   # cyclic return fidelity deficit
IDENTITY_TOL = 1e-7   # operator identities on the interior block
RESIDUAL_TOL = 1e-6   # relative invariant residual (validate: 4096 steps)
DERIVATIVE_SAFETY = 2.0  # generic residual bound over dI/dt's error estimate
LOOP_TOL = 1e-9       # loop phase against +-1
OVERLAP_TOL = 1e-2    # transported-frame overlap deficit (diagnostic)
RESIDUAL_STEPS = 4096
RESIDUAL_DIM_CAP = 96


# ---------------------------------------------------------------------------
# config schema


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {path}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key {key!r} at {path}")


def _number(obj, key, path, *, integer=False, minimum=None):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}.{key} must be finite")
    if integer and int(value) != value:
        raise ConfigError(f"{path}.{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key} must be >= {minimum}")
    return int(value) if integer else float(value)


def _square_matrix(value, path):
    try:
        arr = np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ConfigError(f"{path} must be a square matrix of dim >= 2")
    return arr


def _trig_coefficient(const, cos=None, sin=None):
    """Coefficient ``const + a cos(w t) + b sin(v t)`` of a schedule term;
    ``cos`` and ``sin`` are ``(amplitude, frequency)`` pairs or absent."""
    def coeff(t):
        value = const
        for fn, pair in ((np.cos, cos), (np.sin, sin)):
            if pair is not None:
                amp, freq = pair
                value += amp * fn(freq * t)
        return value
    return coeff


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see the module docstring)."""

    label: str
    kind: str                 # "oscillator" | "cranked" | "schedule"
    system: dict
    n_trunc: int
    n_interior: int
    t_max: float
    steps: int
    tasks: tuple
    sweep: dict
    csv_path: str
    report_path: str


_TASKS = ("phases", "validate", "loop-check", "sweep")
_OSC_KEYS = ("M", "Omega", "m", "omega")


def load_config(path, *, steps=None, truncation=None) -> ScenarioConfig:
    """Read and validate a JSON scenario config.

    ``steps`` and ``truncation`` optionally override the config values
    (the CLI flags).  Raises :class:`ConfigError` on any schema
    violation, including oscillator parameters that break the
    ``m > M`` / ``M Omega^2 > m omega^2`` constraints.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None

    _require_keys(raw, ("system", "truncation", "grid", "tasks", "sweep",
                        "output"),
                  ("system", "grid", "tasks", "output"), "config")

    system = raw["system"]
    _require_keys(system, ("oscillator", "cranked", "schedule"), (),
                  "system")
    if len(system) != 1:
        raise ConfigError("system must contain exactly one of "
                          "oscillator/cranked/schedule")
    kind = next(iter(system))
    body = system[kind]
    if kind == "oscillator":
        _require_keys(body, _OSC_KEYS, _OSC_KEYS, "system.oscillator")
        parsed = {k: _number(body, k, "system.oscillator")
                  for k in _OSC_KEYS}
        try:
            oscillator.derive_params(**parsed)
        except (ValueError, InvphaseError) as exc:
            raise ConfigError(
                f"system.oscillator parameters invalid: {exc}") from None
    elif kind == "cranked":
        _require_keys(body, ("h0", "k"), ("h0", "k"), "system.cranked")
        h0 = _square_matrix(body["h0"], "system.cranked.h0")
        k = _square_matrix(body["k"], "system.cranked.k")
        if h0.shape != k.shape:
            raise ConfigError("system.cranked.h0 and .k dims differ")
        # the schedule's constructor is the one gate of H0 and K
        try:
            parsed = {"schedule": propagator.HamiltonianSchedule.cranked(
                h0, k)}
        except NonHermitianInput as exc:
            raise ConfigError(
                f"system.cranked must be Hermitian: {exc}") from None
    else:
        _require_keys(body, ("terms",), ("terms",), "system.schedule")
        terms = body["terms"]
        if not isinstance(terms, list) or not terms:
            raise ConfigError("system.schedule.terms must be a nonempty "
                              "list")
        parsed_terms = []
        for i, term in enumerate(terms):
            tpath = f"system.schedule.terms[{i}]"
            _require_keys(term, ("matrix", "const", "cos", "sin"),
                          ("matrix",), tpath)
            mat = _square_matrix(term["matrix"], tpath + ".matrix")
            entry = {"const": (_number(term, "const", tpath)
                               if "const" in term else 0.0)}
            for osc_key in ("cos", "sin"):
                pair = term.get(osc_key)
                if pair is not None:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ConfigError(
                            f"{tpath}.{osc_key} must be [amplitude, "
                            "frequency]")
                    named = dict(zip(("amplitude", "frequency"), pair))
                    entry[osc_key] = tuple(
                        _number(named, k, f"{tpath}.{osc_key}") for k in named)
            parsed_terms.append((_trig_coefficient(**entry), mat))
        # the schedule's constructor is the one gate of the term matrices
        try:
            parsed = {"schedule": propagator.HamiltonianSchedule.from_terms(
                parsed_terms, label="schedule")}
        except NonHermitianInput as exc:
            raise ConfigError(
                f"system.schedule must be Hermitian: {exc}") from None
        except DimensionMismatch as exc:
            raise ConfigError(f"system.schedule: {exc}") from None

    trunc = raw.get("truncation", {})
    _require_keys(trunc, ("N", "N_int"), (), "truncation")
    n_trunc = _number(trunc, "N", "truncation", integer=True,
                      minimum=16) if "N" in trunc else 80
    n_interior = (_number(trunc, "N_int", "truncation", integer=True,
                          minimum=2) if "N_int" in trunc
                  else max(n_trunc // 2, n_trunc - 20))
    if n_interior > n_trunc:
        raise ConfigError("truncation.N_int exceeds truncation.N")
    if truncation is not None:
        n_trunc = int(truncation)
        if n_trunc < 16:
            raise ConfigError("--truncation must be >= 16")
        n_interior = max(n_trunc // 2, n_trunc - 20)

    grid = raw["grid"]
    _require_keys(grid, ("t_max", "steps"), ("t_max", "steps"), "grid")
    t_max = _number(grid, "t_max", "grid")
    if t_max <= 0:
        raise ConfigError("grid.t_max must be positive")
    n_steps = _number(grid, "steps", "grid", integer=True, minimum=8)
    if steps is not None:
        if int(steps) < 8:
            raise ConfigError("--steps must be >= 8")
        n_steps = int(steps)

    tasks = raw["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a nonempty list")
    for task in tasks:
        if task not in _TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of "
                              f"{sorted(_TASKS)}")
    if len(set(tasks)) != len(tasks):
        raise ConfigError("tasks must not repeat")
    if kind != "oscillator":
        for task in tasks:
            if task != "phases":
                raise ConfigError(
                    f"task {task!r} requires an oscillator system")

    sweep_raw = raw.get("sweep", {})
    _require_keys(sweep_raw, _OSC_KEYS, (), "sweep")
    parsed_sweep = {}
    for key, rng in sweep_raw.items():
        _require_keys(rng, ("start", "stop", "count"),
                      ("start", "stop", "count"), f"sweep.{key}")
        start = _number(rng, "start", f"sweep.{key}")
        stop = _number(rng, "stop", f"sweep.{key}")
        count = _number(rng, "count", f"sweep.{key}", integer=True,
                        minimum=1)
        if start <= 0 or stop <= 0:
            raise ConfigError(f"sweep.{key} bounds must be positive")
        parsed_sweep[key] = (start, stop, count)
    if "sweep" in tasks and not parsed_sweep:
        raise ConfigError("task 'sweep' requires a sweep section")

    output = raw["output"]
    _require_keys(output, ("csv_path", "report_path"),
                  ("csv_path", "report_path"), "output")
    for key in ("csv_path", "report_path"):
        if not isinstance(output[key], str) or not output[key]:
            raise ConfigError(f"output.{key} must be a nonempty string")

    return ScenarioConfig(
        label=path.stem, kind=kind, system=parsed, n_trunc=n_trunc,
        n_interior=n_interior, t_max=t_max, steps=n_steps,
        tasks=tuple(tasks), sweep=parsed_sweep,
        csv_path=output["csv_path"], report_path=output["report_path"])


# ---------------------------------------------------------------------------
# report


@dataclass
class CheckRow:
    """One validation check in the report."""

    name: str
    measured: float
    expected: float
    tolerance: float
    provenance: str

    @property
    def status(self) -> str:
        return ("pass" if abs(self.measured - self.expected)
                <= self.tolerance else "fail")

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "measured": float(self.measured),
                "expected": float(self.expected),
                "tolerance": float(self.tolerance),
                "provenance": self.provenance}


@dataclass
class RunReport:
    """Validation rows plus deterministic work counters."""

    label: str
    kind: str
    checks: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    work: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(row.status == "pass" for row in self.checks)

    def extend(self, rows) -> None:
        for row in rows:
            if any(existing.name == row.name for existing in self.checks):
                raise ComputeError(f"duplicate check name {row.name!r}")
            self.checks.append(row)

    def to_json(self) -> str:
        payload = {
            "scenario": self.label,
            "system_kind": self.kind,
            "all_pass": self.all_pass,
            "checks": [row.as_dict() for row in self.checks],
            "convergence": self.convergence,
            "work": self.work,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    return format(float(value) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _phase_rows(grid, levels, delta, gamma, fidelity) -> list:
    """``phases.csv`` rows, one per grid point and level label; ``delta``,
    ``gamma`` and ``fidelity`` are ``(points, levels)`` arrays."""
    total = wrap_angle(delta + gamma)
    return [(_fmt(t), str(n), _fmt(delta[i, j]), _fmt(gamma[i, j]),
             _fmt(total[i, j]), _fmt(fidelity[i, j]))
            for i, t in enumerate(grid) for j, n in enumerate(levels)]


def _write_csv(path, header, rows) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _write_text(path, text) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _resolve_paths(config, out_dir):
    csv_path = Path(config.csv_path)
    report_path = Path(config.report_path)
    if out_dir is not None:
        out = Path(out_dir)
        csv_path = out / csv_path.name
        report_path = out / report_path.name
    return csv_path, report_path


# ---------------------------------------------------------------------------
# oscillator pipeline pieces


def _w_column_series(params, fock, grid, n_levels):
    """W-frame columns with connection and energy series on ``grid``."""
    periods = grid[-1] / params.T
    periodic = abs(periods - round(periods)) < 1e-9 and periods > 0.5
    cols = np.empty((grid.size, fock.N, n_levels), dtype=complex)
    for i, t in enumerate(grid):
        theta, phi = oscillator.hyperbolic_coords(params, t)
        cols[i] = oscillator.w_columns(fock, theta, phi, n_levels)
    if periodic:
        cols[-1] = cols[0]
    dcols = invariant.frame_derivative(
        cols, propagator.uniform_spacing(grid), periodic=periodic)
    a_series = -np.einsum("tin,tin->tn", cols.conj(), dcols).imag
    del dcols             # the energy series below needs two more stacks
    k_cols = np.einsum("ij,tjn->tin", fock.K.array, cols)
    e_series = np.einsum("tin,tin->tn", cols.conj(), k_cols).real
    return a_series, e_series


def _oscillator_phases(config, report):
    """Phase series CSV rows and total-phase checks for the oscillator."""
    params = oscillator.derive_params(**config.system)
    fock_kt = oscillator.build_fock(params, config.n_trunc, "ktilde")
    fock_k = oscillator.build_fock(params, config.n_trunc, "k")
    grid = np.linspace(0.0, config.t_max, config.steps + 1)

    a_series, e_series = _w_column_series(params, fock_kt, grid, N_LEVELS)
    delta = -cumulative_simpson(e_series, x=grid, axis=0)
    gamma = cumulative_simpson(a_series, x=grid, axis=0)

    k_diag = np.diag(fock_k.K.array).real
    _, vecs = fock_k.cached_eig("I0", fock_k.I0)
    weights = (np.abs(vecs[:, :N_LEVELS]) ** 2).astype(complex)
    fidelity = np.abs(np.exp(-1j * np.outer(grid, k_diag)) @ weights)

    csv_rows = _phase_rows(grid, range(N_LEVELS), delta, gamma, fidelity)

    rows = []
    for state in oscillator.cyclic_basis_evolution(params, fock_k,
                                                   N_LEVELS - 1):
        d_ref, g_ref = oscillator.closed_form_phases(params, state.n,
                                                     params.T)
        rows.append(CheckRow(
            name=f"total-phase-n{state.n}",
            measured=float(wrap_angle(state.total_phase
                                      - (d_ref + g_ref))),
            expected=0.0, tolerance=PHASE_TOL, provenance="closed-form"))
        rows.append(CheckRow(
            name=f"fidelity-n{state.n}",
            measured=float(1.0 - state.fidelity), expected=0.0,
            tolerance=FIDELITY_TOL, provenance="unitarity"))
    report.extend(rows)
    report.work["phases_grid_points"] = int(grid.size)
    report.work["phases_levels"] = N_LEVELS
    return csv_rows


def _oscillator_validate(config, report):
    """Operator-identity and residual checks for the oscillator."""
    params = oscillator.derive_params(**config.system)
    fock_kt = oscillator.build_fock(params, config.n_trunc, "ktilde")
    block = min(config.n_interior, fock_kt.N_int)
    rows = []

    k1, k2, k3 = (fock_kt.K1.array, fock_kt.K2.array, fock_kt.K3.array)
    closure = max(
        np.max(np.abs((k1 @ k2 - k2 @ k1 + 1j * k3)[:block, :block])),
        np.max(np.abs((k2 @ k3 - k3 @ k2 - 1j * k1)[:block, :block])),
        np.max(np.abs((k3 @ k1 - k1 @ k3 - 1j * k2)[:block, :block])))
    rows.append(CheckRow("su11-closure", float(closure), 0.0,
                         IDENTITY_TOL, "algebraic-identity"))

    n_res = min(config.n_trunc, RESIDUAL_DIM_CAP)
    fock_k = oscillator.build_fock(params, n_res, "k")
    kd = np.diag(fock_k.K.array).real
    x, p = fock_k.x.array, fock_k.p.array
    mw = params.m * params.omega
    worst = 0.0
    for t in np.linspace(0.0, params.tau, 9):
        phase = np.exp(-1j * kd * t)
        xr = (phase[:, None] * x) * phase.conj()[None, :]
        c, s = np.cos(params.omega * t), np.sin(params.omega * t)
        worst = max(worst, np.max(np.abs(
            (xr - c * x + (s / mw) * p)[:fock_k.N_int, :fock_k.N_int])))
    rows.append(CheckRow("crank-rotation", float(worst), 0.0,
                         IDENTITY_TOL, "algebraic-identity"))

    lvn_grid = np.linspace(0.0, params.T, RESIDUAL_STEPS + 1)
    path = invariant.InvariantPath.rotated(lvn_grid, fock_k.I0.array, kd)
    sched = propagator.HamiltonianSchedule.constant(fock_k.K.array,
                                                    label="K")
    residual = invariant.lvn_residual(path, sched).max()
    rows.append(CheckRow("invariant-residual",
                         float(residual / frob(fock_k.I0.array)), 0.0,
                         RESIDUAL_TOL, "finite-difference"))
    rows.append(CheckRow("invariant-drift", float(path.spectrum_drift()),
                         0.0, 1e-8, "spectral"))
    residual_blocks = invariant.lvn_blocks(path, sched)
    del path

    ermakov = oscillator.ermakov_check(params, lvn_grid)
    rows.append(CheckRow("ermakov-residual", float(ermakov), 0.0,
                         RESIDUAL_TOL, "finite-difference"))

    convergence = []
    conv_steps = min(config.steps, 1024)
    _, g_ref = oscillator.closed_form_phases(params, 0, params.T)
    for n_c in sorted({max(16, config.n_trunc // 2),
                       max(16, (3 * config.n_trunc) // 4),
                       config.n_trunc}):
        fock_c = oscillator.build_fock(params, n_c, "ktilde")
        grid_c = np.linspace(0.0, params.T, conv_steps + 1)
        a_series, _ = _w_column_series(params, fock_c, grid_c, 1)
        gamma_c = cumulative_simpson(a_series[:, 0], x=grid_c)[-1]
        convergence.append({"N": int(n_c),
                            "gamma0_error": float(abs(gamma_c - g_ref))})
    report.convergence = convergence
    rows.append(CheckRow("gamma0-estimator",
                         convergence[-1]["gamma0_error"], 0.0, PHASE_TOL,
                         "connection-integral"))

    report.extend(rows)
    report.work["validate_residual_points"] = RESIDUAL_STEPS + 1
    report.work["validate_residual_dim"] = int(n_res)
    report.work["validate_block"] = int(block)
    report.work["validate_residual_blocks"] = residual_blocks


def _oscillator_loop(config, report):
    """Loop detection at one and two crank periods."""
    params = oscillator.derive_params(**config.system)
    fock_k = oscillator.build_fock(params, config.n_trunc, "k")
    sched = propagator.HamiltonianSchedule.constant(fock_k.K.array,
                                                    label="K")
    steps = max(256, min(config.steps, 2048))
    steps += steps % 2
    path = propagator.evolve(sched, 2 * params.tau, steps=steps,
                             store=[0.0, params.tau, 2 * params.tau])
    rows = []
    for label, t, want in (("loop-one-period", params.tau, -1.0),
                           ("loop-two-periods", 2 * params.tau, 1.0)):
        value = propagator.loop_check(path, t, tol=1e-8)
        # None means "not a loop"; 0 is far from +-1, so the row fails.
        measured = 0.0 if value is None else float(value.real)
        rows.append(CheckRow(label, measured, want, LOOP_TOL, "spectral"))
    report.extend(rows)
    report.work["loop_steps"] = steps
    return rows


# ---------------------------------------------------------------------------
# generic (cranked / schedule) phases pipeline


def _generic_phases(config, report, tol):
    """Evolve/transport/eigenframe pipeline for explicit-matrix systems;
    the initial invariant is ``h0 - k`` of a cranked system and ``H(0)`` of
    a term schedule."""
    sched = config.system["schedule"]
    i0 = sched.sample(0.0) if sched.crank is None else sched.crank.i0.array
    grid = np.linspace(0.0, config.t_max, config.steps + 1)
    u_path = propagator.evolve(sched, config.t_max, steps=config.steps,
                               tol=tol)
    path = invariant.transport(u_path, i0)
    frame = invariant.eigenframe(path)
    record = abelian_phases(project(frame, sched))

    w0 = frame.initial()
    levels = [n for n in range(frame.n_blocks)
              if frame.degeneracies[n] == 1][:N_LEVELS]
    cols = [w0[:, frame.block_slice(n)][:, 0] for n in levels]
    fidelity = np.array([[abs(np.vdot(col, u_t @ col)) for col in cols]
                         for u_t in u_path.samples])
    csv_rows = _phase_rows(
        grid, levels, np.array([record.delta_angle[n] for n in levels]).T,
        np.array([record.gamma_angle[n] for n in levels]).T, fidelity)

    # 4th-order dI/dt.  RESIDUAL_TOL is the floor of the bound: the error
    # estimate has no term for the propagator's tolerance or the bracket's
    # rounding.  On coarse grids, where the h^4 term outgrows that floor,
    # the bound follows the estimate, so correct coarse runs pass
    samples, h = path.samples, propagator.uniform_spacing(grid)
    didt = invariant.frame_derivative(samples, h, periodic=False)
    residual = invariant.lvn_defect(path, sched, didt).max()
    scale = frob(i0)
    bound = max(RESIDUAL_TOL, DERIVATIVE_SAFETY
                * invariant.frame_derivative_error(samples, h) / scale)
    report.extend([
        CheckRow("invariant-residual", float(residual / scale), 0.0,
                 bound, "finite-difference"),
        CheckRow("frame-overlap-deficit",
                 float(1.0 - frame.min_overlap), 0.0, OVERLAP_TOL,
                 "spectral"),
        CheckRow("invariant-drift", float(path.spectrum_drift()), 0.0,
                 1e-8, "spectral"),
    ])
    report.work["phases_grid_points"] = int(grid.size)
    report.work["phases_levels"] = len(levels)
    report.work["phases_propagator"] = ("closed-form" if sched.crank
                                        is not None else "cf4")
    report.work["phases_tol_achieved"] = u_path.tol_achieved
    return csv_rows


# ---------------------------------------------------------------------------
# sweep


def _sweep_point(entry, n_trunc):
    try:
        params = oscillator.derive_params(**entry)
    except (ValueError, InvphaseError):
        return entry, "skipped-invalid", None
    if abs(params.mu - 1.0) < 1e-9 or abs(params.nu - 1.0) < 1e-9:
        return entry, "skipped-degenerate", None
    delta, gamma = oscillator.closed_form_phases(params, 0, params.T)
    fock = oscillator.build_fock(params, n_trunc, "k")
    state = oscillator.cyclic_basis_evolution(params, fock, 0)[0]
    return entry, "ok", (params, delta, gamma, state.total_phase)


def sweep(config: ScenarioConfig) -> tuple:
    """Closed-form and numeric ground-level phases over parameter ranges.

    Returns ``(report, (header, rows))``.  Rows on degenerate or invalid
    parameter lines are marked skipped instead of failing the sweep; the
    valid rows feed spot checks (numeric total phase matches the closed
    form; ``gamma_0 >= 0``; ``delta_0 <= -pi/2``; ``gamma_0`` monotone in
    the shape parameter ``mu + 1/mu``).
    """
    if not config.sweep:
        raise ConfigError("sweep requires a sweep section in the config")
    axes = sorted(config.sweep)
    grids = [np.linspace(config.sweep[k][0], config.sweep[k][1],
                         int(config.sweep[k][2])) for k in axes]
    results = []
    for combo in itertools.product(*grids):
        entry = dict(config.system)
        entry.update({k: float(v) for k, v in zip(axes, combo)})
        results.append(_sweep_point(entry, config.n_trunc))

    report = RunReport(label=config.label, kind=config.kind)
    header = ("M", "Omega", "m", "omega", "mu", "nu", "delta0_T",
              "gamma0_T", "total_numeric", "status")
    csv_rows = []
    ok_rows = []
    worst_match = 0.0
    for entry, status, values in results:
        base_cols = tuple(_fmt(entry[k]) for k in _OSC_KEYS)
        if values is None:
            csv_rows.append(base_cols + ("", "", "", "", "", status))
            continue
        params, delta, gamma, total = values
        worst_match = max(worst_match, abs(float(
            wrap_angle(total - (delta + gamma)))))
        ok_rows.append((params, delta, gamma))
        csv_rows.append(base_cols
                        + (_fmt(params.mu), _fmt(params.nu), _fmt(delta),
                           _fmt(gamma), _fmt(total), status))

    if not ok_rows:
        raise ComputeError("sweep produced no valid parameter points")
    gammas = np.array([row[2] for row in ok_rows])
    deltas = np.array([row[1] for row in ok_rows])
    shape = np.array([row[0].mu + 1.0 / row[0].mu for row in ok_rows])
    order = np.argsort(shape, kind="stable")
    monotone = (float(np.min(np.diff(gammas[order])))
                if order.size > 1 else 0.0)
    report.extend([
        CheckRow("sweep-total-phase-match", worst_match, 0.0, PHASE_TOL,
                 "closed-form"),
        CheckRow("sweep-gamma0-nonnegative", float(min(gammas.min(), 0.0)),
                 0.0, 1e-12, "closed-form"),
        CheckRow("sweep-delta0-bound",
                 float(max(deltas.max() + np.pi / 2, 0.0)), 0.0, 1e-12,
                 "closed-form"),
        CheckRow("sweep-gamma0-monotone-in-shape",
                 float(min(monotone, 0.0)), 0.0, 1e-10, "closed-form"),
    ])
    report.work["sweep_points"] = len(results)
    report.work["sweep_valid_points"] = len(ok_rows)
    return report, (header, csv_rows)


# ---------------------------------------------------------------------------
# run


_CSV_HEADER = ("t", "n", "delta_unwrapped", "gamma_unwrapped",
               "total_mod_2pi", "fidelity")


def run(config: ScenarioConfig, *, out_dir=None, tol=1e-10) -> RunReport:
    """Execute the configured tasks and write the CSV/report artifacts."""
    report = RunReport(label=config.label, kind=config.kind)
    csv_payload = None
    sweep_payload = None
    timings = {}
    for task in config.tasks:
        started = time.perf_counter()
        if task == "phases":
            if config.kind == "oscillator":
                csv_payload = (_CSV_HEADER,
                               _oscillator_phases(config, report))
            else:
                csv_payload = (_CSV_HEADER,
                               _generic_phases(config, report, tol))
        elif task == "validate":
            _oscillator_validate(config, report)
        elif task == "loop-check":
            _oscillator_loop(config, report)
        elif task == "sweep":
            sweep_report, sweep_payload = sweep(config)
            report.extend(sweep_report.checks)
            report.work.update(sweep_report.work)
        timings[task] = time.perf_counter() - started

    csv_path, report_path = _resolve_paths(config, out_dir)
    if csv_payload is not None:
        _write_csv(csv_path, *csv_payload)
    if sweep_payload is not None:
        sweep_path = csv_path.with_name(
            csv_path.stem + "-sweep" + csv_path.suffix)
        _write_csv(sweep_path, *sweep_payload)
    _write_text(report_path, report.to_json())

    for task, seconds in timings.items():
        click.echo(f"[invphase] {task}: {seconds:.2f}s", err=True)
    return report


# ---------------------------------------------------------------------------
# command line


def _finish(report, as_json):
    if as_json:
        click.echo(report.to_json(), nl=False)
    failed = [row.name for row in report.checks if row.status == "fail"]
    if failed:
        click.echo(f"[invphase] failed checks: {', '.join(failed)}",
                   err=True)
        raise SystemExit(1)
    raise SystemExit(0)


def _guarded(fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"[invphase] config error: {exc}", err=True)
        raise SystemExit(2) from None
    except (ComputeError, IoError, InvphaseError) as exc:
        click.echo(f"[invphase] compute error: {exc}", err=True)
        raise SystemExit(3) from None


@click.group()
def main():
    """Invariant-phase scenario runner."""


_SHARED_OPTIONS = (
    click.option("--truncation", type=int, default=None,
                 help="Override truncation.N."),
    click.option("--out-dir", type=click.Path(file_okay=False),
                 default=None, help="Redirect artifacts into a directory."),
    click.option("--json", "as_json", is_flag=True,
                 help="Print the report JSON to stdout."),
)


def _with_shared(fn):
    for opt in reversed(_SHARED_OPTIONS):
        fn = opt(fn)
    return fn


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--steps", type=int, default=None, help="Override grid.steps.")
@_with_shared
@click.option("--tol", type=float, default=1e-10,
              help="Integrator local-error budget.")
def run_cmd(config_path, steps, truncation, out_dir, as_json, tol):
    """Run the scenario described by CONFIG_PATH."""
    def body():
        config = load_config(config_path, steps=steps,
                             truncation=truncation)
        report = run(config, out_dir=out_dir, tol=tol)
        _finish(report, as_json)
    _guarded(body)


@main.command("sweep")
@click.argument("config_path", type=click.Path())
@_with_shared
def sweep_cmd(config_path, truncation, out_dir, as_json):
    """Run only the parameter sweep of CONFIG_PATH."""
    def body():
        config = load_config(config_path, truncation=truncation)
        report, payload = sweep(config)
        csv_path, report_path = _resolve_paths(config, out_dir)
        _write_csv(csv_path, *payload)
        _write_text(report_path, report.to_json())
        _finish(report, as_json)
    _guarded(body)


@main.command("validate")
@click.argument("config_path", type=click.Path())
@click.option("--json", "as_json", is_flag=True,
              help="Print the parsed summary as JSON.")
def validate_cmd(config_path, as_json):
    """Check CONFIG_PATH against the schema without computing."""
    def body():
        config = load_config(config_path)
        summary = {"scenario": config.label, "system_kind": config.kind,
                   "tasks": list(config.tasks), "N": config.n_trunc,
                   "steps": config.steps}
        if as_json:
            click.echo(json.dumps(summary, indent=2, sort_keys=True))
        else:
            click.echo(f"[invphase] config OK: {summary}")
        raise SystemExit(0)
    _guarded(body)


if __name__ == "__main__":
    main()
