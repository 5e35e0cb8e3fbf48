"""Self-tests of the benchmark, on tiny inputs.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import json  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from invphase import linalg, oscillator, propagator  # noqa: E402
from spans import TARGETS, Tracer, span_name  # noqa: E402

# Small inputs.  At N = 16 the oscillator's truncation error is far above
# the phase tolerance, so the osc-cli passes made here do not verify.
TINY = {
    "osc-cli": {"n_trunc": 16, "steps": 64},
    "gho-evolve": {"n_trunc": 16, "steps": 1024},
    "cranked-family": {"cli_dim": 4, "cli_steps": 128, "geq_dim": 3,
                       "geq_steps": 64, "deg_dim": 2, "deg_steps": 256},
}


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, **TINY[name])


def arrays_of(name, outputs, workload):
    """Every numeric output of a pass, files included, as flat arrays."""
    if name == "gho-evolve":
        return [outputs.samples]
    files = [np.frombuffer(p.read_bytes(), dtype=np.uint8)
             for p in sorted(workload.out_dir.iterdir())]
    if name == "osc-cli":
        return files
    _, geq_path, path, record, rebuilt = outputs
    return files + [geq_path.samples, path.samples, rebuilt.samples,
                    *record.Gamma_T.values(), *record.u]


def test_tracer_restores_every_binding():
    tracer = Tracer()
    modules = [m for k, m in sys.modules.items()
               if k.startswith("invphase.")]
    before = [dict(vars(m)) for m in modules]
    tracer.install()
    assert linalg.eigh is not before[modules.index(linalg)]["eigh"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_wrappers_are_bit_identical_on_direct_calls():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a + a.conj().T
    schedule = propagator.HamiltonianSchedule.from_callable(
        lambda t: np.cos(t) * a + np.diag(np.arange(6.0)), 6)

    def calls():
        return [*linalg.eigh(a), linalg.expm_igen(a, 0.3),
                propagator.evolve(schedule, 1.0, steps=8).samples]

    plain = calls()
    tracer = Tracer()
    tracer.install()
    try:
        traced = calls()
    finally:
        tracer.uninstall()
    assert all(np.array_equal(x, y) for x, y in zip(plain, traced))
    counts = tracer.summary()
    in_evolve = counts["propagator.evolve.expm_per_step"] * 8
    assert in_evolve >= 8 * 6
    assert counts["linalg.expm_igen.calls"] == 1 + in_evolve
    assert counts["linalg.eigh.calls"] == 2 + in_evolve
    assert counts["linalg.eigh.n3"] == counts["linalg.eigh.calls"] * 6 ** 3


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_pass_is_bit_identical(name, tmp_path):
    workload = tiny(name, tmp_path)
    plain = arrays_of(name, workload.run_pass(), workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = arrays_of(name, workload.run_pass(), workload)
    finally:
        tracer.uninstall()
    assert len(plain) == len(traced)
    assert all(np.array_equal(x, y) for x, y in zip(plain, traced))
    assert tracer.spans


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_traced_runs_count_the_same(name, tmp_path):
    def traced_counts(sub):
        sub.mkdir()
        workload = tiny(name, sub)
        tracer = Tracer()
        passes = run.run_passes(workload, 0.0, tracer)
        counts = [{k: v for k, v in layer.items()
                   if not k.endswith(".self_s")} for layer in passes.layers]
        return counts, [v.bytes_written for v in passes.verdicts]

    first = traced_counts(tmp_path / "a")
    second = traced_counts(tmp_path / "b")
    assert first == second
    assert first[0][0]["linalg.eigh.calls"] > 0


def _perturb(monkeypatch, module, attr, change):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *a, **k: change(original(*a, **k)))


@pytest.mark.parametrize("name", ["gho-evolve", "cranked-family"])
def test_perturbed_propagator_fails_verification(name, tmp_path,
                                                 monkeypatch):
    workload = tiny(name, tmp_path)
    assert run.run_passes(workload, 0.0).failed == 0

    def tilt(path):
        path.samples[-1] *= np.exp(1e-4j)
        return path
    _perturb(monkeypatch, propagator, "evolve", tilt)
    passes = run.run_passes(workload, 0.0)
    assert passes.failed == passes.attempted == run.MIN_PASSES
    assert any("propagator error" in p for p in passes.verdicts[0].problems)


def test_perturbed_phase_fails_verification(tmp_path, monkeypatch):
    workload = workloads.OscCli(3, tmp_path)
    assert workload.verify(workload.run_pass()).ok

    def shift(out):
        theta, phi = out
        return theta, phi + 1e-4
    _perturb(monkeypatch, oscillator, "hyperbolic_coords", shift)
    passes = run.run_passes(workload, 0.0)
    assert passes.failed == passes.attempted
    assert any("phase error" in p for p in passes.verdicts[0].problems)


def test_benchmark_json_names_every_metric():
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    layer_names = set(Tracer().summary()) | set(run.EXTRA_LAYERS)
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert all(f"{span_name(m, a)}.calls" in layer_names
               for m, a, _ in TARGETS)
