"""The import graph: ``import invphase`` loads numpy and click, not scipy,
and every name the package exports or the benchmark's tracer wraps
resolves.

``scipy.linalg`` costs about 0.2 s of CPU and 20 MiB to import, and the
package needs it only for the periodic closure of a degenerate eigenframe
block.  Each scipy check runs in a fresh interpreter, so that what the
test session (pytest plugins, other test modules) has imported does not
count.
"""

import functools
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import invphase

SRC = str(Path(invphase.__file__).resolve().parent.parent)
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# prints the scipy modules the snippet before it left in sys.modules
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(code: str, *args: str) -> list:
    """The ``scipy`` modules loaded after ``code`` runs in a fresh
    interpreter with ``args`` as ``sys.argv[1:]``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT, *args],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_package_and_every_submodule_import_without_scipy():
    loaded = scipy_modules_after("""
        import importlib, pkgutil
        import invphase
        names = [m.name for m in pkgutil.iter_modules(invphase.__path__,
                                                      "invphase.")]
        assert "invphase.cli" in names, names
        for name in names:
            importlib.import_module(name)
    """)
    assert loaded == []


def test_oscillator_scenario_runs_without_scipy(tmp_path):
    config = {
        "system": {"oscillator": {"M": 1.0, "Omega": 3.0, "m": 2.0,
                                  "omega": 1.0}},
        "truncation": {"N": 16},
        "grid": {"t_max": math.pi, "steps": 64},
        "tasks": ["phases", "validate", "loop-check", "sweep"],
        "sweep": {"m": {"start": 1.5, "stop": 2.5, "count": 2}},
        "output": {"csv_path": "phases.csv", "report_path": "report.json"},
    }
    path = tmp_path / "osc.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    loaded = scipy_modules_after("""
        import sys
        from invphase import cli
        cli.run(cli.load_config(sys.argv[1]), out_dir=sys.argv[2])
    """, str(path), str(tmp_path / "out"))
    assert loaded == []
    for name in ("phases.csv", "phases-sweep.csv", "report.json"):
        assert (tmp_path / "out" / name).exists(), name


def test_degenerate_periodic_closure_loads_scipy_linalg():
    # I(t) = e^{-iKt} I0 e^{iKt} over one period of an integer crank,
    # with a doubly degenerate level of I0: its block closes through the
    # Schur form of the holonomy, the one use of scipy
    loaded = scipy_modules_after("""
        import sys
        import numpy as np
        from invphase.invariant import InvariantPath, eigenframe
        rng = np.random.default_rng(5)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = np.linalg.qr(g)[0]
        i0 = (q * np.array([1.0, 1.0, 2.5])) @ q.conj().T
        path = InvariantPath.rotated(np.linspace(0.0, 2 * np.pi, 33), i0,
                                     np.array([0.0, 1.0, -2.0]))
        frame = eigenframe(path)
        assert frame.n_blocks == 2, frame
        assert not any(m.startswith("scipy") for m in sys.modules)
        frame = eigenframe(path, enforce_periodic=True)
        assert frame.periodic
    """)
    assert "scipy.linalg" in loaded


def _submodules() -> list:
    return [importlib.import_module(m.name) for m in
            pkgutil.iter_modules(invphase.__path__, "invphase.")]


def test_every_exported_name_resolves():
    exported = 0
    for module in _submodules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            exported += 1
    assert exported > 0


def test_every_traced_target_resolves():
    # the benchmark's tracer wraps these by name; spans.py imports only the
    # standard library, so loading it is read-only
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"invphase.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), f"{module}.{attr}"
