"""Benchmark of invphase: one workload per process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload gho-evolve --seed 1 --seconds 30 \\
        --trace 0

The workloads are ``osc-cli``, ``gho-evolve`` and ``cranked-family`` (see
``workloads.py`` and ``BENCHMARK.json``).  The seed makes the inputs; the
program receives only those.  BLAS runs on one thread.

A run sets up the workload, then repeats verified passes until
``--seconds`` have gone by.  The first pass warms caches and is not timed.
Every pass is checked against closed forms; a pass that does not verify
counts in ``failed``.

Times are process CPU times (``time.process_time``).  With BLAS on one
thread and no waiting on I/O, a pass's CPU time equals its wall time on an
idle machine, but it leaves out the time a virtual machine's host steals
from it, which on a shared host moved wall-time medians by a third between
runs.  Wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics:

* ``pass_s``: median CPU time of one pass;
* ``setup_s``: median over several fresh processes of the CPU time to
  import invphase and build the inputs;
* ``peak_rss_mb``: peak resident memory of this process;
* ``phase_digits`` and ``unitary_digits``: ``-log10`` of the worst phase
  error (rad) and the worst propagator error (Frobenius norm) against the
  closed forms, with errors below double-precision epsilon counted as
  epsilon.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of :mod:`spans`, per pass, with the tracing overhead.
The spans of the first traced pass are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, ``{"detail": ...}``, carries every pass time and set-up time, the raw
errors ``phase_err_rad`` and ``unitary_err``, ``fail_ratio`` (passes that
did not verify over passes attempted), ``report_checks_failed`` (``fail``
rows in the reports ``cli.run`` returned) and the environment: thread
settings, versions, CPU, ``nproc``, load average, seed and input sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("osc-cli", "gho-evolve", "cranked-family")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes whose set-up time is measured, besides the run's own.
SETUP_PROBES = 4
#: Passes made however short ``--seconds`` is: the untimed warm-up and two
#: timed passes (one untraced and one traced with ``--trace 1``).
MIN_PASSES = 3
EPS = 2.0 ** -52
#: Layers whose metrics include one traced set-up besides one pass.
SETUP_LAYERS = ("oscillator.build_fock.", "cli.load_config.")
#: End-to-end metrics and their units, in the order measure() fills them.
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "phase_digits": "digits", "unitary_digits": "digits"}
#: Per-layer metrics besides the tracer's, in the order per_layer() fills
#: them.
EXTRA_LAYERS = {"cli.bytes_written": "bytes",
                "cli.report_checks_failed": "count",
                "trace.overhead_ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (internal)")
    return parser.parse_args(argv)


def timed_setup(name, seed, workdir):
    """Import invphase and build the workload's inputs.

    Returns the workload and the CPU seconds the set-up took.
    """
    started = time.process_time()
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.process_time() - started


def probe_setup(args):
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def digits(err):
    return -math.log10(max(float(err), EPS))


def environment(args, load_at_start, sizes):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "invphase" / "__init__.py").is_file():
        print(f"perfbench: no invphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            _, seconds = timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    load_at_start = os.getloadavg()
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload, seconds = timed_setup(args.workload, args.seed, workdir)
    setups.append(seconds)

    tracer = setup_layers = None
    if args.trace:
        # a second, traced set-up for the set-up layers
        tracer = Tracer()
        tracer.install()
        try:
            type(workload)(args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_layers = tracer.summary()
    passes = run_passes(workload, args.seconds, tracer)

    pass_s = statistics.median(passes.plain)
    setup_s = statistics.median(setups)
    phase_err = max(v.phase_err for v in passes.verdicts)
    unitary_err = max(v.unitary_err for v in passes.verdicts)
    detail = {
        "pass_s": {"median": pass_s, "samples": passes.plain},
        "pass_wall_s": {"median": statistics.median(passes.wall),
                        "samples": passes.wall},
        "setup_s": {"median": setup_s, "samples": setups},
        "phase_err_rad": phase_err, "unitary_err": unitary_err,
        "fail_ratio": passes.failed / passes.attempted,
        "report_checks_failed": max(
            v.report_checks_failed for v in passes.verdicts),
        "env": environment(args, load_at_start, workload.sizes),
    }
    if args.trace:
        metrics = per_layer(setup_layers, passes, pass_s)
        write_spans(passes.spans, OUT / f"spans-{args.workload}.jsonl")
    else:
        values = (pass_s, setup_s, peak_rss_mb(), digits(phase_err),
                  digits(unitary_err))
        metrics = {name: {"value": value, "unit": unit} for (name, unit),
                   value in zip(END_TO_END.items(), values)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": passes.failed == 0,
                      "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


@dataclass
class Passes:
    """What :func:`run_passes` measured."""

    plain: list = field(default_factory=list)     # untraced pass CPU seconds
    wall: list = field(default_factory=list)      # the same passes, wall
    traced: list = field(default_factory=list)    # traced pass CPU seconds
    layers: list = field(default_factory=list)    # Tracer.summary per pass
    verdicts: list = field(default_factory=list)  # one per pass attempted
    spans: list = field(default_factory=list)     # of the first traced pass
    attempted: int = 0
    failed: int = 0


def run_passes(workload, seconds, tracer=None) -> Passes:
    """Verified passes until ``seconds`` have gone by (at least MIN_PASSES).

    The first pass is a warm-up and is not timed.  With a tracer, the
    timed passes alternate untraced and traced, and the spans of the first
    traced pass are kept.
    """
    from workloads import Verdict
    out = Passes()
    deadline = time.perf_counter() + seconds
    while out.attempted < MIN_PASSES or time.perf_counter() < deadline:
        tracing = (tracer is not None and out.attempted > 0
                   and out.attempted % 2 == 0)
        if tracing:
            tracer.reset()
            tracer.install()
        started = time.perf_counter(), time.process_time()
        try:
            try:
                outputs = workload.run_pass()
            finally:
                wall = time.perf_counter() - started[0]
                cpu = time.process_time() - started[1]
                if tracing:
                    tracer.uninstall()
            verdict = workload.verify(outputs)
        except Exception:  # a failed pass is counted, and the run goes on
            traceback.print_exc()
            verdict = Verdict(problems=["pass raised"])
        out.attempted += 1
        out.verdicts.append(verdict)
        if not verdict.ok:
            out.failed += 1
            print(f"perfbench: pass {out.attempted} failed: "
                  f"{'; '.join(verdict.problems)}", file=sys.stderr)
        if out.attempted == 1:
            continue
        if tracing:
            out.traced.append(cpu)
            out.layers.append(tracer.summary())
            if len(out.layers) == 1:
                out.spans = tracer.spans
        else:
            out.plain.append(cpu)
            out.wall.append(wall)
    return out


def write_spans(spans, path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, extra in spans:
            handle.write(json.dumps(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, **(extra or {})}) + "\n")


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(setup_layers, passes, pass_s):
    """Layer metrics of one pass, and of one set-up for the set-up layers.

    Counts come from the first traced pass (they repeat exactly) and self
    times are medians over the traced passes.  The set-up functions
    (``SETUP_LAYERS``) add their spans from one traced set-up.
    """
    layers = passes.layers
    first = layers[0]
    metrics = {}
    for key in first:
        if key.endswith(".self_s"):
            value, unit = statistics.median(s[key] for s in layers), "s"
        else:
            if any(s[key] != first[key] for s in layers):
                print(f"perfbench: {key} differs between traced passes",
                      file=sys.stderr)
            value = first[key]
            unit = "expm/step" if key.endswith(".expm_per_step") else "count"
        if key.startswith(SETUP_LAYERS):
            value += setup_layers[key]
        metrics[key] = {"value": value, "unit": unit}
    extra = (passes.verdicts[-1].bytes_written,
             max(v.report_checks_failed for v in passes.verdicts),
             statistics.median(passes.traced) / pass_s)
    for (name, unit), value in zip(EXTRA_LAYERS.items(), extra):
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
