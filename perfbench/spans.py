"""Span tracing of invphase's public functions, installed from outside.

:class:`Tracer` wraps each function in :data:`TARGETS` and rebinds the
name in every loaded ``invphase`` module that holds the same object (for
example ``propagator.expm_igen`` and ``phases.expm_igen`` as well as
``linalg.expm_igen``), so calls from one module into another are caught.
No source file of the package is changed: :meth:`Tracer.uninstall` puts
every original object back.

Each call records one span ``(id, name, start, end, parent, extra)`` in
memory.  ``parent`` is the id of the innermost traced call open on the
same thread (0 for none), so spans opened on worker threads, such as the
CLI's sweep pool, start new roots.  :meth:`Tracer.summary` turns the spans
into per-layer counts and self times; a span's self time is its duration
minus the durations of its direct children.

This module imports only the standard library, so loading it does not
import numpy or invphase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

_EIGEN = ("pass_s on gho-evolve (most of it) and cranked-family; "
          "flat on osc-cli")
_STEP = "pass_s on gho-evolve"
_FRAME = "pass_s and peak_rss_mb on osc-cli; about 0 on gho-evolve"
_SMALL = "pass_s on cranked-family"
_SETUP = "setup_s"

#: (module, attribute path, end-to-end metric and workload it should move)
#: of every traced function.
TARGETS = (
    ("linalg", "eigh", _EIGEN),
    ("linalg", "expm_igen", _EIGEN),
    ("linalg", "polar_unitary", _EIGEN),
    ("propagator", "evolve", _STEP),
    ("propagator", "HamiltonianSchedule.sample", _STEP),
    ("oscillator", "gho_H", _STEP),
    ("oscillator", "w_operator", _FRAME),
    ("oscillator", "hyperbolic_coords", _FRAME),
    ("linalg", "OperatorMatrix.__init__", _FRAME),
    ("invariant", "lvn_residual", _FRAME),
    ("invariant", "InvariantPath.spectrum_drift", _FRAME),
    ("invariant", "frame_derivative", _FRAME),
    ("cli", "run", _FRAME),
    ("cli", "sweep", _FRAME),
    ("invariant", "transport", _SMALL),
    ("invariant", "eigenframe", _SMALL),
    ("phases", "project", _SMALL),
    ("phases", "abelian_phases", _SMALL),
    ("phases", "nonabelian_holonomy", _SMALL),
    ("phases", "solve_un", _SMALL),
    ("phases", "reconstruct_U", _SMALL),
    ("propagator", "compose_geq", _SMALL),
    ("cranked", "cranked_H", _SMALL),
    ("cranked", "geq_member", _SMALL),
    ("oscillator", "build_fock", _SETUP),
    ("cli", "load_config", _SETUP),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target; a class is named for its constructor."""
    return f"{module}.{attr.removesuffix('.__init__')}"


def _cubed_dim(eigh):
    """Hook recording ``dim**3`` of the matrix passed to ``linalg.eigh``."""
    def hook(args, kwargs):
        a = args[0] if args else kwargs["a"]
        return {"n3": int(getattr(a, "array", a).shape[0]) ** 3}
    return hook


def _evolve_intervals(evolve):
    """Hook counting the grid intervals an ``evolve`` call steps through.

    Constant schedules take the spectral path and step through none.  Every
    call the benchmark makes passes ``steps``.
    """
    signature = inspect.signature(evolve)

    def hook(args, kwargs):
        arguments = signature.bind(*args, **kwargs).arguments
        if arguments["schedule"].is_constant:
            return {"intervals": 0}
        return {"intervals": int(arguments["steps"])}
    return hook


#: Hooks that record operation counts from a traced call's arguments.
HOOKS = {"linalg.eigh": _cubed_dim, "propagator.evolve": _evolve_intervals}


class Tracer:
    """Records spans around invphase's public functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    # ------------------------------------------------------------------ #
    # installation

    def install(self) -> None:
        """Wrap every target and rebind it wherever invphase imported it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {name: importlib.import_module(f"invphase.{name}")
                   for name in {t[0] for t in TARGETS}}
        loaded = _invphase_modules()
        for module_name, attr, _ in TARGETS:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            name = span_name(module_name, attr)
            hook = HOOKS.get(name)
            wrapper = self._wrap(name, original,
                                 hook and hook(original))
            self._rebind(owner, leaf, original, wrapper)
            if not path:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        """Restore every original object."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            extra = hook(args, kwargs) if hook is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, extra))
        return wrapper

    # ------------------------------------------------------------------ #
    # results

    def reset(self) -> None:
        """Drop the recorded spans."""
        self.spans = []

    def summary(self) -> dict:
        """Per-layer counts and self times of the recorded spans.

        Keys are ``<span>.calls``, ``<span>.self_s``, ``linalg.eigh.n3``
        (sum of dim**3 over eigh calls) and
        ``propagator.evolve.expm_per_step`` (``expm_igen`` calls made
        under ``evolve`` divided by the grid intervals ``evolve`` stepped
        through; 6.0 means no interval was split).
        """
        by_id = {span[0]: span for span in self.spans}
        child_time = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out = {}
        for module_name, attr, _ in TARGETS:
            name = span_name(module_name, attr)
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        out["linalg.eigh.n3"] = 0
        intervals = 0
        expm_in_evolve = 0
        for sid, name, start, end, parent, extra in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
            if extra:
                if "n3" in extra:
                    out["linalg.eigh.n3"] += extra["n3"]
                intervals += extra.get("intervals", 0)
            if name == "linalg.expm_igen":
                while parent:
                    ancestor = by_id[parent]
                    if ancestor[1] == "propagator.evolve":
                        expm_in_evolve += 1
                        break
                    parent = ancestor[4]
        out["propagator.evolve.expm_per_step"] = (
            expm_in_evolve / intervals if intervals else 0.0)
        return out


def _invphase_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == "invphase" or key.startswith("invphase."))]
