"""Layer tracing for the softmeas benchmark, installed from outside the package.

The tracer wraps the public functions of ``softmeas.matcore``,
``softmeas.measurement``, ``softmeas.repeated`` and ``softmeas.information``,
the input validators, ``softmeas.cli.main`` and ``softmeas.cli.run_sweep``,
and counts calls into ``numpy.linalg.eigh`` / ``eigvalsh``. Each wrapped call
is a span ``(target, start, end, parent)`` kept in memory; a layer's self time
is its spans' durations minus the parts covered by child spans.

``cli`` and ``information`` import names directly, so a wrapper is bound
wherever any softmeas module binds the original function object, and every
binding is put back by :meth:`Tracer.uninstall`. :meth:`Tracer.verify_pristine`
checks that the untraced code runs the original objects.

Pool workers forked by ``softmeas.cli.run_sweep`` inherit the wrappers but not
a way to report back; :class:`ChildReports` makes each forked worker write its
layer aggregates and peak RSS to a file when it exits.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing.util
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = ("matcore", "measurement", "repeated", "information")

# Input validation is its own group: it is spread over three modules.
VALIDATORS = {
    "matcore.validate_density_matrix",
    "measurement.validate_soft",
    "measurement._check_correlation_matrix",
    "information.StateEnsemble.__post_init__",
    "information.KrausChannel.validate",
}

GROUPS = ("cli", "information", "repeated", "measurement", "matcore", "validation")

EIGENSOLVERS = ("eigh", "eigvalsh")


@dataclass(frozen=True)
class Target:
    name: str
    group: str
    owner: object
    attr: str
    original: object


def _softmeas_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "softmeas" or n.startswith("softmeas.")]


def _targets() -> list[Target]:
    import softmeas.cli  # noqa: F401  (loads every layer)

    targets = []
    for layer in LAYERS:
        module = sys.modules[f"softmeas.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
                and (not attr.startswith("_") or name in VALIDATORS)
            ):
                group = "validation" if name in VALIDATORS else layer
                targets.append(Target(name, group, module, attr, obj))
    info = sys.modules["softmeas.information"]
    for cls_name, attr in (("StateEnsemble", "__post_init__"), ("KrausChannel", "validate")):
        cls = getattr(info, cls_name)
        targets.append(
            Target(f"information.{cls_name}.{attr}", "validation", cls, attr, vars(cls)[attr])
        )
    cli = sys.modules["softmeas.cli"]
    for attr in ("main", "run_sweep"):
        targets.append(Target(f"cli.{attr}", "cli", cli, attr, getattr(cli, attr)))
    for attr in EIGENSOLVERS:
        targets.append(Target(f"numpy.{attr}", "eig", np.linalg, attr, getattr(np.linalg, attr)))
    return targets


class Tracer:
    """Span recorder; create once, after ``softmeas.cli`` is importable."""

    def __init__(self) -> None:
        self.targets = _targets()
        self._pristine = self._bindings()
        self._patches: list[tuple[object, str, object]] = []
        self.installed = False
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.sweep_cpu: dict[int, float] = {}
        self._stack: list[int] = []
        self._validating = 0
        self.eig_calls = 0
        self.eig_matrices = 0
        self.eig_validation_calls = 0
        self.eig_s = 0.0

    # -- bindings ---------------------------------------------------------

    def _bindings(self) -> dict[tuple[int, str], object]:
        """Every place that binds a target's function object right now."""
        originals = {id(t.original) for t in self.targets}
        found = {}
        for module in _softmeas_modules():
            for attr, obj in vars(module).items():
                if id(obj) in originals or getattr(obj, "__wrapped__", None) is not None:
                    found[(id(module), attr)] = obj
        for t in self.targets:
            found[(id(t.owner), t.attr)] = getattr(t.owner, t.attr)
        return found

    def verify_pristine(self) -> None:
        """Raise unless every binding is the original function object."""
        now = self._bindings()
        if now.keys() != self._pristine.keys() or any(
            now[k] is not self._pristine[k] for k in now
        ):
            raise RuntimeError("trace wrappers are still bound in softmeas or numpy.linalg")

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = _softmeas_modules()
        for index, target in enumerate(self.targets):
            wrapper = self._wrap(index, target)
            places = [(target.owner, target.attr)]
            places += [
                (m, a) for m in modules for a, obj in vars(m).items()
                if obj is target.original and m is not target.owner
            ]
            for owner, attr in places:
                self._patches.append((owner, attr, target.original))
                setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, index: int, target: Target):
        fn = target.original
        tracer = self
        clock = time.perf_counter

        if target.group == "eig":

            @functools.wraps(fn)
            def eig_wrapper(a, *args, **kwargs):
                if not sys._getframe(1).f_globals.get("__name__", "").startswith("softmeas"):
                    return fn(a, *args, **kwargs)
                tracer.eig_calls += 1
                tracer.eig_matrices += math.prod(np.shape(a)[:-2])
                if tracer._validating:
                    tracer.eig_validation_calls += 1
                t0 = clock()
                try:
                    return fn(a, *args, **kwargs)
                finally:
                    tracer.eig_s += clock() - t0

            return eig_wrapper

        validating = target.group == "validation"
        measure_cpu = target.name == "cli.run_sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            spans = tracer.spans
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            tracer._validating += validating
            cpu0 = time.process_time() if measure_cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if measure_cpu:
                    tracer.sweep_cpu[span] = time.process_time() - cpu0
                tracer._validating -= validating
                stack.pop()
                spans[span] = (index, t0, t1, parent)

        return wrapper

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-group calls and self time, plus the named counts."""
        spans = self.spans
        if any(s is None for s in spans):
            raise RuntimeError("aggregate() called with spans still open")
        covered = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {f"{g}.calls": 0 for g in GROUPS}
        out.update({f"{g}.self_s": 0.0 for g in GROUPS})
        per_target = [0] * len(self.targets)
        main_s = sweep_s = sweep_self_s = pool_wait_s = 0.0
        for i, (index, t0, t1, _) in enumerate(spans):
            target = self.targets[index]
            self_s = (t1 - t0) - covered[i]
            out[f"{target.group}.calls"] += 1
            out[f"{target.group}.self_s"] += self_s
            per_target[index] += 1
            if target.name == "cli.main":
                main_s += t1 - t0
            elif target.name == "cli.run_sweep":
                sweep_s += t1 - t0
                sweep_self_s += self_s
                pool_wait_s += (t1 - t0) - self.sweep_cpu[i]
        by_name = {t.name: per_target[i] for i, t in enumerate(self.targets)}
        out["cli.sweep_self_s"] = sweep_self_s
        out["cli.emit_s"] = main_s - sweep_s
        out["cli.pool_wait_s"] = pool_wait_s
        out["information.ensembles_built"] = by_name["information.StateEnsemble.__post_init__"]
        out["repeated.collective_representation.calls"] = by_name[
            "repeated.collective_representation"
        ]
        out["matcore.eig_calls"] = self.eig_calls
        out["matcore.eig_matrices"] = self.eig_matrices
        out["matcore.eig_validation_calls"] = self.eig_validation_calls
        out["matcore.eig_s"] = self.eig_s
        out["spans"] = len(spans)
        return out


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one process's aggregates into ``total``."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


class ChildReports:
    """Collect peak RSS, and layer aggregates when tracing, from forked pool workers.

    ``multiprocessing`` runs after-fork hooks in each worker it forks; the
    hook resets the inherited tracer and registers an exit finalizer that
    writes one JSON file per worker into ``directory``. Workers started by
    another method than fork do not report.
    """

    def __init__(self, directory: Path, tracer: Tracer | None = None) -> None:
        self.directory = directory
        self.tracer = tracer
        multiprocessing.util.register_after_fork(self, ChildReports._after_fork)

    def _after_fork(self) -> None:
        if self.tracer is not None:
            self.tracer.reset()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        record: dict = {"maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if self.tracer is not None and self.tracer.installed:
            record["trace"] = self.tracer.aggregate()
        path = self.directory / f"child-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        tmp.replace(path)

    def collect(self) -> list[dict]:
        """Read and remove the reports of every worker that has exited."""
        reports = []
        for path in sorted(self.directory.glob("child-*.json")):
            reports.append(json.loads(path.read_text()))
            path.unlink()
        return reports
