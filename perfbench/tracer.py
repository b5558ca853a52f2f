"""Run one cursor command with timing spans around each module's entry points.

    python3 perfbench/tracer.py TRACE.json generate --seed 1 -o out

The arguments after TRACE.json are a normal `cursor` command line.  Before
the command runs, every public entry point listed below is replaced, in each
cursor module that holds a reference to it, by a wrapper that records a span
(id, parent, name, start, end).  Spans stay in memory and are written to
TRACE.json when the command ends.  The program's source is not touched; an
entry point that a later version no longer has is simply not wrapped, and
the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name) for plain functions.
ENTRY_POINTS = (
    ("cursor.dataset", "load_dataset", "dataset.load"),
    ("cursor.dataset", "save_dataset", "dataset.save"),
    ("cursor.dataset", "subsample", "dataset.subsample"),
    ("cursor.synth", "generate_dataset", "synth.generate"),
    ("cursor.estimators", "cv_splits", "estimators.cv_splits"),
    ("cursor.scoring", "score_batch", "scoring.batch"),
    ("cursor.ranking", "rank_report", "ranking.rank_report"),
    ("cursor.optimize", "recover_target", "optimize.recover_target"),
    ("cursor.pca", "pca_fit", "pca.fit"),
    ("cursor.pca", "pca_inverse", "pca.inverse"),
    ("cursor.experiments", "run_plan", "experiments.run_plan"),
    ("cursor.experiments", "run_size_sweep", "experiments.run_size_sweep"),
)
# Counted only while a scoring span is open on the calling thread.
FACTORIZATIONS = ("svd", "eigh", "qr", "cholesky")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.attrs = {}  # span id -> dict
        self.values = defaultdict(list)
        self.installed = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self.stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, parent, name, start, end])

    def in_scoring(self) -> bool:
        return any(name.startswith("scoring.") for _, name in self.stack())

    def write(self, path: str):
        payload = {
            "installed": sorted(set(self.installed)),
            "spans": self.spans,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "values": dict(self.values),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _replace_everywhere(original, wrapper):
    for name, module in list(sys.modules.items()):
        if name != "cursor" and not name.startswith("cursor."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name == "synth.generate":
            tracer.values["synth.rows"].append(int(result.n))
        return result
    return wrapper


def _wrap_scorer(tracer: Tracer, cls):
    init, score_point = cls.__init__, cls.score_point

    @functools.wraps(init)
    def build(self, *args, **kwargs):
        # tracemalloc is process-wide, so only a build on the main thread, with
        # no pool running beside it, can be attributed to one scorer.
        measure = (threading.current_thread() is threading.main_thread()
                   and not tracemalloc.is_tracing())
        with tracer.span("scoring.build"):
            if measure:
                tracemalloc.start()
            try:
                init(self, *args, **kwargs)
                if measure:
                    tracer.values["scoring.build_alloc_bytes"].append(
                        tracemalloc.get_traced_memory()[0])
            finally:
                if measure:
                    tracemalloc.stop()

    cls.__init__ = build
    cls.score_point = _timed(tracer, "scoring.score_point", score_point)
    tracer.installed += ["scoring.build", "scoring.score_point"]


def _wrap_cmaes(tracer: Tracer, original):
    @functools.wraps(original)
    def cmaes(objective, *args, **kwargs):
        def timed_objective(y):
            with tracer.span("optimize.objective"):
                value = objective(y)
            if not math.isfinite(float(value)):
                tracer.values["optimize.nonfinite"].append(1)
            return value

        with tracer.span("optimize.cmaes") as sid:
            result = original(timed_objective, *args, **kwargs)
        tracer.attrs[sid] = {"generations": len(getattr(result, "generations", ()))}
        return result
    return cmaes


def _wrap_map_jobs(tracer: Tracer, original):
    @functools.wraps(original)
    def map_jobs(jobs, *args, **kwargs):
        workers = args[0] if args else kwargs.get("worker_count", 1)
        with tracer.span("experiments.pool") as pool_id:
            tracer.attrs[pool_id] = {"workers": int(workers)}

            def cell(job):
                # Cells may run on pool threads: name the pool as parent.
                def run():
                    with tracer.span("experiments.cell", parent=pool_id):
                        return job()
                return run

            return original([cell(job) for job in jobs], *args, **kwargs)
    return map_jobs


def _wrap_factorization(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.in_scoring():
            return fn(*args, **kwargs)
        with tracer.span("scoring.factorization"):
            return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    import numpy as np

    importlib.import_module("cursor.cli")
    for module_name, attr, span_name in ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        _replace_everywhere(original, _timed(tracer, span_name, original))
        tracer.installed.append(span_name)

    scoring = importlib.import_module("cursor.scoring")
    if hasattr(scoring, "HypothesisScorer"):
        _wrap_scorer(tracer, scoring.HypothesisScorer)
    optimize = importlib.import_module("cursor.optimize")
    if hasattr(optimize, "cmaes_maximize"):
        original = optimize.cmaes_maximize
        _replace_everywhere(original, _wrap_cmaes(tracer, original))
        tracer.installed += ["optimize.cmaes", "optimize.objective"]
    experiments = importlib.import_module("cursor.experiments")
    if hasattr(experiments, "_map_jobs"):
        original = experiments._map_jobs
        _replace_everywhere(original, _wrap_map_jobs(tracer, original))
        tracer.installed += ["experiments.pool", "experiments.cell"]
    for name in FACTORIZATIONS:
        setattr(np.linalg, name, _wrap_factorization(tracer, getattr(np.linalg, name)))
    tracer.installed.append("scoring.factorization")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json CURSOR-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("cursor.cli")
    tracer.installed.append("cli.main")
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv[1:])
    finally:
        tracer.write(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
