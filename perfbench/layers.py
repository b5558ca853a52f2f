"""Per-layer metrics computed from the span files that tracer.py writes.

Every metric is computed per round of a workload's commands (set-up metrics
per set-up command) and the run reports the median over rounds.  A metric
whose entry points the tracer could not install is left out (absent); a
metric whose module simply did not run on the workload reads 0.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

MB = float(1 << 20)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Traces:
    """The spans of one or more traced commands, viewed together."""

    def __init__(self, paths):
        self.spans: list[Span] = []
        self.attrs: list[dict] = []
        self.values: dict[str, list] = {}
        self.self_time: dict[int, float] = {}
        installed = None
        for offset, path in enumerate(paths):
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            base = offset << 32  # keep span ids of different files apart
            spans = [Span(base + s[0], base + s[1] if s[1] else 0, s[2], s[3], s[4])
                     for s in raw["spans"]]
            self.spans += spans
            self.attrs += [dict(v, sid=base + int(k)) for k, v in raw["attrs"].items()]
            for key, vals in raw["values"].items():
                self.values.setdefault(key, []).extend(vals)
            names = set(raw["installed"])
            installed = names if installed is None else installed & names
            self.self_time.update(_self_times(spans))
        self.installed = installed or set()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def p50_ms(self, name: str) -> float:
        durations = [s.duration for s in self.named(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def layer_self(self, prefix: str) -> float:
        return sum(self.self_time[s.sid] for s in self.spans if s.name.startswith(prefix))


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of the interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ms_per_generation(t: Traces) -> float:
    generations = sum(a.get("generations", 0) for a in t.attrs)
    busy = t.total("optimize.cmaes") - t.total("optimize.objective")
    return 1e3 * _ratio(busy, generations)


def _parallel_efficiency(t: Traces) -> float:
    workers = {a["sid"]: a["workers"] for a in t.attrs if "workers" in a}
    capacity = sum(s.duration * workers.get(s.sid, 1) for s in t.named("experiments.pool"))
    return _ratio(t.total("experiments.cell"), capacity)


def _rows_per_s(t: Traces) -> float:
    return _ratio(sum(t.values.get("synth.rows", ())), t.total("synth.generate"))


# name -> (unit, better, span names it needs, computation)
ROUND_METRICS = {
    "scoring.builds": ("count", "lower", ("scoring.build",),
                       lambda t: t.count("scoring.build")),
    "scoring.builds_per_score": ("ratio", "lower", ("scoring.build", "scoring.score_point"),
                                 lambda t: _ratio(t.count("scoring.build"),
                                                  t.count("scoring.score_point"))),
    "scoring.build_s": ("s", "lower", ("scoring.build",), lambda t: t.total("scoring.build")),
    "scoring.build_ms_p50": ("ms", "lower", ("scoring.build",),
                             lambda t: t.p50_ms("scoring.build")),
    "scoring.factorizations": ("count", "lower", ("scoring.factorization",),
                               lambda t: t.count("scoring.factorization")),
    "scoring.factorization_s": ("s", "lower", ("scoring.factorization",),
                                lambda t: t.total("scoring.factorization")),
    "scoring.score_points": ("count", "higher", ("scoring.score_point",),
                             lambda t: t.count("scoring.score_point")),
    "scoring.score_point_ms_p50": ("ms", "lower", ("scoring.score_point",),
                                   lambda t: t.p50_ms("scoring.score_point")),
    "scoring.batch_s": ("s", "lower", ("scoring.batch",), lambda t: t.total("scoring.batch")),
    "ranking.rank_report_s": ("s", "lower", ("ranking.rank_report",),
                              lambda t: t.total("ranking.rank_report")),
    "ranking.self_s": ("s", "lower", ("ranking.rank_report",),
                       lambda t: t.layer_self("ranking.")),
    "estimators.cv_splits_calls": ("count", "lower", ("estimators.cv_splits",),
                                   lambda t: t.count("estimators.cv_splits")),
    "estimators.cv_splits_s": ("s", "lower", ("estimators.cv_splits",),
                               lambda t: t.total("estimators.cv_splits")),
    "dataset.subsample_s": ("s", "lower", ("dataset.subsample",),
                            lambda t: t.total("dataset.subsample")),
    "optimize.evaluations": ("count", "higher", ("optimize.objective",),
                             lambda t: t.count("optimize.objective")),
    "optimize.generations": ("count", "higher", ("optimize.cmaes",),
                             lambda t: sum(a.get("generations", 0) for a in t.attrs)),
    "optimize.nonfinite_evals": ("count", "lower", ("optimize.objective",),
                                 lambda t: len(t.values.get("optimize.nonfinite", ()))),
    "optimize.self_ms_per_generation": ("ms", "lower", ("optimize.cmaes", "optimize.objective"),
                                        _self_ms_per_generation),
    "optimize.objective_ms_p50": ("ms", "lower", ("optimize.objective",),
                                  lambda t: t.p50_ms("optimize.objective")),
    "pca.fits": ("count", "lower", ("pca.fit",), lambda t: t.count("pca.fit")),
    "pca.fit_s": ("s", "lower", ("pca.fit",), lambda t: t.total("pca.fit")),
    "pca.inverse_s": ("s", "lower", ("pca.inverse",), lambda t: t.total("pca.inverse")),
    "experiments.cells": ("count", "higher", ("experiments.cell",),
                          lambda t: t.count("experiments.cell")),
    "experiments.cell_s_p50": ("s", "lower", ("experiments.cell",),
                               lambda t: t.p50_ms("experiments.cell") / 1e3),
    "experiments.self_s": ("s", "lower", ("experiments.run_size_sweep",),
                           lambda t: t.layer_self("experiments.")),
    "experiments.parallel_efficiency": ("ratio", "higher", ("experiments.pool", "experiments.cell"),
                                        _parallel_efficiency),
    "dataset.load_s": ("s", "lower", ("dataset.load",), lambda t: t.total("dataset.load")),
    "cli.self_s": ("s", "lower", ("cli.main",), lambda t: t.layer_self("cli.")),
}

SETUP_METRICS = {
    "synth.generate_s": ("s", "lower", ("synth.generate",), lambda t: t.total("synth.generate")),
    "synth.rows_per_s": ("1/s", "higher", ("synth.generate",), _rows_per_s),
    "dataset.save_s": ("s", "lower", ("dataset.save",), lambda t: t.total("dataset.save")),
}

# Computed by run.py from the run as a whole rather than from one round.
RUN_METRICS = {
    "scoring.build_alloc_mb": ("MB", "lower"),
    "process.cpu_per_wall": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def evaluate(table: dict, traces: Traces) -> dict[str, float]:
    return {name: float(fn(traces)) for name, (_, _, needs, fn) in table.items()
            if all(n in traces.installed for n in needs)}


def build_alloc_mb(traces: Traces) -> float | None:
    sizes = traces.values.get("scoring.build_alloc_bytes")
    return max(sizes) / MB if sizes else None


def units() -> dict[str, str]:
    out = {name: spec[0] for table in (ROUND_METRICS, SETUP_METRICS) for name, spec in table.items()}
    out.update({name: unit for name, (unit, _) in RUN_METRICS.items()})
    return out
