"""Benchmark for the cursor CLI: one workload per run, end to end or per module.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 30 --trace 0

A run makes the workload's dataset with `cursor generate` (its set-up, done
SETUP_REPEATS times), then runs whole rounds of the workload's commands, at
least one, while the next round is expected to end within --seconds.  Each
command runs in its own child process from the checkout's src/ tree.  Every round's outputs are checked; checks
that need extra commands run once, after the timed rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates rounds run
under perfbench/tracer.py with untraced ones and prints the per-layer
metrics.  The last line of stdout is the JSON result; a record with the
environment goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Removed from the program's environment, so that its own thread policy is
# what gets measured.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CURSOR_WORKERS")
DEADLINE_S = 165.0
SETUP_REPEATS = 5

# The reference configuration: 1000 trajectories x 3 points, Dz=32, De=64.
GENERATE = ("generate", "--trajectories", "1000", "--points", "3", "--latent-dim", "32",
            "--response-dim", "64", "--d-max", "15", "--noise-sigma", "2")
SCORE_FLAGS = ("--estimator", "ols", "--folds", "10", "--train-fraction", "0.9",
               "--shuffles", "1")
HYPOTHESIS_RADIUS = 46.16
RANK_L = 60
BUDGET = 1000
BOUNDS = 15.0
LATENT_K = 10
# N=40 is below De=64, where OLS is underdetermined; 640 is 10 x De.  L=20
# keeps a sweep round near 10 s with two workers, so a run fits in its time budget.
SWEEP_SIZES = (40, 160, 640)
SWEEP_REPLICATES = 2
SWEEP_L = 20
SWEEP_WORKERS = 2
# The oracle scores the target and two hypotheses at these distances from it.
ORACLE_DISTANCES = (5.0, 25.0)


class CommandFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Measured:
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: Path | None


class Runner:
    """Runs `cursor` commands as child processes and reads their rusage."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work, self.env, self.deadline = work, env, deadline
        self.count = 0

    def cursor(self, args, env=None, traced=False) -> Measured:
        self.count += 1
        tag = f"cmd-{self.count:03d}-{args[0]}"
        trace = self.work / f"{tag}.trace.json" if traced else None
        prog = [sys.executable, str(BENCH / "tracer.py"), str(trace)] if traced \
            else [sys.executable, "-m", "cursor.cli"]
        log = self.work / f"{tag}.log"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(prog + [str(a) for a in args], cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT, env={**self.env, **(env or {})})
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            raise CommandFailed(f"cursor {args[0]} exited with {proc.returncode}: {tail}")
        return Measured(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, trace)


@dataclass
class Context:
    seed: int
    data: Path
    ds: object  # checks.Dataset
    work: Path
    runner: Runner
    traced: bool
    workers: int
    pca_floor: float | None = None
    extra_traces: list = field(default_factory=list)  # traced commands outside rounds


@dataclass(frozen=True)
class Workload:
    scores: int  # S(h) evaluations per round
    commands: Callable  # (ctx, out) -> [(args, env)]
    check_round: Callable  # (ctx, out) -> problems
    check_run: Callable  # (ctx, first round's out) -> problems; may run commands
    tables: tuple  # outputs that must be byte-identical between rounds


def _rank_commands(ctx, out):
    return [(["rank", "--data", ctx.data, "--L", RANK_L, "--d-max", HYPOTHESIS_RADIUS,
              "--seed", ctx.seed, *SCORE_FLAGS, "-o", out], {"CURSOR_WORKERS": "1"})]


def _rank_oracle(ctx, out):
    """S(h) of `cursor score` against the oracle for the target and two others."""
    import numpy as np
    from oracle import oracle_score

    rng = np.random.default_rng([ctx.seed, 6])
    hypotheses = [ctx.ds.target]
    for d in ORACLE_DISTANCES:
        u = rng.standard_normal(ctx.ds.target.shape[0])
        hypotheses.append(ctx.ds.target + d * u / np.linalg.norm(u))
    problems = []
    for i, h in enumerate(hypotheses):
        path = ctx.work / f"oracle-{i}"
        path.mkdir()
        (path / "h.json").write_text(json.dumps([float(v) for v in h]))
        ctx.runner.cursor(["score", "--data", ctx.data, "--hypothesis-file", path / "h.json",
                           "--seed", ctx.seed, *SCORE_FLAGS, "-o", path])
        report = json.loads((path / "score.json").read_text(encoding="utf-8"))
        want = oracle_score(ctx.ds.stimuli, ctx.ds.responses, h, report["seeds"]["cv_seed"],
                            report["seeds"]["perm_seed"])
        if not all(checks.close(report[k], getattr(want, k)) for k in
                   ("score", "rmse_aligned", "rmse_shuffled")):
            problems.append(f"score: S(h) {report['score']} for hypothesis {i} differs from "
                            f"the oracle's {want.score}")
    return problems


def _optimize_commands(ctx, out):
    return [
        (["optimize", "--data", ctx.data, "--budget", BUDGET, "--bounds", BOUNDS,
          "--reduce-responses", 20, "--reduce-latents", LATENT_K, "--seed", ctx.seed,
          *SCORE_FLAGS, "-o", out / "opt"], {}),
        (["recover", "--data", ctx.data, "--zhat", out / "opt" / "zhat.json",
          "-o", out / "rec"], {}),
    ]


def _optimize_check(ctx, out):
    if ctx.pca_floor is None:
        ctx.pca_floor = checks.pca_floor(ctx.ds.stimuli, ctx.ds.target, LATENT_K)
    return checks.check_optimize(out / "opt", out / "rec", ctx.ds, BUDGET, BOUNDS,
                                 ctx.pca_floor, HYPOTHESIS_RADIUS)


def _sweep_args(ctx, out):
    return ["rank", "--data", ctx.data, "--sizes", ",".join(map(str, SWEEP_SIZES)),
            "--replicates", SWEEP_REPLICATES, "--L", SWEEP_L, "--d-max", HYPOTHESIS_RADIUS,
            "--seed", ctx.seed, *SCORE_FLAGS, "-o", out]


def _sweep_one_worker(ctx, out):
    """The same sweep with one worker must write byte-identical tables."""
    ref = ctx.work / "sweep-one-worker"
    measured = ctx.runner.cursor(_sweep_args(ctx, ref), {"CURSOR_WORKERS": "1"}, ctx.traced)
    if measured.trace:
        ctx.extra_traces.append(measured.trace)
    return checks.same_bytes(out, ref, WORKLOADS["sweep"].tables)


WORKLOADS = {
    "rank": Workload(
        scores=RANK_L,
        commands=_rank_commands,
        check_round=lambda ctx, out: checks.check_rank(out, RANK_L),
        check_run=_rank_oracle,
        tables=("rank.csv", "rank_detail.jsonl"),
    ),
    "optimize": Workload(
        scores=BUDGET,
        commands=_optimize_commands,
        check_round=_optimize_check,
        check_run=lambda ctx, out: [],
        tables=("opt/trace.jsonl", "opt/summary.json", "opt/zhat.json", "rec/labels.csv"),
    ),
    "sweep": Workload(
        scores=len(SWEEP_SIZES) * SWEEP_REPLICATES * SWEEP_L,
        commands=lambda ctx, out: [(_sweep_args(ctx, out), {"CURSOR_WORKERS": str(ctx.workers)})],
        check_round=lambda ctx, out: checks.check_sweep(out, SWEEP_SIZES, SWEEP_REPLICATES,
                                                        SWEEP_L),
        check_run=_sweep_one_worker,
        tables=("sweep.csv", "sweep_summary.csv", "sweep_rows.jsonl"),
    ),
}


@dataclass
class Round:
    traced: bool
    commands: list[Measured]

    @property
    def wall_s(self) -> float:
        return sum(m.wall_s for m in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(m.cpu_s for m in self.commands)


def child_env(blas_threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    return env


def environment(env: dict) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: env[k] for k in THREAD_VARS if k in env},
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(workload: Workload, setups, rounds) -> dict:
    return {
        "setup_s": (_median([m.wall_s for m in setups]), "s"),
        "scores_per_s": (_median([workload.scores / r.wall_s for r in rounds]), "1/s"),
        "cpu_s": (_median([r.cpu_s for r in rounds]), "s"),
        "peak_rss_mb": (_median([max(m.rss_mb for m in r.commands) for r in rounds]), "MB"),
    }


def per_layer(setups, rounds, extra_traces) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    units = layers.units()
    samples: dict[str, list] = {}
    for r in traced:
        found = layers.evaluate(layers.ROUND_METRICS, layers.Traces([m.trace for m in r.commands]))
        for name, value in found.items():
            samples.setdefault(name, []).append(value)
    for m in setups:
        for name, value in layers.evaluate(layers.SETUP_METRICS, layers.Traces([m.trace])).items():
            samples.setdefault(name, []).append(value)
    out = {name: (_median(vals), units[name]) for name, vals in samples.items()}
    every = [m.trace for r in traced for m in r.commands] + extra_traces
    alloc = layers.build_alloc_mb(layers.Traces(every))
    if alloc is not None:
        out["scoring.build_alloc_mb"] = (alloc, "MB")
    if plain:  # absent when the deadline left no time for an untraced round
        out["process.cpu_per_wall"] = (_median([r.cpu_s / r.wall_s for r in plain]), "ratio")
        out["trace.overhead_s"] = (_median([r.wall_s for r in traced])
                                   - _median([r.wall_s for r in plain]), "s")
    return out


def run(args, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(args.blas_threads)
    runner = Runner(work, env, deadline)
    workload = WORKLOADS[args.workload]
    problems = []

    setups = [runner.cursor([*GENERATE, "--seed", args.seed, "-o", work / f"setup-{i}"],
                            traced=bool(args.trace)) for i in range(SETUP_REPEATS)]
    data = work / "setup-0" / "dataset.csv"
    problems += checks.same_bytes(data.parent, work / f"setup-{SETUP_REPEATS - 1}",
                                  ("dataset.csv",))
    ctx = Context(args.seed, data, checks.load_dataset_csv(data), work, runner,
                  bool(args.trace), args.workers or SWEEP_WORKERS)

    rounds, failed_rounds = [], 0
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        out = work / f"round-{len(rounds) + failed_rounds}"
        try:
            measured = [runner.cursor(cmd, env, traced) for cmd, env in workload.commands(ctx, out)]
        except CommandFailed as exc:
            failed_rounds += 1
            problems.append(str(exc))
            break
        problems += workload.check_round(ctx, out)
        if rounds:
            problems += checks.same_bytes(work / "round-0", out, workload.tables)
        rounds.append(Round(traced, measured))
        # Stop before a round that would end after --seconds; a traced run wants
        # an untraced round too.  Leave room for the untimed checks.
        full = time.monotonic() - start + rounds[-1].wall_s > args.seconds
        if (full and not (args.trace and len(rounds) == 1)) \
                or time.monotonic() + 2.5 * rounds[-1].wall_s > deadline:
            break
    if not rounds:
        raise CommandFailed(f"no round of {args.workload} completed: {problems}")
    try:
        problems += workload.check_run(ctx, work / "round-0")
    except CommandFailed as exc:
        problems.append(str(exc))

    ops = workload.scores + len(workload.commands(ctx, work))
    if args.trace:
        metrics = per_layer(setups, rounds, ctx.extra_traces)
    else:
        metrics = end_to_end(workload, setups, rounds)
    result = {
        "correct": not problems,
        "attempted": ops * (len(rounds) + failed_rounds),
        "failed": ops * failed_rounds,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "problems": problems,
        "round_walls_s": [r.wall_s for r in rounds], "environment": environment(env),
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="pin OpenBLAS/OpenMP threads (default: the program's own policy)")
    parser.add_argument("--workers", type=int, default=None,
                        help=f"CURSOR_WORKERS for sweep (default {SWEEP_WORKERS})")
    args = parser.parse_args(argv)
    if not (SRC / "cursor" / "cli.py").is_file():
        print(f"error: no cursor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the oracle

    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, record = run(args, work)
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    name += f"-blas{args.blas_threads}" if args.blas_threads else ""
    name += f"-workers{args.workers}" if args.workers else ""
    (results / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["environment"], sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
