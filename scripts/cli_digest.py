"""Print one SHA-256 over the outputs of a fixed matrix of `cursor` commands.

Two trees that print the same digest write the same files, byte for byte, and
print the same stdout, stderr and exit code for every command below.  From a
fresh working directory, with relative paths, it runs in one process:
`generate` twice (CSV; binary with a saturating link), then on the seed-41
CSV dataset `score`, `rank`, `rank --sizes`, `ablate --data` (ranking mode),
`ablate --plan` (optimization mode), `optimize`, `recover` and `report`;
`ablate --plan` (ranking mode) on a generator plan, whose plan.json carries
the generator defaults; four refusals (`ablate` with both and with neither of
--plan/--data, `report` without inputs, `rank --replicates` without --sizes);
and `--help` of every command.

    PYTHONPATH=src OMP_NUM_THREADS=1 python scripts/cli_digest.py [--keep DIR]

The digest covers every directory and file under the working directory
(manifests and dataset memos included) and each command's argv, exit code,
stdout and stderr.  Manifests record the Python, numpy and BLAS versions, the
thread variables and the CPU count, so compare digests taken on one machine
under the same environment.  --keep DIR runs in DIR (made if absent, and it
must be empty) and leaves the outputs there, with commands.log, for diff -r.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from cursor.cli import COMMANDS, main as cursor_main

SEED = "41"
DATA = "data/dataset.csv"
SMALL = ["--L", "8", "--d-max", "9", "--folds", "3", "--seed", SEED]
GENERATE = ["generate", "--trajectories", "12", "--points", "5", "--latent-dim", "6",
            "--response-dim", "10", "--k-signal", "2", "--nuisance-rank", "2",
            "--noise-sigma", "0.5", "--d-max", "9", "--spacing", "uniform", "--seed", SEED]
PLAN = {
    "dataset": {"file": DATA},
    "hypothesis_set": {"count": 8, "d_max": 9},
    "cv": {"n_folds": 3},
    "ablation_thresholds": [1, 100],
    "optimization": {"budget": 24, "bounds": 10, "population_size": 4,
                     "reduce_responses": 2, "reduce_latents": 2},
    "targets": 1,
    "replicates": 1,
    "master_seed": 41,
}
PLAN_GEN = {
    "dataset": {"generator": {"latent_dim": 6, "response_dim": 10, "trajectories": 4,
                              "points": 5, "k_signal": 2, "nuisance_rank": 2, "d_max": 9}},
    "hypothesis_set": {"count": 8, "d_max": 9},
    "cv": {"n_folds": 3},
    "ablation_thresholds": [1, 100],
    "targets": 1,
    "replicates": 1,
    "master_seed": 41,
}
MATRIX = [
    [*GENERATE, "-o", "data"],
    [*GENERATE, "--link", "saturating", "--tau", "5", "--format", "bin", "-o", "data_bin"],
    ["score", "--data", DATA, "--hypothesis", "0,0,0,0,0,0", "--folds", "3", "--seed", SEED,
     "-o", "score"],
    ["rank", "--data", DATA, *SMALL, "-o", "rank"],
    ["rank", "--data", DATA, *SMALL, "--sizes", "20,60", "--replicates", "2", "-o", "sweep"],
    ["ablate", "--data", DATA, *SMALL, "--thresholds", "0,1,100", "-o", "ablate_ranking"],
    ["ablate", "--plan", "plan.json", "--mode", "optimization", "-o", "ablate_optimization"],
    ["optimize", "--data", DATA, "--budget", "24", "--bounds", "10", "--population", "4",
     "--reduce-responses", "2", "--reduce-latents", "2", "--folds", "3", "--seed", SEED,
     "-o", "optimize"],
    ["recover", "--data", DATA, "--zhat", "optimize/zhat.json", "-o", "recover"],
    ["report", "rank", "sweep", "optimize", "ablate_ranking", "ablate_optimization",
     "-o", "report"],
    ["ablate", "--plan", "plan_gen.json", "-o", "ablate_generator"],
    ["ablate", "--plan", "plan.json", "--data", DATA, "-o", "refused_both"],
    ["ablate", "-o", "refused_neither"],
    ["report", "-o", "refused_report"],
    ["rank", "--data", DATA, *SMALL, "--replicates", "2", "-o", "refused_replicates"],
    *[[command, "--help"] for command in COMMANDS],
]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cursor_main(argv)
    return code, out.getvalue(), err.getvalue()


def _feed(acc, *parts) -> None:
    # length-prefixed, so no two different sequences hash alike
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        acc.update(len(data).to_bytes(8, "little") + data)


def digest(work: Path) -> tuple[str, list[dict]]:
    """Run the matrix in work, then hash its results and the tree it left."""
    acc = hashlib.sha256()
    (work / "plan.json").write_text(json.dumps(PLAN, indent=2, sort_keys=True))
    (work / "plan_gen.json").write_text(json.dumps(PLAN_GEN, indent=2, sort_keys=True))
    log = []
    for argv in MATRIX:
        code, out, err = run(argv)
        log.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        _feed(acc, "command", json.dumps(argv), code, out, err)
    for path in sorted(work.rglob("*")):
        rel = path.relative_to(work).as_posix()
        if path.is_dir():
            _feed(acc, "dir", rel)
        else:
            _feed(acc, "file", rel, path.read_bytes())
    return acc.hexdigest(), log


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", metavar="DIR", help="run in DIR and leave the outputs there")
    args = parser.parse_args()
    # argparse wraps --help at the terminal width; fix it so help text hashes alike
    os.environ["COLUMNS"] = "80"
    start = os.getcwd()
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            work = Path(args.keep).resolve()
            work.mkdir(parents=True, exist_ok=True)
            if any(work.iterdir()):
                parser.error(f"{work} is not empty")
        os.chdir(work)
        try:
            value, log = digest(work)
        finally:
            os.chdir(start)
        if args.keep is not None:
            with open(work / "commands.log", "w", encoding="utf-8") as fh:
                for entry in log:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
