"""The benchmark's tracer still finds every entry point its metrics need.

perfbench/tracer.py wraps cursor functions by name, and a metric whose span
is not installed is silently reported as absent.  The probe installs the
tracer in a fresh interpreter (it patches modules and numpy in place) and
lists the spans that a BENCHMARK.json per-layer metric needs but that were
not installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import layers, tracer
t = tracer.Tracer()
tracer.install(t)
t.installed.append("cli.main")  # tracer.main adds this span around the command
wanted = set(json.loads(sys.argv[1]))
needs = {span for table in (layers.ROUND_METRICS, layers.SETUP_METRICS)
         for name, (_, _, spans, _) in table.items() if name in wanted for span in spans}
print(json.dumps(sorted(needs - set(t.installed))))
"""


def test_tracer_installs_every_span_a_benchmark_metric_needs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [metric["name"] for metric in bench["per_layer"]]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(wanted)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
