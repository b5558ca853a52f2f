"""Per-hypothesis scores stay within 1e-12 of the committed scorer matrix.

scripts/score_digest.py defines the matrix (ols, ridge and dummy; the
aligned branch kept or shuffled; Gram, SVD and mixed fold stacks; reference
subsamples), and its --save wrote scripts/score_matrix.json.
A change that moves scores on purpose rewrites that file the same way, so the
move is a reviewed diff.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "score_digest.py"


def _score_digest():
    spec = importlib.util.spec_from_file_location("score_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scorer_matrix_matches_committed_values():
    # per-fold RMSEs and scores within 1e-12 relative; the flags, the cases
    # and the number of reports and folds exactly
    digest = _score_digest()
    saved = json.loads(digest.MATRIX_FILE.read_text(encoding="utf-8"))["matrix"]
    values = digest.matrix_values()
    worst = digest.largest_difference(saved, values)
    assert worst <= digest.TOLERANCE, f"largest relative difference {worst:.3g}"


def test_largest_difference_tells_rounding_from_change():
    digest = _score_digest()
    old = [{"case": "a", "score": 1.0, "flag": False, "folds": [0.5, float("nan")]}]
    assert digest.largest_difference(old, [dict(old[0], score=1.0 + 1e-15)]) < 1e-12
    assert digest.largest_difference(old, [dict(old[0], score=1.0 + 1e-9)]) > digest.TOLERANCE
    assert digest.largest_difference(old, old) == 0.0
    for new in ([], [dict(old[0], flag=True)], [dict(old[0], case="b")],
                [dict(old[0], folds=[0.5])], [dict(old[0], folds=[0.5, 0.5])],
                [dict(old[0], score=float("inf"))]):
        assert digest.largest_difference(old, new) == float("inf")
