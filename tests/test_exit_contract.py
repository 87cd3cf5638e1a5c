"""Exit-contract sweep: a mutated document never gets exit 4 or a traceback.

Each case writes the shipped example2 profile or sq_vs_reform acts with one
entry replaced by an edge value (zero, a negative, a zero denominator, a
number at, past or far past the 4300-digit cap, a boolean, null, an empty
list or object) and runs every command on it in process through
`cli.main`.  Whatever the value does to the verdict, the command must end
in exit 0, 1 (a verdict), 2 (a precondition or cap) or 3 (an input error),
never in exit 4, which is reserved for bugs, and never print a traceback.
"""

import contextlib
import io
import json
from collections import Counter

from paretostar.cli import main

VALUES = (0, -1, "1/0", "0/0", "1e4299", "1e-4299", "1e4301", True, None, [], {})

PROFILE_PATHS = (
    ("agents", 0, "utility", "coeffs", 0),
    ("agents", 1, "utility", "constant"),
    ("agents", 1, "beliefs", 0, 0),
    ("agents", 0, "name"),
    ("society",),
    ("society", "utility", "coeffs", 1),
    ("society", "beliefs", 1, 1),
    ("states",),
)
ACTS_PATHS = (
    ("acts", 1, "rows", 0, 0),
    ("acts", 0, "rows", 1),
    ("acts", 1, "name"),
)


def _commands(profile, acts, out):
    """Every command, as argv lists, on one profile and one acts document."""
    checks = [["check", profile, what] for what in ("thm2", "eq1", "corollary2", "seu-existence")]
    checks.append(["check", profile, "pareto-star", "--acts", acts, "--format", "machine"])
    witnesses = [
        ["witness", profile, kind, "--out", out, "--format", "machine"]
        for kind in ("ct-pareto-star", "lemma1", "spurious-unanimity")
    ]
    return checks + witnesses + [
        ["fuzz", profile, "pareto-star", "--trials", "10", "--acts", acts, "--out", out],
        ["plot-data", profile, acts, "--out", out, "--grid", "3"],
    ]


def _set(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def test_edge_values_exit_0_to_3_without_traceback(profiles_dir, tmp_path):
    cases = [("profile", p) for p in PROFILE_PATHS] + [("acts", p) for p in ACTS_PATHS]
    codes = Counter()
    for kind, path in cases:
        source = profiles_dir / ("example2.profile" if kind == "profile" else "sq_vs_reform.acts")
        doc = tmp_path / f"doc.{kind}"
        profile = str(doc if kind == "profile" else profiles_dir / "example2.profile")
        acts = str(doc if kind == "acts" else profiles_dir / "sq_vs_reform.acts")
        for value in VALUES:
            data = json.loads(source.read_text())
            _set(data, path, value)
            doc.write_text(json.dumps(data))
            for argv in _commands(profile, acts, str(tmp_path / "out")):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                err = stderr.getvalue()
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (path, value, argv, err)
                codes[code] += 1
    # The sweep reaches verdicts and caps, not only load errors.
    assert all(codes[code] >= 20 for code in (0, 1, 2, 3)), codes
