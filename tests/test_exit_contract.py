"""Exit-contract sweep: a mutated document never gets exit 4 or a traceback.

Each case writes the shipped example2 or example2_p08 profile, or the
sq_vs_reform acts, with one entry replaced by an edge value (zero, a negative, a zero denominator, a
number at, past or far past the 4300-digit cap, a boolean, null, an empty
list or object) and runs every command on it in process through
`cli.main`.  Whatever the value does to the verdict, the command must end
in exit 0, 1 (a verdict), 2 (a precondition or cap) or 3 (an input error),
never in exit 4, which is reserved for bugs, and never print a traceback.
The four condition checks also run with `--format machine`: whenever a
command with that format ends in a verdict (exit 0 or 1), its output must
parse as JSON, and a witness file written on exit 0 must reload.
"""

import contextlib
import io
import json
from collections import Counter

from paretostar.cli import main
from paretostar.documents import load_json

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
# example2_p08 fails thm2, so its witnesses exist; its society holds one prior.
P08_PATHS = tuple(
    ("society", "beliefs", 0, 1) if p == ("society", "beliefs", 1, 1) else p for p in PROFILE_PATHS
)
ACTS_PATHS = (
    ("acts", 1, "rows", 0, 0),
    ("acts", 0, "rows", 1),
    ("acts", 1, "name"),
)


def _commands(profile, acts, out):
    """Every command, as argv lists, on one profile and one acts document."""
    checks = [
        ["check", profile, what, *fmt]
        for what in ("thm2", "eq1", "corollary2", "seu-existence")
        for fmt in ((), ("--format", "machine"))
    ]
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
    cases = (
        [("example2.profile", p) for p in PROFILE_PATHS]
        + [("example2_p08.profile", p) for p in P08_PATHS]
        + [("sq_vs_reform.acts", p) for p in ACTS_PATHS]
    )
    codes = Counter()
    for name, path in cases:
        kind = name.rsplit(".", 1)[1]
        source = profiles_dir / name
        doc = tmp_path / f"doc.{kind}"
        profile = str(doc if kind == "profile" else profiles_dir / "example2.profile")
        acts = str(doc if kind == "acts" else profiles_dir / "sq_vs_reform.acts")
        out = tmp_path / "out"
        for value in VALUES:
            data = json.loads(source.read_text())
            _set(data, path, value)
            doc.write_text(json.dumps(data))
            for argv in _commands(profile, acts, str(out)):
                out.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                err = stderr.getvalue()
                case = (path, value, argv, err)
                assert code in (0, 1, 2, 3) and "Traceback" not in err, case
                codes[code] += 1
                if code in (0, 1) and "machine" in argv:
                    json.loads(stdout.getvalue())
                    codes["parsed"] += 1
                if code == 0 and argv[0] == "witness":
                    assert isinstance(load_json(out), dict), case
                    codes["reloaded"] += 1
    # The sweep reaches verdicts and caps, not only load errors, and some
    # witnesses are written and reloaded.
    assert all(codes[code] >= 20 for code in (0, 1, 2, 3, "parsed")), codes
    assert codes["reloaded"] >= 10, codes
