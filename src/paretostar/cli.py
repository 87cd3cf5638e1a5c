"""Command-line front door: check, witness, plot-data, fuzz.

Exit codes: 0 = holds / no violation, 1 = fails / violation found,
2 = precondition unmet (missing society, hypothesis failure, size caps,
nothing to witness), 3 = input error (unreadable or invalid documents,
bad usage), 4 = internal error (a derived certificate or invariant failed
its own re-check; a bug, not a verdict).
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path

from .axioms import AXIOM_CHECKS
from .characterizations import (
    CONDITION_CHECKS,
    check_seu_existence,
    distinct_prior_pair,
    required_decomposition,
)
from .documents import decimal_cell, dumps, jsonable, load_acts, load_profile, render
from .errors import (
    CapExceededError,
    DocumentError,
    InternalError,
    MissingSocietyError,
    ParetoStarError,
    PreconditionError,
)
from .geometry import DIGIT_CAP, vec_parts
from .harness import SAMPLER_TAGS, fuzz_axiom
from .preferences import utility_profile
from .witnesses import witness_for

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# `plot-data` keeps every row and `fuzz` every violation until it writes, so
# the grid and the trial count have fixed bounds.
GRID_CAP = 100_001
TRIALS_CAP = 100_000


# Witness kind -> (report producer, message when the report holds).  A failed
# report is turned into its counterexample by `witness_for`.
WITNESSES = {
    "ct-pareto-star": (CONDITION_CHECKS["thm2"], "condition holds; nothing to witness"),
    "lemma1": (
        CONDITION_CHECKS["lemma1"],
        "every weighted belief set sits inside the social one; nothing to witness",
    ),
    "spurious-unanimity": (
        lambda prof: distinct_prior_pair(prof, required_decomposition(prof)),
        "no two positively weighted agents hold distinct priors; nothing to witness",
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DocumentError(message)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _emit(args, payload: dict, human_lines, out_key=None) -> None:
    """Print the payload, after saving its `out_key` entry to ``args.out`` if given.

    The payload is serialized before anything is written, so a number too
    long to write back raises CapExceededError (exit 2) in both formats and
    leaves no partial file.  The saved entry is converted once; both texts
    are rendered from that tree.  `human_lines()` gives the human output.
    """
    if out_key is None:
        text = dumps(payload)
    else:
        doc = jsonable(payload[out_key])
        text = dumps({**payload, out_key: doc})  # doc passes through unchanged
        Path(args.out).write_text(render(doc), encoding="utf-8")
    if args.format == "machine":
        sys.stdout.write(text)
    else:
        for line in human_lines():
            print(line)


def cmd_check(args) -> int:
    prof = load_profile(args.profile)
    what = args.what
    if what in AXIOM_CHECKS:
        if not args.acts:
            raise DocumentError("axiom checks need --acts with at least two acts")
        acts = load_acts(args.acts, prof)
        if len(acts) < 2:
            raise DocumentError("acts file must contain at least two acts (f, g)")
        (fname, f), (gname, g) = acts[0], acts[1]
        verdict = AXIOM_CHECKS[what](prof, f, g)
        payload = {"command": "check", "what": what, "f": fname, "g": gname, "verdict": verdict}
        _emit(args, payload, lambda: [
            f"{what} on ({fname}, {gname}): premise={'holds' if verdict.premise_holds else 'fails'}, "
            f"conclusion={'holds' if verdict.conclusion_holds else 'fails'}",
            "VIOLATION" if verdict.violation else "no violation",
        ])
        return EXIT_FAIL if verdict.violation else EXIT_OK

    if what == "seu-existence":
        prior = check_seu_existence([a.beliefs for a in prof.agents])
        holds = prior is not None
        payload = {"command": "check", "what": what, "holds": holds, "prior": prior}
        _emit(args, payload, lambda: [
            f"single-prior society exists: {'yes, e.g. ' + _fmt_vec(prior) if holds else 'no'}"
        ])
        return EXIT_OK if holds else EXIT_FAIL

    report = CONDITION_CHECKS[what](prof)

    payload = {"command": "check", "what": what, "report": report}

    def lines():
        yield f"{what}: {'holds' if report.holds else 'FAILS'}"
        if report.holds:
            return
        det = report.details
        if "combo" in det:
            yield "failing combo: " + " x ".join(_fmt_vec(p) for p in det["combo"])
        if det.get("hyperplane") is not None:
            h = det["hyperplane"]
            yield f"separating hyperplane: normal={_fmt_vec(h.normal)}, threshold={h.threshold}"
        if "reason" in det:
            yield f"reason: {det['reason']}"

    _emit(args, payload, lines)
    return EXIT_OK if report.holds else EXIT_FAIL


def cmd_witness(args) -> int:
    prof = load_profile(args.profile)
    kind = args.kind
    produce, nothing = WITNESSES[kind]
    report = produce(prof)
    if report.holds:
        print(nothing, file=sys.stderr)
        return EXIT_PRECONDITION
    cert = witness_for(prof, report)
    payload = {"command": "witness", "kind": kind, "out": str(args.out), "witness": cert}
    _emit(args, payload, lambda: [
        f"wrote {kind} witness to {args.out}",
        f"society margin: {cert.society_margin}",
    ] + [
        f"agent {am.agent + 1}: prior {_fmt_vec(am.prior)}, margin {am.margin}"
        for am in cert.per_agent
    ], out_key="witness")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    prof = load_profile(args.profile)
    if prof.states != 2:
        raise PreconditionError("plot data is defined for two-state profiles only")
    if args.grid < 2:
        raise DocumentError("--grid must be at least 2")
    if args.grid > GRID_CAP:
        raise DocumentError(f"--grid must be at most {GRID_CAP}")
    if args.precision < 0:
        raise DocumentError("--precision must be nonnegative")
    if args.precision > DIGIT_CAP:
        raise DocumentError(f"--precision must be at most {DIGIT_CAP}")
    acts = load_acts(args.acts, prof)
    evaluators = [
        (name, agent) for name, agent in zip(prof.agent_names(), prof.agents)
    ]
    if prof.society is not None:
        evaluators.append((prof.society.name or "society", prof.society))

    header = ["p_A", "mark"] + [
        f"{ev_name}:{act_name}" for ev_name, _ in evaluators for act_name, _ in acts
    ]
    # Each curve is the line EU(p_A) = u(f(B)) + p_A * (u(f(A)) - u(f(B))),
    # the value of expected_utility under the prior (p_A, 1 - p_A), kept as
    # integers (a, s, e): at p_A = n/d it is (a * d + s * n) / (e * d).
    curves = []
    for _, agent in evaluators:
        for _, act in acts:
            u_a, u_b = utility_profile(agent.utility, act)
            (a, s), e = vec_parts((u_b, u_a - u_b))
            curves.append((a, s, e))
    digits, unit = args.precision, 10**args.precision
    rows = []

    def emit_row(n: int, d: int, mark: str) -> None:
        cells = [decimal_cell(n, d, digits, unit), mark]
        cells += [decimal_cell(a * d + s * n, e * d, digits, unit) for a, s, e in curves]
        rows.append(",".join(cells))

    for j in range(args.grid):
        emit_row(j, args.grid - 1, "")
    for ev_name, agent in evaluators:
        first_coords = [v[0] for v in agent.beliefs.vertices]
        for mark, pa in (("min", min(first_coords)), ("max", max(first_coords))):
            emit_row(pa.numerator, pa.denominator, f"{ev_name}:{mark}")

    text = "\n".join([",".join(header)] + rows) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    prof = load_profile(args.profile)
    if args.trials < 0:
        raise DocumentError("--trials must be nonnegative")
    if args.trials > TRIALS_CAP:
        raise DocumentError(f"--trials must be at most {TRIALS_CAP}")
    if not 0 <= args.seed < 2**64:
        raise DocumentError("--seed must be in [0, 2**64)")
    planted = ()
    if args.acts:
        acts = load_acts(args.acts, prof)
        if len(acts) < 2:
            raise DocumentError("planted acts file must contain at least two acts")
        planted = ((acts[0][1], acts[1][1]),)
    report = fuzz_axiom(
        prof,
        args.axiom,
        args.trials,
        sampler=args.sampler,
        seed=args.seed,
        planted=planted,
    )
    payload = {"command": "fuzz", "report": report}
    _emit(args, payload, lambda: [
        f"{args.axiom}: {report.trials} trials, {report.premise_hits} premise hits, "
        f"{len(report.violations)} violation(s)",
        f"digest: {report.digest}",
    ], out_key="report" if args.out else None)
    return EXIT_FAIL if report.violations else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing keeps no state on it)."""
    parser = _Parser(
        prog="paretostar",
        description="Exact checks of Paretian aggregation axioms for multi-prior agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p_check = sub.add_parser("check", help="decide an axiom or representation condition")
    p_check.add_argument("profile")
    p_check.add_argument("what", choices=(*AXIOM_CHECKS, *CONDITION_CHECKS, "seu-existence"),
                         help="axiom or condition tag")
    p_check.add_argument("--acts", help="acts document (f, g) for axiom checks")
    common(p_check)

    p_wit = sub.add_parser("witness", help="construct a certified counterexample")
    p_wit.add_argument("profile")
    p_wit.add_argument("kind", choices=tuple(WITNESSES))
    p_wit.add_argument("--out", required=True, help="path for the witness document")
    common(p_wit)

    p_plot = sub.add_parser("plot-data", help="expected-utility curves as CSV")
    p_plot.add_argument("profile")
    p_plot.add_argument("acts")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--grid", type=int, default=101)
    p_plot.add_argument("--precision", type=int, default=6)

    p_fuzz = sub.add_parser("fuzz", help="random act-pair search for violations")
    p_fuzz.add_argument("profile")
    p_fuzz.add_argument("axiom", choices=sorted(AXIOM_CHECKS))
    p_fuzz.add_argument("--trials", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--sampler", choices=SAMPLER_TAGS, default="general")
    p_fuzz.add_argument("--acts", help="acts document planted as trial 0")
    p_fuzz.add_argument("--out", help="write the machine-readable report here")
    common(p_fuzz)
    return parser


# Subcommand -> name of its handler in this module, looked up when `main` is
# called, so a rebound `cmd_*` is still reached.
_COMMANDS = {
    "check": "cmd_check",
    "witness": "cmd_witness",
    "plot-data": "cmd_plot_data",
    "fuzz": "cmd_fuzz",
}


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process."""
    try:
        args = build_parser().parse_args(argv)
        return globals()[_COMMANDS[args.command]](args)
    except DocumentError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, MissingSocietyError, CapExceededError) as e:
        print(f"precondition unmet: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParetoStarError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        # Any other escape is a bug, never a "fails" verdict.
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
