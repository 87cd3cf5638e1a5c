"""Command-line front door: check, witness, plot-data, fuzz.

Exit codes: 0 = holds / no violation, 1 = fails / violation found,
2 = precondition unmet (missing society, hypothesis failure, size caps,
nothing to witness), 3 = input error (unreadable or invalid documents,
bad usage).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .axioms import AXIOM_CHECKS
from .characterizations import (
    DEFAULT_COMBO_CAP,
    check_corollary2,
    check_eq1_dght1,
    check_eq4_dght2,
    check_lemma1_superset,
    check_prop1,
    check_prop2,
    check_seu_existence,
    check_thm1_condition,
    check_thm2_condition,
    distinct_prior_pair,
    utilitarian_decompose,
)
from .documents import (
    dumps,
    format_decimal,
    fraction_str,
    load_acts,
    load_profile,
    save_json,
)
from .errors import (
    CapExceededError,
    DocumentError,
    MissingSocietyError,
    ParetoStarError,
    PreconditionError,
)
from .harness import fuzz_axiom
from .preferences import check_c_minimal_agreement, expected_utility
from .witnesses import (
    witness_ct_pareto_star,
    witness_lemma1,
    witness_spurious_unanimity,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3

CONDITION_TAGS = (
    "thm1",
    "thm2",
    "eq1",
    "eq4",
    "lemma1",
    "corollary2",
    "prop1",
    "prop2",
    "seu-existence",
)

WITNESS_KINDS = ("ct-pareto-star", "lemma1", "spurious-unanimity")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DocumentError(message)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(fraction_str(x) for x in v) + ")"


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.format == "machine":
        sys.stdout.write(dumps(payload))
    else:
        for line in human_lines:
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
        lines = [
            f"{what} on ({fname}, {gname}): premise={'holds' if verdict.premise_holds else 'fails'}, "
            f"conclusion={'holds' if verdict.conclusion_holds else 'fails'}",
            "VIOLATION" if verdict.violation else "no violation",
        ]
        _emit(args, payload, lines)
        return EXIT_FAIL if verdict.violation else EXIT_OK

    if what == "seu-existence":
        prior = check_seu_existence(
            [a.beliefs for a in prof.agents], combo_cap=args.combo_cap
        )
        holds = prior is not None
        payload = {"command": "check", "what": what, "holds": holds, "prior": prior}
        lines = [
            f"single-prior society exists: {'yes, e.g. ' + _fmt_vec(prior) if holds else 'no'}"
        ]
        _emit(args, payload, lines)
        return EXIT_OK if holds else EXIT_FAIL

    if what not in CONDITION_TAGS:
        raise DocumentError(f"unknown check tag {what!r}")
    if what == "thm1":
        report = check_thm1_condition(prof)
    elif what == "thm2":
        report = check_thm2_condition(prof, combo_cap=args.combo_cap)
    elif what == "eq1":
        report = check_eq1_dght1(prof)
    elif what == "eq4":
        report = check_eq4_dght2(prof)
    elif what == "lemma1":
        dec = utilitarian_decompose(prof)
        if dec is None:
            raise PreconditionError("no nonnegative taste decomposition exists")
        report = check_lemma1_superset(prof, dec)
    elif what == "corollary2":
        report = check_corollary2(prof, dim_cap=args.dim_cap)
    elif what == "prop1":
        report = check_prop1(prof)
    else:
        report = check_prop2(prof, combo_cap=args.combo_cap)

    payload = {"command": "check", "what": what, "report": report}
    lines = [f"{what}: {'holds' if report.holds else 'FAILS'}"]
    if not report.holds:
        det = report.details
        if "combo" in det:
            lines.append(
                "failing combo: " + " x ".join(_fmt_vec(p) for p in det["combo"])
            )
        if det.get("hyperplane") is not None:
            h = det["hyperplane"]
            lines.append(
                f"separating hyperplane: normal={_fmt_vec(h.normal)}, "
                f"threshold={fraction_str(h.threshold)}"
            )
        if "reason" in det:
            lines.append(f"reason: {det['reason']}")
    _emit(args, payload, lines)
    return EXIT_OK if report.holds else EXIT_FAIL


def cmd_witness(args) -> int:
    prof = load_profile(args.profile)
    kind = args.kind
    if kind == "ct-pareto-star":
        report = check_thm2_condition(prof, combo_cap=args.combo_cap)
        if report.holds:
            print("condition holds; nothing to witness", file=sys.stderr)
            return EXIT_PRECONDITION
        if "combo" not in report.details:
            raise PreconditionError(
                "condition failed on the taste side; no combo witness applies"
            )
        x_star, x_low = check_c_minimal_agreement(prof)
        cert = witness_ct_pareto_star(
            prof, report.details["combo"], report.details["hyperplane"], x_star, x_low
        )
    elif kind == "lemma1":
        dec = utilitarian_decompose(prof)
        if dec is None:
            raise PreconditionError("no nonnegative taste decomposition exists")
        report = check_lemma1_superset(prof, dec)
        if report.holds:
            print("every weighted belief set sits inside the social one; nothing to witness",
                  file=sys.stderr)
            return EXIT_PRECONDITION
        cert = witness_lemma1(
            prof, dec, report.details["agent"], report.details["prior"]
        )
    else:
        dec = utilitarian_decompose(prof)
        if dec is None:
            raise PreconditionError("no nonnegative taste decomposition exists")
        chosen = distinct_prior_pair(prof, dec.support)
        if chosen is None:
            print("no two positively weighted agents hold distinct priors; nothing to witness",
                  file=sys.stderr)
            return EXIT_PRECONDITION
        cert = witness_spurious_unanimity(prof, dec, *chosen)

    save_json(args.out, cert)
    payload = {"command": "witness", "kind": kind, "out": str(args.out), "witness": cert}
    lines = [
        f"wrote {kind} witness to {args.out}",
        f"society margin: {fraction_str(cert.society_margin)}",
    ] + [
        f"agent {am.agent + 1}: prior {_fmt_vec(am.prior)}, margin {fraction_str(am.margin)}"
        for am in cert.per_agent
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_plot_data(args) -> int:
    prof = load_profile(args.profile)
    if prof.states != 2:
        raise PreconditionError("plot data is defined for two-state profiles only")
    if args.grid < 2:
        raise DocumentError("--grid must be at least 2")
    acts = load_acts(args.acts, prof)
    evaluators = [
        (name, agent) for name, agent in zip(prof.agent_names(), prof.agents)
    ]
    if prof.society is not None:
        evaluators.append((prof.society.name or "society", prof.society))

    header = ["p_A", "mark"] + [
        f"{ev_name}:{act_name}" for ev_name, _ in evaluators for act_name, _ in acts
    ]
    rows = []

    def emit_row(pa: Fraction, mark: str) -> None:
        prior = (pa, 1 - pa)
        cells = [format_decimal(pa, args.precision), mark]
        for _, agent in evaluators:
            for _, act in acts:
                cells.append(
                    format_decimal(expected_utility(agent.utility, prior, act), args.precision)
                )
        rows.append(",".join(cells))

    for j in range(args.grid):
        emit_row(Fraction(j, args.grid - 1), "")
    for ev_name, agent in evaluators:
        first_coords = [v[0] for v in agent.beliefs.vertices]
        emit_row(min(first_coords), f"{ev_name}:min")
        emit_row(max(first_coords), f"{ev_name}:max")

    text = "\n".join([",".join(header)] + rows) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    prof = load_profile(args.profile)
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
    if args.out:
        save_json(args.out, report)
    payload = {"command": "fuzz", "report": report}
    lines = [
        f"{args.axiom}: {report.trials} trials, {report.premise_hits} premise hits, "
        f"{len(report.violations)} violation(s)",
        f"digest: {report.digest}",
    ]
    _emit(args, payload, lines)
    return EXIT_FAIL if report.violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paretostar",
        description="Exact checks of Paretian aggregation axioms for multi-prior agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p_check = sub.add_parser("check", help="decide an axiom or representation condition")
    p_check.add_argument("profile")
    p_check.add_argument("what", help="axiom or condition tag")
    p_check.add_argument("--acts", help="acts document (f, g) for axiom checks")
    p_check.add_argument("--combo-cap", type=int, default=DEFAULT_COMBO_CAP)
    p_check.add_argument("--dim-cap", type=int, default=6)
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_wit = sub.add_parser("witness", help="construct a certified counterexample")
    p_wit.add_argument("profile")
    p_wit.add_argument("kind", choices=WITNESS_KINDS)
    p_wit.add_argument("--out", required=True, help="path for the witness document")
    p_wit.add_argument("--combo-cap", type=int, default=DEFAULT_COMBO_CAP)
    common(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_plot = sub.add_parser("plot-data", help="expected-utility curves as CSV")
    p_plot.add_argument("profile")
    p_plot.add_argument("acts")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--grid", type=int, default=101)
    p_plot.add_argument("--precision", type=int, default=6)
    p_plot.set_defaults(func=cmd_plot_data)

    p_fuzz = sub.add_parser("fuzz", help="random act-pair search for violations")
    p_fuzz.add_argument("profile")
    p_fuzz.add_argument("axiom", choices=sorted(AXIOM_CHECKS))
    p_fuzz.add_argument("--trials", type=int, default=1000)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--sampler", choices=("general", "common-taste"), default="general")
    p_fuzz.add_argument("--acts", help="acts document planted as trial 0")
    p_fuzz.add_argument("--out", help="write the machine-readable report here")
    common(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DocumentError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, MissingSocietyError, CapExceededError) as e:
        print(f"precondition unmet: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ParetoStarError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
