"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact; tolerances are zero throughout.
"""

import dataclasses
from fractions import Fraction

from paretostar import (
    Agent,
    GenParams,
    Polytope,
    SplitMix64,
    aggregate_society,
    check_c_diversity,
    check_c_minimal_agreement,
    check_eq4_dght2,
    check_lemma1_superset,
    check_prop1,
    check_prop2,
    check_seu_existence,
    check_thm2_condition,
    cross_validate,
    ct_pareto_check,
    ct_pareto_star_check,
    exchange_pareto_check,
    exchange_pareto_star_check,
    fuzz_axiom,
    membership,
    pareto_star_check,
    random_profile,
    utilitarian_decompose,
    witness_ct_pareto_star,
    witness_lemma1,
    witness_spurious_unanimity,
)
from paretostar.characterizations import combo_meets, distinct_priors, enumerate_combos
from paretostar.cli import main
from paretostar.documents import dumps
from paretostar.geometry import intersect_polytopes
from paretostar.harness import _segment_rows, _table_act
from paretostar.preferences import bewley_incomparable, profile
from paretostar.witnesses import revalidate

from helpers import (
    REFORM,
    REFORM_COMMON,
    STATUS_QUO,
    interior_point,
    interval,
    scenario1,
    scenario2,
    singleton,
)

F = Fraction


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  [{extra}]"
    print(line)
    assert ok, line


def _gen(seed: int, rule: str, *, n=None, m=None, d=None, max_vertices=None):
    return random_profile(
        GenParams(
            seed=seed,
            n=n if n is not None else 2 + seed % 2,
            m=m if m is not None else 2 + (seed // 2) % 2,
            d=d if d is not None else 1 + seed % 3,
            max_vertices=max_vertices if max_vertices is not None else 1 + seed % 3,
            denom_bound=6,
            society_rule=rule,
        )
    )


def test_criterion_01_first_scenario():
    prof = scenario1()
    ok = all(bewley_incomparable(a, STATUS_QUO, REFORM) for a in prof.agents)
    tested = 0
    for beliefs in (
        interval("0.2", "0.8"),
        singleton("0.5"),
        singleton("0.8"),
        interval("0.4", "0.6"),
        interval("0.1", "0.9"),
    ):
        v = pareto_star_check(scenario1(beliefs), STATUS_QUO, REFORM)
        ok = ok and v.premise_holds and not v.conclusion_holds and v.violation
        tested += 1
    _report(1, "two-politician unanimity is spurious", ok, f"{tested} societies")


def test_criterion_02_second_scenario():
    prof = scenario2(singleton("0.8"))
    v = ct_pareto_star_check(prof, REFORM_COMMON, STATUS_QUO)
    ok = v.violation
    rep = check_thm2_condition(prof)
    ok = ok and not rep.holds and "combo" in rep.details
    x_star, x_low = check_c_minimal_agreement(prof)
    cert = witness_ct_pareto_star(
        prof, rep.details["combo"], rep.details["hyperplane"], x_star, x_low
    )
    ok = ok and revalidate(prof, cert)
    ok = ok and ct_pareto_star_check(prof, cert.act_x, cert.act_f).violation
    ok = ok and check_eq4_dght2(prof).holds
    _report(2, "singleton society breaks the combo condition, not the hull bound", ok)


def test_criterion_03_seu_existence_window():
    sets = [interval("0.6", "0.8"), interval("0.2", "0.3")]
    p = check_seu_existence(sets)
    ok = p is not None and F(3, 10) <= p[0] <= F(3, 5)
    for combo in enumerate_combos(sets):
        ok = ok and membership(p, Polytope.from_generators(list(combo)))
    _report(3, "single-prior society exists in the overlap window", ok, f"p_A={p[0]}")


def test_criterion_04_thm2_equivalence_at_desk_scale():
    rules = ("minkowski", "hull-union", "perturbed")
    count = consistent = passes = fails = 0
    seed = 0
    while count < 200:
        prof = _gen(seed, rules[seed % 3], max_vertices=1 + seed % 3)
        seed += 1
        if check_c_minimal_agreement(prof) is None:
            continue
        cv = cross_validate(prof, "thm2", trials=1000, seed=seed)
        count += 1
        consistent += cv.verdict == "CONSISTENT"
        passes += cv.checker_holds
        fails += not cv.checker_holds
    _report(
        4,
        "combo condition matches common-taste fuzzing on 200 random profiles",
        consistent == count == 200,
        f"{passes} pass-branch / {fails} witness-branch",
    )


def test_criterion_05_constructions_validate():
    spurious = 0
    seed = 5000
    ok = True
    while spurious < 50:
        n = 2 + seed % 2
        prof = _gen(seed, "minkowski", n=n, d=n, m=2 + seed % 2, max_vertices=3)
        seed += 1
        if check_c_diversity(prof) is None:
            continue
        pair = distinct_priors(prof.agents[0].beliefs, prof.agents[1].beliefs)
        if pair is None:
            continue
        dec = utilitarian_decompose(prof)
        cert = witness_spurious_unanimity(prof, dec, 0, 1, *pair)
        ok = ok and revalidate(prof, cert)
        ok = ok and pareto_star_check(prof, cert.act_x, cert.act_f).violation
        spurious += 1

    escapes = 0
    seed = 6000
    while escapes < 50:
        n = 2 + seed % 2
        prof = _gen(seed, "perturbed", n=n, d=n, m=2 + seed % 2, max_vertices=3)
        seed += 1
        if check_c_diversity(prof) is None:
            continue
        dec = utilitarian_decompose(prof)
        rep = check_lemma1_superset(prof, dec)
        if rep.holds:
            continue
        det = rep.details
        cert = witness_lemma1(prof, dec, det["agent"], det["prior"], det["hyperplane"])
        ok = ok and revalidate(prof, cert)
        ok = ok and pareto_star_check(prof, cert.act_x, cert.act_f).violation
        escapes += 1
    _report(
        5,
        "counterexample constructions certify violations on random profiles",
        ok,
        f"{spurious} cancellation pairs, {escapes} belief escapes",
    )


def test_criterion_06_compatible_rules_pass_both_bounds():
    rng = SplitMix64(777)
    count = 0
    seed = 9000
    ok = True
    while count < 100:
        base = _gen(seed, "none", max_vertices=1 + seed % 2)
        seed += 1
        if check_c_minimal_agreement(base) is None:
            continue
        n = base.n
        alpha = tuple(F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n))
        beta = F(rng.randint(-3, 3))
        weights = [rng.randint(1, 6) for _ in range(n)]
        gamma = tuple(F(w, sum(weights)) for w in weights)
        for rule, kwargs in (("minkowski", {"gamma": gamma}), ("hull-union", {})):
            soc = aggregate_society(base, alpha, beta, rule, **kwargs)
            prof = dataclasses.replace(base, society=soc)
            ok = ok and check_eq4_dght2(prof).holds and check_thm2_condition(prof).holds
        count += 1
    _report(6, "weighted-average and pooled societies satisfy both bounds", ok, f"{count} profiles x 2 rules")


def test_criterion_07_corollary_consequences():
    rng = SplitMix64(888)
    ok = True

    common_checked = 0
    seed = 12000
    while common_checked < 50:
        base = _gen(seed, "none", m=2 + seed % 2, d=2, max_vertices=3)
        seed += 1
        m = base.states
        common = Polytope.from_generators(
            [rng.simplex_point(m, 6) for _ in range(1 + rng.randint(1, 3))]
        )
        agents = tuple(Agent(a.utility, common, a.name) for a in base.agents)
        base_common = dataclasses.replace(base, agents=agents)
        if check_c_minimal_agreement(dataclasses.replace(base_common, society=None)) is None:
            continue
        alpha = tuple(F(rng.randint(1, 6)) for _ in range(base.n))
        candidates = [
            common,
            Polytope.from_generators([rng.simplex_point(m, 6) for _ in range(2)]),
        ]
        for P0 in candidates:
            soc = aggregate_society(base_common, alpha, 0, "given", vertices=P0.vertices)
            prof = dataclasses.replace(base_common, society=soc)
            both = check_thm2_condition(prof).holds and check_eq4_dght2(prof).holds
            same = all(membership(v, common) for v in P0.vertices) and all(
                membership(v, P0) for v in common.vertices
            )
            ok = ok and (both == same)
        common_checked += 1

    inter_checked = 0
    seed = 15000
    while inter_checked < 50:
        prof = _gen(seed, ("minkowski", "hull-union")[seed % 2], m=2 + seed % 2, max_vertices=2)
        seed += 1
        if check_c_minimal_agreement(prof) is None:
            continue
        if not check_thm2_condition(prof).holds:
            continue
        inter = intersect_polytopes([a.beliefs for a in prof.agents])
        if inter is None:
            continue
        ok = ok and all(membership(v, prof.society.beliefs) for v in inter.vertices)
        inter_checked += 1
    _report(
        7,
        "shared-set equivalence and intersection containment",
        ok,
        f"{common_checked} shared-set profiles, {inter_checked} intersections",
    )


def test_criterion_08_exchange_and_delegation():
    ok = True
    profs = [scenario1(), scenario2(singleton("0.8")), scenario2(interval("0.3", "0.6"))]
    seed = 18000
    while len(profs) < 23:
        prof = _gen(seed, ("minkowski", "perturbed")[seed % 2])
        seed += 1
        if check_c_minimal_agreement(prof) is None:
            continue
        profs.append(prof)

    pairs_checked = 0
    for i, prof in enumerate(profs):
        rng = SplitMix64(i)
        table = _segment_rows(check_c_minimal_agreement(prof), 6)
        for _ in range(20):
            f = _table_act(rng, prof.states, table)[0]
            g = _table_act(rng, prof.states, table)[0]
            if exchange_pareto_check(prof, f, g).premise_holds:
                ok = ok and ct_pareto_check(prof, f, g).premise_holds
            if exchange_pareto_star_check(prof, f, g).premise_holds:
                ok = ok and ct_pareto_star_check(prof, f, g).premise_holds
            pairs_checked += 1

    for prof in profs:
        ok = ok and check_prop1(prof).holds == check_eq4_dght2(prof).holds
        ok = ok and check_prop2(prof).holds == check_thm2_condition(prof).holds
    _report(
        8,
        "exchange premises imply common-taste premises; propositions delegate",
        ok,
        f"{pairs_checked} segment pairs, {len(profs)} profiles",
    )


def test_criterion_09_interior_combo_guard():
    rng = SplitMix64(999)
    count = 0
    seed = 20000
    ok = True
    while count < 100:
        prof = _gen(seed, ("minkowski", "hull-union")[seed % 2], max_vertices=1 + seed % 3)
        seed += 1
        if check_c_minimal_agreement(prof) is None:
            continue
        if not check_thm2_condition(prof).holds:
            continue
        P0 = prof.society.beliefs
        for _ in range(1000):
            combo = tuple(interior_point(rng, a.beliefs) for a in prof.agents)
            if combo_meets(combo, P0) is None:
                ok = False
                break
        count += 1
        if not ok:
            break
    _report(9, "interior prior choices never escape the social set", ok, f"{count} profiles x 1000 combos")


def test_criterion_10_determinism(tmp_path, profiles_dir):
    ok = True
    params = GenParams(seed=17, n=3, m=3, d=2, max_vertices=3, society_rule="perturbed")
    ok = ok and random_profile(params) == random_profile(params)

    prof = scenario1()
    r1 = fuzz_axiom(prof, "pareto-star", 200, seed=12)
    r2 = fuzz_axiom(prof, "pareto-star", 200, seed=12)
    ok = ok and dumps(r1) == dumps(r2)

    cv1 = cross_validate(scenario2(singleton("0.8")), "thm2", trials=100, seed=4)
    cv2 = cross_validate(scenario2(singleton("0.8")), "thm2", trials=100, seed=4)
    ok = ok and dumps(cv1) == dumps(cv2)

    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(
            [
                "plot-data",
                str(profiles_dir / "example1.profile"),
                str(profiles_dir / "sq_vs_reform.acts"),
                "--out",
                str(path),
            ]
        )
        outs.append(path.read_bytes())
    ok = ok and outs[0] == outs[1]

    wits = []
    for name in ("w1.json", "w2.json"):
        path = tmp_path / name
        main(
            [
                "witness",
                str(profiles_dir / "example2_p08.profile"),
                "ct-pareto-star",
                "--out",
                str(path),
            ]
        )
        wits.append(path.read_bytes())
    ok = ok and wits[0] == wits[1]
    _report(10, "fixed seeds give byte-identical machine reports", ok)
