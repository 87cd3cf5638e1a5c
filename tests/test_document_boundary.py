"""Integer routes at the CLI's document boundary against their `Fraction` oracles.

`documents.decimal_cell` rounds num/den by one divmod, ties to even, and
`plot-data` feeds it each curve as an integer line; `helpers.plot_oracle`
builds the same rows from `Fraction` lines and `round(Fraction)`.
`validate_profile` reads each belief vertex off `Polytope.cleared`;
`helpers.validate_profile_oracle` sums `Fraction`s.  A profile or acts
document converts each distinct number string once, and a second document
converts its own strings again.
"""

import collections
import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import format_decimal_oracle, plot_oracle, validate_profile_oracle
from paretostar import Agent, AffineUtility, Polytope, Profile, documents
from paretostar.cli import main
from paretostar.documents import (
    acts_from_dict,
    decimal_cell,
    format_decimal,
    load_acts,
    load_profile,
    profile_from_dict,
)
from paretostar.errors import DocumentError
from paretostar.harness import GenParams, random_profile
from paretostar.preferences import utility_profile, validate_profile

F = Fraction


# ---------------------------------------------------------------------------
# CSV cells
# ---------------------------------------------------------------------------

def _tie(x: Fraction, digits: int) -> bool:
    return (x * 10**digits).denominator == 2


def test_decimal_cell_matches_round_on_ties_and_signs():
    """Exact ties at 0-3 places round to the even neighbour, both signs, in
    lowest terms and not; other values round to the nearest."""
    rng = random.Random(20261021)
    seen = collections.Counter()
    for digits in range(4):
        unit = 10**digits
        ties = [F(2 * m + 1, 2 * unit) for m in range(-40, 40)]
        others = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(400)]
        for x in ties + others + [F(0), F(1), F(-1)]:
            expected = format_decimal_oracle(x, digits)
            assert format_decimal(x, digits) == expected, (x, digits)
            for k in (1, 3, 10**digits + 7):
                assert decimal_cell(x.numerator * k, x.denominator * k, digits, unit) == expected
            if _tie(x, digits):
                up = round(x * unit) > x * unit
                seen[digits, "up" if up else "down", x < 0] += 1
    assert len(seen) == 4 * 2 * 2 and min(seen.values()) >= 10, seen


TIE_PROFILE = {
    "states": 2,
    "outcome_dim": 2,
    "agents": [
        {"name": "Ann", "utility": {"coeffs": [1, 0]},
         "beliefs": [["1/3", "2/3"], ["5/7", "2/7"]]},
        {"name": "Bob", "utility": {"coeffs": [0, 1]}, "beliefs": [["0.2", "0.8"]]},
    ],
    "society": {"utility": {"coeffs": ["3/4", "3/4"], "constant": "1/16"},
                "beliefs": [["1/8", "7/8"], ["0.5", "0.5"], ["0.9", "0.1"]]},
}

# Ann reads an act's first outcome coordinate and Bob its second, so each
# act's rows put values that are ties at 0-3 places on their curves.
TIE_ACTS = {
    "acts": [
        {"name": "halves", "rows": [["5/2", "-1/2"], ["-3/2", "3/2"]]},
        {"name": "tenths", "rows": [["0.15", "0.35"], ["-0.25", "-0.35"]]},
        {"name": "hundredths", "rows": [["0.375", "0.135"], ["-0.125", "-0.135"]]},
        {"name": "thousandths", "rows": [["0.0625", "1.0005"], ["-0.0015", "-0.0025"]]},
        {"name": "zero", "rows": [[0, 0], [0, 0]]},
    ]
}


@pytest.fixture
def tie_documents(tmp_path):
    prof_path, acts_path = tmp_path / "ties.profile", tmp_path / "ties.acts"
    prof_path.write_text(json.dumps(TIE_PROFILE))
    acts_path.write_text(json.dumps(TIE_ACTS))
    return prof_path, acts_path


def _plot(tmp_path, prof_path, acts_path, *options) -> str:
    out = tmp_path / "curves.csv"
    assert main(["plot-data", str(prof_path), str(acts_path), "--out", str(out), *options]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("precision", [0, 1, 2, 3])
@pytest.mark.parametrize("grid", [2, 3, 5, 11, 101])
def test_plot_cells_match_fraction_route(tie_documents, tmp_path, grid, precision):
    """Every row, the :min/:max mark rows at each evaluator's belief end
    points included, equals the `Fraction` route byte for byte."""
    prof_path, acts_path = tie_documents
    text = _plot(tmp_path, prof_path, acts_path, "--grid", str(grid), "--precision", str(precision))
    prof = load_profile(prof_path)
    acts = load_acts(acts_path, prof)
    header, rows = plot_oracle(prof, acts, grid, precision)
    assert text == "\n".join([header, *rows.values()]) + "\n"
    assert {"Ann:min", "Ann:max", "Bob:min", "society:max"} <= set(rows)
    assert any(",-" in line for line in rows.values())


def test_tie_documents_reach_ties_at_every_precision(tie_documents):
    """The crafted curves hit exact ties at each of 0-3 places on the grids
    above, with both rounding directions."""
    prof = load_profile(tie_documents[0])
    acts = load_acts(tie_documents[1], prof)
    seen = collections.Counter()
    evaluators = [*prof.agents, prof.society]
    for precision in range(4):
        for grid in (2, 3, 5, 11, 101):
            for j in range(grid):
                pa = F(j, grid - 1)
                for agent in evaluators:
                    for _, f in acts:
                        u_a, u_b = utility_profile(agent.utility, f)
                        x = u_b + pa * (u_a - u_b)
                        if _tie(x, precision):
                            up = round(x * 10**precision) > x * 10**precision
                            seen[(precision, "up" if up else "down", x < 0)] += 1
    for precision in range(4):
        for direction in ("up", "down"):
            assert seen[(precision, direction, False)] and seen[(precision, direction, True)], seen


# sha256 of `plot-data profiles/example1.profile profiles/sq_vs_reform.acts
# --grid 100001 --precision 9`, written by the `Fraction` route.
LARGE_GRID_SHA256 = "ca6f153767e4beaa06107604e5f152a4b577eeb799812864e6055be1cd5bd16b"


def test_largest_grid_matches_fraction_route(profiles_dir, tmp_path):
    """--grid 100001: the pinned digest, and every 997th row, both ends and
    the mark rows against the oracle."""
    prof_path = profiles_dir / "example1.profile"
    acts_path = profiles_dir / "sq_vs_reform.acts"
    text = _plot(tmp_path, prof_path, acts_path, "--grid", "100001", "--precision", "9")
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_GRID_SHA256
    prof = load_profile(prof_path)
    picked = [*range(0, 100001, 997), 100000]
    header, rows = plot_oracle(prof, load_acts(acts_path, prof), 100001, 9, rows=picked)
    lines = text.splitlines()
    assert lines[0] == header and len(lines) == 1 + 100001 + 6
    for key, line in rows.items():
        if isinstance(key, int):
            assert lines[1 + key] == line, key
        else:
            assert line in lines[100002:], key


# ---------------------------------------------------------------------------
# Profile validation
# ---------------------------------------------------------------------------

def _agent(name, vertices, coeffs=(1, 0)):
    return Agent(AffineUtility(tuple(F(c) for c in coeffs)), Polytope(tuple(vertices)), name)


CRAFTED = {
    "negative-entry": [(F(-1, 3), F(4, 3)), (F(1, 2), F(1, 2))],
    "sum-over-by-one-over-den": [(F(1, 6), F(1))],
    "sum-under-by-one-over-den": [(F(1, 6), F(2, 3))],
    "mixed-denominators": [(F(1, 6), F(5, 6)), (F(2, 7), F(5, 7)), (F(0), F(1))],
    "too-long": [(F(1, 3), F(1, 3), F(1, 3))],
    "too-short": [(F(1),)],
    "int-entries": [(0, 1), (1, 0), (2, -1)],
}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_validate_crafted_vertices_match_fraction_route(case):
    bad = _agent("Ann", CRAFTED[case])
    good = _agent("Bob", [(F(1, 5), F(4, 5))], coeffs=(0, 1))
    for prof in (Profile(2, 2, (bad, good)), Profile(2, 2, (good, good), bad),
                 Profile(2, 2, (bad, bad), bad)):
        assert validate_profile(prof) == validate_profile_oracle(prof)
    problems = validate_profile(Profile(2, 2, (bad, good)))
    assert (problems == []) == (case == "mixed-denominators"), problems


def test_validate_messages_name_the_vertex():
    prof = Profile(2, 2, (_agent("Ann", [(F(1, 6), F(1))]), _agent("Bob", [(F(1),)])))
    assert validate_profile(prof) == [
        f"Ann: belief vertex {(F(1, 6), F(1))} is not a probability vector",
        f"Bob: belief vertex {(F(1),)} has wrong length",
    ]


def test_validate_empty_vertex_is_no_probability_vector():
    """With zero states an empty vertex has the right length; its entries
    sum to 0, not 1."""
    prof = Profile(0, 1, (_agent("Ann", [()], coeffs=(1,)),) * 2)
    assert validate_profile(prof) == validate_profile_oracle(prof)
    assert validate_profile(prof)[-1] == "Ann: belief vertex () is not a probability vector"


def _perturbed(rng, prof):
    """The profile with one agent's (or the society's) vertices edited so
    that they may leave the simplex: an entry moved by 1/den (den the
    vertex's own), an entry negated, or a coordinate appended."""
    kind = rng.choice(["shift", "negate", "extend", "none"])
    everyone = [*prof.agents, prof.society]
    k = rng.randrange(len(everyone))
    verts = [list(v) for v in everyone[k].beliefs.vertices]
    v = rng.choice(verts)
    i = rng.randrange(len(v))
    if kind == "shift":
        den = lcm(*[x.denominator for x in v])
        v[i] += rng.choice([-1, 1]) * F(1, den)
    elif kind == "negate":
        v[i] = -v[i]
    elif kind == "extend":
        verts = [w + [F(0)] for w in verts]
    a = everyone[k]
    edited = Agent(a.utility, Polytope(tuple(map(tuple, verts))), a.name)
    everyone[k] = edited
    return kind, Profile(prof.states, prof.outcome_dim, tuple(everyone[:-1]), everyone[-1])


def test_validate_seeded_profiles_match_fraction_route():
    rng = random.Random(30)
    seen = collections.Counter()
    seed = 0
    while seen["profiles"] < 200:
        seed += 1
        params = GenParams(seed=seed, n=2 + seed % 2, m=2 + seed % 3, d=1 + seed % 3,
                           max_vertices=1 + seed % 4,
                           society_rule=("minkowski", "hull-union", "perturbed")[seed % 3])
        try:
            prof = random_profile(params)
        except AssertionError:  # a society taste cancelled to zero
            continue
        seen["profiles"] += 1
        assert validate_profile(prof) == validate_profile_oracle(prof) == []
        kind, edited = _perturbed(rng, prof)
        problems = validate_profile(edited)
        assert problems == validate_profile_oracle(edited)
        seen[kind, bool(problems)] += 1
    assert all(seen[kind, True] >= 10 for kind in ("shift", "negate", "extend")), seen


# ---------------------------------------------------------------------------
# Number strings
# ---------------------------------------------------------------------------

def _strings(tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    if isinstance(tree, list):
        return [s for x in tree for s in _strings(x)]
    if isinstance(tree, dict):
        return [s for k, x in tree.items() if k != "name" for s in _strings(x)]
    return []


@pytest.fixture
def parsed(monkeypatch):
    """Counts the strings `documents` hands to `frac`."""
    counts = collections.Counter()
    frac = documents.frac

    def counting(x):
        if isinstance(x, str):
            counts[x] += 1
        return frac(x)

    monkeypatch.setattr(documents, "frac", counting)
    return counts


def test_each_distinct_string_is_parsed_once_per_document(parsed, profiles_dir):
    path = profiles_dir / "example1.profile"
    strings = _strings(json.loads(path.read_text()))
    assert len(strings) > len(set(strings))  # "0.2" and "0.8" repeat
    first = load_profile(path)
    assert parsed == collections.Counter(set(strings))
    second = load_profile(path)  # a second document parses its own strings
    assert parsed == collections.Counter({s: 2 for s in set(strings)})
    assert first == second


def test_acts_document_parses_each_string_once(parsed):
    prof = profile_from_dict(TIE_PROFILE)
    parsed.clear()
    data = {"acts": [{"rows": [["1/2", "0.5"], ["1/2", 1]]}, {"rows": [["0.5", "0.5"], [0, "1/2"]]}]}
    acts = acts_from_dict(data, prof)
    assert parsed == collections.Counter({"1/2": 1, "0.5": 1})
    assert acts_from_dict(data, prof) == acts
    assert parsed == collections.Counter({"1/2": 2, "0.5": 2})


def test_bad_string_named_where_first_read():
    data = json.loads(json.dumps(TIE_PROFILE))
    data["agents"][1]["beliefs"] = [["0.2", "1/0"]]
    data["society"]["beliefs"] = [["1/0", "0.2"]]
    with pytest.raises(DocumentError, match=r"bad number in agents\[1\]\.beliefs: '1/0'"):
        profile_from_dict(data)
