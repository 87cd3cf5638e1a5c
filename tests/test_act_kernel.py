"""Integer act evaluation against the `Fraction` oracle.

`geometry.dot` accumulates one integer numerator over a running common
denominator; `preferences` decides Bewley dominance on integer per-state
gaps and compares tastes by integer cross-products, and the exchange axioms
take their per-vertex gaps from the same kernel; every axiom check
evaluates each taste on the two acts once.  Utilities, acts and belief
polytopes are cleared to integers once and cached outside their fields.
`geometry.segment_point` builds each entry from integers, and both fuzz
samplers draw from tables built once per fuzz run, whose acts arrive with
their `cleared` cache filled and their digest text.
`act_oracle` holds the `Fraction` code they replaced.  Every answer must
agree exactly: the same bool, the same vertex, an equal `Fraction` margin,
an equal verdict (dumped bytes included) and an equal draw.
"""

import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import act_oracle
from paretostar import Act, Agent, AffineUtility, DimensionMismatchError, Polytope, Profile
from paretostar.axioms import AXIOM_CHECKS
from paretostar.documents import dumps, jsonable
from paretostar.geometry import dot, segment_point
from paretostar.harness import (
    FUZZ_BOX,
    FUZZ_DENOM_BOUND,
    GenParams,
    SplitMix64,
    _entry_table,
    _fmt_act,
    _general_act,
    _segment_rows,
    _table_act,
    random_profile,
)
from paretostar.preferences import (
    _least_margin,
    _on_pair,
    bewley_geq,
    check_c_minimal_agreement,
    no_taste_disagreement,
    strict_prior_against,
    utility_profile,
)

F = Fraction

# Denominators that are pairwise coprime or share small factors, up to ~1000.
_DENOMS = (1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 25, 27, 97, 101, 128, 243, 499, 997, 1000)


def _frac(rng, mag=9):
    if rng.random() < 0.2:
        return F(0)
    den = rng.choice(_DENOMS)
    return F(rng.randint(-mag * den, mag * den), den)


def _prior(rng, m):
    den = rng.choice(_DENOMS[1:])
    cuts = sorted(rng.randint(0, den) for _ in range(m - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [den - cuts[-1]]
    return tuple(F(p, den) for p in parts)


def _agent(rng, m, d, coeffs=None):
    if coeffs is None:
        coeffs = tuple(_frac(rng) for _ in range(d))
    beliefs = Polytope.from_generators([_prior(rng, m) for _ in range(rng.randint(1, 4))])
    return Agent(AffineUtility(coeffs, _frac(rng)), beliefs)


def _act(rng, m, d, shape):
    """Random rows, rows on one segment, or rows in a plane through a base point."""
    if shape == "general":
        return Act(tuple(tuple(_frac(rng) for _ in range(d)) for _ in range(m)))
    base = tuple(_frac(rng) for _ in range(d))
    dirs = [tuple(_frac(rng) for _ in range(d)) for _ in range(1 if shape == "segment" else 2)]
    rows = []
    for _ in range(m):
        ts = [F(rng.randint(-6, 6), rng.choice(_DENOMS[:8])) for _ in dirs]
        rows.append(tuple(b + sum(t * w[j] for t, w in zip(ts, dirs)) for j, b in enumerate(base)))
    return Act(tuple(rows))


def _tastes(rng, n, d):
    """Independent tastes, or positive/negative/zero multiples of one taste."""
    first = tuple(_frac(rng) for _ in range(d))
    if rng.random() < 0.5:
        return [first] + [tuple(_frac(rng) for _ in range(d)) for _ in range(n - 1)]
    scales = [F(rng.randint(-3, 5), rng.choice(_DENOMS[:8])) for _ in range(n - 1)]
    return [first] + [tuple(s * c for c in first) for s in scales]


def _same_margin(new, old):
    if old is None:
        assert new is None
        return
    assert new[0] == old[0]
    assert new[1] == old[1] and type(new[1]) is Fraction


def _check_agent(a, f, g):
    for x, y in ((f, g), (g, f)):
        assert bewley_geq(a, x, y) == act_oracle.bewley_geq(a, x, y)
        _same_margin(strict_prior_against(a, x, y), act_oracle.strict_prior_against(a, x, y))
        margin = _least_margin(a.beliefs.cleared, _on_pair(a.utility, x, y))
        assert margin == act_oracle.min_margin(a, x, y) and type(margin) is Fraction
    assert utility_profile(a.utility, f) == act_oracle.utility_profile(a.utility, f)


def _check_profile(prof, f, g):
    assert no_taste_disagreement(prof, f, g) == act_oracle.no_taste_disagreement(prof, f, g)
    for a in prof.agents:
        _check_agent(a, f, g)


def _sweep():
    """400 seeded (profile without society, f, g, u, v) cases."""
    rng = random.Random(20251018)
    for _ in range(400):
        m, d, n = rng.randint(2, 4), rng.randint(1, 4), rng.randint(2, 4)
        agents = tuple(_agent(rng, m, d, c) for c in _tastes(rng, n, d))
        prof = Profile(m, d, agents)
        shape = rng.choice(("general", "segment", "plane"))
        f = _act(rng, m, d, shape)
        g = _act(rng, m, d, shape) if rng.random() < 0.5 else Act(f.rows[::-1])
        u, v = tuple(_frac(rng) for _ in range(d)), tuple(_frac(rng) for _ in range(d))
        yield prof, f, g, u, v


def test_seeded_sweep_matches_oracle():
    agreements = 0
    for prof, f, g, u, v in _sweep():
        _check_profile(prof, f, g)
        agreements += act_oracle.no_taste_disagreement(prof, f, g)
        assert dot(u, v) == act_oracle.dot(u, v) and type(dot(u, v)) is Fraction
    # The sweep reaches both answers of the taste check.
    assert 40 < agreements < 360


def _sweep_with_society():
    """The seeded sweep's cases, each profile given a drawn society."""
    society_rng = random.Random(20251019)
    for prof, f, g, _, _ in _sweep():
        society = _agent(society_rng, prof.states, prof.outcome_dim)
        yield Profile(prof.states, prof.outcome_dim, prof.agents, society), f, g


def _segment_cases():
    """Acts on a commonly ranked segment, where the unanimity premises hold often."""
    for seed in range(120):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 3, m=2 + (seed // 3) % 2, d=1 + (seed // 7) % 4,
            max_vertices=1 + (seed // 2) % 3,
            society_rule=("minkowski", "hull-union", "perturbed")[seed % 3],
        ))
        pair = check_c_minimal_agreement(prof)
        if pair is None:
            continue
        rng, table = SplitMix64(seed), _segment_rows(pair, 6)
        for _ in range(3):
            yield prof, _table_act(rng, prof.states, table)[0], _table_act(rng, prof.states, table)[0]


def _check_axioms(prof, f, g, seen):
    """All six verdicts on (f, g) and (g, f) equal the oracle's, bytes included."""
    for x, y in ((f, g), (g, f)):
        for tag, check in AXIOM_CHECKS.items():
            got, want = check(prof, x, y), act_oracle.AXIOM_CHECKS[tag](prof, x, y)
            assert got == want and dumps(got) == dumps(want), (tag, x, y)
            seen[tag, "premise", want.premise_holds] += 1
            if "taste_agreement" in want.certificates:
                seen[tag, "taste", want.certificates["taste_agreement"]] += 1


def test_all_axioms_match_oracle():
    seen = Counter()
    for prof, f, g in _sweep_with_society():
        _check_axioms(prof, f, g, seen)
        # Acts that differ in the first row only: the taste restriction must
        # keep that row's difference from the others.
        _check_axioms(prof, f, Act(g.rows[:1] + f.rows[1:]), seen)
    for prof, f, g in _segment_cases():
        _check_axioms(prof, f, g, seen)
    for tag in AXIOM_CHECKS:
        assert seen[tag, "premise", True] > 150 and seen[tag, "premise", False] > 500, seen
    for tag in ("ct-pareto", "ct-pareto-star"):
        assert seen[tag, "taste", True] > 400 and seen[tag, "taste", False] > 400, seen


def test_segment_point_matches_old_formula():
    rng = random.Random(20251020)
    cases = [
        (F(0), (F(3), F(-1, 2)), (F(-7, 3), F(5))),
        (F(1), (F(3), F(-1, 2)), (F(-7, 3), F(5))),
        (F(2, 3), (4, -2, 0), (-1, 5, 0)),
        (F(5, 6), (F(1, 4), 2), (F(1, 4), 2)),
        (F(1, 2), (F(-9, 4), F(-1, 6)), (F(-9, 4), F(-1, 6))),
    ]
    for _ in range(300):
        d = rng.randint(1, 4)
        high = tuple(_frac(rng) if rng.random() < 0.7 else rng.randint(-9, 9) for _ in range(d))
        low = high if rng.random() < 0.1 else tuple(_frac(rng) for _ in range(d))
        t = F(rng.randint(0, 6), rng.randint(1, 6))
        cases.append((t, high, low))
    for t, high, low in cases:
        got = segment_point(t, high, low)
        assert got == act_oracle.segment_point(t, high, low), (t, high, low)
        assert all(type(x) is Fraction for x in got)
    assert segment_point(F(0), (F(3), 1), (F(-2), 4)) == (F(-2), F(4))
    assert segment_point(F(1), (F(3), 1), (F(-2), 4)) == (F(3), F(1))


_fractions = st.builds(
    F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 7, 10, 97, 1000))
)


@st.composite
def _profile_and_acts(draw):
    m, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rows = st.tuples(*[_fractions] * d)
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    agents = tuple(
        Agent(AffineUtility(draw(rows), draw(_fractions)),
              Polytope.from_generators([_prior(rng, m) for _ in range(rng.randint(1, 4))]))
        for _ in range(draw(st.integers(2, 3)))
    )
    f = Act(tuple(draw(rows) for _ in range(m)))
    g = Act(tuple(draw(rows) for _ in range(m)))
    return Profile(m, d, agents), f, g


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_profile_and_acts())
def test_property_matches_oracle(case):
    _check_profile(*case)


def _two_state_agent(coeffs, *priors):
    return Agent(AffineUtility(tuple(map(F, coeffs))),
                 Polytope.from_generators([(F(p), 1 - F(p)) for p in priors]))


class TestNamedCases:
    def test_identical_rows_have_empty_span(self):
        x = Act(((F(3), F(-1)),) * 2)
        prof = Profile(2, 2, (_two_state_agent([1, 0], "1/3"), _two_state_agent([-2, 5], "1/2")))
        assert no_taste_disagreement(prof, x, x) is True
        assert act_oracle.no_taste_disagreement(prof, x, x) is True
        _check_profile(prof, x, x)

    def test_one_agent_restricted_to_zero(self):
        # Rows vary along (1, 1) only; the second taste is orthogonal to it.
        f = Act(((F(1), F(1)), (F(2), F(2))))
        g = Act(((F(0), F(0)), (F(-1), F(-1))))
        prof = Profile(2, 2, (_two_state_agent([1, 2], "1/4"), _two_state_agent([3, -3], "1/2")))
        assert no_taste_disagreement(prof, f, g) is False
        assert act_oracle.no_taste_disagreement(prof, f, g) is False
        _check_profile(prof, f, g)

    def test_proportional_tastes_of_opposite_sign(self):
        f = Act(((F(1), F(-2)), (F(3), F(1, 7))))
        g = Act(((F(0), F(5)), (F(-1, 3), F(2))))
        for scale, agrees in ((F(-5, 2), False), (F(5, 2), True)):
            prof = Profile(2, 2, (
                _two_state_agent([2, -1], "1/5"),
                _two_state_agent([2 * scale, -scale], "3/5"),
            ))
            assert no_taste_disagreement(prof, f, g) is agrees
            assert act_oracle.no_taste_disagreement(prof, f, g) is agrees

    def test_zero_margin_is_not_strict(self):
        # Under the vertex (1/2, 1/2) both acts have expected utility 1.
        a = _two_state_agent([1, 0], "1/2")
        f = Act(((F(2), F(0)), (F(0), F(0))))
        g = Act(((F(1), F(7)), (F(1), F(-3))))
        assert strict_prior_against(a, f, g) is None
        assert strict_prior_against(a, g, f) is None
        assert bewley_geq(a, f, g) and bewley_geq(a, g, f)
        assert _least_margin(a.beliefs.cleared, _on_pair(a.utility, f, g)) == 0
        _check_agent(a, f, g)

    def test_ragged_rows_raise_instead_of_truncating(self):
        a = _two_state_agent([1, 0], "1/2")
        ragged = Act(((F(1), F(2)), (F(3),)))
        with pytest.raises(DimensionMismatchError):
            bewley_geq(a, ragged, ragged)
        with pytest.raises(DimensionMismatchError):
            act_oracle.bewley_geq(a, ragged, ragged)

    def test_dot_on_plain_ints_returns_fraction(self):
        value = dot((2, -3, 0), (5, 1, 9))
        assert value == 7 and type(value) is Fraction
        assert type(dot((0,), (4,))) is Fraction
        assert dot((F(1, 3), 2), (3, F(1, 4))) == act_oracle.dot((F(1, 3), 2), (3, F(1, 4)))


def _entry(rng):
    """An int, a Fraction over one of the mixed denominators, or zero; negatives included."""
    if rng.random() < 0.3:
        return rng.randint(-9, 9)
    return _frac(rng)


def _equal_entries(ints, den, entries):
    assert den > 0 and type(den) is int
    assert len(ints) == len(entries)
    for n, x in zip(ints, entries):
        assert type(n) is int and F(n, den) == x, (ints, den, entries)


def test_cleared_forms_equal_their_fractions():
    rng = random.Random(20251021)
    negative = mixed = 0
    for _ in range(400):
        m, d = rng.randint(2, 4), rng.randint(1, 4)
        u = AffineUtility(tuple(_entry(rng) for _ in range(d)), _frac(rng))
        _equal_entries(*u.cleared, u.coeffs)
        f = Act(tuple(tuple(_entry(rng) for _ in range(d)) for _ in range(m)))
        rows, den = f.cleared
        assert len(rows) == m
        for r, row in zip(rows, f.rows):
            _equal_entries(r, den, row)
        beliefs = Polytope.from_generators([_prior(rng, m) for _ in range(rng.randint(1, 4))])
        assert [v for v, _, _ in beliefs.cleared] == list(beliefs.vertices)
        for v, ints, vden in beliefs.cleared:
            _equal_entries(ints, vden, v)
        entries = [*u.coeffs, *(x for r in f.rows for x in r)]
        negative += any(x < 0 for x in entries)
        mixed += len({F(x).denominator for x in entries}) > 2
    assert negative > 300 and mixed > 300
    # Plain ints clear over 1; an all-zero row too.
    assert AffineUtility((3, -2, 0)).cleared == ((3, -2, 0), 1)
    assert Act(((0, 0), (F(-1, 2), F(1, 3)))).cleared == (((0, 0), (-3, 2)), 6)


def _identity(obj):
    return obj, hash(obj), repr(obj), jsonable(obj), dumps(obj), [
        f.name for f in dataclasses.fields(obj)
    ]


def _table_drawn_cases():
    """Profiles with a society, with act pairs drawn from both sampler tables."""
    general = _entry_table(FUZZ_BOX, FUZZ_DENOM_BOUND)
    for seed in range(60):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 3, m=2 + (seed // 3) % 3, d=1 + (seed // 5) % 4,
            max_vertices=1 + (seed // 2) % 3,
            society_rule=("minkowski", "hull-union", "perturbed")[seed % 3],
        ))
        rng = SplitMix64(seed)
        tables = [(_general_act, (prof.states, prof.outcome_dim, general))]
        if (pair := check_c_minimal_agreement(prof)) is not None:
            tables.append((_table_act, (prof.states, _segment_rows(pair, FUZZ_DENOM_BOUND))))
        for draw, args in tables:
            for _ in range(3):
                yield prof, draw(rng, *args)[0], draw(rng, *args)[0]


def _fractions_of(values):
    nums, den = values
    return [F(n, den) for n in nums]


def test_cache_changes_no_equality_hash_or_document():
    drawn = 0
    cases = itertools.chain(itertools.islice(_sweep_with_society(), 100), _table_drawn_cases())
    for prof, f, g in cases:
        objects = [prof, f, g]
        for a in (*prof.agents, prof.society):
            objects += [a, a.utility, a.beliefs]
        fresh = [dataclasses.replace(x) for x in objects]
        before = [_identity(x) for x in objects]
        for check in AXIOM_CHECKS.values():
            check(prof, f, g)
        assert all("cleared" in vars(x) for x in (f, g, prof.society.utility, prof.society.beliefs))
        assert [_identity(x) for x in objects] == before
        assert objects == fresh and all("cleared" not in vars(x) for x in fresh)
        assert [hash(x) for x in objects] == [hash(x) for x in fresh]
        # A table-drawn act, its cache filled over the table's denominator,
        # against a fresh act on the same rows.
        plain_f, plain_g = Act(f.rows), Act(g.rows)
        assert _identity(f) == _identity(plain_f) and _identity(g) == _identity(plain_g)
        for a in (*prof.agents, prof.society):
            assert (_fractions_of(_on_pair(a.utility, f, g))
                    == _fractions_of(_on_pair(a.utility, plain_f, plain_g)))
        for tag, check in AXIOM_CHECKS.items():
            got = check(prof, f, g)
            assert got == act_oracle.AXIOM_CHECKS[tag](prof, plain_f, plain_g), tag
        drawn += f.cleared[1] != plain_f.cleared[1]
    # Most table draws carry a denominator larger than their least one.
    assert drawn > 200


def test_table_draws_match_oracle_sampler():
    """The row table draws the acts `unit_fraction` and `segment_point` drew,
    and leaves the generator in the same state, draw by draw."""
    draws = 0
    for seed in range(40):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 2, m=2 + seed % 3, d=1 + seed % 4, society_rule="none",
        ))
        rng = random.Random(seed)
        pairs = [
            (tuple(_entry(rng) for _ in range(prof.outcome_dim)),
             tuple(_entry(rng) for _ in range(prof.outcome_dim)))
            for _ in range(2)
        ]
        if (cmin := check_c_minimal_agreement(prof)) is not None:
            pairs.append(cmin)
        for pair in pairs:
            for bound in (1, 2, 6, 9):
                table = _segment_rows(pair, bound)
                fast, slow = SplitMix64(seed), SplitMix64(seed)
                for _ in range(15):
                    want = act_oracle.segment_act(slow, prof, pair, bound)
                    got, _ = _table_act(fast, prof.states, table)
                    assert got == want
                    assert fast.state == slow.state
                    assert all(type(x) is Fraction for row in got.rows for x in row)
                    draws += 1
    assert draws > 5000


def test_general_draws_match_oracle_sampler():
    """The entry table draws the acts `signed_fraction` drew, and leaves the
    generator in the same state, draw by draw."""
    draws = 0
    for seed in range(40):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 2, m=2 + seed % 3, d=1 + seed % 4, society_rule="none",
        ))
        for box, bound in ((FUZZ_BOX, FUZZ_DENOM_BOUND), (3, 4), (1, 1), (2, 9)):
            table = _entry_table(box, bound)
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            for _ in range(10):
                want = act_oracle._sample_general(slow, prof, box, bound)
                got, _ = _general_act(fast, prof.states, prof.outcome_dim, table)
                assert got == want
                assert fast.state == slow.state
                assert all(type(x) is Fraction for row in got.rows for x in row)
                draws += 1
    assert draws == 1600


def _check_table_act(act, text):
    """The cached integers are the rows over one denominator that every entry
    divides, and the text is the digest's rendering of the rows."""
    ints, den = act.cleared
    assert len(ints) == act.states
    for r, row in zip(ints, act.rows):
        _equal_entries(r, den, row)
    assert all(den % x.denominator == 0 for row in act.rows for x in row)
    assert text == _fmt_act(act)


def _check_table(levels, den, bound):
    """Every entry of a sampler table: its integers over the table's
    denominator, and its text."""
    assert levels[0] == () and len(levels) == bound + 1
    count = 0
    for level in levels[1:]:
        for value, ints, text in level:
            if not isinstance(value, tuple):  # an entry of the general table
                value, ints = (value,), (ints,)
            _equal_entries(ints, den, value)
            assert text == ",".join(map(str, value))
            count += 1
    return count


def test_table_acts_carry_their_cleared_rows_and_text():
    entries = 0
    for seed in range(40):
        prof = random_profile(GenParams(
            seed=seed, n=2 + seed % 2, m=2 + seed % 3, d=1 + seed % 4, society_rule="none",
        ))
        rng = SplitMix64(seed)
        pair = check_c_minimal_agreement(prof)
        for bound in (1, 2, FUZZ_DENOM_BOUND, 9):
            general = _entry_table(FUZZ_BOX, bound)
            entries += _check_table(*general, bound)
            for _ in range(5):
                _check_table_act(*_general_act(rng, prof.states, prof.outcome_dim, general))
            if pair is not None:
                table = _segment_rows(pair, bound)
                entries += _check_table(*table, bound)
                for _ in range(5):
                    _check_table_act(*_table_act(rng, prof.states, table))
    levels, den = _entry_table(FUZZ_BOX, FUZZ_DENOM_BOUND)
    assert sum(map(len, levels)) == 216 and den == 60
    assert entries > 10000


def _segment_pairs():
    """(x_star, x_low) over 1-4 coordinates: x_low has a nonzero entry,
    negative entries occur, and the two points' denominators are coprime."""
    rng = random.Random(28)
    for i in range(60):
        dim = 1 + i % 4
        star_den, low_den = ((1, 7), (2, 3), (5, 11), (9, 4), (13, 6))[i % 5]
        star = tuple(F(rng.randint(-12, 12), star_den) for _ in range(dim))
        low = tuple(F(rng.randint(-12, 12), low_den) for _ in range(dim))
        if not any(low):
            low = (F(-5, low_den), *low[1:])
        yield star, low


def test_distinct_position_tables_match_per_position_oracle():
    """Each table equals the one built entry by entry for every (k, d), and
    each reduced position is built once and shared by the levels above it."""
    compared = negative = 0
    for pair in _segment_pairs():
        negative += any(x < 0 for point in pair for x in point)
        for bound in range(1, 9):
            levels, den = _segment_rows(pair, bound)
            assert (levels, den) == act_oracle.segment_rows(pair, bound)
            compared += 1
            positions = {}
            for d, level in enumerate(levels[1:], 1):
                for k, entry in enumerate(level):
                    assert positions.setdefault(F(k, d), entry) is entry
            assert len({id(e) for level in levels[1:] for e in level}) == len(positions)
    assert compared == 480 and negative > 40
    for box in range(1, 6):
        for bound in range(1, 9):
            assert _entry_table(box, bound) == act_oracle.entry_table(box, bound)
    # 13 of 27 rows and 121 of 216 entries at the fuzz bounds.
    def distinct(levels):
        entries = [e for level in levels[1:] for e in level]
        return len({id(e) for e in entries}), len(entries)

    assert distinct(_segment_rows(next(_segment_pairs()), FUZZ_DENOM_BOUND)[0]) == (13, 27)
    assert distinct(_entry_table(FUZZ_BOX, FUZZ_DENOM_BOUND)[0]) == (121, 216)
