"""Shared builders for the test suite."""

from fractions import Fraction
from math import lcm

from paretostar import (
    Agent,
    Polytope,
    Profile,
    SplitMix64,
    act,
    constant_act,
    expected_utility,
    profile,
    utility,
)
from paretostar.harness import _draw, _drawn_act, _general_row


def interval(lo, hi) -> Polytope:
    """Belief interval over two states, parametrized by the first coordinate."""
    lo, hi = Fraction(lo), Fraction(hi)
    return Polytope.from_generators([(lo, 1 - lo), (hi, 1 - hi)])


def singleton(pa) -> Polytope:
    pa = Fraction(pa)
    return Polytope.from_generators([(pa, 1 - pa)])


STATUS_QUO = constant_act([0, 0], 2)
REFORM = act([[30, -70], [-70, 30]])
REFORM_COMMON = act([[30, 30], [-70, -70]])


def scenario1(society_beliefs: Polytope | None = None) -> Profile:
    """Conflicting tastes, common belief interval, mean-utility society."""
    common = interval("0.2", "0.8")
    ann = Agent(utility([1, 0]), common, "Ann")
    bob = Agent(utility([0, 1]), common, "Bob")
    soc = Agent(
        utility(["1/2", "1/2"]),
        society_beliefs if society_beliefs is not None else common,
        "society",
    )
    return profile([ann, bob], soc)


def scenario2(society_beliefs: Polytope) -> Profile:
    """Common tastes, heterogeneous belief intervals."""
    ann = Agent(utility([1, 0]), interval("0.6", "0.8"), "Ann")
    bob = Agent(utility([1, 0]), interval("0.2", "0.3"), "Bob")
    soc = Agent(utility([1, 0]), society_beliefs, "society")
    return profile([ann, bob], soc)


def wide_profile(n: int) -> Profile:
    """n agents sharing one taste, each with a two-vertex belief interval: 2**n combos."""
    agents = [Agent(utility([1, 0]), interval("0.2", "0.8"), f"agent{i + 1}") for i in range(n)]
    return profile(agents, Agent(utility([1, 0]), interval("0.2", "0.8"), "society"))


def delta(s: int, m: int):
    """The degenerate distribution putting mass 1 on state `s` out of `m`."""
    return tuple(Fraction(int(i == s)) for i in range(m))


def random_simplex_point(rng: SplitMix64, m: int, denom_bound: int = 8):
    return rng.simplex_point(m, denom_bound)


def interior_point(rng: SplitMix64, P: Polytope, weight_bound: int = 7):
    """A strictly positive random convex combination of the vertices."""
    weights = [rng.randint(1, weight_bound) for _ in P.vertices]
    total = sum(weights)
    point = [Fraction(0)] * P.ambient_dim
    for w, v in zip(weights, P.vertices):
        for k, x in enumerate(v):
            point[k] += Fraction(w, total) * x
    return tuple(point)


def cleared_lp(rows, rhs, objective):
    """(rows, rhs, objective, scale): rational LP data as `int`s over one
    common positive scale, the lcm of all their denominators, which is what
    `geometry.simplex_standard` takes.  z is unchanged and the value is
    `scale` times the rational LP's."""
    scale = lcm(*{Fraction(x).denominator for v in (*rows, rhs, objective) for x in v})

    def ints(v):
        return [int(Fraction(x) * scale) for x in v]

    return [ints(r) for r in rows], ints(rhs), ints(objective), scale


def revalidate_certs(prof, f, g, verdict):
    """Every strict claim in the certificates must re-prove by evaluation."""
    for i, cert in verdict.certificates.get("agents", {}).items():
        agent = prof.agents[i]
        diff = expected_utility(agent.utility, cert["prior"], g) - expected_utility(
            agent.utility, cert["prior"], f
        )
        assert diff == cert["margin"] > 0
    for j, cert in verdict.certificates.get("exchange", {}).items():
        for agent in prof.agents:
            diff = expected_utility(agent.utility, cert["prior"], g) - expected_utility(
                agent.utility, cert["prior"], f
            )
            assert diff >= cert["margin"] > 0
    soc = prof.society
    if "society_strict" in verdict.certificates:
        cert = verdict.certificates["society_strict"]
        diff = expected_utility(soc.utility, cert["prior"], g) - expected_utility(
            soc.utility, cert["prior"], f
        )
        assert diff == cert["margin"] > 0
    if "society_weak_margin" in verdict.certificates:
        margin = verdict.certificates["society_weak_margin"]
        assert margin >= 0
        assert margin == min(
            expected_utility(soc.utility, w, f) - expected_utility(soc.utility, w, g)
            for w in soc.beliefs.vertices
        )


def gradients(prof):
    """Each agent's integer gradient: the tastes a sampler table is built
    for when only its draws are read."""
    return [a.utility.cleared[0] for a in prof.agents]


def table_act(rng, states, table):
    """(act, digest text) drawn from a `harness._segment_rows` table, row by
    row as the common-taste sampler draws them."""
    levels, den = table
    rows = [_draw(rng, levels) for _ in range(states)]
    return _drawn_act(rows, den), ";".join(r[2] for r in rows)


def general_act(rng, states, dim, table):
    """(act, digest text) drawn from a `harness._entry_table` table, row by
    row as the general sampler draws them."""
    levels, den = table
    rows = [_general_row(rng, levels, dim) for _ in range(states)]
    return _drawn_act(rows, den), ";".join(r[2] for r in rows)
