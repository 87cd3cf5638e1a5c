"""The four benchmark workloads: seeded inputs, one verdict per item, known answers.

A *verdict* is one user operation.  Every workload is a closed loop with one
caller, one process and one thread: the next verdict starts only when the
previous one has returned.  All inputs are built from the workload seed
during set-up (``random_profile``, profile documents), so a pass over the
items does the same work on every run of the same seed.  Each workload fixes
the *shape* of its inputs slot by slot (agents, states, outcome dimension,
vertex counts, society rule) and lets the seed pick only the numbers; the
work of a pass then varies little from seed to seed even where the cost of
single verdicts is heavy-tailed.

Why each workload exists:

* ``lp-guard`` -- the exact LP kernel carries almost all of the load.
  One verdict is one thm2-passing profile's batch: interior prior combos
  go through ``combo_meets`` (phase-1 feasibility LPs via
  ``feasible_nonneg``), and common-taste segment act pairs go through
  ``exchange_pareto_star_check`` (margin LPs via ``lp_solve`` with the u-v
  split).  The mix gives each LP kind about half of the time.  An integer-preserving pivot or a nonnegative
  ``max_margin`` LP acts here.
* ``crossval-fuzz`` -- act evaluation in ``preferences`` and ``axioms``
  carries the load; LPs are a small share.  ``cross_validate`` for thm2 on
  every profile, and for thm1 where the profile is c-diverse, reaches both
  fuzz samplers and all three witness builders.  An integer act-evaluation
  fast path acts here, and this is the desk-scale check (1-27 combos) that
  combo pruning must not slow.
* ``many-agents`` -- the combo, redundancy and V<->H machinery in
  ``characterizations`` and ``geometry``.  One verdict is one profile's
  full sweep: a Minkowski society, then thm2, eq4, eq1, corollary 2 and
  single-prior existence.  n stays at 3 (1-12 combos, see
  ``COMBO_SCHEDULE``); at n = 4 one 27-combo existence LP alone takes about
  half a minute.
* ``cli-profiles`` -- the only workload where ``cli`` and ``documents`` do a
  large share of the work: in-process ``paretostar.cli.main`` calls on the
  shipped profiles and on seeded profile documents, stdout and stderr
  captured.  Building the argument parser and loading profiles dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
from fractions import Fraction
from collections.abc import Iterator
from pathlib import Path

MODULES = (
    "geometry",
    "preferences",
    "axioms",
    "characterizations",
    "witnesses",
    "harness",
    "documents",
    "cli",
)


class _Pkg:
    """The package modules, looked up on every call so tracing sees the calls."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"paretostar.{name}"))


def _gen_seed(rng) -> int:
    return rng.next_u64() >> 40


def _interior_point(rng, polytope):
    """A strictly positive random convex combination of the vertices."""
    weights = [rng.randint(1, 7) for _ in polytope.vertices]
    total = sum(weights)
    point = [Fraction(0)] * polytope.ambient_dim
    for w, v in zip(weights, polytope.vertices):
        for k, x in enumerate(v):
            point[k] += Fraction(w, total) * x
    return tuple(point)


def _segment_act(pkg, rng, states, pair, denom_bound=6):
    """Act whose outcomes lie on the segment between a commonly ranked pair."""
    x_star, x_low = pair
    rows = []
    for _ in range(states):
        t = rng.unit_fraction(denom_bound)
        rows.append(tuple(lo + t * (hi - lo) for hi, lo in zip(x_star, x_low)))
    return pkg.preferences.Act(tuple(rows))


# The checks re-evaluate certificates with their own arithmetic rather than
# the package's, so a fault in the package cannot confirm itself.
def _utility_profile(agent, act):
    u = agent.utility
    return [sum(c * x for c, x in zip(u.coeffs, row)) + u.constant for row in act.rows]


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _random_profile(pkg, rng, vertices=None, **params):
    """``random_profile`` at the next generator seed that yields a valid profile.

    With ``vertices``, only a draw whose agents' belief sets have exactly
    these vertex counts is taken.  The agents are drawn before the society,
    so the counts are checked on a society-free draw from the same seed
    first.  The generator asserts that the profile it built validates; a
    rare draw whose society taste cancels to zero trips that assertion and
    is skipped.
    """
    GenParams = pkg.harness.GenParams
    while True:
        gen = GenParams(seed=_gen_seed(rng), denom_bound=6, **params)
        if vertices is not None:
            bare = pkg.harness.random_profile(dataclasses.replace(gen, society_rule="none"))
            if tuple(len(a.beliefs.vertices) for a in bare.agents) != vertices:
                continue
        try:
            prof = pkg.harness.random_profile(gen)
        except AssertionError:
            continue
        if not pkg.preferences.validate_profile(prof):
            return prof


def _criterion_shape(i: int):
    """(n, m, d, max_vertices) of the acceptance-suite generator at slot i."""
    return 2 + i % 2, 2 + (i // 2) % 2, 1 + i % 3, 1 + i % 3


def _vertex_counts(i: int, n: int, m: int, max_vertices: int) -> tuple[int, ...]:
    """Vertex count of each agent's belief set at slot i, fixed for every seed.

    The generator draws each count uniformly from 1 to ``max_vertices`` (at
    most 2 can survive on the segment of two states), and the count decides
    most of a verdict's cost.  The counts rotate through that range by agent
    and by round of twelve slots, so every seed gets the same mix.
    """
    top = min(max_vertices, 2) if m == 2 else max_vertices
    return tuple(1 + (i // 12 + j) % top for j in range(n))


class Workload:
    """Items built from the seed; ``run`` is the timed verdict.

    ``build`` adds the items and yields after each slot, so that set-up can
    be timed in short steps (``run.ReferenceClock``).  ``check`` returns
    None when the result agrees with its known answer and a short reason
    otherwise; ``doc`` gives the JSON-ready form that is serialized with
    ``documents.dumps`` and hashed.
    """

    name = ""
    default_size = 0

    def __init__(self, seed: int, size: int | None, workdir: Path):
        self.pkg = _Pkg()
        self.size = size if size is not None else self.default_size
        self.workdir = workdir
        self.rng = self.pkg.harness.SplitMix64(seed)
        self.items: list = []

    def build(self) -> Iterator[None]:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def doc(self, item, result):
        return result


# ---------------------------------------------------------------------------
# lp-guard
# ---------------------------------------------------------------------------

class LpGuard(Workload):
    """One verdict is one profile's batch: its interior combos and its exchange pairs.

    A batch sums a dozen LPs, so the slow end of the latencies is set by the
    costliest profile shapes rather than by the few hardest single LPs a seed
    happens to draw.
    """

    name = "lp-guard"
    default_size = 48
    COMBOS_PER_PROFILE = 10
    PAIRS_PER_PROFILE = 2

    def build(self):
        # Minkowski and pooled societies pass thm2 by criterion 06, so unlike
        # criterion 09 set-up does not run the checker to select profiles;
        # an interior combo that misses P0 shows up as a failed verdict.
        pkg, rng = self.pkg, self.rng
        for i in range(self.size):
            n, m, d, max_vertices = _criterion_shape(i)
            rule = ("minkowski", "hull-union")[i % 2]
            while True:
                prof = _random_profile(
                    pkg, rng, _vertex_counts(i, n, m, max_vertices),
                    n=n, m=m, d=d, max_vertices=max_vertices, society_rule=rule,
                )
                cmin = pkg.preferences.check_c_minimal_agreement(prof)
                if cmin is not None:
                    break
            combos = [
                tuple(_interior_point(rng, a.beliefs) for a in prof.agents)
                for _ in range(self.COMBOS_PER_PROFILE)
            ]
            pairs, ct_premises = [], []
            for _ in range(self.PAIRS_PER_PROFILE):
                f = _segment_act(pkg, rng, prof.states, cmin)
                g = _segment_act(pkg, rng, prof.states, cmin)
                pairs.append((f, g))
                ct_premises.append(pkg.axioms.ct_pareto_star_check(prof, f, g).premise_holds)
            self.items.append((prof, combos, pairs, ct_premises))
            yield

    def run(self, item):
        prof, combos, pairs, _ = item
        ch, axioms = self.pkg.characterizations, self.pkg.axioms
        return {
            "combos": [ch.combo_meets(combo, prof.society.beliefs) for combo in combos],
            "exchange": [axioms.exchange_pareto_star_check(prof, f, g) for f, g in pairs],
        }

    def check(self, item, result):
        prof, combos, pairs, ct_premises = item
        for combo, meet in zip(combos, result["combos"]):
            reason = self._check_combo(prof, combo, meet)
            if reason is not None:
                return reason
        for (f, g), ct_premise, check in zip(pairs, ct_premises, result["exchange"]):
            reason = self._check_exchange(prof, f, g, ct_premise, check)
            if reason is not None:
                return reason
        return None

    @staticmethod
    def _check_combo(prof, combo, meet):
        # Criterion 09: every interior combo of a thm2-passing profile meets P0.
        if meet is None:
            return "interior combo misses the social belief set"
        gamma, mu = meet
        verts = prof.society.beliefs.vertices
        if min(gamma) < 0 or min(mu) < 0 or sum(gamma) != 1 or sum(mu) != 1:
            return "meeting weights are not two probability vectors"
        for s in range(prof.states):
            if _dot(gamma, [c[s] for c in combo]) != _dot(mu, [w[s] for w in verts]):
                return "meeting weights do not give one common point"
        return None

    @staticmethod
    def _check_exchange(prof, f, g, ct_premise, result):
        # Criterion 08: the exchange-star premise implies the ct-pareto-star premise.
        if result.premise_holds and not ct_premise:
            return "exchange-star premise holds without the common-taste premise"
        diffs = [
            [b - a for a, b in zip(_utility_profile(ag, f), _utility_profile(ag, g))]
            for ag in prof.agents
        ]
        for cert in result.certificates["exchange"].values():
            prior, margin = cert["prior"], cert["margin"]
            if margin <= 0 or min(prior) < 0 or sum(prior) != 1:
                return "exchange certificate is not a prior with a positive margin"
            if any(_dot(prior, diff) < margin for diff in diffs):
                return "exchange certificate margin does not re-evaluate"
        return None


# ---------------------------------------------------------------------------
# crossval-fuzz
# ---------------------------------------------------------------------------

class CrossvalFuzz(Workload):
    name = "crossval-fuzz"
    default_size = 48
    TRIALS = 50

    def build(self):
        # The thm2 branch is fixed per slot: Minkowski and pooled societies
        # pass (fuzzing), perturbed ones alternate between passing and
        # failing (witness), so every seed has the same mix of cheap witness
        # verdicts and costly fuzz verdicts.
        pkg, rng = self.pkg, self.rng
        for i in range(self.size):
            n, m, d, max_vertices = _criterion_shape(i)
            rule = ("minkowski", "hull-union", "perturbed")[i % 3]
            while True:
                prof = _random_profile(
                    pkg, rng, _vertex_counts(i, n, m, max_vertices),
                    n=n, m=m, d=d, max_vertices=max_vertices, society_rule=rule,
                )
                if pkg.preferences.check_c_minimal_agreement(prof) is None:
                    continue
                if rule != "perturbed":
                    break
                if pkg.characterizations.check_thm2_condition(prof).holds == ((i // 3) % 2 == 0):
                    break
            self.items.append(("thm2", prof, _gen_seed(rng)))
            if pkg.preferences.check_c_diversity(prof) is not None:
                self.items.append(("thm1", prof, _gen_seed(rng)))
            yield

    def run(self, item):
        condition, prof, seed = item
        return self.pkg.harness.cross_validate(prof, condition, trials=self.TRIALS, seed=seed)

    def check(self, item, result):
        # Criterion 04: the checker and the axiom-level evidence always agree.
        if result.verdict != "CONSISTENT":
            return f"cross-validation verdict {result.verdict}: {result.detail}"
        if result.witness is not None and not self.pkg.witnesses.revalidate(item[1], result.witness):
            return "witness does not revalidate"
        return None


# ---------------------------------------------------------------------------
# many-agents
# ---------------------------------------------------------------------------

class ManyAgents(Workload):
    name = "many-agents"
    # Combo counts of one round of slots, in about the proportions in which
    # the generator draws them (three agents with one to three vertices
    # each), capped at 12.  Every seed gets the same mix.  The 18- and
    # 27-combo sweeps are left out: a 27-combo sweep took 2.4 s on average
    # with a standard deviation of 0.7 s (18 combos: 0.8 s and 0.4 s), so the
    # one or two that a seed draws would decide most of the pass time and
    # with it verdicts_per_s.  Sweep costs of neighbouring counts overlap
    # and grow more spread out with the count (9 and 12 combos: up to
    # threefold between profiles), so an order statistic that falls where
    # one count gives way to the next is up to the seed.  Eight 6-combo
    # slots put the median among the 6-combo sweeps, and five heavier slots
    # (ten a pass) put the tail, the eleventh slowest verdict, at the slowest
    # 6-combo sweep or the fastest heavier one, and not at whichever of the
    # 9- and 12-combo sweeps a seed made slow.
    COMBO_SCHEDULE = (1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6, 8, 9, 9, 12, 12)
    default_size = 2 * len(COMBO_SCHEDULE)

    def build(self):
        pkg, rng = self.pkg, self.rng
        schedule = [
            self.COMBO_SCHEDULE[i % len(self.COMBO_SCHEDULE)] for i in range(self.size)
        ]
        found: dict[int, list] = {}
        while any(len(found.get(c, ())) < schedule.count(c) for c in set(schedule)):
            yield
            base = _random_profile(pkg, rng, n=3, m=3, d=2, max_vertices=3, society_rule="none")
            combos = pkg.characterizations.combo_count([a.beliefs for a in base.agents])
            if len(found.get(combos, ())) >= schedule.count(combos):
                continue
            if pkg.preferences.check_c_minimal_agreement(base) is None:
                continue
            found.setdefault(combos, []).append(base)
        for combos in schedule:
            base = found[combos].pop(0)
            alpha = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3))
            beta = Fraction(rng.randint(-3, 3))
            weights = [rng.randint(1, 6) for _ in range(3)]
            gamma = tuple(Fraction(w, sum(weights)) for w in weights)
            self.items.append((base, alpha, beta, gamma))
        yield

    def run(self, item):
        ch = self.pkg.characterizations
        base, alpha, beta, gamma = item
        society = ch.aggregate_society(base, alpha, beta, "minkowski", gamma=gamma)
        prof = dataclasses.replace(base, society=society)
        return {
            "society": society,
            "thm2": ch.check_thm2_condition(prof),
            "eq4": ch.check_eq4_dght2(prof),
            "eq1": ch.check_eq1_dght1(prof),
            "corollary2": ch.check_corollary2(prof),
            "seu": ch.check_seu_existence([a.beliefs for a in prof.agents]),
        }

    def check(self, item, result):
        # Criterion 06: Minkowski societies satisfy both bounds.
        if not result["thm2"].holds or not result["eq4"].holds:
            return "minkowski society fails thm2 or eq4"
        # Criterion 07: corollary 2(a) holds whenever thm2 holds.
        if result["corollary2"].details["a"] is not True:
            return "corollary 2(a) fails although thm2 holds"
        prior = result["seu"]
        if prior is not None:
            base = item[0]
            for combo in itertools.product(*(a.beliefs.vertices for a in base.agents)):
                if self.pkg.geometry.convex_weights(prior, list(combo)) is None:
                    return "single prior lies outside a combo hull"
        return None


# ---------------------------------------------------------------------------
# cli-profiles
# ---------------------------------------------------------------------------

AXIOM_TAGS = (
    "pareto",
    "pareto-star",
    "ct-pareto",
    "ct-pareto-star",
    "exchange-pareto",
    "exchange-pareto-star",
)
CONDITION_TAGS = ("thm1", "thm2", "eq1", "eq4", "corollary2", "seu-existence")

# Exit codes of the shipped profiles.  The README documents example1
# pareto-star (1), example2 thm2 (0), example2_p08 thm2 (1),
# common_singleton thm1 (0) and dictator thm1 (0); the other entries follow
# from the definitions: example2 and example2_p08 share one taste, so thm1 is
# undefined (2); example1's agents share a belief interval, so thm2, eq1,
# eq4 and corollary 2 hold while no single prior lies in every combo hull and
# the two positively weighted agents make thm1 fail; example2's social
# interval is not inside either agent's set (eq1 fails) and the combo hulls
# share [0.3, 0.6] (seu holds).
AXIOM_EXIT = {
    "pareto": 0,
    "pareto-star": 1,
    "ct-pareto": 0,
    "ct-pareto-star": 0,
    "exchange-pareto": 0,
    "exchange-pareto-star": 0,
}
CONDITION_EXIT = {
    "example1": {"thm1": 1, "thm2": 0, "eq1": 0, "eq4": 0, "corollary2": 0, "seu-existence": 1},
    "example2": {"thm1": 2, "thm2": 0, "eq1": 1, "eq4": 0, "corollary2": 0, "seu-existence": 0},
    "example2_p08": {"thm1": 2, "thm2": 1, "eq1": 0, "eq4": 0, "corollary2": 0, "seu-existence": 0},
    "common_singleton": {tag: 0 for tag in CONDITION_TAGS},
    "dictator": {tag: 0 for tag in CONDITION_TAGS},
}


class CliProfiles(Workload):
    name = "cli-profiles"
    default_size = 4
    PLOT_ROWS = 101 + 2 * 3

    def build(self):
        pkg, rng = self.pkg, self.rng
        shipped = "profiles"
        acts = f"{shipped}/sq_vs_reform.acts"
        example1 = f"{shipped}/example1.profile"
        machine = ["--format", "machine"]
        for tag in AXIOM_TAGS:
            self._add(["check", example1, tag, "--acts", acts, *machine], AXIOM_EXIT[tag])
        for name, codes in CONDITION_EXIT.items():
            for tag in CONDITION_TAGS:
                self._add(["check", f"{shipped}/{name}.profile", tag, *machine], codes[tag])
        self._add(
            ["witness", f"{shipped}/example2_p08.profile", "ct-pareto-star",
             "--out", self._out("w_ct.json"), *machine], 0, witness="ct-pareto-star",
        )
        self._add(
            ["witness", example1, "spurious-unanimity", "--out", self._out("w_su.json"), *machine],
            0, witness="pareto-star",
        )
        self._add(["plot-data", example1, acts, "--out", self._out("curves.csv")], 0, csv=True)
        self._add(
            ["fuzz", example1, "pareto-star", "--trials", "50", "--seed", "7", "--acts", acts,
             *machine], 1,
        )
        yield

        # Seeded documents: Minkowski and pooled societies satisfy thm2, eq4
        # and corollary 2 (criteria 06 and 07), so there is nothing to
        # witness and common-taste fuzzing finds no violation.
        for i in range(self.size):
            n, m, d, max_vertices = _criterion_shape(i)
            max_vertices = max(2, max_vertices)
            rule = ("minkowski", "hull-union")[i % 2]
            while True:
                prof = _random_profile(
                    pkg, rng, _vertex_counts(i, n, m, max_vertices),
                    n=n, m=m, d=d, max_vertices=max_vertices, society_rule=rule,
                )
                if pkg.preferences.check_c_minimal_agreement(prof) is not None:
                    break
            path = self._out(f"gen{i}.profile")
            pkg.documents.save_json(path, pkg.documents.profile_to_dict(prof))
            for tag in ("thm2", "eq4", "corollary2"):
                self._add(["check", path, tag, *machine], 0)
            self._add(["witness", path, "ct-pareto-star", "--out", self._out(f"w_gen{i}.json"),
                       *machine], 2)
            self._add(["fuzz", path, "ct-pareto-star", "--sampler", "common-taste",
                       "--trials", "20", "--seed", str(_gen_seed(rng)), *machine], 0)
            yield

    def _out(self, filename: str) -> str:
        return str(self.workdir / filename)

    def _add(self, argv, exit_code, witness=None, csv=False):
        self.items.append({"argv": argv, "exit": exit_code, "witness": witness, "csv": csv})

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(item["argv"])
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def _written(self, item) -> str | None:
        if item["witness"] is None and not item["csv"]:
            return None
        return Path(item["argv"][item["argv"].index("--out") + 1]).read_text(encoding="utf-8")

    def check(self, item, result):
        if result["exit"] != item["exit"]:
            return f"exit {result['exit']}, expected {item['exit']}: {result['stderr'].strip()}"
        if "machine" in item["argv"] and result["exit"] != 2:
            try:
                json.loads(result["stdout"])
            except json.JSONDecodeError:
                return "machine output is not JSON"
        if item["csv"]:
            lines = self._written(item).splitlines()
            if len(lines) != 1 + self.PLOT_ROWS:
                return f"plot data has {len(lines)} lines"
        if item["witness"] is not None:
            return self._check_witness(item)
        return None

    def _check_witness(self, item):
        """The written witness reloads and makes the axiom check report a violation."""
        docs = self.pkg.documents
        witness = json.loads(self._written(item))
        if witness["violates"] != item["witness"]:
            return f"witness violates {witness['violates']}, expected {item['witness']}"
        prof = docs.load_profile(item["argv"][1])
        (_, act_x), (_, act_f) = docs.acts_from_dict(
            {"acts": [{"rows": witness["act_x"]["rows"]}, {"rows": witness["act_f"]["rows"]}]},
            prof,
        )
        if not self.pkg.axioms.AXIOM_CHECKS[witness["violates"]](prof, act_x, act_f).violation:
            return "reloaded witness does not violate its axiom"
        return None

    def doc(self, item, result):
        return {"argv": item["argv"], **result, "written": self._written(item)}


WORKLOADS = {w.name: w for w in (LpGuard, CrossvalFuzz, ManyAgents, CliProfiles)}
