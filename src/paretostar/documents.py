"""On-disk JSON formats: profiles, acts, witnesses, reports.

Parsing is exact end to end: JSON numbers are read with
``parse_float=Fraction`` so decimal literals like ``0.2`` become the rational
1/5, and strings are accepted in decimal ("0.2") or ratio ("1/5") form.
Serialization renders every rational as a "p/q" string, with deterministic
key order, so identical objects produce byte-identical documents.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

from .axioms import AxiomVerdict
from .errors import DocumentError
from .geometry import Polytope, frac
from .harness import FuzzReport
from .preferences import Act, AffineUtility, Agent, Profile, validate_profile
from .witnesses import WitnessCertificate


def fraction_str(x: Fraction) -> str:
    return str(x)


def format_decimal(x: Fraction, digits: int) -> str:
    """Exact decimal rendering with `digits` places (ties to even)."""
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return f"{sign}{scaled}"
    whole, part = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(part).zfill(digits)}"


def jsonable(obj):
    """Recursively convert package objects to JSON-ready structures.

    A dataclass becomes ``{field: value}`` over its fields.  A polytope is its
    vertex list; verdicts and witnesses add their derived ``violation`` and
    ``violates`` entries; fuzz violations become ``{f, g, verdict}`` objects.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, float):
        raise DocumentError("floats must never appear in exact documents")
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = k if isinstance(k, str) else json.dumps(jsonable(k), sort_keys=True)
            out[key] = jsonable(v)
        return out
    if isinstance(obj, Polytope):
        return jsonable(obj.vertices)
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, AxiomVerdict):
            fields["violation"] = obj.violation
        elif isinstance(obj, WitnessCertificate):
            fields["violates"] = obj.axiom_tag
        elif isinstance(obj, FuzzReport):
            fields["violations"] = [
                {"f": f, "g": g, "verdict": v} for f, g, v in obj.violations
            ]
        return jsonable(fields)
    raise DocumentError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def save_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text, parse_float=Fraction, parse_int=int)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path} is not valid JSON: {e}") from e


def _number(x, where: str) -> Fraction:
    try:
        return frac(x)
    except (TypeError, ValueError) as e:
        raise DocumentError(f"bad number in {where}: {x!r} ({e})") from e


def _vector(xs, where: str):
    if not isinstance(xs, list) or not xs:
        raise DocumentError(f"{where} must be a nonempty list of numbers")
    return tuple(_number(x, where) for x in xs)


def _agent_from_dict(data, where: str) -> Agent:
    if not isinstance(data, dict) or "utility" not in data or "beliefs" not in data:
        raise DocumentError(f"{where} needs 'utility' and 'beliefs'")
    util = data["utility"]
    if not isinstance(util, dict) or "coeffs" not in util:
        raise DocumentError(f"{where}: utility needs 'coeffs'")
    coeffs = _vector(util["coeffs"], f"{where}.utility.coeffs")
    constant = _number(util.get("constant", 0), f"{where}.utility.constant")
    beliefs = data["beliefs"]
    if not isinstance(beliefs, list) or not beliefs:
        raise DocumentError(f"{where}: beliefs must list at least one prior")
    try:
        poly = Polytope.from_generators(
            [_vector(v, f"{where}.beliefs") for v in beliefs]
        )
    except Exception as e:
        raise DocumentError(f"{where}: bad belief set ({e})") from e
    name = data.get("name", "")
    if not isinstance(name, str):
        raise DocumentError(f"{where}: name must be a string")
    return Agent(AffineUtility(coeffs, constant), poly, name=name)


def profile_from_dict(data) -> Profile:
    if not isinstance(data, dict):
        raise DocumentError("profile document must be a JSON object")
    for key in ("states", "outcome_dim", "agents"):
        if key not in data:
            raise DocumentError(f"profile document lacks '{key}'")
    states = data["states"]
    outcome_dim = data["outcome_dim"]
    if not isinstance(states, int) or not isinstance(outcome_dim, int):
        raise DocumentError("'states' and 'outcome_dim' must be integers")
    if not isinstance(data["agents"], list):
        raise DocumentError("'agents' must be a list")
    agents = tuple(
        _agent_from_dict(a, f"agents[{i}]") for i, a in enumerate(data["agents"])
    )
    society = (
        _agent_from_dict(data["society"], "society") if data.get("society") else None
    )
    if society is not None and not society.name:
        society = Agent(society.utility, society.beliefs, name="society")
    prof = Profile(states, outcome_dim, agents, society)
    problems = validate_profile(prof)
    if problems:
        raise DocumentError("invalid profile: " + "; ".join(problems))
    return prof


def profile_to_dict(prof: Profile) -> dict:
    """The profile document: `jsonable(prof)` without a missing society."""
    out = jsonable(prof)
    if prof.society is None:
        del out["society"]
    return out


def load_profile(path) -> Profile:
    return profile_from_dict(load_json(path))


def acts_from_dict(data, prof: Profile | None = None) -> list[tuple[str, Act]]:
    if not isinstance(data, dict) or "acts" not in data or not isinstance(data["acts"], list):
        raise DocumentError("acts document needs an 'acts' list")
    out = []
    for i, entry in enumerate(data["acts"]):
        where = f"acts[{i}]"
        if not isinstance(entry, dict) or "rows" not in entry:
            raise DocumentError(f"{where} needs 'rows'")
        rows = entry["rows"]
        if not isinstance(rows, list) or len(rows) < 2:
            raise DocumentError(f"{where}: need one outcome row per state (>= 2)")
        act = Act(tuple(_vector(r, where) for r in rows))
        if any(len(r) != act.outcome_dim for r in act.rows):
            raise DocumentError(f"{where}: rows of mixed outcome dimension")
        if prof is not None:
            if act.states != prof.states or act.outcome_dim != prof.outcome_dim:
                raise DocumentError(
                    f"{where}: act shape {act.states}x{act.outcome_dim} does not match "
                    f"profile {prof.states}x{prof.outcome_dim}"
                )
        name = entry.get("name", f"act{i + 1}")
        if not isinstance(name, str):
            raise DocumentError(f"{where}: name must be a string")
        out.append((name, act))
    return out


def load_acts(path, prof: Profile | None = None) -> list[tuple[str, Act]]:
    return acts_from_dict(load_json(path), prof)
