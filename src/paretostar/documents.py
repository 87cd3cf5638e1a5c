"""On-disk JSON formats: profiles, acts, witnesses, reports.

Parsing is exact end to end: JSON numbers are read with ``parse_float=frac``
so decimal literals like ``0.2`` become the rational 1/5, and strings are
accepted in decimal ("0.2") or ratio ("1/5") form.  Every number written as
text goes through `geometry.frac`, which refuses one too long to write back,
once per distinct string of a document.  Serialization renders every
rational as a "p/q" string, with deterministic key order, so identical
objects produce byte-identical documents; a rational whose numerator or
denominator has more than DIGIT_CAP digits cannot be read back, so
`jsonable` (and `decimal_cell`, for a CSV cell's whole part) refuses it with
CapExceededError.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

from .axioms import AxiomVerdict
from .errors import CapExceededError, DimensionMismatchError, DocumentError
from .geometry import DIGIT_CAP, Polytope, frac
from .harness import FuzzReport
from .preferences import Act, AffineUtility, Agent, Profile, validate_profile
from .witnesses import WitnessCertificate


# The least integer with more than DIGIT_CAP digits.
_UNWRITABLE = 10**DIGIT_CAP


def _digit_count(n: int) -> int:
    """Decimal digits of n > 0, counted without converting n to text."""
    k = (n.bit_length() - 1) * 30102 // 100000 + 1  # never more than the count
    while n >= 10**k:
        k += 1
    return k


def _text(x: Fraction | int) -> str:
    """The text of x, or CapExceededError past DIGIT_CAP digits: the one
    writability rule of documents and CSV cells.  It compares the parts with
    `_UNWRITABLE`, so it holds whatever Python's own limit on writing an
    integer.
    """
    num, den = x.numerator, x.denominator
    if not -_UNWRITABLE < num < _UNWRITABLE or den >= _UNWRITABLE:
        raise CapExceededError(
            f"a number with {_digit_count(max(abs(num), den))} digits exceeds the cap "
            f"of {DIGIT_CAP} digits that a document can hold"
        )
    return str(x)


def format_decimal(x: Fraction, digits: int) -> str:
    """Exact decimal rendering with `digits` places (ties to even)."""
    return decimal_cell(x.numerator, x.denominator, digits, 10**digits)


def decimal_cell(num: int, den: int, digits: int, unit: int) -> str:
    """num/den (den > 0) with `digits` places, unit = 10**digits: the one
    rounding rule of CSV cells.  One divmod of num * unit by den rounds it,
    ties to even as `round(Fraction)` does; num/den need not be in lowest
    terms.  The whole part obeys `_text`'s cap; the fraction part has
    `digits` places, which the CLI keeps within DIGIT_CAP.
    """
    scaled, rest = divmod(num * unit, den)
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, part = divmod(abs(scaled), unit)
    fraction = f".{str(part).zfill(digits)}" if digits else ""
    return f"{sign}{_text(whole)}{fraction}"


def jsonable(obj):
    """Recursively convert package objects to JSON-ready structures.

    A dataclass becomes ``{field: value}`` over its fields.  A polytope is its
    vertex list; verdicts and witnesses add their derived ``violation`` and
    ``violates`` entries; fuzz violations become ``{f, g, verdict}`` objects.
    A rational with more than DIGIT_CAP digits above or below its bar raises
    CapExceededError, since `load_json` could not read it back.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return _text(obj)
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


def render(tree) -> str:
    """The document text of a `jsonable` tree: sorted keys, two-space indent."""
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def dumps(obj) -> str:
    return render(jsonable(obj))


def save_json(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=frac)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # Not UTF-8, not JSON, a number over DIGIT_CAP digits, or nesting too deep.
        raise DocumentError(f"{path} is not valid JSON: {e}") from e


def _number(x, where: str, seen: dict[str, Fraction]) -> Fraction:
    """x as a Fraction; `seen` holds the strings this document has converted."""
    if type(x) is str and x in seen:
        return seen[x]
    try:
        value = frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise DocumentError(f"bad number in {where}: {x!r} ({e})") from e
    if type(x) is str:
        seen[x] = value
    return value


def _vector(xs, where: str, seen: dict[str, Fraction]):
    if not isinstance(xs, list) or not xs:
        raise DocumentError(f"{where} must be a nonempty list of numbers")
    return tuple(_number(x, where, seen) for x in xs)


def _agent_from_dict(data, where: str, seen: dict[str, Fraction]) -> Agent:
    if not isinstance(data, dict) or "utility" not in data or "beliefs" not in data:
        raise DocumentError(f"{where} needs 'utility' and 'beliefs'")
    util = data["utility"]
    if not isinstance(util, dict) or "coeffs" not in util:
        raise DocumentError(f"{where}: utility needs 'coeffs'")
    coeffs = _vector(util["coeffs"], f"{where}.utility.coeffs", seen)
    constant = _number(util.get("constant", 0), f"{where}.utility.constant", seen)
    beliefs = data["beliefs"]
    if not isinstance(beliefs, list) or not beliefs:
        raise DocumentError(f"{where}: beliefs must list at least one prior")
    try:
        poly = Polytope.from_generators(
            [_vector(v, f"{where}.beliefs", seen) for v in beliefs]
        )
    except (DocumentError, ValueError, TypeError, DimensionMismatchError) as e:
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
    if any(type(x) is not int for x in (states, outcome_dim)):
        raise DocumentError("'states' and 'outcome_dim' must be integers")
    if not isinstance(data["agents"], list):
        raise DocumentError("'agents' must be a list")
    seen: dict[str, Fraction] = {}
    agents = tuple(
        _agent_from_dict(a, f"agents[{i}]", seen) for i, a in enumerate(data["agents"])
    )
    # Only an absent key or null means no society; {} or 0 is a malformed one.
    society = None
    if data.get("society") is not None:
        society = _agent_from_dict(data["society"], "society", seen)
        if not society.name:
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


def acts_from_dict(data, prof: Profile) -> list[tuple[str, Act]]:
    if not isinstance(data, dict) or "acts" not in data or not isinstance(data["acts"], list):
        raise DocumentError("acts document needs an 'acts' list")
    out = []
    seen: dict[str, Fraction] = {}
    for i, entry in enumerate(data["acts"]):
        where = f"acts[{i}]"
        if not isinstance(entry, dict) or "rows" not in entry:
            raise DocumentError(f"{where} needs 'rows'")
        rows = entry["rows"]
        if not isinstance(rows, list) or len(rows) < 2:
            raise DocumentError(f"{where}: need one outcome row per state (>= 2)")
        act = Act(tuple(_vector(r, where, seen) for r in rows))
        if any(len(r) != act.outcome_dim for r in act.rows):
            raise DocumentError(f"{where}: rows of mixed outcome dimension")
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


def load_acts(path, prof: Profile) -> list[tuple[str, Act]]:
    return acts_from_dict(load_json(path), prof)
