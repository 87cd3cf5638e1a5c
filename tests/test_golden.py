"""Golden documents: the exact bytes of CLI check output and witness files.

`tests/golden/check_machine.json` pins the exit code, stdout and stderr of
``paretostar check <profile> <tag> --format machine`` for every shipped
profile and every condition tag; `tests/golden/axiom_machine.json` pins the
same for every axiom on every shipped profile with
``--acts profiles/sq_vs_reform.acts`` (the exchange certificates among
them); the ``witness_*.json`` files pin three
witness documents, one per construction; `tests/golden/plot_data.json` pins
the full CSV text of ``paretostar plot-data`` for two profile/acts pairs at
three precisions and two grids; `tests/golden/fuzz_reports.json`
pins the dumped `fuzz_axiom` report (digest, premise hits and every
certified violation) of 300 seeded trials for every shipped profile with a
society, every axiom and every sampler the profile admits.  A change that
alters any certificate, margin, report byte or fuzz digest fails here.

Regenerate (only when a document change is intended, and say so in the
change log) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib
import tempfile
import warnings

import pytest

from paretostar.axioms import AXIOM_CHECKS
from paretostar.cli import main
from paretostar.documents import dumps, load_profile, profile_to_dict, save_json
from paretostar.harness import SAMPLER_TAGS, GenParams, fuzz_axiom, random_profile
from paretostar.preferences import check_c_minimal_agreement

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PROFILES = pathlib.Path(__file__).resolve().parent.parent / "profiles"

CHECK_TAGS = (
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
PROFILE_NAMES = tuple(sorted(p.stem for p in PROFILES.glob("*.profile")))

# The seeded profile is the only one of these whose thm1 failure yields a
# lemma-1 witness; no shipped profile does.
SEEDED = GenParams(seed=0, n=2, m=2, d=2, max_vertices=2, society_rule="minkowski")
WITNESSES = (
    ("example2_p08", "ct-pareto-star"),
    ("example1", "spurious-unanimity"),
    ("seeded", "lemma1"),
)


AXIOM_ACTS = PROFILES / "sq_vs_reform.acts"


def run_check(profile_name: str, tag: str, *extra: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    path = PROFILES / f"{profile_name}.profile"
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path), tag, *extra, "--format", "machine"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_axiom_check(profile_name: str, axiom: str) -> dict:
    return run_check(profile_name, axiom, "--acts", str(AXIOM_ACTS))


def profile_path(name: str, tmp: pathlib.Path) -> pathlib.Path:
    if name == "seeded":
        path = tmp / "seeded.profile"
        save_json(path, profile_to_dict(random_profile(SEEDED)))
        return path
    return PROFILES / f"{name}.profile"


def build_witness(name: str, kind: str, tmp: pathlib.Path) -> str:
    out = tmp / "witness.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["witness", str(profile_path(name, tmp)), kind, "--out", str(out)])
    if code != 0:
        raise AssertionError(f"witness {kind} on {name} exited {code}")
    return out.read_text(encoding="utf-8")


PLOT_INPUTS = (("example1", "sq_vs_reform"), ("example2", "reform_vs_sq_common"))
PLOT_PRECISIONS = (0, 2, 6)
PLOT_GRIDS = (2, 101)
PLOT_KEYS = tuple(
    (name, acts, precision, grid)
    for name, acts in PLOT_INPUTS
    for precision in PLOT_PRECISIONS
    for grid in PLOT_GRIDS
)


def plot_key(name: str, acts: str, precision: int, grid: int) -> str:
    return f"{name} {acts} --precision {precision} --grid {grid}"


def build_plot(name: str, acts: str, precision: int, grid: int, tmp: pathlib.Path) -> bytes:
    out = tmp / "curves.csv"
    argv = [
        "plot-data", str(PROFILES / f"{name}.profile"), str(PROFILES / f"{acts}.acts"),
        "--out", str(out), "--precision", str(precision), "--grid", str(grid),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"plot-data on {name} exited {code}")
    return out.read_bytes()


FUZZ_TRIALS = 300
FUZZ_SEED = 7


def fuzz_reports(name: str) -> dict:
    """Dumped fuzz reports of one shipped profile, keyed "axiom sampler"."""
    prof = load_profile(PROFILES / f"{name}.profile")
    if prof.society is None:
        return {}
    samplers = [
        s for s in SAMPLER_TAGS
        if s != "common-taste" or check_c_minimal_agreement(prof) is not None
    ]
    reports = {}
    with warnings.catch_warnings():
        # The general sampler warns on the common-taste axioms; pinned anyway.
        warnings.simplefilter("ignore")
        for axiom in AXIOM_CHECKS:
            for sampler in samplers:
                report = fuzz_axiom(prof, axiom, FUZZ_TRIALS, sampler, seed=FUZZ_SEED)
                reports[f"{axiom} {sampler}"] = dumps(report)
    return reports


def witness_file(name: str, kind: str) -> pathlib.Path:
    return GOLDEN / f"witness_{kind}_{name}.json"


@pytest.fixture(scope="module")
def check_golden() -> dict:
    return json.loads((GOLDEN / "check_machine.json").read_text(encoding="utf-8"))


def test_golden_covers_every_profile_and_tag(check_golden):
    assert sorted(check_golden) == sorted(
        f"{name} {tag}" for name in PROFILE_NAMES for tag in CHECK_TAGS
    )


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_check_output_is_byte_identical(check_golden, name):
    for tag in CHECK_TAGS:
        assert run_check(name, tag) == check_golden[f"{name} {tag}"], tag


@pytest.fixture(scope="module")
def axiom_golden() -> dict:
    return json.loads((GOLDEN / "axiom_machine.json").read_text(encoding="utf-8"))


def test_axiom_golden_covers_every_profile_and_axiom(axiom_golden):
    assert sorted(axiom_golden) == sorted(
        f"{name} {axiom}" for name in PROFILE_NAMES for axiom in AXIOM_CHECKS
    )


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_axiom_check_output_is_byte_identical(axiom_golden, name):
    for axiom in AXIOM_CHECKS:
        assert run_axiom_check(name, axiom) == axiom_golden[f"{name} {axiom}"], axiom


@pytest.fixture(scope="module")
def fuzz_golden() -> dict:
    return json.loads((GOLDEN / "fuzz_reports.json").read_text(encoding="utf-8"))


def test_fuzz_golden_covers_every_profile_with_a_society(fuzz_golden):
    with_society = [
        name for name in PROFILE_NAMES
        if load_profile(PROFILES / f"{name}.profile").society is not None
    ]
    assert with_society and sorted(fuzz_golden) == with_society


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_fuzz_reports_are_byte_identical(fuzz_golden, name):
    assert fuzz_reports(name) == fuzz_golden.get(name, {})


@pytest.mark.parametrize("name,kind", WITNESSES)
def test_witness_file_is_byte_identical(name, kind, tmp_path):
    expected = witness_file(name, kind).read_text(encoding="utf-8")
    assert build_witness(name, kind, tmp_path) == expected


@pytest.fixture(scope="module")
def plot_golden() -> dict:
    return json.loads((GOLDEN / "plot_data.json").read_text(encoding="utf-8"))


def test_plot_golden_covers_every_input(plot_golden):
    assert sorted(plot_golden) == sorted(plot_key(*key) for key in PLOT_KEYS)


@pytest.mark.parametrize("key", PLOT_KEYS, ids=lambda key: plot_key(*key))
def test_plot_data_is_byte_identical(plot_golden, key, tmp_path):
    assert build_plot(*key, tmp_path) == plot_golden[plot_key(*key)].encode("utf-8")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    checks = {
        f"{name} {tag}": run_check(name, tag) for name in PROFILE_NAMES for tag in CHECK_TAGS
    }
    (GOLDEN / "check_machine.json").write_text(
        json.dumps(checks, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    axioms = {
        f"{name} {axiom}": run_axiom_check(name, axiom)
        for name in PROFILE_NAMES for axiom in AXIOM_CHECKS
    }
    (GOLDEN / "axiom_machine.json").write_text(
        json.dumps(axioms, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with tempfile.TemporaryDirectory() as tmp:
        plots = {
            plot_key(*key): build_plot(*key, pathlib.Path(tmp)).decode("utf-8")
            for key in PLOT_KEYS
        }
    (GOLDEN / "plot_data.json").write_text(
        json.dumps(plots, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    fuzz = {name: reports for name in PROFILE_NAMES if (reports := fuzz_reports(name))}
    (GOLDEN / "fuzz_reports.json").write_text(
        json.dumps(fuzz, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with tempfile.TemporaryDirectory() as tmp:
        for name, kind in WITNESSES:
            text = build_witness(name, kind, pathlib.Path(tmp))
            witness_file(name, kind).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
