"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, LpGuard, ManyAgents  # noqa: E402

TINY = {"lp-guard": 2, "crossval-fuzz": 3, "many-agents": 3, "cli-profiles": 1}


@pytest.fixture(scope="module")
def traced_runs():
    """One tiny traced run per workload: (record, result)."""
    cwd = Path.cwd()
    try:
        os.chdir(run.ROOT)
        yield {name: run.run_workload(name, 3, 0.01, True, TINY[name]) for name in WORKLOADS}
    finally:
        os.chdir(cwd)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == tracing.metric_specs()
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct_and_complete(traced_runs, name):
    record, result = traced_runs[name]
    assert result["correct"], record["failure_reasons"]
    assert result["failed"] == 0 and result["attempted"] >= 2 * record["items_per_pass"]
    assert record["failed_ratio"] == 0
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["end_to_end"].values())
    specs = {s["name"]: s["unit"] for s in tracing.metric_specs()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == specs
    assert set(record["wall_clock"]) == set(run.END_TO_END) - {"peak_rss_mb"}
    # Tracing changed no verdict.
    assert record["traced_output_sha256"] == record["output_sha256"]
    for field in ("python", "nproc", "seed"):
        assert record[field] is not None


def _calls(traced_runs, name, function):
    return traced_runs[name][1]["metrics"][f"{function}.calls"]["value"]


def test_traced_counts_equal_issued_work(traced_runs):
    profiles = TINY["lp-guard"]
    assert _calls(traced_runs, "lp-guard", "characterizations.combo_meets") == (
        profiles * LpGuard.COMBOS_PER_PROFILE
    )
    assert _calls(traced_runs, "lp-guard", "axioms.exchange_pareto_star_check") == (
        profiles * LpGuard.PAIRS_PER_PROFILE
    )
    lp = traced_runs["lp-guard"][1]["metrics"]
    assert lp["characterizations.combo_meets.meet_ratio"]["value"] == 1

    items = traced_runs["crossval-fuzz"][0]["items_per_pass"]
    assert _calls(traced_runs, "crossval-fuzz", "harness.cross_validate") == items

    schedule = ManyAgents.COMBO_SCHEDULE[: TINY["many-agents"]]
    ma = traced_runs["many-agents"][1]["metrics"]
    assert _calls(traced_runs, "many-agents", "characterizations.aggregate_society") == len(schedule)
    # Minkowski generators, the thm2 scan and the existence LP each draw every combo.
    assert ma["characterizations.enumerate_combos.combos"]["value"] == 3 * sum(schedule)

    commands = traced_runs["cli-profiles"][0]["items_per_pass"]
    assert commands == 40 + 5 * TINY["cli-profiles"]
    assert _calls(traced_runs, "cli-profiles", "cli.main") == commands
    assert _calls(traced_runs, "cli-profiles", "documents.load_profile") == commands


def test_reference_clock_times_every_step_even_a_failing_one():
    clock = run.ReferenceClock()
    assert clock.step(sum, [1, 2]) == 3
    with pytest.raises(ZeroDivisionError):
        clock.step(divmod, 1, 0)
    assert len(clock.times) == len(clock.walls) == 2
    assert all(t > 0 for t in clock.times + clock.walls)


def test_tracer_replaces_every_binding_and_restores_them():
    package = run.import_fresh()
    import paretostar.axioms as axioms
    import paretostar.characterizations as ch
    import paretostar.geometry as geometry

    original = geometry.lp_solve
    tracer = tracing.Tracer()
    tracer.reset()
    tracer.install()
    try:
        assert package.lp_solve is geometry.lp_solve is ch.lp_solve is not original
        assert axioms.lp_solve is geometry.lp_solve
        assert all(hasattr(f, "__wrapped__") for f in axioms.AXIOM_CHECKS.values())
    finally:
        tracer.uninstall()
    assert package.lp_solve is geometry.lp_solve is ch.lp_solve is original
    assert not any(hasattr(f, "__wrapped__") for f in axioms.AXIOM_CHECKS.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-guard", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

