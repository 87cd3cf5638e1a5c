"""The summary arithmetic of `tools/bench_pairs.py` on synthetic run records."""

import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

METRICS = [{"name": "verdicts_per_s", "better": "higher"}, {"name": "verdict_p50_ms", "better": "lower"}]


def _run(pair, side, rate, p50, sha="ab", failed=0, workload="w", seed=1):
    return {
        "workload": workload, "seed": seed, "pair": pair, "side": side,
        "first": bench_pairs.side_order(pair)[0],
        "record": {"output_sha256": sha},
        "result": {"correct": True, "failed": failed, "metrics": {
            "verdicts_per_s": {"value": rate}, "verdict_p50_ms": {"value": p50}}},
    }


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.side_order(p) for p in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_medians_quartiles_wins_and_ratio():
    parent_rates = [100, 102, 98, 101, 99]
    change_rates = [110, 101, 111, 109, 108]  # wins 4 of 5
    parent_p50 = [2.0, 2.1, 1.9, 2.0, 2.2]
    change_p50 = [1.8, 1.9, 1.8, 2.1, 1.7]  # wins 4 of 5
    runs = []
    for pair, values in enumerate(zip(parent_rates, change_rates, parent_p50, change_p50)):
        b, c, bp, cp = values
        runs += [_run(pair, "parent", b, bp), _run(pair, "change", c, cp)]
    (entry,) = bench_pairs.summarize(runs, METRICS)
    assert entry["workload"] == "w" and entry["seed"] == 1 and entry["pairs"] == 5
    rate = entry["verdicts_per_s"]
    assert rate["parent_median"] == 100 and rate["change_median"] == 109
    assert rate["parent_quartiles"] == [99, 101]
    assert rate["change_quartiles"] == [108, 110]
    assert rate["ratio"] == 1.09 and rate["change_won"] == "4/5"
    assert rate["gain_exceeds_parent_iqr"] is True  # 9 > 101 - 99
    p50 = entry["verdict_p50_ms"]
    assert p50["parent_median"] == 2.0 and p50["change_median"] == 1.8
    assert p50["change_won"] == "4/5"
    assert p50["parent_quartiles"] == statistics.quantiles(parent_p50, n=4, method="inclusive")[::2]
    # 0.2 lower clears the parent's interquartile range, 2.0 to 2.1.
    assert p50["parent_quartiles"] == [2.0, 2.1] and p50["gain_exceeds_parent_iqr"] is True
    assert entry["output_sha256_identical"] is True and entry["output_sha256"] == {
        "parent": ["ab"], "change": ["ab"]}
    assert entry["failed"] == 0 and entry["correct"] is True


def test_a_loss_is_no_gain_and_ties_are_not_wins():
    runs = [_run(0, "parent", 100, 2.0), _run(0, "change", 100, 2.5),
            _run(1, "change", 90, 2.0, sha="cd", failed=2), _run(1, "parent", 100, 2.0)]
    (entry,) = bench_pairs.summarize(runs, METRICS)
    assert entry["verdicts_per_s"]["change_won"] == "0/2"
    assert entry["verdicts_per_s"]["gain_exceeds_parent_iqr"] is False
    assert entry["verdict_p50_ms"]["change_won"] == "0/2"
    assert entry["verdict_p50_ms"]["ratio"] == 1.125
    assert entry["output_sha256_identical"] is False
    assert entry["output_sha256"] == {"parent": ["ab"], "change": ["ab", "cd"]}
    assert entry["failed"] == 2


def test_groups_by_workload_and_seed_and_drops_incomplete_pairs():
    runs = [_run(0, "parent", 100, 2.0, seed=1), _run(0, "change", 110, 1.9, seed=1),
            _run(0, "parent", 100, 2.0, seed=11), _run(0, "change", 120, 1.5, seed=11),
            _run(1, "parent", 100, 2.0, seed=11)]
    entries = bench_pairs.summarize(runs, METRICS)
    assert [(e["seed"], e["pairs"]) for e in entries] == [(1, 1), (11, 1)]
    assert entries[1]["verdicts_per_s"]["ratio"] == 1.2
    assert entries[1]["verdicts_per_s"]["parent_quartiles"] == [100, 100]


def test_reads_the_last_two_lines_of_a_run():
    record, result = {"output_sha256": "ab"}, {"correct": True, "failed": 0, "metrics": {}}
    stdout = "table line\n" + json.dumps({"record": record}) + "\n" + json.dumps(result) + "\n"
    assert bench_pairs.parse_output(stdout) == (record, result)
