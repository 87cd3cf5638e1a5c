"""Alternating before/after runs of the benchmark, summarised as a BENCH record.

Extracts two revisions of this repository into a temporary directory, runs
``perfbench/run.py`` on each in pairs whose order alternates (the parent
first in even pairs, the change first in odd ones), and writes one JSON
document: the quartiles of each end-to-end metric per side, how many pairs
the change won on each, the output digests, and every raw record.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload crossval-fuzz --seed 1 --pairs 10 --seconds 20 --out BENCH_28.json

``--change worktree`` measures the files of the working tree (tracked and
untracked, minus what ``.gitignore`` excludes) instead of a commit.
``--workload`` and ``--seed`` may repeat; every workload runs at every seed.
The metric names and their better direction come from the change side's
``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = "worktree"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def describe(rev: str) -> str:
    """The commit a revision names, or the working tree on top of HEAD."""
    if rev == WORKTREE:
        return f"working tree on {git('rev-parse', 'HEAD').decode().strip()} (git_sha null)"
    return f"{git('rev-parse', rev + '^{commit}').decode().strip()} (git archive; git_sha null)"


def extract(rev: str, dest: Path) -> None:
    """The files of `rev` (or of the working tree) under `dest`, without .git."""
    dest.mkdir(parents=True)
    if rev != WORKTREE:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", rev), check=True)
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first: the parent in even pairs, the change in odd ones."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(record, result) from the last two lines ``perfbench/run.py`` prints."""
    *_, record_line, result_line = stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_output(proc.stdout)


def quartiles(values: list[float]) -> list[float]:
    """[first, third] quartile, `statistics.quantiles(n=4, method='inclusive')`."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One entry per (workload, seed): per metric the medians and quartiles
    of both sides, their ratio (change over parent), the pairs the change
    won, and whether the medians lie further apart than the parent's
    interquartile range in the better direction; then the output digests."""
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs = groups.setdefault((run["workload"], run["seed"]), {})
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    summary = []
    for (workload, seed), pairs in groups.items():
        complete = [p for _, p in sorted(pairs.items()) if {"parent", "change"} <= p.keys()]
        entry: dict = {"workload": workload, "seed": seed, "pairs": len(complete)}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"]["result"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in complete]
            won = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
            pm, cm = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            gap = pm - cm if lower else cm - pm
            entry[name] = {
                "parent_median": pm,
                "parent_quartiles": [q1, q3],
                "change_median": cm,
                "change_quartiles": quartiles(change),
                "ratio": cm / pm,
                "change_won": f"{won}/{len(complete)}",
                "gain_exceeds_parent_iqr": gap > q3 - q1,
            }
        digests = {side: sorted({p[side]["record"]["output_sha256"] for p in complete})
                   for side in ("parent", "change")}
        entry["output_sha256_identical"] = digests["parent"] == digests["change"]
        entry["output_sha256"] = digests
        entry["failed"] = sum(p[s]["result"]["failed"] for p in complete for s in p)
        entry["correct"] = all(p[s]["result"]["correct"] is True for p in complete for s in p)
        summary.append(entry)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help=f"revision measured as the change, or {WORKTREE!r}")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="", help="the claim this record measures")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        checkouts = {"parent": workdir / "parent", "change": workdir / "change"}
        extract(args.parent, checkouts["parent"])
        extract(args.change, checkouts["change"])
        metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = []
        for workload in args.workload:
            for seed in args.seed:
                for pair in range(args.pairs):
                    first = side_order(pair)[0]
                    for side in side_order(pair):
                        record, result = run_once(checkouts[side], workload, seed, args.seconds)
                        runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                                     "first": first, "record": record, "result": result})
                        values = {m: round(v["value"], 4) for m, v in result["metrics"].items()}
                        print(f"{workload} seed {seed} pair {pair} {side}: {values}",
                              file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir)
    document = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g} --trace 0",
        "order": "parent and change alternate which runs first, pair by pair (parent first in even pairs)",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "parent": describe(args.parent),
        "change": describe(args.change),
        "seeds": args.seed,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side; [first, third]",
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
    for entry in document["summary"]:
        for metric in metrics:
            m = entry[metric["name"]]
            print(f"{entry['workload']:14} seed {entry['seed']:<3} {metric['name']:16} "
                  f"{m['parent_median']:10.4f} -> {m['change_median']:10.4f} "
                  f"x{m['ratio']:.4f}  won {m['change_won']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
