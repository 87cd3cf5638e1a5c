"""paretostar benchmark: verdict throughput and latency on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lp-guard --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The program is imported from ``src/`` of the same checkout.  Set-up (import,
seeded inputs, warm-up) runs ``SETUP_REPEATS`` times and ``setup_s`` is the
median.  The timed part then runs whole passes over the items until the next
pass would end past ``--seconds``.  Every pass starts with cleared
``lru_cache`` state, because ``Profile`` hashes by value and a repeated pass
would otherwise measure cache hits a user with a new profile never gets.

Times are reported at a fixed reference speed.  A shared machine can run
the same code at half speed for tens of seconds at a time, so a raw wall
time says as much about the neighbours as about the program.  Between any
two verdicts, and between any two slots of set-up, the benchmark times
``calibrate``, a fixed loop of ``Fraction`` arithmetic that does not touch
the package, and scales each step's wall time by ``REFERENCE_CAL_S`` over
the mean of the calibration times on either side of it
(``ReferenceClock``): a verdict reads the same whether the machine was fast
or slow while it ran.  Each verdict's time is then its median
over the passes.  ``verdicts_per_s`` is the verdicts of a pass over the sum
of those times, and the latencies are taken over the same times.  The raw
wall-clock figures are in the run record (see README.md, "Noise").

Every verdict is checked against its known answer (see ``workloads.py``).
The first pass is checked in full; every later pass, traced or not, must
serialize to the same documents, so tracing and repetition can change no
verdict.  With ``--trace 1`` the time is split between an untraced and a
traced phase and the per-layer metrics of ``tracing.py`` are reported.

The second-to-last line of output is the run record (Python version, git
SHA, nproc, seed, output digest, sample counts, failed_ratio); the last line
is the result object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = Path("perfbench") / ".work"

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Time of one ``calibrate`` call at the reference speed: about its fastest
# on an idle core of a 2-vCPU x86-64 machine under Python 3.11.
REFERENCE_CAL_S = 1e-3
CAL_TERMS = 400
_DONE = object()

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def calibrate() -> float:
    """Wall time of a fixed ``Fraction`` loop: the machine's speed right now.

    The loop does the kind of arithmetic the package spends its time on,
    and no package code, so a change to the program cannot move it.
    Collection is off while it runs, so garbage left by a verdict is
    collected inside the verdicts and not here.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, CAL_TERMS):
            total += Fraction(i % 97, i % 89 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


class ReferenceClock:
    """Times steps in wall-clock seconds and in seconds at the reference speed.

    A ``calibrate`` call follows every step, so each step lies between two
    calibrations, and its wall time is scaled by ``REFERENCE_CAL_S`` over
    their mean.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.times: list[float] = []
        self._cal = calibrate()

    def step(self, fn, *args):
        """``fn(*args)``, timed; the times are recorded even if it raises."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            wall = perf_counter() - t0
            cal = calibrate()
            self.walls.append(wall)
            self.times.append(wall * REFERENCE_CAL_S * 2 / (self._cal + cal))
            self._cal = cal


class MissingProgram(Exception):
    """The checkout has no package source to benchmark."""


def import_fresh():
    """Import paretostar from this checkout's ``src/``, discarding earlier imports."""
    if not (SRC / "paretostar" / "__init__.py").is_file():
        raise MissingProgram(f"no package source at {SRC / 'paretostar'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "paretostar" or n.startswith("paretostar.")]:
        del sys.modules[name]
    import paretostar

    if Path(paretostar.__file__).resolve().parent != (SRC / "paretostar").resolve():
        raise MissingProgram(f"paretostar was imported from {paretostar.__file__}, not {SRC}")
    return paretostar


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class _Error:
    """A verdict that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.doc = {"error": type(exc).__name__, "message": str(exc)}


class Phase:
    """Timed passes of one kind (traced or not) and what they produced."""

    def __init__(self):
        self.passes = 0
        self.item_times: list[list[float]] = []  # at the reference speed
        self.raw_item_times: list[list[float]] = []  # wall clock
        self.attempted = 0
        self.failed = 0
        self.digest = None


class Runner:
    """Set-up, timed passes and checks for one workload and seed."""

    def __init__(self, name: str, seed: int, size: int | None = None):
        self.name = name
        self.seed = seed
        self.size = size
        self.reference: list[tuple[str, str | None]] | None = None
        self.reasons: list[str] = []

    def setup(self) -> tuple[list[float], list[float]]:
        """Set up ``SETUP_REPEATS`` times; (times at the reference speed, wall times)."""
        times, raw = [], []
        for _ in range(SETUP_REPEATS):
            clock = ReferenceClock()
            clock.step(import_fresh)
            wl = clock.step(WORKLOADS[self.name], self.seed, self.size, WORKDIR)
            slots = wl.build()
            while clock.step(next, slots, _DONE) is not _DONE:
                pass
            for item in wl.items[:2]:
                clock.step(wl.run, item)
            times.append(sum(clock.times))
            raw.append(sum(clock.walls))
        self.wl = wl
        gc.collect()  # drop the modules and inputs of the earlier set-ups
        prefs = wl.pkg.preferences
        self.caches = (prefs.check_c_minimal_agreement, prefs.check_c_diversity)
        self.dumps = wl.pkg.documents.dumps
        return times, raw

    def _pass(self, phase: Phase, tracer) -> None:
        wl = self.wl
        for cache in self.caches:
            cache.cache_clear()
        results = []
        if tracer is not None:
            tracer.install()
        try:
            clock = ReferenceClock()
            for item in wl.items:
                try:
                    result = clock.step(wl.run, item)
                except Exception as exc:  # a failed verdict is counted, not fatal
                    result = _Error(exc)
                results.append(result)
        finally:
            if tracer is not None:
                tracer.uninstall()

        phase.passes += 1
        if not phase.item_times:
            phase.item_times = [[] for _ in wl.items]
            phase.raw_item_times = [[] for _ in wl.items]
        for k, (t, wall) in enumerate(zip(clock.times, clock.walls)):
            phase.item_times[k].append(t)
            phase.raw_item_times[k].append(wall)

        outcome = []
        for item, result in zip(wl.items, results):
            if isinstance(result, _Error):
                outcome.append((self.dumps(result.doc), f"raised {result.doc}"))
                continue
            doc = self.dumps(wl.doc(item, result))
            if self.reference is None:
                try:
                    reason = wl.check(item, result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            else:
                ref_doc, ref_reason = self.reference[len(outcome)]
                reason = ref_reason if doc == ref_doc else "result differs from the first pass"
            outcome.append((doc, reason))
        if self.reference is None:
            self.reference = outcome
        if phase.digest is None:
            sha = hashlib.sha256()
            for doc, _ in outcome:
                sha.update(doc.encode("utf-8"))
            phase.digest = sha.hexdigest()
        phase.attempted += len(outcome)
        for _, reason in outcome:
            if reason is not None:
                phase.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(reason)

    def measure(self, budget: float, tracer=None) -> Phase:
        """Whole passes until the next one would end past ``budget`` seconds."""
        phase = Phase()
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self._pass(phase, tracer)
            now = perf_counter()
            if now - start + (now - t0) > budget:
                return phase


def item_times(phase: Phase, raw: bool = False) -> list[float]:
    """Each item's median time over the passes of ``phase``."""
    return [statistics.median(ts) for ts in (phase.raw_item_times if raw else phase.item_times)]


def throughput(phase: Phase, raw: bool = False) -> float:
    """Verdicts per second of a pass made of every item's median time."""
    times = item_times(phase, raw)
    return len(times) / sum(times)


def latency_metrics(phase: Phase, raw: bool = False) -> dict:
    """Median and tail over per-item median times; one sample per distinct verdict.

    The sample count is the number of items, fixed by the workload, so a
    faster program does not move the tail to a higher percentile.
    """
    samples = sorted(item_times(phase, raw))
    n = len(samples)
    rank = max(n - TAIL_BEYOND, 1)
    return {
        "verdict_p50_ms": statistics.median(samples) * 1e3,
        "verdict_tail_ms": samples[rank - 1] * 1e3,
        "tail_percentile": 100.0 * rank / n,
        "samples": n,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: int | None = None):
    """One benchmark run; returns (record, result) as printed by ``main``."""
    runner = Runner(name, seed, size)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, raw_setup_times = runner.setup()
        untraced = runner.measure(seconds / 2 if trace else seconds)
        traced = tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.reset()
            traced = runner.measure(seconds / 2, tracer)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    phases = [p for p in (untraced, traced) if p is not None]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    digests_agree = traced is None or traced.digest == untraced.digest
    rate = throughput(untraced)
    latency = latency_metrics(untraced)
    raw_latency = latency_metrics(untraced, raw=True)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "verdicts_per_s": rate,
        "verdict_p50_ms": latency["verdict_p50_ms"],
        "verdict_tail_ms": latency["verdict_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        values = tracer.metrics(traced.passes)
        values[tracing.OVERHEAD] = rate / throughput(traced)
        units = {spec["name"]: spec["unit"] for spec in tracing.metric_specs()}
    else:
        values = end_to_end
        units = END_TO_END
    record = {
        "workload": name,
        "why": next(
            w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
            if w["name"] == name
        ),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "load_shape": "closed loop, 1 caller, 1 process, 1 thread",
        "items_per_pass": len(runner.wl.items),
        "passes": untraced.passes,
        "traced_passes": traced.passes if traced else None,
        "traced_bindings": tracer.replaced if trace else None,
        "layer_effects": tracing.LAYER_EFFECTS if trace else None,
        "setup_runs_s": setup_times,
        "reference_cal_s": REFERENCE_CAL_S,
        "wall_clock": {
            "setup_s": statistics.median(raw_setup_times),
            "verdicts_per_s": throughput(untraced, raw=True),
            "verdict_p50_ms": raw_latency["verdict_p50_ms"],
            "verdict_tail_ms": raw_latency["verdict_tail_ms"],
        },
        "tail_percentile": latency["tail_percentile"],
        "latency_samples": latency["samples"],
        "failed_ratio": failed / attempted,
        "failure_reasons": runner.reasons,
        "output_sha256": untraced.digest,
        "traced_output_sha256": traced.digest if traced else None,
        "end_to_end": end_to_end,
    }
    result = {
        "correct": failed == 0 and digests_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        import_fresh()
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    if args.workload != "all":
        record, result = runs[0]
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps(result))
        return 0
    for record, result in runs:
        rows = [(m, v, END_TO_END[m]) for m, v in record["end_to_end"].items()]
        # Not in BENCHMARK.json: it is 0 whenever the program is right.
        rows.insert(4, ("failed_ratio", record["failed_ratio"], "ratio"))
        for metric, value, unit in rows:
            print(f"{record['workload']:14} {metric:16} {value:14.4f} {unit}")
        print(
            f"{record['workload']:14} tail is p{record['tail_percentile']:.1f} of "
            f"{record['latency_samples']} verdicts; sha256 {record['output_sha256'][:16]}"
        )
    print(json.dumps({
        "correct": all(result["correct"] for _, result in runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": {
            f"{record['workload']}.{k}": v
            for record, result in runs
            for k, v in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
