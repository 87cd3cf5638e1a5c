"""Apply each named mutant to a copy of the package and check that its tests kill it.

A mutant names a file under `src/paretostar`, an exact source snippet that
must occur exactly once in that file, its replacement, and the test files
that should kill it.  For each mutant the runner copies `src/` to a
temporary directory, applies the replacement there, and runs pytest on the
test files with `PYTHONPATH` set to the copy; the working tree is never
edited.  It prints the first failing test id of each killed mutant, and
exits 1 when a mutant survives, its snippet is not found exactly once, or
pytest stops for another reason.  Standard library only.

    python tests/mutants/run.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]

# (name, file, snippet, replacement, test files)
MUTANTS = [
    ("vrep-dual-rhs-den", "geometry.py",
     "rows = [(scale, *[t - n * a",
     "rows = [(den, *[t - n * a",
     ["tests/test_vh_kernel.py"]),
    ("vrep-centred-row-without-n", "geometry.py",
     "[t - n * a for a, t in zip(x, total)]",
     "[t - a for a, t in zip(x, total)]",
     ["tests/test_vh_kernel.py"]),
    ("vrep-bound-without-centre", "geometry.py",
     "scale * t + sum([a * b for a, b in zip(y, total)])",
     "scale * t",
     ["tests/test_vh_kernel.py"]),
    ("primitive-without-gcd", "geometry.py",
     "g = gcd(*z) or 1",
     "g = 1",
     ["tests/test_vh_kernel.py"]),
    ("outside-box-non-strict", "geometry.py",
     "x < min(row)",
     "x <= min(row)",
     ["tests/test_box_precheck.py"]),
    ("hull-point-own-denominator", "geometry.py",
     "target = _scaled(p, L)",
     "target = list(vec_parts(p)[0])",
     ["tests/test_box_precheck.py"]),
    ("feasibility-stop-with-objective", "geometry.py",
     "    if not any(objective):\n",
     "    if True:\n",
     ["tests/test_lp_kernel.py"]),
    ("planar-corners-keep-collinear", "geometry.py",
     "(ay - oy) * (x - ox) > 0:",
     "(ay - oy) * (x - ox) >= 0:",
     ["tests/test_lp_kernel.py"]),
    ("intersect-without-dimension-check", "geometry.py",
     '    if any(P.ambient_dim != d for P in polys):\n'
     '        raise DimensionMismatchError("polytopes of mixed dimension")\n',
     "",
     ["tests/test_box_precheck.py"]),
    ("combo-meets-without-dimension-check", "characterizations.py",
     "    if any(len(c) != m for c in combo):\n",
     "    if False:\n",
     ["tests/test_characterizations.py"]),
    ("seu-prior-column-unscaled", "characterizations.py",
     "row[s] = -L",
     "row[s] = -1",
     ["tests/test_characterizations.py"]),
    ("thm1-dictator-for-any-multi-vertex-support", "characterizations.py",
     "if len(support) == 1 and not first.is_singleton():",
     "if not first.is_singleton():",
     ["tests/test_characterizations.py"]),
    ("evaluations-g-rows-scaled-by-f-factor", "preferences.py",
     "rows += [tuple([x * sg for x in r]) for r in rows_g]",
     "rows += [tuple([x * sf for x in r]) for r in rows_g]",
     ["tests/test_fuzz_trial.py"]),
    ("fuzz-keeps-certificate-free-violation", "harness.py",
     "violations.append((f, g, check(prof, f, g)))",
     "violations.append((f, g, verdict))",
     ["tests/test_fuzz_trial.py"]),
    ("draw-without-level-offset", "harness.py",
     "levels[1 + rng.next_u64() % (len(levels) - 1)]",
     "levels[rng.next_u64() % (len(levels) - 1)]",
     ["tests/test_fuzz_trial.py"]),
    ("distinct-rows-denominator-from-first-level", "harness.py",
     "den = lcm(*[x.denominator for row in rows for x in row])",
     "den = lcm(*[x.denominator for row in rows[:2] for x in row])",
     ["tests/test_act_kernel.py"]),
    ("star-premise-short-circuit-with-any", "axioms.py",
     "        return all(_strict_prior(a.beliefs.cleared, t) is not None\n",
     "        return any(_strict_prior(a.beliefs.cleared, t) is not None\n",
     ["tests/test_fuzz_trial.py"]),
    ("pivot-zero-cell-without-division", "geometry.py",
     "if b else a and p * a // q",
     "if b else a and p * a",
     ["tests/test_lp_kernel.py"]),
    ("trial-values-over-taste-denominator-alone", "harness.py",
     "dens = [den_u * den for _, den_u in cleared]",
     "dens = [den_u for _, den_u in cleared]",
     ["tests/test_fuzz_trial.py"]),
    ("trial-values-f-and-g-halves-swapped", "harness.py",
     "([*a, *b], d)",
     "([*b, *a], d)",
     ["tests/test_fuzz_trial.py"]),
    ("fuzz-without-dimension-check", "harness.py",
     "    if any(u.dim != prof.outcome_dim for u in utilities):\n",
     "    if False:\n",
     ["tests/test_fuzz_trial.py"]),
    ("exchange-feasibility-rhs-zero", "geometry.py",
     "feasible_nonneg(lp_rows, [den] * k)",
     "feasible_nonneg(lp_rows, [0] * k)",
     ["tests/test_margin_lp.py"]),
    ("plot-cell-round-half-up", "documents.py",
     "if 2 * rest > den or (2 * rest == den and scaled & 1):",
     "if 2 * rest >= den:",
     ["tests/test_document_boundary.py"]),
    ("validate-sum-ge-den", "preferences.py",
     "sum(ints) == den",
     "sum(ints) >= den",
     ["tests/test_document_boundary.py"]),
    ("dd-adjacency-without-third-ray", "geometry.py",
     "if sum([m & common == common for m in masks]) == 2:",
     "if True:",
     ["tests/test_vh_kernel.py"]),
    ("dd-zero-t-rays-ignored", "geometry.py",
     "if len(pivots) < d or not all(z[0] for z in rays):",
     "if len(pivots) < d:",
     ["tests/test_vh_kernel.py"]),
    ("remove-redundant-frame-wrong-denominator", "geometry.py",
     "            ints[j], [[ints[o][k]",
     "            list(vec_parts(uniq[j])[0]), [[ints[o][k]",
     ["tests/test_lp_kernel.py"]),
    ("expected-utility-without-state-check", "preferences.py",
     '    if len(p) != f.states:\n'
     '        raise DimensionMismatchError("prior length differs from act\'s state count")\n',
     "",
     ["tests/test_preferences.py"]),
]


def run_mutant(file, snippet, replacement, tests) -> tuple[bool, str]:
    """(killed, first failing test id or what went wrong)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / "paretostar" / file
        text = target.read_text(encoding="utf-8")
        if text.count(snippet) != 1:
            return False, f"snippet occurs {text.count(snippet)} times in {file}"
        target.write_text(text.replace(snippet, replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return False, "survived"
    if proc.returncode != 1:
        return False, f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    lines = proc.stdout.splitlines()
    return True, next((ln.split()[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))), "?")


def main() -> int:
    bad = 0
    for name, file, snippet, replacement, tests in MUTANTS:
        start = time.perf_counter()
        killed, what = run_mutant(file, snippet, replacement, tests)
        elapsed = time.perf_counter() - start
        print(f"{'killed' if killed else 'NOT KILLED':10} {name}: {what} ({elapsed:.1f} s)", flush=True)
        bad += not killed
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
