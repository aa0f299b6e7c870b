"""Self-test of the benchmark's generator and output checks.

    python3 perfbench/selftest.py

Shows that (1) different seeds give the same operation count, grid sizes and
N mix, while still changing the inputs, and (2) the checks count a corrupted
CSV value, a wrong state, a wrong weight and a changed repeat as failures,
and count the NaN rows of a clean sweep.  Exits 0 when every claim holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3, 17, 2024)


def shape(op) -> tuple:
    p = op.params
    return (op.kind, op.axis, op.size, tuple(a[3] for a in p.get("axes", ())), p.get("m"))


def seeds_share_the_work() -> list[str]:
    failures = []
    for name, workload in WORKLOADS.items():
        lists = [workload.generate(seed) for seed in SEEDS]
        if any([shape(op) for op in ops] != [shape(op) for op in lists[0]] for ops in lists):
            failures.append(f"{name}: operation count, grid sizes or N mix depend on the seed")
        if name != "verify-suite" and all(
                [op.params for op in ops] == [op.params for op in lists[0]] for ops in lists[1:]):
            failures.append(f"{name}: the seed changes no input")
        if [op.params for op in workload.generate(5)] != [op.params for op in workload.generate(5)]:
            failures.append(f"{name}: the same seed gives different inputs")
    return failures


def corruption_is_counted() -> list[str]:
    bench.OUT.mkdir(exist_ok=True)
    sweeps = WORKLOADS["figure-sweeps"].generate(1)
    symbolic = WORKLOADS["symbolic-scaling"].generate(1)
    fig1 = next(op for op in sweeps if op.kind == "fig1")
    build = next(op for op in symbolic if op.kind == "mixed-build")
    solve = next(op for op in symbolic if op.kind == "mixed-solve")
    n3 = next(op for op in symbolic if op.kind == "ghz-build" and op.size == 3)
    runner = bench.Runner([fig1, build, solve, n3], csv_prefix="selftest")
    run = bench.Run(runner)
    results = {i: runner.execute(i) for i in range(4)}
    for i, result in results.items():
        run._record(i, result, None)
    failures = [f"clean output counted as failed: {p}" for p in run.problems]
    if run.nan_points != 2:  # fig1 over 0:2π in 201 steps meets α = π/2 and 3π/2
        failures.append(f"clean fig1 sweep gave {run.nan_points} NaN rows, want 2")

    def expect_failure(label: str, i: int, result) -> None:
        before = run.failed
        runner.fingerprints.pop(i, None)
        run._record(i, result, None)
        if run.failed != before + 1:
            failures.append(f"not counted as a failure: {label}")

    path = runner.inputs[0][1]
    clean = path.read_text()
    lines = clean.splitlines(keepends=True)
    row = next(k for k, line in enumerate(lines[1:], 1) if ",nan," not in line)
    cells = lines[row].split(",")
    for label, edit in (
            ("value off by 1e-6", lambda c: c[:1] + [repr(float(c[1]) + 1e-6)] + c[2:]),
            ("nan away from the degeneracy", lambda c: c[:1] + ["nan"] + c[2:]),
            ("closed form off by 1e-6", lambda c: c[:2] + [repr(float(c[2]) + 1e-6)] + c[3:])):
        path.write_text("".join(lines[:row] + [",".join(edit(cells))] + lines[row + 1:]))
        expect_failure(f"CSV {label}", 0, results[0])
    path.write_text("".join(lines[:-1]))
    expect_failure("CSV missing a row", 0, results[0])
    path.write_text(clean)

    from pseudobell.constructor import StateVector

    import checks

    for label, i in (("mixed state", 1), ("catalog N=3 state", 3)):
        terms = dict(results[i].terms)
        first = next(iter(terms))
        terms[first] = -terms[first]
        expect_failure(f"{label} with one flipped sign", i, StateVector(terms))
    expect_failure("negated weight", 2, -results[2])

    # a repeat whose output changed is a failure even when it checks out
    before = run.failed
    runner.fingerprints[1] = "an earlier, different output"
    run._record(1, results[1], None)
    if run.failed != before + 1:
        failures.append("not counted as a failure: changed repeat")
    if not checks.check_verify(1, "all checks passed\n"):
        failures.append("not counted as a failure: verify exit code 1")
    return failures


def main() -> int:
    failures = []
    for name, test in (("seeds share the work", seeds_share_the_work),
                       ("corruption is counted", corruption_is_counted)):
        found = test()
        print(f"[{'FAIL' if found else ' ok '}] {name}")
        for line in found:
            print(f"       {line}")
        failures += found
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
