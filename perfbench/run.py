"""Benchmark entry point for pseudobell.

    python3 perfbench/run.py --workload figure-sweeps --seed 1 --seconds 25 --trace 0

One closed-loop client in this process runs one operation at a time: a call
into a public entry point (``cli.main`` or a ``constructor`` function) with
inputs generated from ``--seed``.  It repeats the workload's operation list
(one pass) until ``--seconds`` of operation time have been measured, and at
least the workload's minimum number of passes.  Every output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time
between untraced and traced passes and prints the per-layer metrics.  The
last stdout line is the result object; the line before it carries the
provenance and details, which are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 15
SETUP_CODE = "import pseudobell.cli as cli; cli.build_parser()"
# The reference interpreter imports what pseudobell imports from outside
# itself.  Each set-up time is scaled to the machine speed at which the
# reference takes REF_NOMINAL_S, as measured right before and after it.
REF_CODE = "import argparse, csv, dataclasses, fractions, json, random, re, numpy"
REF_NOMINAL_S = 0.15
# Reference duration of the calibration kernel; every reported operation
# time is scaled to the machine speed at which the kernel takes this long.
CAL_NOMINAL_S = 2e-3
# kernel timings within this many seconds of an operation estimate its speed
CAL_WINDOW_S = 0.5
# stop starting passes after this much wall time, so a run ends within 180 s
HARD_STOP_S = 140.0

SWEEPS = {"fig1", "fig2", "fig4", "ghz-grid"}
BUILDS = {"ghz-build", "mixed-build"}

# (layer, report calls, report self time) for --trace 1
PER_LAYER = [
    ("cli.main", True, True),
    ("verify.run_all", True, True),
    ("constructor.catalog", True, False),
    ("constructor.build_state", True, True),
    ("constructor.solve_weight", True, True),
    ("graded_states.graded_tensor", True, True),
    ("graded_states.coherent_state", True, False),
    ("graded_states.premultiply", False, True),
    ("graded_states.integrate", False, True),
    ("grassmann.mul", True, True),
    ("grassmann.berezin", True, True),
    ("biortho.basis_from_alpha", True, True),
    ("entanglement.embed", True, True),
    ("entanglement.normalize", False, True),
    ("entanglement.concurrence", True, True),
    ("entanglement.average_entropy", True, True),
    ("entanglement.partial_trace", True, True),
    ("entanglement.linear_entropy", False, True),
    ("entanglement.closed_form", True, True),
]


def parse_args(argv: list[str] | None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_V = np.array([0.3 + 0.1j, 0.7 - 0.2j])
_W = np.array([0.5, -0.5j])


def _kernel() -> None:
    """Small-array numpy calls and Fraction arithmetic: the program's two
    kinds of work, in code that calls nothing in pseudobell."""
    for _ in range(24):
        a = np.kron(_V, _W)
        b = np.outer(a, a.conj())
        float(np.real(np.trace(b @ b)))
    x = Fraction(0)
    for i in range(1, 80):
        x = (x + Fraction(i, i + 3)) * Fraction(3, 7)


def calibrate() -> float:
    """Best of two timings of the calibration kernel (about 2 ms)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[list[float], list[float], int]:
    """Fresh interpreters importing pseudobell (which builds the catalog)
    and building the CLI parser, each between two reference interpreters.
    The first set-up compiles bytecode and is not counted.  Returns the
    scaled and the unscaled seconds of each, and the failure count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failures = 0

    def interpreter(code: str) -> float:
        nonlocal failures
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, timeout=60)
        failures += proc.returncode != 0
        return time.perf_counter() - t0

    interpreter(SETUP_CODE)
    scaled, raw = [], []
    ref = interpreter(REF_CODE)
    for _ in range(SETUP_RUNS):
        elapsed = interpreter(SETUP_CODE)
        ref_after = interpreter(REF_CODE)
        raw.append(elapsed)
        scaled.append(elapsed * REF_NOMINAL_S / ((ref + ref_after) / 2))
        ref = ref_after
    return scaled, raw, failures


def provenance(seed: int) -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudobell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "seed": seed}


class Runner:
    """Turns the generated operations into program calls and checks them."""

    def __init__(self, ops, csv_prefix: str = "sweep"):
        import pseudobell.cli
        import pseudobell.constructor
        from pseudobell.grassmann import GrassmannElement, theta

        import checks

        self.ops, self.checks = ops, checks
        self.cli, self.constructor = pseudobell.cli, pseudobell.constructor
        self.build_state = pseudobell.constructor.build_state  # untraced, for checks
        self.inputs = []
        for i, op in enumerate(ops):
            if op.kind in SWEEPS:
                path = OUT / f"{csv_prefix}-{i:02d}.csv"
                self.inputs.append((op.params["argv"] + ["--out", str(path)], path))
            elif op.kind == "verify":
                self.inputs.append(op.params["argv"])
            else:
                p = op.params
                c = pseudobell.constructor
                spec = c.ProductSpec(
                    tuple(c.SiteFactor(f, theta(g)) for f, g in zip(p["families"], p["gens"])),
                    tuple(theta(j) for j in range(1, p["m"] + 1)))
                weight = GrassmannElement.zero()
                for mono, coeff in p["weight"]:
                    weight = weight + GrassmannElement.word(*map(theta, mono), coeff=coeff)
                self.inputs.append((spec, weight, checks.target_state(p)))
        self.fingerprints: dict[int, str] = {}

    def before(self, i: int) -> None:
        if self.ops[i].kind in SWEEPS:
            self.inputs[i][1].unlink(missing_ok=True)

    def execute(self, i: int):
        """The timed call."""
        kind = self.ops[i].kind
        if kind in SWEEPS or kind == "verify":
            argv = self.inputs[i][0] if kind in SWEEPS else self.inputs[i]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            return rc, out.getvalue()
        spec, weight, target = self.inputs[i]
        if kind in BUILDS:
            return self.constructor.build_state(weight, spec)
        return self.constructor.solve_weight(target, spec)

    def check(self, i: int, result) -> tuple[list[str], str, int]:
        """Problems with one output, the output's fingerprint, its NaN rows."""
        op, c = self.ops[i], self.checks
        if op.kind in SWEEPS:
            path = self.inputs[i][1]
            text = path.read_text() if path.exists() else ""
            problems, nan_rows = c.check_sweep(op.params, op.size, result[0], text)
            return problems, text, nan_rows
        if op.kind == "verify":
            return c.check_verify(*result), result[1], 0
        spec, weight, _ = self.inputs[i]
        if op.kind in BUILDS:
            return c.check_state(op.params, result), repr(result.sorted_terms()), 0
        return (c.check_weight(op.params, spec, weight, result, self.build_state),
                repr(sorted(result.terms.items())), 0)


class Run:
    """Executes passes, checks every output and keeps the samples."""

    def __init__(self, runner: Runner, tracer=None):
        self.runner, self.tracer = runner, tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.nan_points = 0
        self.cal_at: list[float] = []
        self.cal_s: list[float] = []

    def _calibrate(self) -> None:
        self.cal_at.append(time.perf_counter())
        self.cal_s.append(calibrate())

    def scaled(self, timed: list[tuple[float, float]]) -> list[float]:
        """Scale (start, seconds) timings to the reference machine speed.

        The machine's speed drifts, within a second and over tens of
        seconds, in the kernel and the program alike.  Each timing is
        multiplied by CAL_NOMINAL_S over the median kernel time within
        CAL_WINDOW_S of it.
        """
        at, cal = np.array(self.cal_at), np.array(self.cal_s)
        out = []
        for start, seconds in timed:
            near = (at >= start - CAL_WINDOW_S) & (at <= start + seconds + CAL_WINDOW_S)
            out.append(seconds * CAL_NOMINAL_S / float(np.median(cal[near])))
        return out

    def ops(self, indices: list[int],
            traced_from: int | None = None) -> list[tuple[float, float]]:
        """Run the given op slots once each; returns (start, seconds) of each.

        The calibration kernel runs at every boundary between operations."""
        runner, results, timed = self.runner, [], []
        if traced_from is not None:
            self.tracer.install()
        self._calibrate()
        try:
            for k, i in enumerate(indices):
                runner.before(i)
                call = (lambda i=i: runner.execute(i))
                t0 = time.perf_counter()
                try:
                    if traced_from is None:
                        result = call()
                    else:
                        result = self.tracer.run_op(traced_from + k, call)
                    error = None
                except (Exception, SystemExit) as exc:  # one failed op must not end the run
                    result, error = None, f"{type(exc).__name__}: {exc}"
                timed.append((t0, time.perf_counter() - t0))
                results.append((i, result, error))
                self._calibrate()
        finally:
            if traced_from is not None:
                self.tracer.uninstall()
        for i, result, error in results:
            self._record(i, result, error)
        return timed

    def _record(self, i: int, result, error: str | None) -> None:
        self.attempted += 1
        op = self.runner.ops[i]
        if error is not None:
            problems, fingerprint = [error], None
        else:
            problems, fingerprint, nan_rows = self.runner.check(i, result)
            first = self.runner.fingerprints.setdefault(i, fingerprint)
            if fingerprint != first:
                problems.append("output differs from the same invocation earlier in the run")
            self.nan_points += nan_rows
        if problems:
            self.failed += 1
            self.problems.append(f"op {i} ({op.kind}, {op.axis}={op.size}): {problems[0]}")


def nearest_rank(samples: list[float], percentile: int) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)), 1) - 1]


def run_passes(run: Run, n_ops: int, seconds: float, min_passes: int, started: float,
               traced: bool = False) -> list[list[tuple[float, float]]]:
    """Whole passes until `seconds` of operation time are measured."""
    passes: list[list[tuple[float, float]]] = []
    measured = 0.0
    while len(passes) < min_passes or measured < seconds:
        if passes and time.perf_counter() - started > HARD_STOP_S:
            break
        timed = run.ops(list(range(n_ops)), traced_from=len(passes) * n_ops if traced else None)
        passes.append(timed)
        measured += sum(seconds for _, seconds in timed)
    return passes


def end_to_end(run: Run, workload, ops, passes, setup, setup_raw) -> tuple[dict, dict]:
    raw = [[seconds for _, seconds in timed] for timed in passes]
    scaled = [run.scaled(timed) for timed in passes]
    latencies = [x for lat in scaled for x in lat]
    pct = workload.tail_percentile(len(ops))
    points = sum(op.size for op in ops if op.kind in SWEEPS) * len(passes)
    sweep_s = sum(x for lat in scaled for op, x in zip(ops, lat) if op.kind in SWEEPS)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(map(sum, scaled)), "s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (nearest_rank(latencies, pct), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "passes": len(passes), "ops_per_pass": len(ops), "op_samples": len(latencies),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples_above": len(latencies) - math.ceil(pct / 100 * len(latencies)),
        "grid_points_per_s": points / sweep_s if sweep_s else None,
        "unscaled_wall_s": statistics.median(map(sum, raw)),
        "unscaled_op_s_p50": statistics.median(x for lat in raw for x in lat),
        "calibration_s": statistics.median(run.cal_s),
        "setup_samples_s": setup,
        "unscaled_setup_s": statistics.median(setup_raw),
        "op_s_by_slot": [(op.kind, op.axis, op.size, statistics.median(lat[i] for lat in scaled))
                         for i, op in enumerate(ops)],
    }
    return metrics, details


def per_layer(run: Run, ops, untraced, traced, nan_points: int) -> tuple[dict, dict]:
    """Per-pass calls and self time of each layer over the traced passes.

    Self times are scaled with the factor ``Run.scaled`` applies to the
    operation the span ran in."""
    s = run.tracer.summary()
    n = len(traced)
    factor = {}
    for p, timed in enumerate(traced):
        for k, ((_, raw), scaled) in enumerate(zip(timed, run.scaled(timed))):
            factor[p * len(ops) + k] = scaled / raw
    calls = s["calls"]
    self_s = dict.fromkeys(calls, 0.0)
    by_coord: dict[str, dict] = {}
    for op_id, table in s["per_op"].items():
        if op_id < 0:
            continue
        op = ops[op_id % len(ops)]
        row = by_coord.setdefault(f"{op.kind} {op.axis}={op.size}", {"executions": 0})
        row["executions"] += 1
        for layer, v in table.items():
            self_s[layer] += v["self_s"] * factor[op_id]
            agg = row.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += v["calls"]
            agg["self_s"] += v["self_s"] * factor[op_id]
    traced_wall = sum(sum(run.scaled(timed)) for timed in traced)
    layers = [name for name in calls if name != "bench.op"]
    metrics = {}
    for name, with_calls, with_self in PER_LAYER:
        if with_calls:
            metrics[f"{name}.calls"] = (calls[name] / n, "count")
        if with_self:
            metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
    metrics["cli.nan_points"] = (nan_points / n, "count")
    builds, solves = calls["constructor.build_state"], calls["constructor.solve_weight"]
    metrics["constructor.build_state.distinct_ratio"] = (
        s["build_distinct"] / builds if builds else 0.0, "ratio")
    metrics["constructor.solve_weight.expansions_per_call"] = (
        s["tensor_under_solve"] / solves if solves else 0.0, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(run.scaled(timed)) for timed in traced)
        / statistics.median(sum(run.scaled(timed)) for timed in untraced), "ratio")
    metrics["trace.self_share"] = (sum(self_s[x] for x in layers) / traced_wall, "ratio")
    details = {"untraced_passes": len(untraced), "traced_passes": n, "spans": s["spans"],
               "traced_wall_s": traced_wall,
               "unscaled_self_s": {k: v / n for k, v in s["self_s"].items()},
               "by_coordinate": by_coord}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pseudobell" / "__init__.py").is_file():
        print(f"error: no pseudobell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    setup, setup_raw, setup_failures = ([], [], 0) if args.trace else measure_setup()

    import pseudobell

    if Path(pseudobell.__file__).resolve().parent != SRC / "pseudobell":
        print(f"error: imported pseudobell from {pseudobell.__file__}", file=sys.stderr)
        return 2
    ops = workload.generate(args.seed)
    run = Run(Runner(ops), Tracer() if args.trace else None)
    first_of_kind: dict[str, int] = {}
    for i, op in enumerate(ops):
        first_of_kind.setdefault(op.kind, i)
    run.ops(list(first_of_kind.values()))  # warm-up: checked, not timed
    if args.trace == 0:
        passes = run_passes(run, len(ops), args.seconds, workload.min_passes, started)
        metrics, details = end_to_end(run, workload, ops, passes, setup, setup_raw)
        run.attempted += 2 * SETUP_RUNS + 2
        if setup_failures:
            run.failed += setup_failures
            run.problems.append(f"{setup_failures} set-up interpreter(s) failed")
    else:
        untraced = run_passes(run, len(ops), args.seconds / 2, 1, started)
        nan_before = run.nan_points
        traced = run_passes(run, len(ops), args.seconds / 2, 1, started, traced=True)
        metrics, details = per_layer(run, ops, untraced, traced, run.nan_points - nan_before)
        passes = untraced + traced
        np.savez_compressed(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                            names=np.array(run.tracer.names), **run.tracer.arrays())
    details.update({"workload": args.workload, "attempted": run.attempted,
                    "failed": run.failed, "fail_ratio": run.failed / run.attempted,
                    "problems": run.problems[:20]})
    record = {"provenance": provenance(args.seed), "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "timeline": {"passes": passes, "calibration": list(zip(run.cal_at, run.cal_s))}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    for problem in run.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "details": {k: v for k, v in details.items() if k != "by_coordinate"}},
                     default=float))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
