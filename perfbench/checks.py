"""Output checks, one per operation kind.

Each check returns a list of problems; an empty list means the output is
correct.  Sweep values are compared with the benchmark's own copy of the
paper's closed forms, and built states with ``workloads.reference_state``,
so a defect shared by the program's pipeline and its oracles still shows.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from pseudobell.constructor import StateVector, catalog
from pseudobell.graded_states import BasisLabel

from workloads import FAMILY_ORDER, reference_state

TOL = 1e-10          # closed-form agreement, as in the program's own gates
DEGENERATE = 1e-10   # |cos α| below this is the documented degeneracy


# -- sweeps -----------------------------------------------------------------------


def _bell(name: str, a1: float, a2: float) -> float:
    primed = name.startswith("B'")
    body = name[2:] if primed else name[1:]
    sign = 1 if body[1] == "+" else -1
    eps = sign * (1 if body[0] in "14" else -1) * (-1 if primed else 1)
    return abs(math.cos(a1) * math.cos(a2) / (1 + eps * math.sin(a1) * math.sin(a2)))


def _ghz(a1: float, a2: float, a3: float) -> float:
    return (5 + math.cos(2 * a2)
            - 2 * math.sin(a1) ** 2 * (1 + math.cos(a3) ** 2 * math.sin(a2) ** 2)
            + (math.cos(2 * a1) * math.cos(2 * a2) - 3) * math.sin(a3) ** 2) / 6


def _w(name: str, a1: float, a2: float, a3: float) -> float:
    num = (2 * (math.cos(2 * a1) + math.cos(2 * a2) + 2) * math.cos(2 * a3)
           + math.cos(2 * (a1 - a2)) + math.cos(2 * (a1 + a2))
           + 4 * math.cos(2 * a1) + 4 * math.cos(2 * a2) + 6)
    cross = 2 * math.sin(a2) * math.sin(a3)
    mixed = 2 * math.sin(a1) * (math.sin(a2) + math.sin(a3))
    bracket = cross + 3 + (-mixed if name == "W7" else mixed)
    return num / (3 * bracket * bracket)


def _point_angles(params: dict, point: dict[str, float]) -> list[float] | None:
    """Per-site angles of a grid point; None at |δ/2s| = 1 (case b)."""
    n = params["n_sites"]
    if params["case_b"]:
        ratio = -point["delta"] / (2 * point["s"])
        return None if abs(ratio) == 1 else [math.asin(ratio)] * n
    fixed = params["fixed"]
    return [point.get(f"alpha{i}", point.get("alpha", fixed.get(f"alpha{i}")))
            for i in range(1, n + 1)]


def expected_value(params: dict, point: dict[str, float]) -> float:
    name = params["name"]
    if params["case_b"]:
        s, d = point["s"], point["delta"]
        return abs(4 * s * s - d * d) / (4 * s * s + d * d)
    angles = _point_angles(params, point)
    if name.startswith("B"):
        return _bell(name, *angles)
    if name.startswith("G"):
        return _ghz(*angles)
    return _w(name[:2], *angles)


def check_sweep(params: dict, grid_size: int, rc: int, text: str) -> tuple[list[str], int]:
    """Problems with one sweep's CSV, and its number of NaN rows."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    rows = list(csv.reader(io.StringIO(text)))
    names = [axis[0] for axis in params["axes"]]
    header = names + ["value", "closed_form", "abs_diff"]
    if not rows or rows[0] != header:
        return [f"header {rows[:1]} != {header}"], 0
    data = rows[1:]
    if len(data) != grid_size:
        return [f"{len(data)} rows, want {grid_size}"], 0
    axes = [np.linspace(lo, hi, steps) for _, lo, hi, steps in params["axes"]]
    problems, nan_rows = [], 0
    for row, coords in zip(data, itertools.product(*axes)):
        try:
            got = [float(x) for x in row[:len(names)]]
            value = float(row[len(names)])
            closed, diff = row[len(names) + 1:]
        except ValueError as exc:
            problems.append(f"row {row}: {exc}")
            continue
        if not all(math.isclose(g, c, rel_tol=1e-12, abs_tol=1e-12)
                   for g, c in zip(got, coords)):
            problems.append(f"row {row}: grid point is not {list(coords)}")
            continue
        point = dict(zip(names, coords))
        angles = _point_angles(params, point)
        degenerate = angles is None or any(abs(math.cos(a)) < DEGENERATE for a in angles)
        if math.isnan(value):
            nan_rows += 1
            if not degenerate:
                problems.append(f"row {row}: nan away from the degeneracy")
            continue
        if degenerate:
            continue
        want = expected_value(params, point)
        if not abs(value - want) <= TOL:
            problems.append(f"row {row}: value differs from the closed form {want!r}")
        try:
            columns_ok = abs(float(closed) - want) <= TOL and float(diff) <= TOL
        except ValueError:
            columns_ok = False
        if not columns_ok:
            problems.append(f"row {row}: closed_form/abs_diff columns wrong")
    return problems, nan_rows


# -- symbolic ----------------------------------------------------------------------


def target_state(params: dict) -> StateVector:
    """The reference state of an op's spec and weight, as a program value."""
    ref = reference_state(params["families"], params["gens"], params["weight"])
    return StateVector({tuple(BasisLabel(*lab) for lab in key): c for key, c in ref.items()})


def _catalog_state(params: dict) -> StateVector | None:
    """Catalog entry G{j}± for a three-site GHZ-like spec, else None."""
    families, gens = tuple(params["families"]), params["gens"]
    if len(families) != 3 or gens != [1, 2, 3]:
        return None
    sign = "+" if dict(params["weight"])[()] > 0 else "-"
    return catalog(f"G{FAMILY_ORDER.index(families) + 1}{sign}").expected


def check_state(params: dict, state) -> list[str]:
    problems = []
    if not isinstance(state, StateVector) or state != target_state(params):
        problems.append(f"built {state} != reference {target_state(params)}")
    expected = _catalog_state(params)
    if expected is not None and state != expected:
        problems.append(f"built {state} != catalog {expected}")
    return problems


def check_weight(params: dict, spec, weight, solved, build_state) -> list[str]:
    """build_state(solve_weight(target)) == target exactly; the map is
    injective on these specs, so the weight must also be recovered."""
    target = target_state(params)
    problems = []
    rebuilt = build_state(solved, spec)
    if rebuilt != target:
        problems.append(f"build(solve(target)) = {rebuilt} != {target}")
    expected = _catalog_state(params)
    if expected is not None and rebuilt != expected:
        problems.append(f"build(solve(target)) = {rebuilt} != catalog {expected}")
    if solved != weight:
        problems.append(f"solved weight {solved} != {weight}")
    return problems


# -- verify -------------------------------------------------------------------------


def check_verify(rc: int, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if rc != 0 or lines[-1] != "all checks passed":
        return [f"exit code {rc}, last line {lines[-1]!r}"]
    return []
