"""Command-line front end.

Subcommands: catalog | build | solve | measure | sweep | verify.
Angles are radians; "pi" fractions like "pi/4", "-pi/2", "3pi/2" parse too.
stdout carries data, stderr carries diagnostics.  Exit codes: 0 success,
1 verification failure, 2 unknown catalog name (and argument errors),
3 degenerate spectrum, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .biortho import DEGENERACY_TOL, DegenerateSpectrum, biortho, config_sites, parse_config
from .constructor import (
    SAME_THETA_VARIANTS,
    StateVector,
    UnknownName,
    build_state,
    catalog,
    catalog_entries,
    solve_weight,
)
from .entanglement import average_entropy, case_b_alpha, closed_form, concurrence, embed, normalize

_PI_RE = re.compile(r"^\s*(-)?\s*(\d+(?:\.\d*)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?\s*$",
                    re.IGNORECASE)


class _BadNumber(argparse.ArgumentTypeError, ValueError):
    """A rejected number: a ValueError, whose reason argparse prints."""


def parse_finite(text: str) -> float:
    """Parse a finite float; nan and inf raise ValueError."""
    try:
        value = float(text)
    except ValueError as exc:
        raise _BadNumber(str(exc)) from None
    if not math.isfinite(value):
        raise _BadNumber(f"not a finite number: {text!r}")
    return value


def parse_angle(text: str) -> float:
    """Parse a finite radian value, accepting 'pi' fractions like '3pi/2'.

    A zero denominator, nan and inf raise ValueError.
    """
    m = _PI_RE.match(text)
    if not m:
        return parse_finite(text)
    sign = -1.0 if m.group(1) else 1.0
    num = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0:
        raise _BadNumber(f"zero denominator in {text!r}")
    value = sign * num * math.pi / den
    if not math.isfinite(value):
        raise _BadNumber(f"not a finite angle: {text!r}")
    return value


# -- per-command implementations -------------------------------------------------


def _entry_row(entry) -> dict:
    return {
        "name": entry.name,
        "group": entry.group,
        "product": str(entry.spec),
        "weight": str(entry.weight),
        "state": str(entry.expected),
        "note": entry.note,
    }


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    variants = list(SAME_THETA_VARIANTS.values())
    if args.filter:
        needle = args.filter.lower()
        entries = [e for e in entries if needle in e.name.lower() or needle in e.group.lower()]
        variants = [e for e in variants if needle in e.name.lower() or needle in e.group.lower()]
    if args.format == "json":
        payload = {"entries": [_entry_row(e) for e in entries],
                   "same_theta_variants": [_entry_row(e) for e in variants]}
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return 0
    for e in entries:
        note = f"   # {e.note}" if e.note else ""
        print(f"{e.name:<8} {e.group:<12} {str(e.spec):<34} w = {str(e.weight):<22} "
              f"-> {e.expected}{note}")
    if variants:
        print("# same-generator variants (Table block with w = 1):")
        for e in variants:
            print(f"{e.name:<8} {e.group:<12} {str(e.spec):<34} w = {str(e.weight):<22} "
                  f"-> {e.expected}")
    return 0


def cmd_build(args) -> int:
    entry = catalog(args.name)
    state = build_state(entry.weight, entry.spec)
    if args.format == "json":
        print(json.dumps({"name": entry.name, "product": str(entry.spec),
                          "weight": str(entry.weight), "terms": state.to_json_terms()},
                         ensure_ascii=False, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["labels", "re", "im"])
        for item in state.to_json_terms():
            writer.writerow([";".join(item["labels"]), item["re"], item["im"]])
    else:
        print(str(state))
    return 0


def cmd_solve(args) -> int:
    entry = catalog(args.name)
    weight = solve_weight(entry.expected, entry.spec)
    matches = weight == entry.weight
    if args.format == "json":
        print(json.dumps({"name": entry.name, "weight": str(weight),
                          "matches_catalog": matches}, ensure_ascii=False, indent=2))
    else:
        print(f"weight: {weight}")
        print(f"matches catalog weight: {'yes' if matches else 'no'}")
    return 0


class SystemExit2(Exception):
    """Argument-level error surfaced with exit code 2."""


#: grid points per kernel call; bounds the sweep's working memory for any --steps
CHUNK = 512

_ANGLE_VARS = ("alpha", "alpha1", "alpha2", "alpha3")
_SWEEP_VARS = _ANGLE_VARS + ("s", "delta")


@dataclass(frozen=True)
class _Points:
    """Resolved inputs at G points: one (G,) angle array and one skew per
    site, and the case-b (s, delta) arrays if the angles come from them."""

    angles: list[np.ndarray]
    skews: list[float]
    case_b: tuple[np.ndarray, np.ndarray] | None = None


def _resolve(args, n_sites: int, swept: dict[str, np.ndarray]) -> _Points:
    """The site angles and skews at every point.

    ``swept`` maps each swept variable to its (G,) values; measure passes
    none (G = 1).  Fixed flags fill what is not swept, a per-site angle
    beats --alpha, and --config sets every site.  An input that would be
    ignored is rejected: case-b flags mixed with angle flags or --config, a
    variable both fixed and swept, and an angle that sets no site.
    """
    size = len(next(iter(swept.values()))) if swept else 1
    fixed = {v: getattr(args, v) for v in _SWEEP_VARS if getattr(args, v) is not None}
    flag = {**{v: f"--{v}" for v in fixed}, **{v: f"--var {v}" for v in swept}}
    both = [v for v in swept if v in fixed]
    if both:
        raise SystemExit2(f"--{both[0]} is both fixed and swept")
    given = {v: np.broadcast_to(np.asarray(x, dtype=float), (size,))
             for v, x in {**fixed, **swept}.items()}
    if getattr(args, "config", None) is not None:
        if given:
            raise SystemExit2(f"--config cannot be combined with {flag[next(iter(given))]}")
        try:
            with open(args.config) as fh:
                sites = config_sites(parse_config(fh.read()), n_sites)
        except (OSError, ValueError) as exc:   # unreadable; bad line, number or site
            raise SystemExit2(f"--config {args.config}: {exc}") from exc
        return _Points([np.full(size, alpha) for alpha, _ in sites], [k for _, k in sites])
    if "s" in given or "delta" in given:
        angle_flags = [flag[v] for v in given if v in _ANGLE_VARS]
        if angle_flags:
            raise SystemExit2(f"case-b --s/--delta cannot be combined with {angle_flags[0]}")
        if len(given) != 2:
            raise SystemExit2("case-b parameterization needs both --s and --delta")
        s, delta = given["s"], given["delta"]
        return _Points([case_b_alpha(s, delta)] * n_sites, [1.0] * n_sites, (s, delta))
    keys = [f"alpha{i}" if f"alpha{i}" in given else "alpha" for i in range(1, n_sites + 1)]
    if any(k not in given for k in keys):
        raise SystemExit2(
            f"need angles for {n_sites} sites: --alpha or --alpha1..--alpha{n_sites}")
    unused = [flag[v] for v in given if v not in keys]
    if unused:
        raise SystemExit2(f"{unused[0]} sets none of the {n_sites} sites")
    return _Points([given[k] for k in keys], [1.0] * n_sites)


def _measured_state(name: str, measure: str) -> tuple[StateVector, Callable | None]:
    """The state of a catalog name, built once per command, and its closed
    form (see ``entanglement.closed_form``), or None."""
    entry = catalog(name)
    state = build_state(entry.weight, entry.spec)
    sites, word = (2, "two") if measure == "concurrence" else (3, "three")
    if state.n_sites != sites:
        raise SystemExit2(f"{name} is not a {word}-site state")
    return state, closed_form(entry, measure)


def _point_rows(state: StateVector, measure: str, form: Callable | None, points: _Points):
    """Per point: the site angles, the measured value, whether the basis is
    degenerate (the value is then NaN), the closed form and its absolute
    difference from the value; the closed form is NaN where it has none."""
    vectors, flags = zip(*(biortho(a, skew) for a, skew in zip(points.angles, points.skews)))
    degenerate = np.logical_or.reduce(flags)
    vec = embed(state, vectors)
    values = concurrence(normalize(vec)) if measure == "concurrence" else average_entropy(vec)
    closed = np.full(values.shape, np.nan)
    # the closed forms hold for the symmetric (s = t) family only
    if form is not None and all(abs(k) == 1 for k in points.skews):
        closed = form(points.angles, points.case_b)
    return zip(zip(*(a.tolist() for a in points.angles)), values.tolist(), degenerate.tolist(),
               closed.tolist(), np.abs(values - closed).tolist())


def cmd_measure(args) -> int:
    state, form = _measured_state(args.name, args.measure)
    points = _resolve(args, state.n_sites, {})
    [(angles, value, degenerate, closed, diff)] = _point_rows(state, args.measure, form, points)
    if points.case_b is not None and args.s == 0:
        raise SystemExit2("case b needs s != 0: alpha is undefined at s = 0")
    if points.case_b is not None and math.isnan(angles[0]):
        raise SystemExit2("case b needs |delta| <= 2|s| for a real spectrum")
    if degenerate:
        raise DegenerateSpectrum(
            f"|cos(alpha)| < {DEGENERACY_TOL:g} at alpha = "
            f"{', '.join(f'{a:.6g}' for a in angles)}; the biorthonormal basis is "
            "undefined at the degeneracy boundary")
    inputs = {f"alpha{i + 1}": a for i, a in enumerate(angles)}
    if points.case_b is not None:
        inputs.update({"s": args.s, "delta": args.delta})
    row = {"name": args.name, "measure": args.measure, "inputs": inputs, "value": value}
    if not math.isnan(closed):
        row["closed_form"] = closed
        row["abs_diff"] = diff
    if args.format == "json":
        print(json.dumps(row, ensure_ascii=False, indent=2))
    else:
        print(" ".join(f"{k}={v!r}" for k, v in inputs.items()))
        print(f"{args.name} {args.measure}: "
              + " ".join(f"{k}={row[k]!r}" for k in ("value", "closed_form", "abs_diff")
                         if k in row))
    return 0


def _sweep_grid(args) -> tuple[list[str], list[np.ndarray]]:
    names = args.var
    ranges = args.range
    steps = args.steps
    if not names:
        raise SystemExit2("sweep needs at least one --var")
    if len(names) > 2:
        raise SystemExit2("at most two sweep variables are supported")
    if len(set(names)) != len(names):
        raise SystemExit2(f"--var {names[0]} is given twice")
    if len(ranges) != len(names):
        raise SystemExit2("need one --range per --var")
    if len(steps) == 1:
        steps = steps * len(names)
    if len(steps) != len(names):
        raise SystemExit2("need one --steps per --var (or a single shared value)")
    axes = []
    for (lo, hi), n in zip(ranges, steps):
        if n < 2:
            raise SystemExit2("steps must be >= 2")
        if not lo < hi:
            raise SystemExit2("range must have lo < hi")
        if not math.isfinite(hi - lo):
            raise SystemExit2(f"range {lo:g}:{hi:g} is too wide: hi - lo overflows")
        axes.append(np.linspace(lo, hi, n))
    return names, axes


def _grid_chunks(axes: list[np.ndarray]):
    """The grid's coordinates, row-major, CHUNK points at a time: each chunk
    is one array per axis, indexed from its flat range, never the full grid."""
    shape = tuple(len(axis) for axis in axes)
    size = math.prod(shape)
    for start in range(0, size, CHUNK):
        index = np.unravel_index(np.arange(start, min(start + CHUNK, size)), shape)
        yield [axis[i] for axis, i in zip(axes, index)]


def _sweep_records(state: StateVector, measure: str, form: Callable | None, chunks):
    """One CSV row per grid point, from each chunk's coordinates and points."""
    for chunk, points in chunks:
        coords = zip(*(axis.tolist() for axis in chunk))
        for point, (_, value, _, closed, diff) in zip(
                coords, _point_rows(state, measure, form, points)):
            yield [*point, value] + (["", ""] if math.isnan(closed) else [closed, diff])


def cmd_sweep(args) -> int:
    names, axes = _sweep_grid(args)
    state, form = _measured_state(args.name, args.measure)
    chunks = ((chunk, _resolve(args, state.n_sites, dict(zip(names, chunk))))
              for chunk in _grid_chunks(axes))
    # resolving the first chunk raises on every rejected input, before the output opens
    first = next(chunks)
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out == "-"
              else open(args.out, "w", newline="")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(names) + ["value", "closed_form", "abs_diff"])
            writer.writerows(_sweep_records(state, args.measure, form,
                                            itertools.chain([first], chunks)))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args) -> int:
    return verify_mod.run_all()


# -- argument plumbing -----------------------------------------------------------


def _add_angle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=parse_angle, help="mixing angle for every site (radians)")
    p.add_argument("--alpha1", type=parse_angle)
    p.add_argument("--alpha2", type=parse_angle)
    p.add_argument("--alpha3", type=parse_angle)
    p.add_argument("--s", type=parse_finite, help="case-b coupling (with --delta)")
    p.add_argument("--delta", type=parse_finite, help="case-b decay rate (with --s)")


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    return parse_angle(lo), parse_angle(hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudobell",
        description="Pseudo-Hermitian entangled states from Grassmann coherent-state integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the table of constructions")
    p.add_argument("--filter", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("build", help="integrate one catalog entry to its state")
    p.add_argument("--name", required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="re-derive an entry's weight from its target state")
    p.add_argument("--name", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("measure", help="evaluate an entanglement measure at one point")
    p.add_argument("--name", required=True)
    p.add_argument("--measure", choices=("concurrence", "avg_entropy"), required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_angle_flags(p)
    p.add_argument("--config", help="key-value parameter file (alpha<i> or r<i>,s<i>,t<i>,beta<i>)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="grid-evaluate a measure and write CSV figure data")
    p.add_argument("--name", required=True)
    p.add_argument("--measure", choices=("concurrence", "avg_entropy"), required=True)
    p.add_argument("--var", action="append", default=[], choices=_SWEEP_VARS)
    p.add_argument("--range", action="append", default=[], type=_parse_range,
                   metavar="LO:HI")
    p.add_argument("--steps", action="append", default=[], type=int)
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    _add_angle_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the one-shot verification suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "steps", None) == []:
        args.steps = [50]
    try:
        return args.func(args)
    except UnknownName as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSpectrum as exc:
        print(f"error: degenerate spectrum: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
