"""Seeded workload generators for the pseudobell benchmark.

Every generator takes the seed as an argument and returns the operation
list of one pass.  The seed picks catalog members, fixed angles, ψ/φ
families, signs, shared-generator patterns and weight coefficients.  It
never changes the operation count, the grid sizes or the N mix, so the work
is the same for every seed.  Nothing here imports the program under test:
an operation is plain data, and the runner turns it into program calls.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

FAMILIES = ("psi", "phi")

# Three-site family order of the catalog numbering G1..G8 / W1..W8 (README).
FAMILY_ORDER = [
    ("psi", "psi", "psi"), ("phi", "psi", "psi"), ("psi", "phi", "psi"),
    ("psi", "psi", "phi"), ("phi", "phi", "psi"), ("phi", "psi", "phi"),
    ("psi", "phi", "phi"), ("phi", "phi", "phi"),
]

BELL_NAMES = [f"{prefix}{j}{sign}" for prefix in ("B", "B'")
              for j in range(1, 5) for sign in "+-"]
CASE_B_NAMES = ["B2-", "B3-"]
W_NAMES = ["W7", "W6-+-"]
GHZ_NAMES = [f"G{j}{sign}" for j in range(1, 9) for sign in "+-"]

# Fixed angles of non-swept sites stay well inside |cos α| > 0.36, away from
# the degeneracy boundary, so every seed yields the same NaN points.
FIXED_ANGLE_RANGE = (-1.2, 1.2)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a single call into a public entry point.

    ``axis``/``size`` is the operation's scaling coordinate: G grid points for
    sweeps, N sites for symbolic calls.
    """

    kind: str
    axis: str
    size: int
    params: dict = field(hash=False)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object      # callable(seed) -> list[Op]
    min_passes: int       # passes every run makes, whatever --seconds says

    def tail_percentile(self, ops_per_pass: int) -> int:
        """Highest whole percentile with >= 10 samples above it at the
        minimum sample count, so it is the same in every run."""
        n_min = ops_per_pass * self.min_passes
        return (100 * (n_min - 10)) // n_min


# -- figure-sweeps --------------------------------------------------------------


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(*FIXED_ANGLE_RANGE), 6)


def _sweep(kind: str, name: str, measure: str, axes: list[tuple[str, str, float, float, int]],
           n_sites: int, fixed: dict[str, float], case_b: bool) -> Op:
    argv = ["sweep", "--name", name, "--measure", measure]
    for var, text, _, _, _ in axes:
        argv += ["--var", var, f"--range={text}"]
    argv += ["--steps", str(axes[0][4])]
    for key, value in fixed.items():
        argv += [f"--{key}", repr(value)]
    grid = math.prod(a[4] for a in axes)
    return Op(kind, "G", grid, {
        "argv": argv, "name": name, "n_sites": n_sites, "case_b": case_b,
        "axes": [(var, lo, hi, steps) for var, _, lo, hi, steps in axes],
        "fixed": fixed,
    })


TWO_PI = ("0:2pi", 0.0, 2 * math.pi)


def figure_sweeps(seed: int) -> list[Op]:
    """The paper's figures as CLI sweeps; grids never depend on the seed."""
    rng = random.Random(f"figure-sweeps/{seed}")
    ops = []
    # Every pass has the same mix of members of unequal cost: the seed only
    # decides which operation gets which member.  Sorted by latency, a pass
    # is 5 fig1 (0-38 %), fig2 and the two W7 (38-62 %), the two W6-+-
    # (62-77 %) and 3 GHZ grids (77-100 %).  The median thus sits in the
    # middle of one share and the tail percentile inside the GHZ-grid share,
    # so both read the same kind of operation in every run.  A short pass
    # keeps the overshoot past --seconds small.
    for i in range(5):  # fig1: Bell concurrence vs α, 201 points
        name = rng.choice(BELL_NAMES)
        if i % 2 == 0:
            ops.append(_sweep("fig1", name, "concurrence", [("alpha", *TWO_PI, 201)],
                              2, {}, False))
        else:
            ops.append(_sweep("fig1", name, "concurrence", [("alpha1", *TWO_PI, 201)],
                              2, {"alpha2": _angle(rng)}, False))
    for _ in range(1):  # fig2: case-b concurrence over s×δ, 21×21
        ops.append(_sweep("fig2", rng.choice(CASE_B_NAMES), "concurrence",
                          [("s", "1:2", 1.0, 2.0, 21), ("delta", "-2:2", -2.0, 2.0, 21)],
                          2, {}, True))
    w_members = W_NAMES * 2
    rng.shuffle(w_members)
    for i, name in enumerate(w_members):  # fig4: W7 / W6-+- ⟨S_L⟩ vs α, 201 points
        if i % 2 == 0:
            ops.append(_sweep("fig4", name, "avg_entropy", [("alpha", *TWO_PI, 201)],
                              3, {}, False))
        else:
            ops.append(_sweep("fig4", name, "avg_entropy", [("alpha1", *TWO_PI, 201)],
                              3, {"alpha2": _angle(rng), "alpha3": _angle(rng)}, False))
    for _ in range(3):  # the grid-size axis: GHZ ⟨S_L⟩ over α1×α2, 41×41
        ops.append(_sweep("ghz-grid", rng.choice(GHZ_NAMES), "avg_entropy",
                          [("alpha1", *TWO_PI, 41), ("alpha2", *TWO_PI, 41)],
                          3, {"alpha3": _angle(rng)}, False))
    return ops


# -- symbolic-scaling -------------------------------------------------------------

GHZ_BUILD_N = range(3, 11)
GHZ_SOLVE_N = range(3, 8)
# (N sites, sizes of the shared-generator groups); m = number of groups
MIXED_SHAPES = [(4, (2, 1, 1)), (5, (2, 2, 1)), (5, (2, 1, 1, 1)),
                (6, (2, 2, 1, 1)), (6, (3, 1, 1, 1)), (7, (2, 2, 1, 1, 1))]


def _parity(word: list[int]) -> int:
    """Sign of the permutation sorting a word of distinct generator indices."""
    inversions = sum(1 for a, b in itertools.combinations(word, 2) if a > b)
    return -1 if inversions & 1 else 1


def _spec(kind: str, families: list[str], gens: list[int],
          weight: dict[tuple[int, ...], int]) -> Op:
    """Weights are stored as {ascending generator indices: coefficient}."""
    return Op(kind, "N", len(families), {
        "families": families, "gens": gens, "m": max(gens),
        "weight": sorted(weight.items()),
    })


def _ghz_like(rng: random.Random, n: int) -> tuple[list[str], list[int], dict]:
    """Distinct generators, w = θN…θ1 ± 1 (canonical coefficient of θ1…θN)."""
    families = [rng.choice(FAMILIES) for _ in range(n)]
    sign = rng.choice((1, -1))
    top = tuple(range(1, n + 1))
    return families, list(top), {top: _parity(list(reversed(top))), (): sign}


def _mixed(rng: random.Random, n: int, sizes: tuple[int, ...]) -> tuple[list[str], list[int], dict]:
    """Sites share generators in groups of the given sizes; dense integer w."""
    sites = list(range(n))
    rng.shuffle(sites)
    gens = [0] * n
    it = iter(sites)
    for g, size in enumerate(sizes, start=1):
        for _ in range(size):
            gens[next(it)] = g
    families = [rng.choice(FAMILIES) for _ in range(n)]
    m = len(sizes)
    weight = {mono: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
              for k in range(m + 1) for mono in itertools.combinations(range(1, m + 1), k)}
    return families, gens, weight


def symbolic_scaling(seed: int) -> list[Op]:
    """build_state / solve_weight on seeded N-site specs; no numeric layer."""
    rng = random.Random(f"symbolic-scaling/{seed}")
    ghz = {n: _ghz_like(rng, n) for n in GHZ_BUILD_N}
    mixed = [_mixed(rng, n, sizes) for n, sizes in MIXED_SHAPES]
    ops = [_spec("ghz-build", *ghz[n]) for n in GHZ_BUILD_N]
    ops += [_spec("ghz-solve", *ghz[n]) for n in GHZ_SOLVE_N]
    for spec in mixed:
        ops += [_spec("mixed-build", *spec), _spec("mixed-solve", *spec)]
    return ops


def reference_state(families: list[str], gens: list[int],
                    weight: list[tuple[tuple[int, ...], int]]) -> dict[tuple, int]:
    """The integral ∫dθ1…dθm w·|c1⟩…|cN⟩ worked out in closed form.

    Keys are ((site, family, level), ...) tuples.  Site i contributes
    |f0⟩ − θ_g(i)|f1⟩; a level-1 site's generator picks up −1 for every
    level-0 ket left of it on its way to the left-normal form; two level-1
    sites sharing a generator vanish.  The surviving word w_T·θ_used is
    sorted to θ1…θm and integrated, rightmost measure first, which gives
    (−1)^(m(m−1)/2).
    """
    n, m = len(families), max(gens)
    coeff = dict(weight)
    out = {}
    for levels in itertools.product((0, 1), repeat=n):
        used = [gens[i] for i in range(n) if levels[i]]
        if len(set(used)) != len(used):
            continue
        rest = tuple(g for g in range(1, m + 1) if g not in used)
        c = coeff.get(rest, 0)
        if not c:
            continue
        sign = -1 if len(used) & 1 else 1
        for i in range(n):
            if levels[i] and levels[:i].count(0) & 1:
                sign = -sign
        sign *= _parity(list(rest) + used) * (-1 if (m * (m - 1) // 2) & 1 else 1)
        key = tuple((i + 1, families[i], levels[i]) for i in range(n))
        out[key] = sign * c
    return out


# -- verify-suite -------------------------------------------------------------------


def verify_suite(seed: int) -> list[Op]:
    """`pseudobell verify` takes no input, so the seed changes nothing here."""
    del seed
    return [Op("verify", "G", 1, {"argv": ["verify"]})]


WORKLOADS = {w.name: w for w in (
    Workload("figure-sweeps", figure_sweeps, min_passes=5),
    Workload("symbolic-scaling", symbolic_scaling, min_passes=4),
    Workload("verify-suite", verify_suite, min_passes=50),
)}
