"""The ten acceptance checks, shared by ``pseudobell verify`` and the tests.

Each check is one function.  It takes its grid density (or case count), if it
has one, and returns a :class:`CheckResult`: the worst residual against the
check's tolerance, the number of points evaluated, and one reason per
degenerate point it skipped.  ``run_all`` runs every check at the densities
below and prints one line per check; ``tests/test_acceptance.py`` calls the
same functions on denser grids.

The grid checks (``concurrence_forms``, ``case_b``, ``entropy_forms`` and
``ghz_degeneracy``) first decide which points to skip, then evaluate each
state in one kernel call over the kept points, as ``pseudobell sweep`` does:
``biortho`` -> ``embed`` -> measure.  The closed forms stay scalar ``math``
oracles, called once per kept point.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .biortho import (
    SystemParams,
    basis_from_alpha,
    biortho,
    check_pseudo_hermiticity,
    eigenbasis,
    ladder_ops,
)
from .constructor import all_biseparable, build_state, catalog, catalog_entries, solve_weight
from .entanglement import (
    average_entropy,
    average_entropy_closed_form,
    average_entropy_equal_alpha,
    case_b_alpha,
    case_b_concurrence,
    concurrence,
    concurrence_closed_form,
    dominant_pair_state,
    embed,
    normalize,
    schmidt_ratio,
)
from .graded_states import bi_overcompleteness, coherent_state, same_family_resolution_residual
from .grassmann import GrassmannElement, theta, theta_bar

#: densities used by ``pseudobell verify``
CONCURRENCE_STEPS = 11    # per angle over [0, 2 pi)
CASE_B_STEPS = 11         # per axis: s in [1, 2], delta in [-2, 2]
ENTROPY_STEPS = 5         # per angle of the three-angle G form, over [0, 2 pi)
ENTROPY_LINE_STEPS = 41   # equal-angle line over [0, 2 pi]
GHZ_TRIPLES = 10
GRASSMANN_CASES = 200

GHZ_SEED = 101
GRASSMANN_SEED = 2024

#: below this |cos alpha| a grid point is skipped: the basis is degenerate
_SKIP_COS = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check.

    ``residual`` is the worst deviation found, gated by ``tol``; exact checks
    count mismatches and use ``tol = 0``.  ``passed`` also covers the extra
    gates that ``detail`` names.  ``points`` counts the evaluated points and
    ``skipped`` holds one reason per point left out.
    """

    name: str
    passed: bool
    residual: float
    tol: float
    points: int
    skipped: tuple[str, ...] = ()
    detail: str = ""

    def line(self) -> str:
        status = " ok " if self.passed else "FAIL"
        return (f"[{status}] {self.name:<28} residual {self.residual:.2e} (tol {self.tol:g}) "
                f"over {self.points} points; {self.detail}")


def _exact(name: str, bad: list[str], points: int, what: str) -> CheckResult:
    detail = f"mismatch: {', '.join(bad)}" if bad else what
    return CheckResult(name, not bad, float(len(bad)), 0.0, points, detail=detail)


def _degenerate(alpha: float) -> bool:
    return abs(math.cos(alpha)) < _SKIP_COS


def _site_vectors(alphas) -> np.ndarray:
    """(G, 2, 2, 2) site vectors at angles that passed ``_degenerate``."""
    return biortho(np.asarray(alphas, dtype=float))[0]


def _on_grid(measure, state, sites) -> list[float]:
    """``measure(embed(state, sites))`` at each grid point, as Python floats."""
    return measure(embed(state, sites)).tolist()


def _unit_concurrence(vec):
    return concurrence(normalize(vec))


def table_fidelity(entries=None) -> CheckResult:
    """Every entry (default: the 48 plus the 4 same-generator variants)
    integrates exactly, with integer coefficients, to its tabulated state."""
    entries = catalog_entries(include_variants=True) if entries is None else entries
    bad = []
    for e in entries:
        built = build_state(e.weight, e.spec)
        if built != e.expected or not all(c.imag == 0 and c.real.is_integer()
                                          for c in built.terms.values()):
            bad.append(e.name)
    return _exact("table-fidelity", bad, len(entries), "every entry builds exactly")


def round_trip() -> CheckResult:
    """solve_weight recovers every entry's stored weight from its state."""
    entries = catalog_entries(include_variants=True)
    bad = [e.name for e in entries if solve_weight(e.expected, e.spec) != e.weight]
    return _exact("round-trip", bad, len(entries), "every weight recovered")


def concurrence_forms(steps: int) -> CheckResult:
    """All 16 Bell/Bell' members against their closed forms on a steps x steps
    grid over [0, 2 pi)^2; equal-angle B1-/B4- must give C = 1 to 1e-12."""
    tol, equal_tol = 1e-10, 1e-12
    axis = np.linspace(0, 2 * math.pi, steps, endpoint=False).tolist()
    grid, grid_skips = [], []
    for a1, a2 in itertools.product(axis, repeat=2):
        s1s2 = math.sin(a1) * math.sin(a2)
        if _degenerate(a1) or _degenerate(a2):
            grid_skips.append(f"a1={a1:.6g} a2={a2:.6g}: degenerate basis")
        elif min(abs(1 - s1s2), abs(1 + s1s2)) < 1e-8:
            grid_skips.append(f"a1={a1:.6g} a2={a2:.6g}: singular closed form")
        else:
            grid.append((a1, a2))
    line = [a for a in axis if not _degenerate(a)]
    line_skips = [f"a1=a2={a:.6g}: degenerate basis" for a in axis if _degenerate(a)]
    sites = [_site_vectors([point[k] for point in grid]) for k in range(2)]
    diagonal = [_site_vectors(line)] * 2
    worst = equal = 0.0
    points, skipped = 0, []
    for e in catalog_entries():
        if e.group not in ("bell", "bell-prime"):
            continue
        state = build_state(e.weight, e.spec)
        skipped += [f"{e.name} {reason}" for reason in grid_skips]
        values = _on_grid(_unit_concurrence, state, sites)
        for (a1, a2), value in zip(grid, values):
            worst = max(worst, abs(value - concurrence_closed_form(e.name, a1, a2)))
        points += len(grid)
        if e.name not in ("B1-", "B4-"):
            continue
        skipped += [f"{e.name} {reason}" for reason in line_skips]
        for value in _on_grid(_unit_concurrence, state, diagonal):
            equal = max(equal, abs(value - 1.0))
        points += len(line)
    return CheckResult("concurrence-closed-forms", worst <= tol and equal <= equal_tol, worst,
                       tol, points, tuple(skipped),
                       f"16 members; equal-angle B1-/B4- |C - 1| {equal:.2e} "
                       f"(tol {equal_tol:g})")


def case_b(steps: int) -> CheckResult:
    """B2- concurrence against |4s^2 - d^2|/(4s^2 + d^2) on a steps x steps
    grid, s in [1, 2] and delta in [-2, 2], plus C = 1 along delta = 0."""
    tol = 1e-10
    state = build_state(catalog("B2-").weight, catalog("B2-").spec)
    ss = np.linspace(1, 2, steps)
    grid = [(s, d) for s in ss for d in np.linspace(-2, 2, steps)] + [(s, 0.0) for s in ss]
    kept, alphas, skipped = [], [], []
    for s, delta in grid:
        alpha = case_b_alpha(s, delta)
        if _degenerate(alpha):
            skipped.append(f"s={s:g} delta={delta:g}: degenerate basis")
        else:
            kept.append((s, delta))
            alphas.append(alpha)
    vectors = _site_vectors(alphas)
    values = _on_grid(_unit_concurrence, state, [vectors] * 2)
    worst = 0.0
    for (s, delta), value in zip(kept, values):
        worst = max(worst, abs(value - case_b_concurrence(s, delta)))
    return CheckResult("case-b", worst <= tol, worst, tol, len(kept), tuple(skipped),
                       "grid and delta = 0 line")


def entropy_forms(steps: int, line_steps: int) -> CheckResult:
    """<S_L> of G1+ against the three-angle G form on steps^3 points over
    [0, 2 pi)^3; G1+, W7 and W6-+- against the equal-angle forms on
    line_steps points over [0, 2 pi]; the closed-form extrema 1 (G) and 8/9
    (W) at k pi, and 0 at (2k + 1) pi/2."""
    tol = 1e-10
    states = {key: build_state(catalog(name).weight, catalog(name).spec)
              for key, name in (("G", "G1+"), ("W7", "W7"), ("W6", "W6-+-"))}
    worst, skipped = 0.0, []
    axis = np.linspace(0, 2 * math.pi, steps, endpoint=False).tolist()
    grid = []
    for angles in itertools.product(axis, repeat=3):
        if any(_degenerate(a) for a in angles):
            skipped.append(f"G alphas={', '.join(f'{a:.6g}' for a in angles)}: "
                           "degenerate basis")
        else:
            grid.append(angles)
    sites = [_site_vectors([point[k] for point in grid]) for k in range(3)]
    for angles, value in zip(grid, _on_grid(average_entropy, states["G"], sites)):
        worst = max(worst, abs(value - average_entropy_closed_form("G", *angles)))
    points = len(grid)
    full_line = np.linspace(0, 2 * math.pi, line_steps).tolist()
    line = [a for a in full_line if not _degenerate(a)]
    vectors = _site_vectors(line)
    for key, state in states.items():
        skipped += [f"{key} alpha={a:.6g}: degenerate basis (formula value "
                    f"{average_entropy_equal_alpha(key, a):.3g})"
                    for a in full_line if _degenerate(a)]
        for a, value in zip(line, _on_grid(average_entropy, state, [vectors] * 3)):
            worst = max(worst, abs(value - average_entropy_equal_alpha(key, a)))
        points += len(line)
    for k in range(3):
        for key, top in (("G", 1.0), ("W7", 8 / 9), ("W6", 8 / 9)):
            worst = max(worst, abs(average_entropy_equal_alpha(key, k * math.pi) - top),
                        abs(average_entropy_equal_alpha(key, (2 * k + 1) * math.pi / 2)))
    return CheckResult("avg-entropy-closed-forms", worst <= tol, worst, tol, points,
                       tuple(skipped), "three-angle G, equal-angle G/W7/W6 and extrema")


def ghz_degeneracy(n_triples: int) -> CheckResult:
    """All 16 GHZ entries give the same <S_L> at n_triples seeded angle
    triples with |cos alpha| > 0.05."""
    tol = 1e-10
    rng = random.Random(GHZ_SEED)
    states = [build_state(e.weight, e.spec) for e in catalog_entries() if e.group == "ghz"]
    triples = []
    for _ in range(n_triples):
        alphas = []
        while len(alphas) < 3:
            a = rng.uniform(0, 2 * math.pi)
            if abs(math.cos(a)) > 0.05:
                alphas.append(a)
        triples.append(alphas)
    sites = [_site_vectors([alphas[k] for alphas in triples]) for k in range(3)]
    columns = [_on_grid(average_entropy, state, sites) for state in states]
    spread = 0.0
    for values in zip(*columns):
        spread = max(spread, max(values) - min(values))
    return CheckResult("ghz-family-degeneracy", spread <= tol, spread, tol, n_triples,
                       detail=f"spread across {len(states)} members")


def structure() -> CheckResult:
    """Biorthonormality, completeness, eta psi_k = phi_k, eta eta^-1 = I,
    pseudo-Hermiticity and the b/b~ ladder action on the (r, s, t, beta)
    grid; bi-overcompleteness at five angles; the same-family integral must
    stay at least 0.01 off the identity."""
    tol = 1e-12
    eye = np.eye(2)
    worst, points, skipped = 0.0, 0, []
    axis = (0.5, 1.0, 2.0)
    for r, s, t, beta in itertools.product(axis, axis, axis, (0.0, 0.3, -0.3, 1.0, -1.0)):
        if abs(r * math.sin(beta)) >= math.sqrt(s * t) - 1e-9:
            skipped.append(f"r={r} s={s} t={t} beta={beta}: at/beyond degeneracy")
            continue
        p = SystemParams(r, s, t, beta)
        b = eigenbasis(p)
        ops = ladder_ops(b)
        psis, phis = (b.psi0, b.psi1), (b.phi0, b.phi1)
        gram = np.array([[np.vdot(phis[i], psis[j]) for j in range(2)] for i in range(2)])
        completeness = sum(np.outer(psis[k], phis[k].conj()) for k in range(2))
        for residual in (gram - eye, completeness - eye, b.eta @ b.eta_inv - eye,
                         b.eta @ b.psi0 - b.phi0, b.eta @ b.psi1 - b.phi1,
                         ops.b @ b.psi1 - b.psi0, ops.b @ b.psi0,
                         ops.b_tilde @ b.phi1 - b.phi0, ops.b_tilde @ b.phi0):
            worst = max(worst, float(np.max(np.abs(residual))))
        worst = max(worst, check_pseudo_hermiticity(p))
        points += 1
    for alpha in (0.0, 0.3, 0.5, -0.8, 1.2):
        worst = max(worst, bi_overcompleteness(basis_from_alpha(alpha))[1])
        points += 1
    gap = same_family_resolution_residual(basis_from_alpha(0.5), "psi")
    return CheckResult("structure", worst <= tol and gap >= 0.01, worst, tol, points,
                       tuple(skipped), f"same-family integral off identity by {gap:.3f} "
                       "at alpha=0.5 (needs >= 0.01)")


def coherent_eigenvalue() -> CheckResult:
    """b|theta> = theta|theta>, nonzero and exact in label space, for the
    psi and the phi family."""
    bad = []
    for family in ("psi", "phi"):
        ket = coherent_state(1, theta(1), family)
        lowered = ket.apply_lowering(1, family)
        if lowered != ket.premultiply(GrassmannElement.word(theta(1))) or lowered.is_zero():
            bad.append(family)
    return _exact("coherent-eigenvalue", bad, 2, "exact in both families")


def biseparability() -> CheckResult:
    """All six biseparable constructions factorize at equal alpha = 0.5
    (Schmidt ratio < 1e-12), and the pair left over has the concurrence of
    its Bell closed form."""
    tol = 1e-10
    bases = [basis_from_alpha(0.5)] * 3
    constructions = all_biseparable()
    ratio = worst = 0.0
    for c in constructions:
        vec = embed(build_state(c.weight, c.spec), bases)
        ratio = max(ratio, schmidt_ratio(vec, [c.factor_site]))
        pair = dominant_pair_state(vec, c.factor_site)
        worst = max(worst, abs(concurrence(pair) - concurrence_closed_form(c.pair_name, 0.5, 0.5)))
    return CheckResult("biseparability", worst <= tol and ratio < 1e-12, worst, tol,
                       len(constructions), detail=f"max schmidt ratio {ratio:.2e} (needs < 1e-12)")


def grassmann_laws(n_cases: int) -> CheckResult:
    """Associativity, distributivity, double-integral vanishing, Berezin
    linearity and conjugation involution on n_cases seeded random elements
    over theta_1, theta_2 and their conjugates; anticommutativity and
    nilpotency on every generator pair.  The residual counts violations."""
    rng = random.Random(GRASSMANN_SEED)
    gens = [theta(1), theta(2), theta_bar(1), theta_bar(2)]
    word = GrassmannElement.word

    def scalar():
        return complex(rng.randrange(-4, 5), rng.randrange(-4, 5))

    def element():
        out = GrassmannElement.zero()
        for _ in range(rng.randrange(5)):
            out = out + word(*rng.sample(gens, rng.randrange(len(gens) + 1)), coeff=scalar())
        return out

    violations = 0
    for g, h in itertools.product(gens, repeat=2):
        gh = word(g) * word(h)
        violations += not (gh.is_zero() if g == h else gh == -(word(h) * word(g)))
    for _ in range(n_cases):
        a, b, c = element(), element(), element()
        g = rng.choice(gens)
        za, zb = scalar(), scalar()
        laws = ((a * b) * c == a * (b * c),
                a * (b + c) == a * b + a * c,
                a.berezin(g).berezin(g).is_zero(),
                (za * a + zb * b).berezin(g) == za * a.berezin(g) + zb * b.berezin(g),
                a.conjugate().conjugate() == a)
        violations += laws.count(False)
    return CheckResult("grassmann-laws", violations == 0, float(violations), 0.0, n_cases,
                       detail="ring, Berezin and conjugation laws; all generator pairs")


def run_all() -> int:
    """Run the ten checks at the densities above and print one line each.

    Returns the process exit code: 0 when every check passes, 1 otherwise.
    """
    results = [
        table_fidelity(),
        round_trip(),
        concurrence_forms(CONCURRENCE_STEPS),
        case_b(CASE_B_STEPS),
        entropy_forms(ENTROPY_STEPS, ENTROPY_LINE_STEPS),
        ghz_degeneracy(GHZ_TRIPLES),
        structure(),
        coherent_eigenvalue(),
        biseparability(),
        grassmann_laws(GRASSMANN_CASES),
    ]
    for result in results:
        for reason in result.skipped:
            print(f"[skip] {result.name:<28} {reason}")
        print(result.line())
    failed = sum(not result.passed for result in results)
    if failed:
        print(f"{failed} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0
