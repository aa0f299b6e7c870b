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
``biortho`` -> ``embed`` -> measure.  Each closed form comes from
``entanglement.closed_form`` and is evaluated once over the same points, so
each worst residual is one maximum over arrays.  ``structure`` does the same
on its (r, s, t, beta) grid: it skips point by point, then builds the basis,
metric, ladder operators, Hamiltonian and pseudo-Hermiticity residual of
every kept point in one call each.
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
    basis_grid,
    biortho,
    hamiltonian,
    ladder_ops,
    pseudo_hermiticity_residual,
    site_params,
)
from .constructor import all_biseparable, build_state, catalog, catalog_entries, solve_weight
from .entanglement import (
    average_entropy,
    average_entropy_equal_alpha,
    case_b_alpha,
    closed_form,
    concurrence,
    dominant_pair_state,
    embed,
    entropy_form_name,
    normalize,
    schmidt_ratio,
)
from .graded_states import bi_overcompleteness, coherent_state, same_family_resolution_residual
from .grassmann import GrassmannElement, normalize_word, theta, theta_bar

#: densities used by ``pseudobell verify``
CONCURRENCE_STEPS = 11    # per angle over [0, 2 pi)
CASE_B_STEPS = 11         # per axis: s in [1, 2], delta in [-2, 2]
ENTROPY_STEPS = 5         # per angle of the three-angle G form, over [0, 2 pi)
ENTROPY_LINE_STEPS = 41   # equal-angle line over [0, 2 pi]
GHZ_TRIPLES = 10
GRASSMANN_CASES = 200

GHZ_SEED = 101
GRASSMANN_SEED = 2024
_GRASSMANN_GENS = (theta(1), theta(2), theta_bar(1), theta_bar(2))

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


def _degenerate(alpha):
    """Elementwise over an array of angles."""
    return np.abs(np.cos(alpha)) < _SKIP_COS


def _site_vectors(alphas) -> np.ndarray:
    """(G, 2, 2, 2) site vectors at angles that passed ``_degenerate``."""
    return biortho(np.asarray(alphas, dtype=float))[0]


def _worst(values, forms) -> float:
    """The largest |value - form| over the points; 0 over none."""
    return float(np.max(np.abs(values - forms), initial=0.0))


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
    axis = np.linspace(0, 2 * math.pi, steps, endpoint=False)
    a1, a2 = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    s1s2 = np.sin(a1) * np.sin(a2)
    degenerate = _degenerate(a1) | _degenerate(a2)
    keep = ~(degenerate | (np.minimum(np.abs(1 - s1s2), np.abs(1 + s1s2)) < 1e-8))
    grid_skips = [f"a1={x:.6g} a2={y:.6g}: {'degenerate basis' if d else 'singular closed form'}"
                  for x, y, d in zip(a1[~keep], a2[~keep], degenerate[~keep])]
    line_skips = [f"a1=a2={a:.6g}: degenerate basis" for a in axis[_degenerate(axis)]]
    angles = [a1[keep], a2[keep]]
    sites = [_site_vectors(a) for a in angles]
    diagonal = [_site_vectors(axis[~_degenerate(axis)])] * 2
    worst = equal = 0.0
    points, skipped = 0, []
    for e in catalog_entries():
        if e.group not in ("bell", "bell-prime"):
            continue
        state = build_state(e.weight, e.spec)
        skipped += [f"{e.name} {reason}" for reason in grid_skips]
        values = _unit_concurrence(embed(state, sites))
        worst = max(worst, _worst(values, closed_form(e, "concurrence")(angles)))
        points += len(values)
        if e.name not in ("B1-", "B4-"):
            continue
        skipped += [f"{e.name} {reason}" for reason in line_skips]
        equal = max(equal, _worst(_unit_concurrence(embed(state, diagonal)), 1.0))
        points += len(diagonal[0])
    return CheckResult("concurrence-closed-forms", worst <= tol and equal <= equal_tol, worst,
                       tol, points, tuple(skipped),
                       f"16 members; equal-angle B1-/B4- |C - 1| {equal:.2e} "
                       f"(tol {equal_tol:g})")


def case_b(steps: int) -> CheckResult:
    """B2- concurrence against |4s^2 - d^2|/(4s^2 + d^2) on a steps x steps
    grid, s in [1, 2] and delta in [-2, 2], plus C = 1 along delta = 0."""
    tol = 1e-10
    entry = catalog("B2-")
    state = build_state(entry.weight, entry.spec)
    ss = np.linspace(1, 2, steps)
    grid = [(s, d) for s in ss for d in np.linspace(-2, 2, steps)] + [(s, 0.0) for s in ss]
    s, delta = np.array(grid, dtype=float).reshape(-1, 2).T
    alpha = case_b_alpha(s, delta)
    keep = ~_degenerate(alpha)
    skipped = [f"s={x:g} delta={d:g}: degenerate basis" for x, d in zip(s[~keep], delta[~keep])]
    values = _unit_concurrence(embed(state, [_site_vectors(alpha[keep])] * 2))
    forms = closed_form(entry, "concurrence")([alpha[keep]] * 2, (s[keep], delta[keep]))
    worst = _worst(values, forms)
    return CheckResult("case-b", worst <= tol, worst, tol, len(values), tuple(skipped),
                       "grid and delta = 0 line")


def entropy_forms(steps: int, line_steps: int) -> CheckResult:
    """<S_L> of G1+ against the three-angle G form on steps^3 points over
    [0, 2 pi)^3; G1+, W7 and W6-+- against the equal-angle forms on
    line_steps points over [0, 2 pi]; the closed-form extrema 1 (G) and 8/9
    (W) at k pi, and 0 at (2k + 1) pi/2."""
    tol = 1e-10
    entries = [catalog(name) for name in ("G1+", "W7", "W6-+-")]
    axis = np.linspace(0, 2 * math.pi, steps, endpoint=False)
    grid = np.stack([a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij")])
    keep = ~_degenerate(grid).any(axis=0)
    skipped = [f"G alphas={', '.join(f'{a:.6g}' for a in point)}: degenerate basis"
               for point in grid.T[~keep]]
    angles = list(grid[:, keep])
    ghz = build_state(entries[0].weight, entries[0].spec)
    values = average_entropy(embed(ghz, [_site_vectors(a) for a in angles]))
    worst = _worst(values, closed_form(entries[0], "avg_entropy")(angles))
    points = len(values)
    full_line = np.linspace(0, 2 * math.pi, line_steps)
    line = full_line[~_degenerate(full_line)]
    vectors = _site_vectors(line)
    for e in entries:
        key = entropy_form_name(e)
        skipped += [f"{key} alpha={a:.6g}: degenerate basis (formula value "
                    f"{average_entropy_equal_alpha(key, a):.3g})"
                    for a in full_line[_degenerate(full_line)]]
        values = average_entropy(embed(build_state(e.weight, e.spec), [vectors] * 3))
        worst = max(worst, _worst(values, average_entropy_equal_alpha(key, line)))
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
    columns = np.array([average_entropy(embed(state, sites)) for state in states])
    spread = float(np.max(np.ptp(columns, axis=0), initial=0.0))
    return CheckResult("ghz-family-degeneracy", spread <= tol, spread, tol, n_triples,
                       detail=f"spread across {len(states)} members")


def _apply(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Matrix times vector at each grid point."""
    return (matrices @ vectors[..., None])[..., 0]


def structure() -> CheckResult:
    """Biorthonormality, completeness, eta psi_k = phi_k, eta eta^-1 = I,
    pseudo-Hermiticity and the b/b~ ladder action on the (r, s, t, beta)
    grid; bi-overcompleteness at five angles; the same-family integral must
    stay at least 0.01 off the identity."""
    tol = 1e-12
    eye = np.eye(2)
    kept, sites, skipped = [], [], []
    axis = (0.5, 1.0, 2.0)
    for r, s, t, beta in itertools.product(axis, axis, axis, (0.0, 0.3, -0.3, 1.0, -1.0)):
        if abs(r * math.sin(beta)) >= math.sqrt(s * t) - 1e-9:
            skipped.append(f"r={r} s={s} t={t} beta={beta}: at/beyond degeneracy")
            continue
        kept.append((r, s, t, beta))
        sites.append(site_params(SystemParams(r, s, t, beta)))
    alphas, skews = np.array(sites).T
    b = basis_grid(alphas, skews)
    ops = ladder_ops(b)
    psis, phis = b.vectors[:, 0], b.vectors[:, 1]
    gram = phis.conj() @ np.swapaxes(psis, -1, -2)
    completeness = np.swapaxes(psis, -1, -2) @ phis.conj()
    h = hamiltonian(SystemParams(*np.array(kept).T))
    worst = max(float(np.max(np.abs(residual))) for residual in (
        gram - eye, completeness - eye, b.eta @ b.eta_inv - eye,
        _apply(b.eta, b.psi0) - b.phi0, _apply(b.eta, b.psi1) - b.phi1,
        _apply(ops.b, b.psi1) - b.psi0, _apply(ops.b, b.psi0),
        _apply(ops.b_tilde, b.phi1) - b.phi0, _apply(ops.b_tilde, b.phi0),
        pseudo_hermiticity_residual(b, h)))
    points = len(kept)
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
        form = closed_form(catalog(c.pair_name), "concurrence")
        worst = max(worst, _worst(concurrence(dominant_pair_state(vec, c.factor_site)),
                                  form([0.5, 0.5])))
    return CheckResult("biseparability", worst <= tol and ratio < 1e-12, worst, tol,
                       len(constructions), detail=f"max schmidt ratio {ratio:.2e} (needs < 1e-12)")


def _grassmann_cases(n_cases: int):
    """The seeded law inputs: per case three random elements a, b, c, one
    generator g and two scalars za, zb.

    An element sums up to four random words over theta_1, theta_2 and their
    conjugates, each with a random Gaussian-integer coefficient.
    """
    rng = random.Random(GRASSMANN_SEED)

    def scalar():
        return complex(rng.randrange(-4, 5), rng.randrange(-4, 5))

    def element():
        terms: dict[int, complex] = {}
        for _ in range(rng.randrange(5)):
            size = rng.randrange(len(_GRASSMANN_GENS) + 1)
            # sample draws distinct generators, so the word is never zero
            sign, mask = normalize_word(rng.sample(_GRASSMANN_GENS, size))
            terms[mask] = terms.get(mask, 0j) + sign * scalar()
        return GrassmannElement(terms)

    for _ in range(n_cases):
        a, b, c = element(), element(), element()
        yield a, b, c, rng.choice(_GRASSMANN_GENS), scalar(), scalar()


def grassmann_laws(n_cases: int) -> CheckResult:
    """Associativity, distributivity, double-integral vanishing, Berezin
    linearity and conjugation involution on n_cases seeded random elements
    over theta_1, theta_2 and their conjugates; anticommutativity and
    nilpotency on every generator pair.  The residual counts violations."""
    word = GrassmannElement.word
    violations = 0
    for g, h in itertools.product(_GRASSMANN_GENS, repeat=2):
        gh = word(g) * word(h)
        violations += not (gh.is_zero() if g == h else gh == -(word(h) * word(g)))
    for a, b, c, g, za, zb in _grassmann_cases(n_cases):
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
