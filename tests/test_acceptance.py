"""Acceptance suite: one test per criterion, each a call into ``pseudobell.verify``.

``pseudobell verify`` runs the same check functions at the sparser densities
set in ``pseudobell.verify``; these tests pass denser grids and more cases.
Each test asserts that the check passed and how many points it evaluated, so
a grid cannot shrink silently.  Run with ``pytest -s tests/test_acceptance.py``
to see each check's line.

The grid checks evaluate each state in one kernel call over the whole grid.
The point-by-point references below walk the same grids through the G = 1 API
(``basis_from_alpha`` -> ``embed`` -> measure -> scalar closed form); each
check must return a ``CheckResult`` equal to its reference's.  ``structure``
is held to its per-point reference the same way, up to the residual's
rounding, and ``grassmann_laws`` to the input generator it replaced.
"""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from pseudobell import verify
from pseudobell.biortho import (
    SystemParams,
    basis_from_alpha,
    check_pseudo_hermiticity,
    eigenbasis,
    ladder_ops,
)
from pseudobell.constructor import all_biseparable, build_state, catalog, catalog_entries
from pseudobell.entanglement import (
    average_entropy,
    average_entropy_closed_form,
    average_entropy_equal_alpha,
    case_b_alpha,
    case_b_concurrence,
    concurrence,
    concurrence_closed_form,
    embed,
    normalize,
)
from pseudobell.graded_states import bi_overcompleteness, same_family_resolution_residual
from pseudobell.grassmann import GrassmannElement, theta, theta_bar
from pseudobell.verify import CheckResult


def _check(result, points):
    print(f"\n{result.line()}")
    assert result.passed, result.line()
    assert result.points == points


def test_criterion_01_table_fidelity():
    assert len(catalog_entries()) == 48
    assert catalog("G7+").note  # the tabulation discrepancy is logged
    _check(verify.table_fidelity(), 52)


def test_table_fidelity_flags_a_sign_flipped_entry():
    entries = [replace(e, weight=-e.weight) if e.name == "B1-" else e
               for e in catalog_entries(include_variants=True)]
    result = verify.table_fidelity(entries)
    assert not result.passed
    assert result.residual == 1
    assert "B1-" in result.detail


def test_criterion_02_round_trip():
    _check(verify.round_trip(), 52)


def test_criterion_03_concurrence_formulas():
    # 16 members on the 21 x 21 grid, plus B1-/B4- on the 21-point diagonal
    _check(verify.concurrence_forms(21), 16 * 21 * 21 + 2 * 21)


def test_criterion_04_case_b():
    # s = 1, delta = +/-2 are exactly degenerate; the delta = 0 line adds 21
    result = verify.case_b(21)
    _check(result, 21 * 21 - 2 + 21)
    assert len(result.skipped) == 2


def test_criterion_05_average_entropy():
    # alpha = pi/2 and 3pi/2 lie on the 201-point line and are skipped
    result = verify.entropy_forms(9, 201)
    _check(result, 9 ** 3 + 3 * (201 - 2))
    assert len(result.skipped) == 6


def test_criterion_06_ghz_family_degeneracy():
    _check(verify.ghz_degeneracy(50), 50)


def test_criterion_07_structure_checks():
    # 111 non-degenerate points of the 3x3x3x5 (r, s, t, beta) grid, 5 angles
    result = verify.structure()
    _check(result, 111 + 5)
    assert len(result.skipped) == 3 * 3 * 3 * 5 - 111


def test_criterion_08_coherent_eigenvalue_identity():
    _check(verify.coherent_eigenvalue(), 2)


def test_criterion_09_biseparability():
    assert sorted(c.pair_name for c in all_biseparable()) == \
        ["B'1+", "B'1-", "B1+", "B1+", "B1-", "B1-"]
    _check(verify.biseparability(), 6)


def test_criterion_10_grassmann_property_suite():
    _check(verify.grassmann_laws(1100), 1100)


# -- point-by-point references for the grid checks ------------------------------


def _bases(alphas):
    """Basis per angle, None where verify skips the angle as degenerate."""
    return {a: basis_from_alpha(a) if abs(math.cos(a)) >= verify._SKIP_COS else None
            for a in alphas}


def reference_concurrence_forms(steps):
    tol, equal_tol = 1e-10, 1e-12
    bases = _bases(np.linspace(0, 2 * math.pi, steps, endpoint=False))
    worst = equal = 0.0
    points, skipped = 0, []
    for e in catalog_entries():
        if e.group not in ("bell", "bell-prime"):
            continue
        state = build_state(e.weight, e.spec)
        for a1, a2 in itertools.product(bases, repeat=2):
            s1s2 = math.sin(a1) * math.sin(a2)
            if bases[a1] is None or bases[a2] is None:
                skipped.append(f"{e.name} a1={a1:.6g} a2={a2:.6g}: degenerate basis")
                continue
            if min(abs(1 - s1s2), abs(1 + s1s2)) < 1e-8:
                skipped.append(f"{e.name} a1={a1:.6g} a2={a2:.6g}: singular closed form")
                continue
            vec = normalize(embed(state, [bases[a1], bases[a2]]))
            worst = max(worst, abs(concurrence(vec) - concurrence_closed_form(e.name, a1, a2)))
            points += 1
        if e.name not in ("B1-", "B4-"):
            continue
        for a, basis in bases.items():
            if basis is None:
                skipped.append(f"{e.name} a1=a2={a:.6g}: degenerate basis")
                continue
            equal = max(equal, abs(concurrence(normalize(embed(state, [basis] * 2))) - 1.0))
            points += 1
    return CheckResult("concurrence-closed-forms", worst <= tol and equal <= equal_tol, worst,
                       tol, points, tuple(skipped),
                       f"16 members; equal-angle B1-/B4- |C - 1| {equal:.2e} "
                       f"(tol {equal_tol:g})")


def reference_case_b(steps):
    tol = 1e-10
    state = build_state(catalog("B2-").weight, catalog("B2-").spec)
    ss = np.linspace(1, 2, steps)
    grid = [(s, d) for s in ss for d in np.linspace(-2, 2, steps)] + [(s, 0.0) for s in ss]
    worst, points, skipped = 0.0, 0, []
    for s, delta in grid:
        alpha = case_b_alpha(s, delta)
        if abs(math.cos(alpha)) < verify._SKIP_COS:
            skipped.append(f"s={s:g} delta={delta:g}: degenerate basis")
            continue
        vec = normalize(embed(state, [basis_from_alpha(alpha)] * 2))
        worst = max(worst, abs(concurrence(vec) - case_b_concurrence(s, delta)))
        points += 1
    return CheckResult("case-b", worst <= tol, worst, tol, points, tuple(skipped),
                       "grid and delta = 0 line")


def reference_entropy_forms(steps, line_steps):
    tol = 1e-10
    states = {key: build_state(catalog(name).weight, catalog(name).spec)
              for key, name in (("G", "G1+"), ("W7", "W7"), ("W6", "W6-+-"))}
    worst, points, skipped = 0.0, 0, []
    bases = _bases(np.linspace(0, 2 * math.pi, steps, endpoint=False))
    for angles in itertools.product(bases, repeat=3):
        if any(bases[a] is None for a in angles):
            skipped.append(f"G alphas={', '.join(f'{a:.6g}' for a in angles)}: "
                           "degenerate basis")
            continue
        vec = embed(states["G"], [bases[a] for a in angles])
        worst = max(worst, abs(average_entropy(vec)
                               - average_entropy_closed_form("G", *angles)))
        points += 1
    line = _bases(np.linspace(0, 2 * math.pi, line_steps))
    for key, state in states.items():
        for a, basis in line.items():
            if basis is None:
                skipped.append(f"{key} alpha={a:.6g}: degenerate basis (formula value "
                               f"{average_entropy_equal_alpha(key, a):.3g})")
                continue
            vec = embed(state, [basis] * 3)
            worst = max(worst, abs(average_entropy(vec) - average_entropy_equal_alpha(key, a)))
            points += 1
    for k in range(3):
        for key, top in (("G", 1.0), ("W7", 8 / 9), ("W6", 8 / 9)):
            worst = max(worst, abs(average_entropy_equal_alpha(key, k * math.pi) - top),
                        abs(average_entropy_equal_alpha(key, (2 * k + 1) * math.pi / 2)))
    return CheckResult("avg-entropy-closed-forms", worst <= tol, worst, tol, points,
                       tuple(skipped), "three-angle G, equal-angle G/W7/W6 and extrema")


def reference_ghz_degeneracy(n_triples):
    tol = 1e-10
    rng = random.Random(verify.GHZ_SEED)
    states = [build_state(e.weight, e.spec) for e in catalog_entries() if e.group == "ghz"]
    spread = 0.0
    for _ in range(n_triples):
        alphas = []
        while len(alphas) < 3:
            a = rng.uniform(0, 2 * math.pi)
            if abs(math.cos(a)) > 0.05:
                alphas.append(a)
        bases = [basis_from_alpha(a) for a in alphas]
        values = [average_entropy(embed(state, bases)) for state in states]
        spread = max(spread, max(values) - min(values))
    return CheckResult("ghz-family-degeneracy", spread <= tol, spread, tol, n_triples,
                       detail=f"spread across {len(states)} members")


@pytest.mark.parametrize("check, reference, args, points, skips", [
    (verify.concurrence_forms, reference_concurrence_forms, (4,), 68, 196),
    (verify.concurrence_forms, reference_concurrence_forms, (8,), 588, 452),
    (verify.entropy_forms, reference_entropy_forms, (4, 9), 29, 62),
    (verify.case_b, reference_case_b, (21,), 21 * 21 - 2 + 21, 2),
    (verify.ghz_degeneracy, reference_ghz_degeneracy, (10,), 10, 0),
    (verify.concurrence_forms, reference_concurrence_forms, (0,), 0, 0),
    (verify.ghz_degeneracy, reference_ghz_degeneracy, (0,), 0, 0),
], ids=["concurrence-4", "concurrence-8", "entropy-4-9", "case-b-21", "ghz-10",
        "concurrence-0", "ghz-0"])
def test_grid_check_equals_point_by_point_reference(check, reference, args, points, skips):
    result = check(*args)
    assert result == reference(*args)
    assert (result.points, len(result.skipped)) == (points, skips)


def test_concurrence_singular_closed_form_skips_match_reference(monkeypatch):
    # An axis angle within ~1e-4 of pi/2 but more than 1e-9 off it takes the
    # singular-closed-form branch; no feasible density puts one on the grid,
    # so shift the 4-step axis's pi/2 point by 1e-6.
    linspace = np.linspace

    def shifted(*args, **kwargs):
        axis = linspace(*args, **kwargs)
        axis[1] -= 1e-6
        return axis

    monkeypatch.setattr(np, "linspace", shifted)
    result = verify.concurrence_forms(4)
    assert result == reference_concurrence_forms(4)
    assert {reason.split(": ")[-1] for reason in result.skipped} == \
        {"degenerate basis", "singular closed form"}
    assert (result.points, len(result.skipped)) == (16 * 8 + 2 * 3, 16 * 8 + 2)


def reference_structure():
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


def test_structure_grid_equals_point_by_point_reference():
    result, reference = verify.structure(), reference_structure()
    assert replace(result, residual=0.0) == replace(reference, residual=0.0)
    # Both residuals are max-abs deviations of O(1) entries.  The grid forms
    # its Gram, completeness and matrix-vector products in another summation
    # order, so the bound is one ulp of 1; the worst residual on this grid is
    # the pseudo-Hermiticity one, whose rows equal their G = 1 calls.
    assert abs(result.residual - reference.residual) <= np.finfo(float).eps


def reference_grassmann_cases(n_cases):
    rng = random.Random(verify.GRASSMANN_SEED)
    gens = [theta(1), theta(2), theta_bar(1), theta_bar(2)]
    word = GrassmannElement.word

    def scalar():
        return complex(rng.randrange(-4, 5), rng.randrange(-4, 5))

    def element():
        out = GrassmannElement.zero()
        for _ in range(rng.randrange(5)):
            out = out + word(*rng.sample(gens, rng.randrange(len(gens) + 1)), coeff=scalar())
        return out

    for _ in range(n_cases):
        a, b, c = element(), element(), element()
        g = rng.choice(gens)
        za, zb = scalar(), scalar()
        yield a, b, c, g, za, zb


def test_grassmann_law_inputs_equal_the_word_by_word_reference():
    cases = list(verify._grassmann_cases(verify.GRASSMANN_CASES))
    assert len(cases) == 200
    assert cases == list(reference_grassmann_cases(verify.GRASSMANN_CASES))
    # the cases are not degenerate: most elements have several terms
    assert sum(len(x.terms) > 1 for case in cases for x in case[:3]) > 300
