"""Acceptance suite: one test per criterion, each a call into ``pseudobell.verify``.

``pseudobell verify`` runs the same check functions at the sparser densities
set in ``pseudobell.verify``; these tests pass denser grids and more cases.
Each test asserts that the check passed and how many points it evaluated, so
a grid cannot shrink silently.  Run with ``pytest -s tests/test_acceptance.py``
to see each check's line.
"""

from dataclasses import replace

from pseudobell import verify
from pseudobell.constructor import all_biseparable, catalog, catalog_entries


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
