import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobell.constructor import (
    ProductSpec,
    ResidualGrassmann,
    SiteFactor,
    StateVector,
    Unreachable,
    UnknownName,
    ZeroState,
    all_biseparable,
    biseparable,
    build_state,
    catalog,
    catalog_entries,
    solve_weight,
)
from pseudobell.graded_states import BasisLabel, coherent_state, graded_tensor
from pseudobell.grassmann import GrassmannElement, theta

EL = GrassmannElement


def lab(site, family, level):
    return BasisLabel(site, family, level)


def psis(*levels):
    return tuple(lab(i + 1, "psi", lv) for i, lv in enumerate(levels))


def same_theta_pair():
    return ProductSpec(
        sites=(SiteFactor("psi", theta(1)), SiteFactor("psi", theta(1))),
        measures=(theta(1),))


def distinct_pair():
    return ProductSpec(
        sites=(SiteFactor("psi", theta(1)), SiteFactor("psi", theta(2))),
        measures=(theta(1), theta(2)))


def triple():
    return ProductSpec(
        sites=tuple(SiteFactor("psi", theta(i)) for i in (1, 2, 3)),
        measures=(theta(1), theta(2), theta(3)))


def test_build_unit_weight_same_theta():
    got = build_state(EL.one(), same_theta_pair())
    assert got == StateVector({psis(0, 1): 1, psis(1, 0): -1})


def test_build_bell_plus_weight():
    w = -(EL.word(theta(1)) + EL.word(theta(2)))
    got = build_state(w, distinct_pair())
    assert got == StateVector({psis(0, 1): 1, psis(1, 0): 1})


def test_build_ghz_weight():
    w = EL.word(theta(3), theta(2), theta(1)) + 1
    got = build_state(w, triple())
    assert got == StateVector({psis(0, 0, 0): 1, psis(1, 1, 1): 1})


def test_build_rejects_outside_generators():
    with pytest.raises(ValueError):
        build_state(EL.word(theta(3)), distinct_pair())


def test_build_residual_grassmann():
    from pseudobell.grassmann import theta_bar
    # a conjugate generator in the weight is never integrated out
    with pytest.raises(ResidualGrassmann):
        build_state(EL.word(theta_bar(1)), same_theta_pair())


def test_build_zero_state():
    w = EL.word(theta(1), theta(2))
    got = build_state(w, distinct_pair())
    assert got == StateVector({psis(0, 0): -1})
    with pytest.raises(ZeroState):
        build_state(EL.zero(), distinct_pair())


def test_solve_weight_bell_minus():
    target = StateVector({psis(0, 1): 1, psis(1, 0): -1})
    w = solve_weight(target, distinct_pair())
    assert w == -(EL.word(theta(1)) - EL.word(theta(2)))
    assert build_state(w, distinct_pair()) == target


def test_solve_weight_bell_prime_plus():
    target = StateVector({psis(0, 0): 1, psis(1, 1): 1})
    w = solve_weight(target, distinct_pair())
    assert w == -(EL.word(theta(1), theta(2)) + 1)


def test_solve_weight_w_pattern_distinct():
    target = StateVector({psis(0, 0, 1): -1, psis(0, 1, 0): 1, psis(1, 0, 0): -1})
    w = solve_weight(target, triple())
    expected = (-EL.word(theta(1), theta(2)) + EL.word(theta(1), theta(3))
                - EL.word(theta(2), theta(3)))
    assert w == expected


def test_solve_weight_unreachable_names_tuples():
    # on the same-theta pair both kets fix the weight's constant term (w = 1
    # gives |psi0 psi1> - |psi1 psi0>), so the symmetric sum asks two values of
    # it; |psi1 psi0>, after |psi0 psi1> in sorted-label order, is named
    target = StateVector({psis(0, 1): 1, psis(1, 0): 1})
    with pytest.raises(Unreachable, match="inconsistent components") as exc:
        solve_weight(target, same_theta_pair())
    assert exc.value.uncoverable == (psis(1, 0),)


def test_solve_weight_names_tuples_outside_the_image():
    # two level-1 sites on W'1's shared generator give no term in the product
    target = StateVector({psis(0, 0, 1): -1, psis(0, 1, 1): 1, psis(1, 0, 1): 2})
    with pytest.raises(Unreachable, match="uncoverable basis tuples") as exc:
        solve_weight(target, catalog("W'1").spec)
    assert exc.value.uncoverable == (psis(0, 1, 1), psis(1, 0, 1))


@pytest.mark.parametrize("flipped, named", [(2, (2,)), (1, (1,)), (0, (1, 2))])
def test_solve_weight_names_rows_disagreeing_with_the_first(flipped, named):
    # W'5's three kets all fix the weight's constant term: the first in
    # sorted-label order sets it and each later ket that disagrees is named
    entry = catalog("W'5")
    rows = [labels for labels, _ in entry.expected.sorted_terms()]
    target = StateVector({labels: -c if i == flipped else c
                          for i, (labels, c) in enumerate(entry.expected.sorted_terms())})
    with pytest.raises(Unreachable, match="inconsistent components") as exc:
        solve_weight(target, entry.spec)
    assert exc.value.uncoverable == tuple(rows[i] for i in named)


@pytest.mark.parametrize("bad", [float("nan"), complex(0, float("inf"))])
def test_solve_weight_rejects_non_finite_targets(bad):
    target = StateVector({psis(0, 1): 1, psis(1, 0): bad})
    with pytest.raises(ValueError, match="finite"):
        solve_weight(target, distinct_pair())


def test_solve_weight_minimum_degree_choice():
    # every weight monomial reaches a ket (theta1 reaches |psi0 psi0>), so
    # w = 1 is the only weight giving B1- on the same-theta pair
    target = StateVector({psis(0, 1): 1, psis(1, 0): -1})
    assert solve_weight(target, same_theta_pair()) == EL.one()


def test_round_trip_all_catalog():
    for entry in catalog_entries(include_variants=True):
        rebuilt = build_state(entry.weight, entry.spec)
        assert rebuilt == entry.expected, entry.name
        w = solve_weight(entry.expected, entry.spec)
        assert w == entry.weight, entry.name


def test_catalog_counts():
    entries = catalog_entries()
    assert len(entries) == 48
    groups = {}
    for e in entries:
        groups[e.group] = groups.get(e.group, 0) + 1
    assert groups == {"bell": 8, "bell-prime": 8, "ghz": 16, "w": 8, "w-same": 8}
    assert len(catalog_entries(include_variants=True)) == 52


def test_catalog_lookup_examples():
    b3 = catalog("B3+")
    assert b3.spec.sites[0].family == "phi" and b3.spec.sites[1].family == "psi"
    assert b3.weight == -(EL.word(theta(1)) + EL.word(theta(2)))
    assert b3.expected == StateVector({
        (lab(1, "phi", 0), lab(2, "psi", 1)): 1,
        (lab(1, "phi", 1), lab(2, "psi", 0)): 1,
    })

    g1m = catalog("G1-")
    assert g1m.expected == StateVector({psis(0, 0, 0): 1, psis(1, 1, 1): -1})
    assert g1m.weight == EL.word(theta(3), theta(2), theta(1)) - 1

    w1p = catalog("W'1")
    assert w1p.expected == StateVector(
        {psis(0, 0, 1): -1, psis(0, 1, 0): 1, psis(1, 0, 0): -1})
    assert w1p.weight == EL.one()


def test_catalog_g7_pattern_consistent():
    g7 = catalog("G7+")
    assert g7.note
    assert g7.expected == StateVector({
        (lab(1, "psi", 0), lab(2, "phi", 0), lab(3, "phi", 0)): 1,
        (lab(1, "psi", 1), lab(2, "phi", 1), lab(3, "phi", 1)): 1,
    })


def test_catalog_w_sign_tuples():
    e = catalog("W1+-+")
    assert e.expected == StateVector(
        {psis(0, 0, 1): 1, psis(0, 1, 0): -1, psis(1, 0, 0): 1})
    assert build_state(e.weight, e.spec) == e.expected
    assert catalog("W1(+,-,+)").expected == e.expected


def test_catalog_same_theta_variant():
    e = catalog("B2-same")
    assert e.weight == EL.one()
    assert build_state(e.weight, e.spec) == e.expected


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        catalog("B9+")
    with pytest.raises(UnknownName):
        catalog("nonsense")


def test_build_linearity():
    spec = distinct_pair()
    w1 = EL.word(theta(1))
    w2 = EL.word(theta(1), theta(2))
    a, b = 2.0, -3.5
    lhs = build_state(a * w1 + b * w2, spec)
    rhs = a * build_state(w1, spec) + b * build_state(w2, spec)
    assert lhs == rhs


def test_biseparable_expected_states():
    c = biseparable(1, 1)
    assert build_state(c.weight, c.spec) == c.expected
    assert c.factor_site == 1 and c.pair_sites == (2, 3) and c.pair_name == "B1+"

    c = biseparable(1, 1, primed=True)
    assert c.weight == EL.word(theta(3), theta(2), theta(1)) - EL.word(theta(1))
    assert build_state(c.weight, c.spec) == c.expected
    assert c.pair_name == "B'1+"

    c = biseparable(2, 1)
    assert c.weight == EL.word(theta(1), theta(2)) - EL.word(theta(3), theta(2))
    assert build_state(c.weight, c.spec) == c.expected
    assert c.factor_site == 2 and c.pair_sites == (1, 3)


def test_biseparable_all_six_build():
    for c in all_biseparable():
        assert build_state(c.weight, c.spec) == c.expected, c.name


def test_biseparable_validation():
    with pytest.raises(ValueError):
        biseparable(3, 1)
    with pytest.raises(ValueError):
        biseparable(2, 1, primed=True)
    with pytest.raises(ValueError):
        biseparable(1, 0)


@st.composite
def random_products(draw):
    """A product of up to 5 mixed-family sites, some sharing a generator."""
    n_sites = draw(st.integers(1, 5))
    gens = draw(st.lists(st.integers(1, n_sites), min_size=n_sites, max_size=n_sites))
    families = draw(st.lists(st.sampled_from(["psi", "phi"]),
                             min_size=n_sites, max_size=n_sites))
    measures = draw(st.permutations(sorted(set(gens))))
    return ProductSpec(tuple(SiteFactor(f, theta(g)) for f, g in zip(families, gens)),
                       tuple(theta(g) for g in measures))


@st.composite
def random_specs(draw):
    """A random product and a weight over its measure generators, with
    coefficients (zero included) from a small fixed complex set."""
    spec = draw(random_products())
    used = sorted(g.index for g in spec.measures)
    monomials = [m for k in range(len(used) + 1) for m in itertools.combinations(used, k)]
    coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 0.5, 1j, -2 + 1j]),
                           min_size=len(monomials), max_size=len(monomials)))
    weight = EL.zero()
    for mono, c in zip(monomials, coeffs):
        weight = weight + EL.word(*map(theta, mono), coeff=c)
    return spec, weight


@settings(max_examples=80, derandomize=True, deadline=None)
@given(random_specs())
def test_solve_weight_inverts_build_on_random_specs(case):
    spec, weight = case
    try:
        target = build_state(weight, spec)
    except ZeroState:
        return  # the zero state is not a target
    solved = solve_weight(target, spec)
    assert build_state(solved, spec) == target
    # every weight monomial reaches a ket (see the next test), so none is
    # dropped: the solve gives back the weight itself
    assert solved == weight


@settings(max_examples=80, derandomize=True, deadline=None)
@given(random_products())
def test_coherent_product_coefficients_are_single_signed_monomials(spec):
    product = graded_tensor([coherent_state(i + 1, sf.generator, sf.family)
                             for i, sf in enumerate(spec.sites)])
    for coeff in product.terms.values():
        [value] = coeff.terms.values()
        assert value in (1, -1)
    # every subset of the generators is some ket's monomial, so every weight
    # monomial reaches at least one ket
    monomials = {frozenset(coeff.generators()) for coeff in product.terms.values()}
    assert len(monomials) == 2 ** len(spec.measures)
