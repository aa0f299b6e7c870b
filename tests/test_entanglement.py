import itertools
import math
import random

import numpy as np
import pytest

from pseudobell.biortho import basis_from_alpha, biortho
from pseudobell.constructor import (
    StateVector,
    all_biseparable,
    build_state,
    catalog,
    catalog_entries,
)
from pseudobell.entanglement import (
    BadSubset,
    BadSubsetSize,
    NotTwoQubit,
    SingularDenominator,
    average_entropy,
    average_entropy_closed_form,
    average_entropy_equal_alpha,
    case_b_alpha,
    case_b_concurrence,
    concurrence,
    concurrence_closed_form,
    dominant_pair_state,
    embed,
    linear_entropy,
    normalize,
    partial_trace,
    schmidt_ratio,
)
from pseudobell.graded_states import BasisLabel


def bell(name):
    entry = catalog(name)
    return build_state(entry.weight, entry.spec)


def embedded(name, *alphas):
    state = bell(name)
    bases = [basis_from_alpha(a) for a in alphas]
    return normalize(embed(state, bases))


def density_matrix(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def test_embed_single_ket_hermitian_limit():
    basis = basis_from_alpha(0.0)
    sv = StateVector({(BasisLabel(1, "psi", 0),): 1})
    np.testing.assert_allclose(embed(sv, [basis]), np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    sv = StateVector({(BasisLabel(1, "phi", 0),): 1})
    np.testing.assert_allclose(embed(sv, [basis]), np.array([1, 1]) / np.sqrt(2), atol=1e-15)


def test_b1_minus_reduces_to_singlet():
    for alpha in (0.0, 0.4, 0.7, 1.2):
        vec = embedded("B1-", alpha, alpha)
        target = -np.array([0, 1, -1, 0]) / np.sqrt(2)
        np.testing.assert_allclose(vec, target, atol=1e-12)
        vec = embedded("B4-", alpha, alpha)
        np.testing.assert_allclose(vec, target, atol=1e-12)


def test_equal_alpha_standard_bell_reductions():
    plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    for alpha in (0.0, 0.5, 1.0):
        np.testing.assert_allclose(embedded("B'2-", alpha, alpha), plus, atol=1e-12)
        np.testing.assert_allclose(embedded("B'3-", alpha, alpha), plus, atol=1e-12)
        np.testing.assert_allclose(embedded("B'1+", alpha, alpha), phi_plus, atol=1e-12)
        np.testing.assert_allclose(embedded("B'4+", alpha, alpha), phi_plus, atol=1e-12)
        np.testing.assert_allclose(embedded("B2+", alpha, alpha), phi_minus, atol=1e-12)
        np.testing.assert_allclose(embedded("B3+", alpha, alpha), phi_minus, atol=1e-12)


def test_concurrence_basics():
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert abs(concurrence(singlet) - 1) < 1e-14
    assert concurrence(np.array([1, 0, 0, 0])) < 1e-14
    with pytest.raises(NotTwoQubit):
        concurrence(np.zeros(8))


def test_concurrence_b2_minus_at_quarter_pi():
    vec = embedded("B2-", math.pi / 4, math.pi / 4)
    assert abs(concurrence(vec) - 1.0 / 3.0) < 1e-12


def test_concurrence_closed_form_examples():
    assert abs(concurrence_closed_form("B1-", 0.7, 0.7) - 1) < 1e-14
    expected = abs(math.cos(0.3) * math.cos(0.5) / (1 + math.sin(0.3) * math.sin(0.5)))
    assert abs(concurrence_closed_form("B2-", 0.3, 0.5) - expected) < 1e-14
    with pytest.raises(SingularDenominator):
        concurrence_closed_form("B1-", math.pi / 2, math.pi / 2)
    with pytest.raises(ValueError):
        concurrence_closed_form("G1+", 0.1, 0.2)


@pytest.mark.parametrize("name", [
    "B1-", "B2-", "B3-", "B4-", "B1+", "B2+", "B3+", "B4+",
    "B'1-", "B'2-", "B'3-", "B'4-", "B'1+", "B'2+", "B'3+", "B'4+",
])
def test_concurrence_pipeline_matches_closed_form(name):
    grid = np.linspace(0, 2 * math.pi, 11, endpoint=False)
    state = bell(name)
    for a1 in grid:
        for a2 in grid:
            if abs(math.cos(a1)) < 1e-8 or abs(math.cos(a2)) < 1e-8:
                continue
            den1 = 1 - math.sin(a1) * math.sin(a2)
            den2 = 1 + math.sin(a1) * math.sin(a2)
            if min(abs(den1), abs(den2)) < 1e-8:
                continue
            vec = normalize(embed(state, [basis_from_alpha(a1), basis_from_alpha(a2)]))
            assert abs(concurrence(vec) - concurrence_closed_form(name, a1, a2)) < 1e-10


def test_concurrence_periodicity():
    rng = random.Random(5)
    state = bell("B2-")
    for _ in range(20):
        a1 = rng.uniform(0.1, 1.2)
        a2 = rng.uniform(0.1, 1.2)
        c0 = concurrence(normalize(embed(state, [basis_from_alpha(a1), basis_from_alpha(a2)])))
        c1 = concurrence(normalize(embed(
            state, [basis_from_alpha(a1 + math.pi), basis_from_alpha(a2 + math.pi)])))
        assert abs(c0 - c1) < 1e-10


def test_concurrence_local_phase_invariance():
    vec = embedded("B2-", 0.3, 0.8)
    phase = np.exp(0.7j)
    # multiply qubit-2 |1> amplitudes by a unit phase
    dressed = vec * np.array([1, phase, 1, phase])
    assert abs(concurrence(dressed) - concurrence(vec)) < 1e-12
    dressed = vec * np.array([1, 1, phase, phase])
    assert abs(concurrence(dressed) - concurrence(vec)) < 1e-12


def test_case_b_matches_closed_form():
    for s in (1.0, 1.5, 2.0):
        for delta in (-1.8, -0.6, 0.0, 0.9, 1.9):
            alpha = case_b_alpha(s, delta)
            vec = embedded("B2-", alpha, alpha)
            assert abs(concurrence(vec) - case_b_concurrence(s, delta)) < 1e-10
    assert abs(case_b_concurrence(1.0, 0.0) - 1.0) < 1e-15


def test_case_b_alpha_over_a_grid():
    s = np.array([1.0, 1.0, 2.0, 1.5])
    delta = np.array([0.5, 3.0, -4.0, -3.0])
    alphas = case_b_alpha(s, delta)
    assert alphas[0] == case_b_alpha(1.0, 0.5)
    assert abs(alphas[0] - math.asin(-0.25)) < 1e-15
    assert math.isnan(alphas[1])   # |delta| > 2s: no real spectrum
    assert alphas[2] == math.pi / 2 and alphas[3] == math.pi / 2


def test_partial_trace_product_state():
    rho = density_matrix(np.array([1, 0, 0, 0], dtype=complex))
    np.testing.assert_allclose(partial_trace(rho, [1]), [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_singlet_marginal():
    rho = density_matrix(np.array([0, 1, -1, 0]) / np.sqrt(2))
    np.testing.assert_allclose(partial_trace(rho, [1]), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_w_state():
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
    rho = density_matrix(w)
    np.testing.assert_allclose(partial_trace(rho, [1]),
                               np.diag([2 / 3, 1 / 3]), atol=1e-14)
    pair = partial_trace(rho, [2, 3])
    assert pair.shape == (4, 4)
    assert abs(np.trace(pair) - 1) < 1e-14


def test_partial_trace_bad_subset():
    rho = np.eye(4) / 4
    with pytest.raises(BadSubset):
        partial_trace(rho, [])
    with pytest.raises(BadSubset):
        partial_trace(rho, [1, 2])
    with pytest.raises(BadSubset):
        partial_trace(rho, [5])


def test_linear_entropy_limits():
    pure = density_matrix(np.array([1, 0], dtype=complex))
    assert abs(linear_entropy(pure, 2)) < 1e-15
    assert abs(linear_entropy(np.eye(2) / 2, 2) - 1) < 1e-15
    assert abs(linear_entropy(np.diag([2 / 3, 1 / 3]), 2) - 8 / 9) < 1e-14


def test_average_entropy_examples():
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1 / np.sqrt(2)
    assert abs(average_entropy(ghz) - 1) < 1e-12
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1 / np.sqrt(3)
    assert abs(average_entropy(w) - 8 / 9) < 1e-12
    product = np.zeros(8, dtype=complex)
    product[0] = 1
    assert abs(average_entropy(product)) < 1e-14
    with pytest.raises(BadSubsetSize):
        average_entropy(ghz, n=3)


def test_average_entropy_n2_equals_n1_by_purity():
    vec = embed(bell("G1+"), [basis_from_alpha(a) for a in (0.2, 0.5, -0.4)])
    assert abs(average_entropy(vec, 1) - average_entropy(vec, 2)) < 1e-12


def test_reduced_density_matrix_invariants():
    rng = np.random.default_rng(11)
    for _ in range(10):
        vec = normalize(rng.normal(size=8) + 1j * rng.normal(size=8))
        rho = density_matrix(vec)
        for subset in ([1], [3], [1, 2], [2, 3]):
            red = partial_trace(rho, subset)
            np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
            assert abs(np.trace(red) - 1) < 1e-12
            assert np.linalg.eigvalsh(red).min() > -1e-10


def test_marginal_symmetry_pure_state():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = density_matrix(normalize(vec))
    for subset in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        comp = [i for i in (1, 2, 3) if i not in subset]
        d = 2  # min(2^n, 2^(3-n)) = 2 for every bipartition of 3 qubits
        sa = linear_entropy(partial_trace(rho, subset), d)
        sb = linear_entropy(partial_trace(rho, comp), d)
        assert abs(sa - sb) < 1e-12


def test_ghz_average_entropy_matches_closed_form():
    grid = [0.0, 0.4, 1.2, 2.0, 3.0, 4.4, 5.5]
    state = bell("G1+")
    for a1, a2, a3 in itertools.product(grid, repeat=3):
        vec = embed(state, [basis_from_alpha(a) for a in (a1, a2, a3)])
        got = average_entropy(vec)
        want = average_entropy_closed_form("G", a1, a2, a3)
        assert abs(got - want) < 1e-10, (a1, a2, a3)


def test_ghz_equal_alpha_formula():
    for a in np.linspace(0, 2 * math.pi, 41):
        if abs(math.cos(a)) < 1e-8:
            continue
        vec = embed(bell("G1+"), [basis_from_alpha(a)] * 3)
        assert abs(average_entropy(vec) - average_entropy_equal_alpha("G", a)) < 1e-10


def test_w7_average_entropy_matches_closed_form():
    state = bell("W7")
    grid = [0.0, 0.4, 1.2, 2.2, 3.1, 4.3]
    for a1, a2, a3 in itertools.product(grid, repeat=3):
        vec = embed(state, [basis_from_alpha(a) for a in (a1, a2, a3)])
        got = average_entropy(vec)
        want = average_entropy_closed_form("W7", a1, a2, a3)
        assert abs(got - want) < 1e-10, (a1, a2, a3)


def test_w6_average_entropy_matches_closed_form():
    state = build_state(catalog("W6-+-").weight, catalog("W6-+-").spec)
    grid = [0.0, 0.5, 1.1, 2.3, 3.6, 5.1]
    for a1, a2, a3 in itertools.product(grid, repeat=3):
        vec = embed(state, [basis_from_alpha(a) for a in (a1, a2, a3)])
        got = average_entropy(vec)
        want = average_entropy_closed_form("W6", a1, a2, a3)
        assert abs(got - want) < 1e-10, (a1, a2, a3)


def test_equal_alpha_w_formulas_and_bounds():
    for a in np.linspace(0, 2 * math.pi, 41):
        w7 = average_entropy_equal_alpha("W7", a)
        w6 = average_entropy_equal_alpha("W6", a)
        assert -1e-12 <= w7 <= 8 / 9 + 1e-12
        assert -1e-12 <= w6 <= 8 / 9 + 1e-12
    assert abs(average_entropy_equal_alpha("W7", 0) - 8 / 9) < 1e-14
    assert abs(average_entropy_equal_alpha("W6", 0) - 8 / 9) < 1e-14
    assert abs(average_entropy_equal_alpha("W7", math.pi / 2)) < 1e-14
    assert abs(average_entropy_equal_alpha("G", 0) - 1) < 1e-14


def test_ghz_family_degeneracy():
    rng = random.Random(17)
    names = [f"G{j}{s}" for j in range(1, 9) for s in "+-"]
    for _ in range(10):
        alphas = []
        while len(alphas) < 3:
            a = rng.uniform(0, 2 * math.pi)
            if abs(math.cos(a)) > 0.05:
                alphas.append(a)
        bases = [basis_from_alpha(a) for a in alphas]
        values = [average_entropy(embed(bell(name), bases)) for name in names]
        assert max(values) - min(values) < 1e-10


def test_biseparable_factorization():
    alpha = 0.5
    bases = [basis_from_alpha(alpha)] * 3
    for c in all_biseparable():
        vec = embed(build_state(c.weight, c.spec), bases)
        assert schmidt_ratio(vec, [c.factor_site]) < 1e-12, c.name


def test_biseparable_pair_concurrence():
    alpha = 0.5
    bases = [basis_from_alpha(alpha)] * 3
    # the maximally entangled branches: B1- pair and B'1+ pair
    for c, expect_one in [
        (next(x for x in all_biseparable() if x.pair_name == "B1-" and x.factor_site == 1), True),
        (next(x for x in all_biseparable() if x.pair_name == "B'1+"), True),
        (next(x for x in all_biseparable() if x.pair_name == "B1-" and x.factor_site == 2), True),
    ]:
        vec = embed(build_state(c.weight, c.spec), bases)
        pair = dominant_pair_state(vec, c.factor_site)
        got = concurrence(pair)
        if expect_one:
            assert abs(got - 1) < 1e-10, c.name
        # and in every case the pair matches its Bell closed form
        want = concurrence_closed_form(c.pair_name, alpha, alpha)
        assert abs(got - want) < 1e-10, c.name


def _measure(vec):
    return concurrence(normalize(vec)) if vec.shape[-1] == 4 else average_entropy(vec)


def test_batched_kernel_equals_scalar_calls():
    # every row of the batched embed and measures is the single-point call,
    # bit for bit; rows with a degenerate site are NaN
    rng = np.random.default_rng(2024)
    for e in catalog_entries(include_variants=True):
        state = build_state(e.weight, e.spec)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, (state.n_sites, 24))
        angles[-1, ::8] = math.pi / 2
        batch = embed(state, [biortho(a)[0] for a in angles])
        values = _measure(batch)
        assert batch.shape == (24, 2 ** state.n_sites) and values.shape == (24,)
        for g, point in enumerate(angles.T):
            if any(abs(math.cos(a)) < 1e-10 for a in point):
                assert np.isnan(batch[g]).all() and math.isnan(values[g]), e.name
                continue
            vec = embed(state, [basis_from_alpha(a) for a in point])
            assert np.array_equal(batch[g], vec), e.name
            assert values[g] == _measure(vec), e.name


def test_embed_equals_kronecker_reference():
    # the outer products multiply in the same order as the Kronecker loop,
    # so the results agree exactly
    rng = np.random.default_rng(31)
    for e in catalog_entries(include_variants=True):
        state = build_state(e.weight, e.spec)
        bases = [basis_from_alpha(a) for a in rng.uniform(-1.5, 1.5, state.n_sites)]
        want = np.zeros(2 ** state.n_sites, dtype=complex)
        for labels, c in state.terms.items():
            term = np.array([c], dtype=complex)
            for lab, basis in zip(labels, bases):
                term = np.kron(term, basis.vector(lab.family, lab.level))
            want += term
        assert np.array_equal(embed(state, bases), want), e.name


def test_embed_needs_one_basis_per_site():
    basis = basis_from_alpha(0.3)
    for count in (1, 3):
        with pytest.raises(ValueError, match="one basis per site"):
            embed(bell("B1-"), [basis] * count)
    with pytest.raises(ValueError, match="one basis per site"):
        embed(bell("B1-"), [biortho(np.zeros(4))[0]] * 3)


def test_embed_empty_grid():
    empty = biortho(np.array([]))[0]
    pair = embed(bell("B1-"), [empty] * 2)
    assert pair.shape == (0, 4) and concurrence(normalize(pair)).shape == (0,)
    triple = embed(bell("W7"), [empty] * 3)
    assert triple.shape == (0, 8) and average_entropy(triple).shape == (0,)


def test_embed_broadcasts_a_fixed_site():
    state = bell("B2-")
    alphas = np.linspace(-1, 1, 7)
    fixed = basis_from_alpha(0.4)
    batch = embed(state, [biortho(alphas)[0], fixed])
    for g, a in enumerate(alphas):
        assert np.array_equal(batch[g], embed(state, [basis_from_alpha(a), fixed]))


def test_measures_broadcast_over_leading_axes():
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(2, 3, 8)) + 1j * rng.normal(size=(2, 3, 8))
    pairs = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    for n in (1, 2):
        grid = average_entropy(vecs, n)
        assert grid.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            assert grid[i, j] == average_entropy(vecs[i, j], n)
    grid = concurrence(normalize(pairs))
    for i, j in itertools.product(range(2), range(3)):
        assert grid[i, j] == concurrence(normalize(pairs[i, j]))


def test_average_entropy_matches_partial_trace_route():
    # the 2x2-minor (Cauchy-Binet) form against 1 - Tr rho_A^2 from the
    # reduced density matrices, on random states of 3 and 4 qubits
    rng = np.random.default_rng(12)
    for sites in (3, 4):
        for _ in range(5):
            vec = rng.normal(size=2 ** sites) + 1j * rng.normal(size=2 ** sites)
            rho = density_matrix(normalize(vec))
            for n in range(1, sites):
                d = min(2 ** n, 2 ** (sites - n))
                want = np.mean([linear_entropy(partial_trace(rho, subset), d)
                                for subset in itertools.combinations(range(1, sites + 1), n)])
                assert abs(average_entropy(vec, n) - want) < 1e-12


def test_average_entropy_non_negative_near_degeneracy():
    # 1 - Tr rho^2 as a difference of O(1) terms gave -5.9e-16 here; the
    # closed form is 8.0e-24
    alpha = math.pi / 2 - 1e-6
    value = average_entropy(embed(bell("W7"), [basis_from_alpha(alpha)] * 3))
    want = average_entropy_equal_alpha("W7", alpha)
    assert value >= 0
    assert abs(value - want) <= 1e-3 * want
