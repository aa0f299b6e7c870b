import math

import numpy as np
import pytest

from pseudobell.biortho import (
    BiorthoBasis,
    DegenerateSpectrum,
    NonRealRegime,
    SystemParams,
    basis_from_alpha,
    biortho,
    check_pseudo_hermiticity,
    config_sites,
    eigenbasis,
    hamiltonian,
    ladder_ops,
    parse_config,
)

GRID_RST = (0.5, 1.0, 2.0)
GRID_BETA = (0.0, 0.3, -0.3, 1.0, -1.0)


def _grid_params():
    for r in GRID_RST:
        for s in GRID_RST:
            for t in GRID_RST:
                for beta in GRID_BETA:
                    p = SystemParams(r, s, t, beta)
                    if abs(r * math.sin(beta)) < math.sqrt(s * t) - 1e-9:
                        yield p


def test_hermitian_limit():
    b = eigenbasis(SystemParams(1, 1, 1, 0.0))
    assert b.alpha == 0.0
    np.testing.assert_allclose(b.psi0, np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.psi1, np.array([1, -1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b.phi0, b.psi0, atol=1e-15)
    np.testing.assert_allclose(b.phi1, b.psi1, atol=1e-15)
    np.testing.assert_allclose(b.eta, np.eye(2), atol=1e-15)


def test_atom_field_alpha():
    # r = delta/2, s = t, beta = -pi/2  =>  sin(alpha) = -delta/(2s)
    s, delta = 1.5, 0.8
    p = SystemParams(delta / 2, s, s, -math.pi / 2)
    b = eigenbasis(p)
    assert abs(math.sin(b.alpha) + delta / (2 * s)) < 1e-14


def test_atom_field_hamiltonian_matrix():
    s, delta = 1.3, 0.6
    h = hamiltonian(SystemParams(delta / 2, s, s, -math.pi / 2))
    expected = 0.5 * np.array([[-1j * delta, 2 * s], [2 * s, 1j * delta]])
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_hamiltonian_literal():
    h = hamiltonian(SystemParams(0, 2, 3, 0.7))
    np.testing.assert_allclose(h, np.array([[0, 2], [3, 0]]), atol=1e-15)


def test_biorthonormality_and_completeness_grid():
    for p in _grid_params():
        b = eigenbasis(p)
        psis = (b.psi0, b.psi1)
        phis = (b.phi0, b.phi1)
        for i in range(2):
            for j in range(2):
                overlap = np.vdot(phis[i], psis[j])
                assert abs(overlap - (1 if i == j else 0)) < 1e-12
        completeness = sum(np.outer(psis[i], phis[i].conj()) for i in range(2))
        np.testing.assert_allclose(completeness, np.eye(2), atol=1e-12)


def test_metric_maps_between_families():
    for p in _grid_params():
        b = eigenbasis(p)
        np.testing.assert_allclose(b.eta @ b.psi0, b.phi0, atol=1e-12)
        np.testing.assert_allclose(b.eta @ b.psi1, b.phi1, atol=1e-12)
        np.testing.assert_allclose(b.eta_inv @ b.phi0, b.psi0, atol=1e-12)
        np.testing.assert_allclose(b.eta_inv @ b.phi1, b.psi1, atol=1e-12)
        np.testing.assert_allclose(b.eta @ b.eta_inv, np.eye(2), atol=1e-12)


def test_eta_hermitian_positive_definite():
    for p in _grid_params():
        b = eigenbasis(p)
        np.testing.assert_allclose(b.eta, b.eta.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(b.eta)
        assert np.all(eigs > 0)


def test_pseudo_hermiticity_hermitian_limit():
    assert check_pseudo_hermiticity(SystemParams(1, 1, 1, 0.0)) < 1e-14


def test_pseudo_hermiticity_asymmetric():
    assert check_pseudo_hermiticity(SystemParams(1, 2, 1, 0.3)) <= 1e-10


def test_pseudo_hermiticity_grid():
    for p in _grid_params():
        assert check_pseudo_hermiticity(p) <= 1e-10


def test_eigenvector_equation():
    for p in _grid_params():
        b = eigenbasis(p)
        h = hamiltonian(p)
        e0 = p.r * math.cos(p.beta) + math.sqrt(p.s * p.t) * math.cos(b.alpha)
        e1 = p.r * math.cos(p.beta) - math.sqrt(p.s * p.t) * math.cos(b.alpha)
        np.testing.assert_allclose(h @ b.psi0, e0 * b.psi0, atol=1e-10)
        np.testing.assert_allclose(h @ b.psi1, e1 * b.psi1, atol=1e-10)
        np.testing.assert_allclose(h.conj().T @ b.phi0, e0 * b.phi0, atol=1e-10)


def test_eigenvalue_reality():
    for p in _grid_params():
        eigs = np.linalg.eigvals(hamiltonian(p))
        assert np.max(np.abs(eigs.imag)) < 1e-10


def test_degenerate_boundary_raises():
    with pytest.raises(DegenerateSpectrum):
        eigenbasis(SystemParams(1, 1, 1, math.pi / 2))
    with pytest.raises(DegenerateSpectrum):
        basis_from_alpha(math.pi / 2)


def test_biortho_grid_matches_scalar_basis_and_flags_degeneracy():
    # basis_from_alpha is the G = 1 slice of biortho, so every regular row
    # equals the scalar basis exactly; degenerate rows are flagged and NaN
    rng = np.random.default_rng(3)
    alphas = np.concatenate([rng.uniform(-7, 7, 40), [math.pi / 2, -math.pi / 2, 3 * math.pi / 2]])
    for skew in (1.0, 2.0, -0.5):
        vectors, degenerate = biortho(alphas, skew)
        assert vectors.shape == (len(alphas), 2, 2, 2)
        assert degenerate.tolist() == [abs(math.cos(a)) < 1e-10 for a in alphas]
        for alpha, row, flagged in zip(alphas, vectors, degenerate):
            if flagged:
                assert np.isnan(row).all()
                with pytest.raises(DegenerateSpectrum):
                    basis_from_alpha(alpha, skew)
                continue
            basis = basis_from_alpha(alpha, skew)
            assert np.array_equal(basis.vectors, row)
            for k, family in enumerate(("psi", "phi")):
                for level in (0, 1):
                    assert np.array_equal(basis.vector(family, level), row[k, level])


def test_biortho_per_point_skew():
    alphas = np.array([0.3, 0.3])
    vectors, _ = biortho(alphas, np.array([1.0, 2.0]))
    assert np.array_equal(vectors[0], biortho(alphas[:1], 1.0)[0][0])
    assert np.array_equal(vectors[1], biortho(alphas[:1], 2.0)[0][0])


def test_non_real_regime_raises():
    with pytest.raises(NonRealRegime):
        eigenbasis(SystemParams(2, 1, 1, math.pi / 2))


def test_bad_st_product_rejected():
    with pytest.raises(ValueError):
        SystemParams(1, 1, -1, 0.0)


def test_alpha_periodicity():
    for alpha in (0.0, 0.3, 1.0, 2.0, 4.0):
        a = basis_from_alpha(alpha)
        b = basis_from_alpha(alpha + 2 * math.pi)
        for name in ("psi0", "psi1", "phi0", "phi1"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-12)


def test_ladder_action():
    for alpha in (0.0, 0.5, -0.7):
        b = basis_from_alpha(alpha)
        ops = ladder_ops(b)
        np.testing.assert_allclose(ops.b @ b.psi1, b.psi0, atol=1e-12)
        np.testing.assert_allclose(ops.b @ b.psi0, 0 * b.psi0, atol=1e-12)
        np.testing.assert_allclose(ops.b_tilde @ b.phi1, b.phi0, atol=1e-12)
        np.testing.assert_allclose(ops.b_tilde @ b.phi0, 0 * b.phi0, atol=1e-12)


def test_ladder_nilpotent_and_pseudo_adjoint():
    for p in _grid_params():
        b = eigenbasis(p)
        ops = ladder_ops(b)
        np.testing.assert_allclose(ops.b @ ops.b, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(ops.b_tilde @ ops.b_tilde, np.zeros((2, 2)), atol=1e-12)
        sharp = b.eta_inv @ ops.b.conj().T @ b.eta
        np.testing.assert_allclose(ops.b_sharp, sharp, atol=1e-12)
        tilde = b.eta @ ops.b @ b.eta_inv
        np.testing.assert_allclose(ops.b_tilde, tilde, atol=1e-12)


def test_config_roundtrip():
    cfg = parse_config("""
    # two-site example
    alpha1 = 0.5
    r2 = 1.0
    s2 = 1.0
    t2 = 1.0
    beta2 = 0.3
    """)
    bases = [basis_from_alpha(alpha, skew=skew) for alpha, skew in config_sites(cfg, 2)]
    assert isinstance(bases[0], BiorthoBasis)
    assert bases[0].alpha == 0.5
    assert abs(math.sin(bases[1].alpha) - math.sin(0.3)) < 1e-14


def test_config_errors():
    with pytest.raises(ValueError):
        parse_config("alpha1 0.5")
    with pytest.raises(ValueError):
        parse_config("alpha1 = abc")
    with pytest.raises(ValueError):
        config_sites({"alpha1": 0.1}, 2)
