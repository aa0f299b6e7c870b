import numpy as np
import pytest

from pseudobell.biortho import basis_from_alpha
from pseudobell.graded_states import (
    BasisLabel,
    GradedState,
    bi_overcompleteness,
    coherent_state,
    graded_tensor,
    resolution_integral,
    same_family_resolution_residual,
)
from pseudobell.grassmann import GrassmannElement, theta, theta_bar

EL = GrassmannElement


def lab(site, family, level):
    return BasisLabel(site, family, level)


def test_move_past_ket_parity_signs():
    assert lab(1, "psi", 0).parity_sign() == -1
    assert lab(1, "psi", 1).parity_sign() == 1
    assert lab(1, "phi", 0).parity_sign() == -1
    assert lab(2, "phi", 1).parity_sign() == 1


def test_coherent_state_two_terms():
    st = coherent_state(1, theta(1), "psi")
    assert st.terms == {
        (lab(1, "psi", 0),): EL.one(),
        (lab(1, "psi", 1),): -EL.word(theta(1)),
    }
    st_phi = coherent_state(1, theta(1), "phi")
    assert set(st_phi.terms) == {(lab(1, "phi", 0),), (lab(1, "phi", 1),)}


def test_coherent_state_rejects_conjugate_generator():
    with pytest.raises(ValueError):
        coherent_state(1, theta_bar(1), "psi")


def test_same_theta_pair_expansion():
    # |theta>|theta> = |psi0 psi0> + theta (|psi0 psi1> - |psi1 psi0>)
    st = graded_tensor([coherent_state(1, theta(1), "psi"),
                        coherent_state(2, theta(1), "psi")])
    th = EL.word(theta(1))
    assert st.terms == {
        (lab(1, "psi", 0), lab(2, "psi", 0)): EL.one(),
        (lab(1, "psi", 0), lab(2, "psi", 1)): th,
        (lab(1, "psi", 1), lab(2, "psi", 0)): -th,
    }


def test_distinct_theta_pair_expansion():
    # |theta1>|theta2> = |00> + th2 |01> - th1 |10> + th1 th2 |11>
    st = graded_tensor([coherent_state(1, theta(1), "psi"),
                        coherent_state(2, theta(2), "psi")])
    assert st.terms == {
        (lab(1, "psi", 0), lab(2, "psi", 0)): EL.one(),
        (lab(1, "psi", 0), lab(2, "psi", 1)): EL.word(theta(2)),
        (lab(1, "psi", 1), lab(2, "psi", 0)): -EL.word(theta(1)),
        (lab(1, "psi", 1), lab(2, "psi", 1)): EL.word(theta(1), theta(2)),
    }


def test_same_theta_triple_expansion():
    st = graded_tensor([coherent_state(i, theta(1), "psi") for i in (1, 2, 3)])
    th = EL.word(theta(1))
    assert st.terms == {
        (lab(1, "psi", 0), lab(2, "psi", 0), lab(3, "psi", 0)): EL.one(),
        (lab(1, "psi", 0), lab(2, "psi", 0), lab(3, "psi", 1)): -th,
        (lab(1, "psi", 0), lab(2, "psi", 1), lab(3, "psi", 0)): th,
        (lab(1, "psi", 1), lab(2, "psi", 0), lab(3, "psi", 0)): -th,
    }


def test_nilpotency_propagation():
    st = graded_tensor([coherent_state(1, theta(1), "psi"),
                        coherent_state(2, theta(1), "phi")])
    assert st.grassmann_degree() <= 1  # no theta^2 term survives


def test_tensor_association_orders_agree():
    a = coherent_state(1, theta(1), "psi")
    b = coherent_state(2, theta(2), "phi")
    c = coherent_state(3, theta(3), "psi")
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))


def test_tensor_rejects_site_collision():
    a = coherent_state(1, theta(1), "psi")
    with pytest.raises(ValueError):
        a.tensor(coherent_state(1, theta(2), "psi"))


def test_lowering_eigenvalue_identity_psi():
    # b |theta> = theta |theta>, exactly, in label space
    st = coherent_state(1, theta(1), "psi")
    lhs = st.apply_lowering(1, "psi")
    rhs = st.premultiply(EL.word(theta(1)))
    assert lhs == rhs
    assert not lhs.is_zero()


def test_lowering_eigenvalue_identity_phi():
    st = coherent_state(1, theta(1), "phi")
    assert st.apply_lowering(1, "phi") == st.premultiply(EL.word(theta(1)))


def test_lowering_family_mismatch():
    st = coherent_state(1, theta(1), "psi")
    with pytest.raises(ValueError):
        st.apply_lowering(1, "phi")


def test_lowering_multi_site_koszul_sign():
    # 1 (x) b acting on |psi0>|psi1> passes the odd site-1 ket: sign -1
    st = GradedState({(lab(1, "psi", 0), lab(2, "psi", 1)): EL.one()})
    lowered = st.apply_lowering(2, "psi")
    assert lowered.terms == {(lab(1, "psi", 0), lab(2, "psi", 0)): EL.scalar(-1)}


def test_pretty_printer():
    st = graded_tensor([coherent_state(1, theta(1), "psi"),
                        coherent_state(2, theta(2), "phi")])
    s = str(st)
    assert "|ψ0φ0⟩" in s and "θ1" in s


def test_numeric_ladder_matches_label_action():
    from pseudobell.biortho import ladder_ops
    for alpha in (0.0, 0.5, 1.2):
        basis = basis_from_alpha(alpha)
        ops = ladder_ops(basis)
        # matrix action reproduces the label action on each basis vector
        np.testing.assert_allclose(ops.b @ basis.psi1, basis.psi0, atol=1e-12)
        np.testing.assert_allclose(ops.b_tilde @ basis.phi1, basis.phi0, atol=1e-12)


def test_bi_overcompleteness_holds():
    for alpha in (0.0, 0.5, -0.8, 1.3):
        basis = basis_from_alpha(alpha)
        holds, residual = bi_overcompleteness(basis)
        assert holds, f"alpha={alpha}: residual {residual}"
        assert residual <= 1e-12


def test_same_family_integral_fails_for_non_hermitian():
    basis = basis_from_alpha(0.5)
    assert same_family_resolution_residual(basis, "psi") >= 0.01
    assert same_family_resolution_residual(basis, "phi") >= 0.01
    # and equals eta^{-1} / eta respectively
    got = resolution_integral(basis, "psi", "psi")
    np.testing.assert_allclose(got, basis.eta_inv, atol=1e-12)
    got = resolution_integral(basis, "phi", "phi")
    np.testing.assert_allclose(got, basis.eta, atol=1e-12)


def test_hermitian_limit_all_integrals_resolve():
    basis = basis_from_alpha(0.0)
    assert bi_overcompleteness(basis)[0]
    assert same_family_resolution_residual(basis, "psi") <= 1e-12
    assert same_family_resolution_residual(basis, "phi") <= 1e-12
