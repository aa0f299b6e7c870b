"""Pseudo-Hermitian multi-qubit entangled states from Grassmann integrals.

The package builds Bell/GHZ/W-type states of two- and three-site
pseudo-Hermitian qubit systems by Berezin integration over weighted
products of fermionic coherent states, and quantifies their entanglement
via concurrence and bipartition-averaged linear entropy.
"""

from .biortho import (
    BiorthoBasis,
    DegenerateSpectrum,
    LadderOps,
    NonRealRegime,
    SystemParams,
    basis_from_alpha,
    basis_grid,
    biortho,
    check_pseudo_hermiticity,
    eigenbasis,
    hamiltonian,
    ladder_ops,
    parse_config,
    pseudo_hermiticity_residual,
)
from .constructor import (
    CATALOG,
    BiseparableConstruction,
    CatalogEntry,
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
from .entanglement import (
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
    embed,
    linear_entropy,
    normalize,
    partial_trace,
    schmidt_ratio,
)
from .graded_states import (
    BasisLabel,
    GradedState,
    bi_overcompleteness,
    coherent_state,
    graded_tensor,
    same_family_resolution_residual,
)
from .grassmann import (
    Generator,
    GrassmannElement,
    normalize_word,
    theta,
    theta_bar,
)

__version__ = "0.1.0"
