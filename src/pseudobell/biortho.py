"""Two-level pseudo-Hermitian system: eigenbases, metric, ladder operators.

The Hamiltonian family is

    H = [[ r e^{i beta},  s ],
         [ t,             r e^{-i beta} ]]

with real r, s, t, beta and s*t > 0.  Its eigenvalues
r cos(beta) +/- sqrt(st) cos(alpha) are real as long as
|r sin beta| <= sqrt(st), where the mixing angle alpha is defined by

    sin(alpha) = r sin(beta) / sqrt(st).

The right/left eigenvectors form a biorthonormal pair {|psi_k>, |phi_k>}
with <phi_i|psi_j> = delta_ij, and the metric eta = sum |phi_k><phi_k|
intertwines H^dag = eta H eta^{-1}.  For s != t the eigenvectors carry the
asymmetry ratio sqrt(t/s) in their second component; at s = t they reduce
to the familiar (e^{+i a/2}, e^{-i a/2})/sqrt(2 cos a) form.

Because all entanglement figures are parameterized by alpha alone, a basis
can also be built directly from alpha (``basis_from_alpha``), bypassing
(r, s, t, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAU = 2.0 * math.pi

#: below this |cos alpha| the 1/sqrt(2 cos alpha) normalization blows up
DEGENERACY_TOL = 1e-10

#: index of each family along the family axis of the site vectors
FAMILIES = ("psi", "phi")

# Component j of the flattened (family, level, component) site vectors is
#   _SIGN[j] * skew**_SKEW_POWER[j] * exp(i _PHASE_SIGN[j] alpha/2) / sqrt(2 cos alpha):
#   psi0 = (e+, k e-),  psi1 = (e-, -k e+),  phi0 = (e-, e+/k),  phi1 = (e+, -e-/k)
# with e+- = exp(+-i alpha/2) and k = skew.
_PHASE_SIGN = np.array([1, -1, -1, 1, -1, 1, 1, -1])
_SKEW_POWER = np.array([0, 1, 0, 1, 0, -1, 0, -1])
_SIGN = np.array([1, 1, 1, -1, 1, 1, 1, -1])


class DegenerateSpectrum(ValueError):
    """Raised at the spectral degeneracy boundary |r sin beta| = sqrt(st)."""


class NonRealRegime(ValueError):
    """Raised when |r sin beta| > sqrt(st) (complex-conjugate eigenvalues)."""


@dataclass(frozen=True)
class SystemParams:
    """Hamiltonian parameters (r, s, t, beta); beta in radians."""

    r: float
    s: float
    t: float
    beta: float

    def __post_init__(self) -> None:
        if self.s * self.t <= 0:
            raise ValueError("require s*t > 0, otherwise alpha is undefined")


@dataclass(frozen=True)
class BiorthoBasis:
    """Biorthonormal eigenpair {psi_k, phi_k} with metric eta, eta^{-1}.

    ``vectors`` holds the four site vectors as [family, level, component],
    family 0 = psi and 1 = phi, the layout ``biortho`` returns per point.
    """

    alpha: float
    vectors: np.ndarray
    eta: np.ndarray = field(repr=False)
    eta_inv: np.ndarray = field(repr=False)

    @property
    def psi0(self) -> np.ndarray:
        return self.vectors[0, 0]

    @property
    def psi1(self) -> np.ndarray:
        return self.vectors[0, 1]

    @property
    def phi0(self) -> np.ndarray:
        return self.vectors[1, 0]

    @property
    def phi1(self) -> np.ndarray:
        return self.vectors[1, 1]

    def vector(self, family: str, level: int) -> np.ndarray:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {level}")
        return self.vectors[FAMILIES.index(family), level]


def hamiltonian(p: SystemParams) -> np.ndarray:
    """The literal 2x2 matrix of the two-level family."""
    return np.array(
        [[p.r * np.exp(1j * p.beta), p.s],
         [p.t, p.r * np.exp(-1j * p.beta)]],
        dtype=complex,
    )


def _mixing_angle(p: SystemParams) -> float:
    root = math.sqrt(p.s * p.t)
    ratio = p.r * math.sin(p.beta) / root
    if abs(ratio) > 1.0:
        raise NonRealRegime(
            f"|r sin beta| = {abs(p.r * math.sin(p.beta)):.6g} exceeds "
            f"sqrt(st) = {root:.6g}; spectrum is not real")
    return math.asin(ratio)


def biortho(alpha, skew=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Site vectors of the biorthonormal basis at an array of mixing angles.

    Parameters
    ----------
    alpha:
        Mixing angles in radians, shape (G,).  Reduced modulo 2*pi
        internally, so sweeps over [0, 2*pi] and beyond stay consistent.
    skew:
        Asymmetry ratio sqrt(t/s), a scalar or shape (G,); 1 for the
        symmetric (s = t) family.

    Returns
    -------
    vectors, degenerate:
        ``vectors`` has shape (G, 2, 2, 2), indexed [point, family, level,
        component] with family 0 = psi and 1 = phi.  ``degenerate`` (G,)
        flags |cos alpha| < DEGENERACY_TOL, where the normalization diverges,
        and NaN angles; those points hold NaN vectors.
    """
    alpha = np.asarray(alpha, dtype=float)
    rem = np.fmod(alpha, TAU)
    folded = rem - TAU * np.rint(rem / TAU)
    cos_a = np.cos(folded)
    degenerate = ~(np.abs(cos_a) >= DEGENERACY_TOL)   # NaN angles included
    # evaluate degenerate points at alpha = 0, then blank them
    norm = 1.0 / np.sqrt(np.where(degenerate, 2.0, 2.0 * cos_a).astype(complex))
    phase = np.exp(0.5j * np.where(degenerate, 0.0, folded)[:, None] * _PHASE_SIGN)
    scale = _SIGN * np.asarray(skew, dtype=float)[..., None] ** _SKEW_POWER
    vectors = (norm[:, None] * scale * phase).reshape(-1, 2, 2, 2)
    vectors[degenerate] = np.nan
    return vectors, degenerate


def basis_from_alpha(alpha: float, skew: float = 1.0) -> BiorthoBasis:
    """The biorthonormal basis at one mixing angle: ``biortho`` at G = 1.

    Raises
    ------
    DegenerateSpectrum
        When |cos alpha| < 1e-10 and the normalization diverges.
    """
    vectors, degenerate = biortho(np.array([alpha]), skew)
    if degenerate[0]:
        raise DegenerateSpectrum(
            f"|cos(alpha)| < {DEGENERACY_TOL:g} at alpha = {alpha:.6g}; "
            "the biorthonormal basis is undefined at the degeneracy boundary")
    v = vectors[0]
    # eta = sum_k |phi_k><phi_k|, eta^{-1} = sum_k |psi_k><psi_k|
    eta = v[1].T @ v[1].conj()
    eta_inv = v[0].T @ v[0].conj()
    return BiorthoBasis(alpha=alpha, vectors=v, eta=eta, eta_inv=eta_inv)


def site_params(p: SystemParams) -> tuple[float, float]:
    """Mixing angle and skew sqrt(t/s) of H(p).

    alpha is the principal arcsin of r sin(beta)/sqrt(st); raises
    NonRealRegime beyond the |r sin beta| = sqrt(st) boundary.
    """
    skew = math.sqrt(p.t / p.s) if p.s > 0 else -math.sqrt(p.t / p.s)
    return _mixing_angle(p), skew


def eigenbasis(p: SystemParams) -> BiorthoBasis:
    """Biorthonormal eigenbasis of H(p) and H(p)^dag.

    Raises DegenerateSpectrum at the |r sin beta| = sqrt(st) boundary and
    NonRealRegime beyond it.
    """
    alpha, skew = site_params(p)
    return basis_from_alpha(alpha, skew=skew)


def check_pseudo_hermiticity(p: SystemParams) -> float:
    """Max-abs residual of H^dag - eta H eta^{-1} for the eigenbasis metric."""
    basis = eigenbasis(p)
    h = hamiltonian(p)
    residual = h.conj().T - basis.eta @ h @ basis.eta_inv
    return float(np.max(np.abs(residual)))


@dataclass(frozen=True)
class LadderOps:
    """Pseudo-fermionic ladder operators, truncated to the two-level sector.

    b annihilates psi0 and lowers psi1 -> psi0; b_tilde does the same in
    the phi family.  b_sharp is the eta-pseudo-adjoint eta^{-1} b^dag eta
    and b_tilde_sharp = b^dag.
    """

    b: np.ndarray
    b_sharp: np.ndarray
    b_tilde: np.ndarray
    b_tilde_sharp: np.ndarray


def ladder_ops(basis: BiorthoBasis) -> LadderOps:
    b = np.outer(basis.psi0, basis.phi1.conj())
    b_sharp = np.outer(basis.psi1, basis.phi0.conj())
    b_tilde = np.outer(basis.phi0, basis.psi1.conj())
    b_tilde_sharp = np.outer(basis.phi1, basis.psi0.conj())
    return LadderOps(b=b, b_sharp=b_sharp, b_tilde=b_tilde, b_tilde_sharp=b_tilde_sharp)


# -- key-value config files -------------------------------------------------
#
# One "key = value" pair per line, '#' starts a comment.  Site i is set
# either by alpha<i> alone or by the full quadruple r<i>, s<i>, t<i>, beta<i>.


def parse_config(text: str) -> dict[str, float]:
    """Parse a key-value config into a {key: float} mapping."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            out[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad number {value.strip()!r}") from exc
    return out


def config_sites(cfg: dict[str, float], n_sites: int) -> list[tuple[float, float]]:
    """(alpha, skew) per site from a parsed config mapping."""
    sites = []
    for i in range(1, n_sites + 1):
        if f"alpha{i}" in cfg:
            sites.append((cfg[f"alpha{i}"], 1.0))
            continue
        quad = [f"r{i}", f"s{i}", f"t{i}", f"beta{i}"]
        if all(k in cfg for k in quad):
            sites.append(site_params(SystemParams(*(cfg[k] for k in quad))))
            continue
        raise ValueError(
            f"site {i}: config needs either alpha{i} or all of r{i}, s{i}, t{i}, beta{i}")
    return sites
