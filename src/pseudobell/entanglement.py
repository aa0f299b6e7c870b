"""Entanglement measures for the embedded constructions.

``embed`` substitutes each site's numeric biorthonormal vectors into a
:class:`~pseudobell.constructor.StateVector` and returns the 2^N amplitude
vector over the computational basis |b_1 ... b_N>.  Given the site vectors
of G grid points (from :func:`~pseudobell.biortho.biortho`) it returns a
(G, 2^N) array, one row per point; the single-point call is the G = 1 row
of the same code.  Normalization is always the ordinary Euclidean norm of
the embedded vector, never the eta-weighted norm.

Measures (``normalize``, ``concurrence`` and ``average_entropy`` work on
the last axis and broadcast over any leading grid axis):

* concurrence  C(|psi>) = |<psi| sigma_y (x) sigma_y |psi*>| for two qubits,
  with |psi*> the componentwise conjugate in the computational basis;
* linear entropy  S_L = d/(d-1) (1 - Tr rho_A^2);
* bipartition-averaged linear entropy <S_L> over all size-n subsets.

Closed forms (used as oracles against the numeric pipeline):

* the Bell-family concurrences |cos a1 cos a2 / (1 +/- sin a1 sin a2)|,
  with the denominator sign fixed by the member and its state sign;
* the "case b" atom-field parameterization sin(alpha) = -delta/(2s) with
  C = |4 s^2 - delta^2| / (4 s^2 + delta^2);
* the three-angle average entropies of the GHZ-type and the two documented
  W-type states (W7 with signs (+,+,+) and W6 with signs (-,+,-)), plus
  their equal-angle reductions.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .biortho import FAMILIES, BiorthoBasis
from .constructor import StateVector

DENOM_TOL = 1e-12


class NotTwoQubit(ValueError):
    pass


class BadSubset(ValueError):
    pass


class BadSubsetSize(ValueError):
    pass


class SingularDenominator(ZeroDivisionError):
    pass


def _scalar(x):
    """A 0-d result as a Python float; grid results stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


def _squared_norm(vec: np.ndarray) -> np.ndarray:
    """Sum of |v|^2 over the last axis."""
    return (vec.real ** 2 + vec.imag ** 2).sum(axis=-1)


def embed(state: StateVector, bases: Sequence) -> np.ndarray:
    """Numeric amplitudes of the state in the computational basis (unnormalized).

    ``bases`` gives one entry per site, in site order.  An entry is a
    :class:`BiorthoBasis` or an array of site vectors of shape (G, 2, 2, 2)
    from :func:`~pseudobell.biortho.biortho`.  With any array entry the
    result has shape (G, 2^N), one row per grid point (G may be 0); with
    bases only it has shape (2^N,), the G = 1 row.
    """
    sites = sorted({lab.site for labels in state.terms for lab in labels})
    if len(bases) != len(sites):
        raise ValueError(f"need one basis per site: {len(sites)} sites, {len(bases)} bases")
    batched = not all(isinstance(b, BiorthoBasis) for b in bases)
    vectors = {site: b.vectors[None] if isinstance(b, BiorthoBasis) else np.asarray(b)
               for site, b in zip(sites, bases)}
    size = max((v.shape[0] for v in vectors.values()), default=1)
    out = np.zeros((size, 2 ** state.n_sites), dtype=complex)
    for labels, c in state.terms.items():
        # the term's per-site outer product, one row per grid point
        amp = np.array([[c]])
        for lab in labels:
            site = vectors[lab.site][:, FAMILIES.index(lab.family), lab.level]
            outer = amp[:, :, None] * site[:, None, :]
            amp = outer.reshape(len(outer), outer.shape[1] * outer.shape[2])
        out += amp
    return out if batched else out[0]


def normalize(vec: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm along the last axis."""
    vec = np.asarray(vec)
    norm = np.sqrt(_squared_norm(vec))
    if np.any(norm == 0):
        raise ValueError("cannot normalize the zero vector")
    return vec * (1.0 / norm)[..., None]   # NaN (degenerate) rows pass without a warning


def concurrence(vec: np.ndarray):
    """Two-qubit pure-state concurrence |<psi| sy x sy |psi*>| = 2 |v0 v3 - v1 v2|.

    Works on the last axis, so a (G, 4) array of grid points gives (G,).
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim == 0 or vec.shape[-1] != 4:
        raise NotTwoQubit(f"need a 4-component two-qubit vector, got shape {vec.shape}")
    return _scalar(2.0 * np.abs(vec[..., 0] * vec[..., 3] - vec[..., 1] * vec[..., 2]))


def partial_trace(rho: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Trace out all qubits except `keep` (1-based site numbers)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2 ** n != dim:
        raise ValueError("density matrix must be 2^n x 2^n")
    keep = sorted(set(keep))
    if not keep or any(k < 1 or k > n for k in keep) or len(keep) == n:
        raise BadSubset(f"keep must be a nonempty proper subset of 1..{n}, got {keep}")
    reshaped = rho.reshape([2] * (2 * n))
    out_axes = [i for i in range(n) if (i + 1) in keep]
    # einsum: traced sites share their row/col index, kept sites keep both
    subscripts_in = list(range(n)) + [i + n if (i + 1) in keep else i for i in range(n)]
    subscripts_out = out_axes + [i + n for i in out_axes]
    return np.einsum(reshaped, subscripts_in, subscripts_out).reshape(
        2 ** len(keep), 2 ** len(keep))


def linear_entropy(rho_a: np.ndarray, d: int | None = None) -> float:
    """S_L = d/(d-1) (1 - Tr rho^2); d defaults to the matrix dimension."""
    rho_a = np.asarray(rho_a, dtype=complex)
    if d is None:
        d = rho_a.shape[0]
    purity = float(np.real(np.trace(rho_a @ rho_a)))
    return d / (d - 1) * (1.0 - purity)


@functools.lru_cache(maxsize=None)
def _minor_indices(sites: int, n: int) -> np.ndarray:
    """Flat amplitude indices of the 2x2 minors of every size-n cut.

    Shape (4, cuts, minors): entry [:, c, m] holds (p, q, r, t) such that
    minor m of cut c is v[p] v[q] - v[r] v[t].  A cut's amplitude matrix has
    its subset's sites as row bits and the rest as column bits (site 1 is
    the most significant bit of the flat index).
    """
    def offsets(group):
        return [sum(bit << (sites - 1 - s) for bit, s in zip(bits, group))
                for bits in itertools.product((0, 1), repeat=len(group))]

    cuts = []
    for subset in itertools.combinations(range(sites), n):
        rows = offsets(subset)
        cols = offsets([s for s in range(sites) if s not in subset])
        cuts.append([(ri + ck, rj + cl, ri + cl, rj + ck)
                     for ri, rj in itertools.combinations(rows, 2)
                     for ck, cl in itertools.combinations(cols, 2)])
    indices = np.array(cuts).transpose(2, 0, 1)
    indices.flags.writeable = False   # shared by every caller through the cache
    return indices


def average_entropy(vec: np.ndarray, n: int = 1):
    """Binomial-averaged linear entropy over all size-n subsystems.

    Works on the last axis, so a (G, 2^N) array of grid points gives (G,).
    For a cut with amplitude matrix M (subset x rest), Cauchy-Binet gives
    1 - Tr rho^2 = 2 sum |2x2 minors of M|^2 / ||M||^4, a sum of squares:
    the entropy is never negative and keeps its relative accuracy near
    product states.  The vector need not be normalized.  The minors number
    C(2^n, 2) C(2^(N-n), 2) per cut, so the cost grows fast with N.
    """
    vec = np.asarray(vec, dtype=complex)
    dim = vec.shape[-1] if vec.ndim else 0
    sites = dim.bit_length() - 1
    if dim == 0 or 2 ** sites != dim:
        raise ValueError("amplitude vector must have length 2^N")
    if not 1 <= n < sites:
        raise BadSubsetSize(f"need 1 <= n < {sites}, got {n}")
    norm2 = _squared_norm(vec)
    if np.any(norm2 == 0):
        raise ValueError("the zero vector has no entropy")
    p, q, r, t = (vec[..., idx] for idx in _minor_indices(sites, n))   # (..., cuts, minors)
    purity_gap = 2.0 * _squared_norm(p * q - r * t)                      # (..., cuts)
    d = min(2 ** n, 2 ** (sites - n))
    entropies = d / (d - 1) * (purity_gap / (norm2 * norm2)[..., None])
    return _scalar(entropies.sum(axis=-1) / entropies.shape[-1])


# -- closed forms ---------------------------------------------------------------


def _parse_bell_name(name: str) -> tuple[bool, int, int]:
    key = name.strip().replace("’", "'").replace("′", "'")
    primed = key.startswith("B'")
    body = key[2:] if primed else key[1:]
    if not key.startswith("B") or len(body) != 2 or body[0] not in "1234" or body[1] not in "+-":
        raise ValueError(f"not a Bell-family name: {name!r}")
    return primed, int(body[0]), 1 if body[1] == "+" else -1


def concurrence_closed_form(name: str, alpha1: float, alpha2: float) -> float:
    """Bell-family concurrence |cos a1 cos a2 / (1 + eps sin a1 sin a2)|.

    The denominator sign is eps = (state sign) * (+1 same-family / -1 mixed
    psi/phi), negated for the primed family: eps = -1 for B1-/B4-, +1 for
    B2-/B3-, and so on.  Every member is cross-checked against the numeric
    pipeline in the test suite.
    """
    primed, j, sign = _parse_bell_name(name)
    same_family = j in (1, 4)
    eps = sign * (1 if same_family else -1)
    if primed:
        eps = -eps
    den = 1.0 + eps * math.sin(alpha1) * math.sin(alpha2)
    if abs(den) < DENOM_TOL:
        raise SingularDenominator(f"denominator vanished for {name} at "
                                  f"({alpha1:.6g}, {alpha2:.6g})")
    return abs(math.cos(alpha1) * math.cos(alpha2) / den)


def case_b_alpha(s, delta):
    """Mixing angle of the atom-field family: sin(alpha) = -delta/(2s).

    Elementwise over arrays of grid points.  NaN where |delta| > 2|s|,
    beyond the real regime; ``biortho`` flags a NaN angle as degenerate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -np.asarray(delta, dtype=float) / (2.0 * np.asarray(s, dtype=float))
    return _scalar(np.arcsin(np.where(np.abs(ratio) <= 1, ratio, np.nan)))


def case_b_concurrence(s: float, delta: float) -> float:
    """C(B2-) = C(B3-) = |4 s^2 - delta^2| / (4 s^2 + delta^2)."""
    return abs(4 * s * s - delta * delta) / (4 * s * s + delta * delta)


def average_entropy_closed_form(name: str, alpha1: float, alpha2: float,
                                alpha3: float) -> float:
    """Three-angle average-entropy formulas for G, W7(+,+,+) and W6(-,+,-)."""
    a1, a2, a3 = alpha1, alpha2, alpha3
    key = name.strip().upper()
    if key in ("G", "GHZ"):
        return (1.0 / 6.0) * (
            5.0 + math.cos(2 * a2)
            - 2.0 * math.sin(a1) ** 2 * (1.0 + math.cos(a3) ** 2 * math.sin(a2) ** 2)
            + (math.cos(2 * a1) * math.cos(2 * a2) - 3.0) * math.sin(a3) ** 2)
    if key in ("W7", "W6"):
        num = (2.0 * (math.cos(2 * a1) + math.cos(2 * a2) + 2.0) * math.cos(2 * a3)
               + math.cos(2 * (a1 - a2)) + math.cos(2 * (a1 + a2))
               + 4.0 * math.cos(2 * a1) + 4.0 * math.cos(2 * a2) + 6.0)
        cross = 2.0 * math.sin(a2) * math.sin(a3)
        mixed = 2.0 * math.sin(a1) * (math.sin(a2) + math.sin(a3))
        bracket = (cross - mixed + 3.0) if key == "W7" else (cross + mixed + 3.0)
        return num / (3.0 * bracket * bracket)
    raise ValueError(f"no closed form for {name!r}; expected G, W7 or W6")


def average_entropy_equal_alpha(name: str, alpha: float) -> float:
    """Equal-angle reductions of the average-entropy closed forms."""
    key = name.strip().upper()
    c, c2 = math.cos(alpha), math.cos(2 * alpha)
    if key in ("G", "GHZ"):
        return 0.5 * c ** 4 * (3.0 - c2)
    if key == "W7":
        return 8.0 * c ** 4 / (c2 + 2.0) ** 2
    if key == "W6":
        return 8.0 * c ** 4 / (9.0 * (c2 - 2.0) ** 2)
    raise ValueError(f"no closed form for {name!r}; expected G, W7 or W6")


# -- factorization helpers -------------------------------------------------------


def schmidt_ratio(vec: np.ndarray, cut: Sequence[int]) -> float:
    """Ratio of second to leading singular value across the cut|rest split."""
    vec = np.asarray(vec, dtype=complex)
    n = vec.shape[0].bit_length() - 1
    cut = sorted(set(cut))
    rest = [i for i in range(1, n + 1) if i not in cut]
    if not cut or not rest:
        raise BadSubset("cut must be a nonempty proper subset")
    tensor = vec.reshape([2] * n)
    perm = [c - 1 for c in cut] + [r - 1 for r in rest]
    matrix = np.transpose(tensor, perm).reshape(2 ** len(cut), 2 ** len(rest))
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(s[1] / s[0]) if len(s) > 1 else 0.0


def dominant_pair_state(vec: np.ndarray, factor_site: int) -> np.ndarray:
    """Leading right factor of a 3-qubit vector split as {factor_site}|rest."""
    vec = np.asarray(vec, dtype=complex)
    n = vec.shape[0].bit_length() - 1
    rest = [i for i in range(1, n + 1) if i != factor_site]
    tensor = vec.reshape([2] * n)
    perm = [factor_site - 1] + [r - 1 for r in rest]
    matrix = np.transpose(tensor, perm).reshape(2, 2 ** len(rest))
    _, _, vh = np.linalg.svd(matrix)
    return vh[0]
