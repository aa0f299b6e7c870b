"""Entanglement measures for the embedded constructions.

``embed`` substitutes each site's numeric biorthonormal vectors into a
:class:`~pseudobell.constructor.StateVector` and returns the 2^N amplitude
vector over the computational basis |b_1 ... b_N>.  Each site may carry
leading grid axes (a grid ``BiorthoBasis`` or the site vectors from
:func:`~pseudobell.biortho.biortho`); they broadcast, and the result is a
(..., 2^N) array, one row per point.  The single-point call is the G = 1
case of the same code.  Normalization is always the ordinary Euclidean
norm of the embedded vector, never the eta-weighted norm.

Measures (``normalize``, ``concurrence`` and ``average_entropy`` work on
the last axis and broadcast over any leading grid axis):

* concurrence  C(|psi>) = |<psi| sigma_y (x) sigma_y |psi*>| for two qubits,
  with |psi*> the componentwise conjugate in the computational basis;
* linear entropy  S_L = d/(d-1) (1 - Tr rho_A^2);
* bipartition-averaged linear entropy <S_L> over all size-n subsets.

Closed forms (checked against the numeric pipeline; ``closed_form`` alone
decides which catalog entry has which, and every form works elementwise):

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
from collections.abc import Callable, Sequence

import numpy as np

from .biortho import FAMILIES, BiorthoBasis
from .constructor import CatalogEntry, StateVector, UnknownName, catalog

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

    ``bases`` gives one entry per site, in site order: a
    :class:`BiorthoBasis` or its ``vectors``, shape (..., 2, 2, 2), as from
    :func:`~pseudobell.biortho.biortho`.  The sites' leading grid axes
    broadcast, and the result has shape (..., 2^N), one row per grid point
    (a grid may have 0 points); G = 1 bases give (2^N,).
    """
    sites = sorted({lab.site for labels in state.terms for lab in labels})
    if len(bases) != len(sites):
        raise ValueError(f"need one basis per site: {len(sites)} sites, {len(bases)} bases")
    vectors = {site: b.vectors if isinstance(b, BiorthoBasis) else np.asarray(b)
               for site, b in zip(sites, bases)}
    out = 0   # 0 + the first term takes its shape without a broadcast add
    for labels, c in state.terms.items():
        # the term's per-site outer product, over the grid axes
        amp = np.array([c])
        for lab in labels:
            site = vectors[lab.site][..., FAMILIES.index(lab.family), lab.level, :]
            outer = amp[..., :, None] * site[..., None, :]
            amp = outer.reshape(*outer.shape[:-2], outer.shape[-2] * outer.shape[-1])
        out = out + amp
    return out if state.terms else np.zeros(2 ** state.n_sites, dtype=complex)


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
#
# Each formula is written once, elementwise in numpy operations, so a point
# gives the same bits alone as inside a grid.


def _ghz(a1, a2, a3):
    return (1.0 / 6.0) * (
        5.0 + np.cos(2 * a2)
        - 2.0 * np.square(np.sin(a1)) * (1.0 + np.square(np.cos(a3)) * np.square(np.sin(a2)))
        + (np.cos(2 * a1) * np.cos(2 * a2) - 3.0) * np.square(np.sin(a3)))


def _w(mixed_sign, a1, a2, a3):
    num = (2.0 * (np.cos(2 * a1) + np.cos(2 * a2) + 2.0) * np.cos(2 * a3)
           + np.cos(2 * (a1 - a2)) + np.cos(2 * (a1 + a2))
           + 4.0 * np.cos(2 * a1) + 4.0 * np.cos(2 * a2) + 6.0)
    bracket = (2.0 * np.sin(a2) * np.sin(a3)
               + mixed_sign * (2.0 * np.sin(a1) * (np.sin(a2) + np.sin(a3))) + 3.0)
    return num / (3.0 * bracket * bracket)


#: per family, the three-angle average-entropy form and its equal-angle
#: reduction in c4 = cos^4 alpha and c2 = cos 2 alpha
_ENTROPY_FORMS = {
    "G": (_ghz, lambda c4, c2: 0.5 * c4 * (3.0 - c2)),
    "W7": (functools.partial(_w, -1.0), lambda c4, c2: 8.0 * c4 / np.square(c2 + 2.0)),
    "W6": (functools.partial(_w, 1.0), lambda c4, c2: 8.0 * c4 / (9.0 * np.square(c2 - 2.0))),
}
#: the W states with a form, by (site families, term signs): W7 and W7---,
#: W6-+- and W6+-+
_W_FAMILIES = {(("psi", "phi", "phi"), (1, 1, 1)): "W7", (("phi", "psi", "phi"), (1, -1, 1)): "W6"}


def _evaluate(what: str, formula, *inputs):
    """formula(*inputs) elementwise, NaN wherever it has no finite value;
    but a single finite point (float inputs) without one raises
    SingularDenominator."""
    with np.errstate(all="ignore"):
        values = formula(*inputs)
    values = np.where(np.isfinite(values), values, np.nan)
    if values.ndim == 0 and math.isnan(values) and all(map(math.isfinite, inputs)):
        raise SingularDenominator(f"no finite closed form for {what} at "
                                  f"({', '.join(f'{x:.6g}' for x in inputs)})")
    return _scalar(values)


def _term_signs(entry: CatalogEntry) -> tuple[int, ...]:
    """The signs of the entry's state terms in label order, up to a global sign."""
    signs = [int(c.real) for _, c in entry.expected.sorted_terms()]
    return tuple(s * signs[0] for s in signs)


def _bell_eps(entry: CatalogEntry) -> int | None:
    """The denominator sign of a Bell-family concurrence, or None off the family:
    eps = (relative sign of the two terms) * (+1 same family / -1 mixed
    psi/phi), negated for the primed family; -1 for B1-/B4-, +1 for B2-/B3-."""
    if entry.group not in ("bell", "bell-prime", "bell-same"):
        return None
    mixed = len({sf.family for sf in entry.spec.sites}) == 2
    primed = entry.group == "bell-prime"
    return _term_signs(entry)[1] * (-1 if mixed else 1) * (-1 if primed else 1)


def entropy_form_name(entry: CatalogEntry) -> str | None:
    """"G", "W7" or "W6": the average-entropy closed form that holds for the
    entry (every GHZ entry, W7, W7---, W6-+- and W6+-+), or None."""
    if entry.group != "w":
        return "G" if entry.group == "ghz" else None
    return _W_FAMILIES.get((tuple(sf.family for sf in entry.spec.sites), _term_signs(entry)))


def closed_form(entry: CatalogEntry, measure: str) -> Callable | None:
    """The paper's closed form of the entry's measure, or None.

    The form is ``f(angles, s_delta=None)``: one angle array per site and,
    in case b, the (s, delta) arrays.  It returns the values elementwise,
    NaN where a point has none: a vanishing denominator, a NaN angle, any
    non-finite value (given floats, such a point raises SingularDenominator,
    as the public functions below do).  In case b, B2- and B3- (and their
    same-generator variants) take the (s, delta) form.
    """
    key = entropy_form_name(entry) if measure == "avg_entropy" else None
    if key is not None:
        return lambda angles, s_delta=None: average_entropy_closed_form(key, *angles)
    eps = _bell_eps(entry) if measure == "concurrence" else None
    if eps is None:
        return None
    mixed = len({sf.family for sf in entry.spec.sites}) == 2
    case_b = mixed and eps > 0 and entry.group != "bell-prime"   # B2-, B3- and -same

    def form(angles, s_delta=None):
        if case_b and s_delta is not None:
            # the angle is NaN where |delta| > 2|s|: no real spectrum
            return np.where(np.isnan(angles[0]), np.nan, case_b_concurrence(*s_delta))
        return concurrence_closed_form(entry.name, *angles)

    return form


def _entropy_forms(name: str):
    key = name.strip().upper()
    if key not in ("G", "GHZ", "W7", "W6"):
        raise ValueError(f"no closed form for {name!r}; expected G, W7 or W6")
    return _ENTROPY_FORMS["G" if key == "GHZ" else key]


def concurrence_closed_form(name: str, alpha1, alpha2):
    """Bell-family concurrence |cos a1 cos a2 / (1 + eps sin a1 sin a2)|,
    elementwise, with eps as in ``_bell_eps``; no value where
    |den| < DENOM_TOL."""
    try:
        eps = _bell_eps(catalog(name))
    except UnknownName:
        eps = None
    if eps is None:
        raise ValueError(f"not a Bell-family name: {name!r}")

    def bell(a1, a2):
        den = 1.0 + eps * np.sin(a1) * np.sin(a2)
        return np.abs(np.cos(a1) * np.cos(a2) / np.where(np.abs(den) < DENOM_TOL, 0.0, den))

    return _evaluate(name, bell, alpha1, alpha2)


def case_b_alpha(s, delta):
    """Mixing angle of the atom-field family: sin(alpha) = -delta/(2s).

    Elementwise over arrays of grid points.  NaN where |delta| > 2|s|,
    beyond the real regime; ``biortho`` flags a NaN angle as degenerate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -np.asarray(delta, dtype=float) / (2.0 * np.asarray(s, dtype=float))
    return _scalar(np.arcsin(np.where(np.abs(ratio) <= 1, ratio, np.nan)))


def case_b_concurrence(s, delta):
    """C(B2-) = C(B3-) = |4 s^2 - delta^2| / (4 s^2 + delta^2), elementwise."""
    return _evaluate("case b", lambda s, d: np.abs(4 * s * s - d * d) / (4 * s * s + d * d),
                     s, delta)


def average_entropy_closed_form(name: str, alpha1, alpha2, alpha3):
    """Three-angle average-entropy formulas for G, W7(+,+,+) and W6(-,+,-),
    elementwise."""
    return _evaluate(name, _entropy_forms(name)[0], alpha1, alpha2, alpha3)


def average_entropy_equal_alpha(name: str, alpha):
    """Equal-angle reductions of the average-entropy closed forms, elementwise."""
    alpha = np.asarray(alpha, dtype=float)
    return _scalar(_entropy_forms(name)[1](np.power(np.cos(alpha), 4), np.cos(2 * alpha)))


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
