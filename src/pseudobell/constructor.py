"""Entangled-state constructions by weighted Berezin integration.

``build_state`` evaluates

    int d(g_1) ... d(g_m)  w * |coherent_1> |coherent_2> ... |coherent_N>

with the weight multiplying the product from the left and the rightmost
measure applied first, and returns the purely scalar remainder as a
:class:`StateVector`.  ``solve_weight`` inverts the map exactly from one
expansion of the coherent product, in which each ket tuple carries a single
+/-1 monomial and so fixes one weight coefficient.  When several tuples fix
the same coefficient, the first in sorted-label order sets it and each later
one that disagrees is named in ``Unreachable``, as are target tuples outside
the image.

The catalog enumerates 48 constructions:

    B1+/-  .. B4+/-     two sites, distinct generators, w = -(th1 +/- th2)
    B'1+/- .. B'4+/-    two sites, distinct generators, w = -(th1 th2 +/- 1)
    G1+/-  .. G8+/-     three sites, w = th3 th2 th1 +/- 1
    W1     .. W8        three sites, w = th1 th2 + th1 th3 + th2 th3
    W'1    .. W'8       three sites sharing one generator, w = 1

Site families run over all psi/phi assignments in the fixed order
(psi..), (phi,psi..), ..., (phi..).  On top of the 48, the resolver accepts
the same-generator two-site variants "B1-same" .. "B4-same" (w = 1) and
arbitrary W sign tuples spelled like "W3+-+".

The reference tabulation for the G7 rows repeats a level-0 ket where the
family pattern implies level-1 kets; the catalog stores the
pattern-consistent state |psi0 phi0 phi0> +/- |psi1 phi1 phi1>, which is
also what the integral actually produces.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Mapping

from .graded_states import (
    BasisLabel,
    GradedState,
    _ket,
    _label_sort_key,
    _render_terms,
    coherent_state,
    graded_tensor,
)
from .grassmann import Generator, GrassmannElement, format_complex, theta

_FAMILY_ORDER = [
    ("psi", "psi", "psi"),
    ("phi", "psi", "psi"),
    ("psi", "phi", "psi"),
    ("psi", "psi", "phi"),
    ("phi", "phi", "psi"),
    ("phi", "psi", "phi"),
    ("psi", "phi", "phi"),
    ("phi", "phi", "phi"),
]

_BELL_FAMILY_ORDER = [("psi", "psi"), ("psi", "phi"), ("phi", "psi"), ("phi", "phi")]


class UnknownName(KeyError):
    """Raised for catalog names outside the documented grammar."""


class ResidualGrassmann(ValueError):
    """Raised when integration leaves Grassmann content behind."""


class ZeroState(ValueError):
    """Raised when the weighted integral vanishes identically."""


class Unreachable(ValueError):
    """Raised when a target state is not in the image of the integration map."""

    def __init__(self, message: str, uncoverable: tuple = ()):  # noqa: D107
        super().__init__(message)
        self.uncoverable = uncoverable


@dataclass(frozen=True)
class SiteFactor:
    """One coherent factor of the product: which family, which generator."""

    family: str
    generator: Generator


@dataclass(frozen=True)
class ProductSpec:
    """Ordered coherent-state product plus the measure order."""

    sites: tuple[SiteFactor, ...]
    measures: tuple[Generator, ...]

    def __post_init__(self) -> None:
        used = {sf.generator for sf in self.sites}
        if any(g.conjugate for g in used):
            raise ValueError("coherent products use plain generators only")
        if len(set(self.measures)) != len(self.measures):
            raise ValueError("duplicate measure")
        if set(self.measures) != used:
            raise ValueError("measure list must contain each distinct generator exactly once")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def __str__(self) -> str:
        kets = []
        for sf in self.sites:
            glyph = "θ̃" if sf.family == "phi" else "θ"
            kets.append(f"|{glyph}{sf.generator.index}⟩")
        measure = " ".join(f"d{g}" for g in self.measures)
        return f"∫{measure} · {''.join(kets)}"


class StateVector:
    """Scalar-coefficient state over labelled multi-site biorthonormal kets."""

    __slots__ = ("terms", "n_sites")

    def __init__(self, terms: Mapping[tuple[BasisLabel, ...], complex]):
        pruned: dict[tuple[BasisLabel, ...], complex] = {}
        n_sites = None
        for labels, c in terms.items():
            if n_sites is None:
                n_sites = len(labels)
            elif len(labels) != n_sites:
                raise ValueError("inconsistent site count across terms")
            c = complex(c)
            if c != 0:
                pruned[labels] = c
        self.terms = pruned
        self.n_sites = n_sites if n_sites is not None else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "StateVector") -> "StateVector":
        out = dict(self.terms)
        for labels, c in other.terms.items():
            out[labels] = out.get(labels, 0j) + c
        return StateVector(out)

    def __rmul__(self, scalar: complex) -> "StateVector":
        return StateVector({labels: scalar * c for labels, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _label_sort_key(item[0]))

    def __str__(self) -> str:
        return _render_terms((labels, format_complex(c)) for labels, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"StateVector({self})"

    def to_json_terms(self) -> list[dict]:
        return [
            {"labels": [f"{lab.family}{lab.level}" for lab in labels],
             "re": c.real, "im": c.imag}
            for labels, c in self.sorted_terms()
        ]


# -- the forward map ----------------------------------------------------------


def _coherent_product(spec: ProductSpec) -> GradedState:
    return graded_tensor([coherent_state(i + 1, sf.generator, sf.family)
                          for i, sf in enumerate(spec.sites)])


def build_state(w: GrassmannElement, spec: ProductSpec) -> StateVector:
    """Integrate the weighted coherent product down to a scalar state.

    Raises ResidualGrassmann if any Grassmann content survives the measure
    list and ZeroState if the result vanishes identically.
    """
    extra = {g for g in w.generators() if not g.conjugate} - set(spec.measures)
    if extra:
        raise ValueError(f"weight uses generators outside the measure list: "
                         f"{', '.join(str(g) for g in sorted(extra))}")
    integrated = _coherent_product(spec).premultiply(w).integrate(spec.measures)
    if integrated.grassmann_degree() > 0:
        raise ResidualGrassmann(
            "Grassmann content survived integration; measure list incomplete?")
    out = StateVector({labels: c.scalar_part() for labels, c in integrated.terms.items()})
    if not out.terms:
        raise ZeroState("weighted integral vanishes identically")
    return out


# -- the inverse problem -------------------------------------------------------
#
# Each coherent factor is 1 or -theta_g in front of a ket, so the expanded
# product gives every ket tuple L one signed monomial c_L = +/-theta_S (two
# level-1 sites sharing a generator give no term).  A weight monomial theta_T
# therefore reaches row L only for T = measures \ S, with the +/-1 entry
# a_L = int theta_T c_L, and its coefficient must be b_L / a_L.  The rows are
# walked in sorted-label order: the first row that reaches a monomial sets its
# coefficient and a later row that disagrees makes the target inconsistent.
# Every theta_T is reached (one site of each generator outside T at level 1,
# all other sites at level 0), so a consistent target has exactly one weight.
# All of this holds for shared generators too.


def solve_weight(target: StateVector, spec: ProductSpec) -> GrassmannElement:
    """Find w with build_state(w, spec) == target, exactly.

    Reads each weight coefficient off one expansion of the coherent product.
    Raises Unreachable when no weight exists, naming the basis tuples
    outside the image, or else those that disagree with an earlier tuple
    (in sorted-label order) fixing the same coefficient.
    """
    if target.n_sites != spec.n_sites:
        raise ValueError(f"target has {target.n_sites} sites, spec has {spec.n_sites}")
    if not all(cmath.isfinite(c) for c in target.terms.values()):
        raise ValueError("target coefficients must be finite")
    product = _coherent_product(spec).terms
    unreachable = [labels for labels in target.terms if labels not in product]
    if unreachable:
        raise Unreachable(
            "target not in the image of the integration map; uncoverable basis "
            "tuples: " + ", ".join(_ket(t) for t in unreachable),
            tuple(unreachable))
    measures = set(spec.measures)
    coeffs: dict[int, complex] = {}
    inconsistent = []
    for labels in sorted(product, key=_label_sort_key):
        c = product[labels]
        mono = GrassmannElement.word(*sorted(measures - c.generators()))
        entry = (mono * c).integrate(spec.measures).scalar_part()   # +/-1
        value = target.terms.get(labels, 0j) / entry
        (mask,) = mono.terms
        if coeffs.setdefault(mask, value) != value:
            inconsistent.append(labels)
    if inconsistent:
        names = ", ".join(_ket(t) for t in inconsistent)
        raise Unreachable(f"target not reachable; inconsistent components: {names}",
                          tuple(inconsistent))
    return GrassmannElement(coeffs)


# -- the catalog ----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: str  # "bell" | "bell-prime" | "bell-same" | "ghz" | "w" | "w-same"
    spec: ProductSpec
    weight: GrassmannElement
    expected: StateVector
    note: str = ""


def _bell_labels(fams, levels):
    return tuple(BasisLabel(i + 1, fams[i], levels[i]) for i in range(len(fams)))


def _make_bell(j: int, sign: int) -> CatalogEntry:
    fams = _BELL_FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=(SiteFactor(fams[0], theta(1)), SiteFactor(fams[1], theta(2))),
        measures=(theta(1), theta(2)))
    weight = -(GrassmannElement.word(theta(1)) + sign * GrassmannElement.word(theta(2)))
    expected = StateVector({
        _bell_labels(fams, (0, 1)): 1,
        _bell_labels(fams, (1, 0)): sign,
    })
    return CatalogEntry(f"B{j}{'+' if sign > 0 else '-'}", "bell", spec, weight, expected)


def _make_bell_prime(j: int, sign: int) -> CatalogEntry:
    fams = _BELL_FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=(SiteFactor(fams[0], theta(1)), SiteFactor(fams[1], theta(2))),
        measures=(theta(1), theta(2)))
    weight = -(GrassmannElement.word(theta(1), theta(2)) + sign * GrassmannElement.one())
    expected = StateVector({
        _bell_labels(fams, (0, 0)): 1,
        _bell_labels(fams, (1, 1)): sign,
    })
    return CatalogEntry(f"B'{j}{'+' if sign > 0 else '-'}", "bell-prime", spec, weight, expected)


def _make_bell_same(j: int) -> CatalogEntry:
    fams = _BELL_FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=(SiteFactor(fams[0], theta(1)), SiteFactor(fams[1], theta(1))),
        measures=(theta(1),))
    expected = StateVector({
        _bell_labels(fams, (0, 1)): 1,
        _bell_labels(fams, (1, 0)): -1,
    })
    return CatalogEntry(f"B{j}-same", "bell-same", spec, GrassmannElement.one(), expected)


def _make_ghz(j: int, sign: int) -> CatalogEntry:
    fams = _FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=tuple(SiteFactor(fams[i], theta(i + 1)) for i in range(3)),
        measures=(theta(1), theta(2), theta(3)))
    weight = (GrassmannElement.word(theta(3), theta(2), theta(1))
              + sign * GrassmannElement.one())
    expected = StateVector({
        _bell_labels(fams, (0, 0, 0)): 1,
        _bell_labels(fams, (1, 1, 1)): sign,
    })
    note = ""
    if j == 7:
        note = ("reference tabulation repeats a level-0 ket in this row; the catalog "
                "stores the pattern-consistent |psi0 phi0 phi0> +/- |psi1 phi1 phi1>")
    return CatalogEntry(f"G{j}{'+' if sign > 0 else '-'}", "ghz", spec, weight, expected, note)


def _make_w(j: int, signs: tuple[int, int, int] = (1, 1, 1)) -> CatalogEntry:
    fams = _FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=tuple(SiteFactor(fams[i], theta(i + 1)) for i in range(3)),
        measures=(theta(1), theta(2), theta(3)))
    s1, s2, s3 = signs
    weight = (s1 * GrassmannElement.word(theta(1), theta(2))
              + s2 * GrassmannElement.word(theta(1), theta(3))
              + s3 * GrassmannElement.word(theta(2), theta(3)))
    expected = StateVector({
        _bell_labels(fams, (0, 0, 1)): s1,
        _bell_labels(fams, (0, 1, 0)): s2,
        _bell_labels(fams, (1, 0, 0)): s3,
    })
    suffix = "" if signs == (1, 1, 1) else "".join("+" if s > 0 else "-" for s in signs)
    return CatalogEntry(f"W{j}{suffix}", "w", spec, weight, expected)


def _make_w_same(j: int) -> CatalogEntry:
    fams = _FAMILY_ORDER[j - 1]
    spec = ProductSpec(
        sites=tuple(SiteFactor(fams[i], theta(1)) for i in range(3)),
        measures=(theta(1),))
    expected = StateVector({
        _bell_labels(fams, (0, 0, 1)): -1,
        _bell_labels(fams, (0, 1, 0)): 1,
        _bell_labels(fams, (1, 0, 0)): -1,
    })
    return CatalogEntry(f"W'{j}", "w-same", spec, GrassmannElement.one(), expected)


def _build_catalog() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []
    for j in range(1, 5):
        for sign in (1, -1):
            entries.append(_make_bell(j, sign))
    for j in range(1, 5):
        for sign in (1, -1):
            entries.append(_make_bell_prime(j, sign))
    for j in range(1, 9):
        for sign in (1, -1):
            entries.append(_make_ghz(j, sign))
    for j in range(1, 9):
        entries.append(_make_w(j))
    for j in range(1, 9):
        entries.append(_make_w_same(j))
    return {e.name: e for e in entries}


#: the 48 core constructions, in listing order
CATALOG: dict[str, CatalogEntry] = _build_catalog()

#: same-generator two-site Bell variants (weight 1), resolvable by name
SAME_THETA_VARIANTS: dict[str, CatalogEntry] = {
    e.name: e for e in (_make_bell_same(j) for j in range(1, 5))
}


def catalog_entries(include_variants: bool = False) -> list[CatalogEntry]:
    out = list(CATALOG.values())
    if include_variants:
        out += list(SAME_THETA_VARIANTS.values())
    return out


def catalog(name: str) -> CatalogEntry:
    """Resolve a catalog name (see module docstring for the grammar)."""
    key = name.strip().replace("’", "'").replace("′", "'")
    if key in CATALOG:
        return CATALOG[key]
    if key in SAME_THETA_VARIANTS:
        return SAME_THETA_VARIANTS[key]
    # W rows with explicit sign tuples, e.g. "W3+-+" or "W3(+,-,+)"
    if key.startswith("W") and not key.startswith("W'"):
        head = key[1:].replace("(", "").replace(")", "").replace(",", "")
        if head and head[0].isdigit():
            j = int(head[0])
            signs = head[1:]
            if 1 <= j <= 8 and len(signs) == 3 and set(signs) <= {"+", "-"}:
                return _make_w(j, tuple(1 if ch == "+" else -1 for ch in signs))
    raise UnknownName(f"unknown catalog name {name!r}")


# -- biseparable constructions ---------------------------------------------------


@dataclass(frozen=True)
class BiseparableConstruction:
    """A weighted triple-product integral that factorizes across one cut."""

    name: str
    spec: ProductSpec
    weight: GrassmannElement
    factor_site: int                     # the site carrying the lone |psi0>
    pair_sites: tuple[int, int]
    pair_name: str                       # catalog name of the embedded Bell state
    expected: StateVector = field(compare=False)


def biseparable(partition: int, sign: int, primed: bool = False) -> BiseparableConstruction:
    """One of the three documented biseparable integrals.

    partition 1: |psi0>_(1) (x) Bell(2,3); primed selects the B' pair.
    partition 2: |psi0>_(2) (x) Bell(1,3); no primed variant exists.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if partition not in (1, 2):
        raise ValueError("partition must be 1 (vs 2,3) or 2 (vs 1,3)")
    if partition == 2 and primed:
        raise ValueError("no primed construction for partition 2")
    t1, t2, t3 = theta(1), theta(2), theta(3)
    spec = ProductSpec(
        sites=(SiteFactor("psi", t1), SiteFactor("psi", t2), SiteFactor("psi", t3)),
        measures=(t1, t2, t3))
    lab = lambda i, lv: BasisLabel(i, "psi", lv)  # noqa: E731
    tag = "+" if sign > 0 else "-"
    if partition == 1 and not primed:
        weight = GrassmannElement.word(t1, t2) + sign * GrassmannElement.word(t1, t3)
        expected = StateVector({
            (lab(1, 0), lab(2, 0), lab(3, 1)): 1,
            (lab(1, 0), lab(2, 1), lab(3, 0)): sign,
        })
        name, pair = f"bisep1{tag}", f"B1{tag}"
    elif partition == 1 and primed:
        # w = th3 th2 th1 -/+ th1 gives the +/- primed pair
        weight = (GrassmannElement.word(t3, t2, t1)
                  - sign * GrassmannElement.word(t1))
        expected = StateVector({
            (lab(1, 0), lab(2, 0), lab(3, 0)): 1,
            (lab(1, 0), lab(2, 1), lab(3, 1)): sign,
        })
        name, pair = f"bisep1'{tag}", f"B'1{tag}"
    else:
        weight = GrassmannElement.word(t1, t2) - sign * GrassmannElement.word(t3, t2)
        expected = StateVector({
            (lab(1, 0), lab(2, 0), lab(3, 1)): 1,
            (lab(1, 1), lab(2, 0), lab(3, 0)): sign,
        })
        name, pair = f"bisep2{tag}", f"B1{tag}"
    factor = 1 if partition == 1 else 2
    pair_sites = (2, 3) if partition == 1 else (1, 3)
    return BiseparableConstruction(name=name, spec=spec, weight=weight,
                                   factor_site=factor, pair_sites=pair_sites,
                                   pair_name=pair, expected=expected)


def all_biseparable() -> list[BiseparableConstruction]:
    out = []
    for sign in (1, -1):
        out.append(biseparable(1, sign))
        out.append(biseparable(1, sign, primed=True))
        out.append(biseparable(2, sign))
    return out
