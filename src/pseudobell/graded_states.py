"""Grassmann-valued multi-site kets and the coherent-state calculus.

A ``GradedState`` is a finite sum of terms

    (Grassmann coefficient) * |l_1> |l_2> ... |l_N>

where every l_k is a :class:`BasisLabel` (site, family psi/phi, level 0/1)
and all Grassmann factors stand to the LEFT of all kets ("left-normal
form").  Moving a single generator past a ket multiplies the term by the
ket's parity sign

    level 0  ->  -1        level 1  ->  +1

identically for plain/conjugate generators and for both families.  Note the
unusual assignment (the *ground* level is odd): it is the unique choice under
which the coherent products expand as

    |theta>|theta>      = |psi0 psi0> + theta (|psi0 psi1> - |psi1 psi0>)
    |theta1>|theta2>    = |psi0 psi0> + theta2 |psi0 psi1>
                          - theta1 |psi1 psi0> + theta1 theta2 |psi1 psi1>

Coherent states themselves are |theta> = |psi0> - theta |psi1> and
|theta~> = |phi0> - theta |phi1>; they are eigenstates of the lowering
operators with Grassmann eigenvalue theta, provided the lowering operator is
treated as parity-odd (it anticommutes with odd coefficient monomials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .biortho import BiorthoBasis
from .grassmann import Generator, GrassmannElement

_FAMILY_GLYPH = {"psi": "ψ", "phi": "φ"}


@dataclass(frozen=True)
class BasisLabel:
    """One site's ket label: |psi_level> or |phi_level> at a given site."""

    site: int
    family: str  # "psi" | "phi"
    level: int   # 0 | 1

    def __post_init__(self) -> None:
        if self.family not in ("psi", "phi"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {self.level}")

    def parity_sign(self) -> int:
        """Sign picked up by any generator moving past this ket."""
        return -1 if self.level == 0 else 1

    def __str__(self) -> str:
        return f"{_FAMILY_GLYPH[self.family]}{self.level}"


def move_scalar_left(g: Generator, label: BasisLabel) -> int:
    """Sign for commuting generator g from the right of a ket to its left.

    The sign is (-1)**(level-1): -1 for level 0, +1 for level 1, the same
    for plain and conjugate generators and for both families.
    """
    del g  # the rule is generator-independent
    return label.parity_sign()


def _tuple_parity(labels: Sequence[BasisLabel]) -> int:
    sign = 1
    for lab in labels:
        sign *= lab.parity_sign()
    return sign


LabelTuple = tuple[BasisLabel, ...]


class GradedState:
    """Multi-site ket with Grassmann coefficients, kept in left-normal form."""

    __slots__ = ("terms", "n_sites")

    def __init__(self, terms: Mapping[LabelTuple, GrassmannElement]):
        pruned: dict[LabelTuple, GrassmannElement] = {}
        n_sites = None
        for labels, coeff in terms.items():
            if n_sites is None:
                n_sites = len(labels)
            elif len(labels) != n_sites:
                raise ValueError("inconsistent site count across terms")
            if not coeff.is_zero():
                pruned[labels] = coeff
        self.terms: dict[LabelTuple, GrassmannElement] = pruned
        self.n_sites = n_sites if n_sites is not None else 0

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "GradedState") -> "GradedState":
        if self.n_sites and other.n_sites and self.n_sites != other.n_sites:
            raise ValueError("site-count mismatch")
        out = dict(self.terms)
        for labels, coeff in other.terms.items():
            out[labels] = out.get(labels, GrassmannElement.zero()) + coeff
        return GradedState(out)

    def __neg__(self) -> "GradedState":
        return GradedState({lab: -c for lab, c in self.terms.items()})

    def __sub__(self, other: "GradedState") -> "GradedState":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedState):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def premultiply(self, w: GrassmannElement) -> "GradedState":
        """Multiply by a Grassmann element from the left (no ket moves)."""
        return GradedState({lab: w * c for lab, c in self.terms.items()})

    def integrate(self, measures: Iterable[Generator]) -> "GradedState":
        """Berezin-integrate every coefficient (coefficients sit left of
        all kets, so this is a plain per-term integral)."""
        ms = list(measures)
        return GradedState({lab: c.integrate(ms) for lab, c in self.terms.items()})

    def grassmann_degree(self) -> int:
        return max((c.max_degree() for c in self.terms.values()), default=0)

    # -- graded operations ----------------------------------------------------

    def tensor(self, other: "GradedState") -> "GradedState":
        """Graded tensor product; the right factor's Grassmann coefficients
        commute leftward past this state's kets, picking up parity signs."""
        mine = {lab.site for labels in self.terms for lab in labels}
        theirs = {lab.site for labels in other.terms for lab in labels}
        if mine & theirs:
            raise ValueError(f"site indices overlap: {sorted(mine & theirs)}")
        out: dict[LabelTuple, GrassmannElement] = {}
        for la, ca in self.terms.items():
            through = _tuple_parity(la)
            for lb, cb in other.terms.items():
                coeff = ca * cb.signed_by_degree(through)
                if coeff.is_zero():
                    continue
                key = la + lb
                out[key] = out.get(key, GrassmannElement.zero()) + coeff
        return GradedState(out)

    def apply_lowering(self, site: int, family: str) -> "GradedState":
        """Act with the lowering operator (b for psi, b~ for phi) at a site.

        The operator is parity-odd: it anticommutes past odd coefficient
        monomials and past every odd ket standing left of the target site.
        Level 1 lowers to level 0; level 0 is annihilated.
        """
        out: dict[LabelTuple, GrassmannElement] = {}
        for labels, coeff in self.terms.items():
            pos = next((i for i, lab in enumerate(labels) if lab.site == site), None)
            if pos is None:
                raise ValueError(f"no ket at site {site}")
            target = labels[pos]
            if target.family != family:
                raise ValueError(
                    f"lowering operator of family {family!r} cannot act on a "
                    f"{target.family!r} ket in label space")
            if target.level == 0:
                continue
            moved = coeff.signed_by_degree(-1) * _tuple_parity(labels[:pos])
            new_labels = labels[:pos] + (BasisLabel(site, family, 0),) + labels[pos + 1:]
            out[new_labels] = out.get(new_labels, GrassmannElement.zero()) + moved
        return GradedState(out)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for labels in sorted(self.terms, key=_label_sort_key):
            coeff = self.terms[labels]
            ket = "|" + "".join(str(lab) for lab in labels) + "⟩"
            cs = str(coeff)
            if cs == "1":
                body = ket
            elif cs == "-1":
                body = "-" + ket
            elif coeff.is_scalar() or len(coeff.terms) == 1:
                body = f"{cs}·{ket}"
            else:
                body = f"({cs})·{ket}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(" - " + body[1:])
            else:
                parts.append(" + " + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GradedState({self})"


def _label_sort_key(labels: LabelTuple):
    return tuple((lab.site, lab.family, lab.level) for lab in labels)


def coherent_state(site: int, generator: Generator, family: str) -> GradedState:
    """Single-site coherent state |psi0> - theta |psi1> (or the phi twin)."""
    if generator.conjugate:
        raise ValueError("coherent states take a plain (non-conjugate) generator")
    return GradedState({
        (BasisLabel(site, family, 0),): GrassmannElement.one(),
        (BasisLabel(site, family, 1),): -GrassmannElement.word(generator),
    })


def graded_tensor(states: Sequence[GradedState]) -> GradedState:
    """Left-to-right graded tensor product of the given states."""
    if not states:
        raise ValueError("empty product")
    out = states[0]
    for nxt in states[1:]:
        out = out.tensor(nxt)
    return out


# -- coherent dyads and resolutions of identity -------------------------------


def coherent_dyad(generator: Generator,
                  ket_family: str,
                  bra_family: str) -> list[list[GrassmannElement]]:
    """The operator |theta><theta~| (families as given) as a 2x2 array.

    Entry [k][l] is the Grassmann coefficient standing left of
    |ket_family, k><bra_family, l|.  The bra is the Hermitian conjugate of
    the coherent ket, so its thetabar factor starts on the right and is
    commuted left through the bra and the ket with the parity rule.
    """
    th = GrassmannElement.word(generator)
    thb = GrassmannElement.word(generator.conjugated())
    ket_coeffs = [GrassmannElement.one(), -th]   # levels 0, 1
    bra_coeffs = [GrassmannElement.one(), -thb]  # conj of (1, -theta)
    sign = [-1, 1]  # parity per level
    dyad = []
    for k in range(2):
        row = []
        for l in range(2):
            moved = bra_coeffs[l].signed_by_degree(sign[l] * sign[k])
            row.append(ket_coeffs[k] * moved)
        dyad.append(row)
    return dyad


def default_resolution_weight(generator: Generator) -> GrassmannElement:
    """w(theta, thetabar) = 1 + theta*thetabar."""
    return 1 + GrassmannElement.word(generator, generator.conjugated())


def resolution_integral(basis: BiorthoBasis,
                        ket_family: str,
                        bra_family: str,
                        generator: Generator | None = None,
                        weight: GrassmannElement | None = None) -> np.ndarray:
    """Evaluate  int dthetabar dtheta  w |ket><bra|  as a numeric 2x2 matrix."""
    gen = generator if generator is not None else Generator(1)
    w = weight if weight is not None else default_resolution_weight(gen)
    dyad = coherent_dyad(gen, ket_family, bra_family)
    measures = [gen.conjugated(), gen]  # d(thetabar) d(theta), theta innermost
    kets = [basis.vector(ket_family, k) for k in range(2)]
    bras = [basis.vector(bra_family, l) for l in range(2)]
    out = np.zeros((2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            integrated = (w * dyad[k][l]).integrate(measures)
            if not integrated.is_scalar():
                raise AssertionError("resolution integral left Grassmann content")
            out += integrated.scalar_part() * np.outer(kets[k], bras[l].conj())
    return out


def bi_overcompleteness(basis: BiorthoBasis, tol: float = 1e-12) -> tuple[bool, float]:
    """Check  int dthb dth (1 + th*thb) |theta><theta~| = I  (both orders).

    Returns (holds, residual) where residual is the worse of the
    psi-ket/phi-bra and phi-ket/psi-bra mixed-family integrals.
    """
    r1 = resolution_integral(basis, "psi", "phi")
    r2 = resolution_integral(basis, "phi", "psi")
    residual = max(float(np.max(np.abs(r1 - np.eye(2)))),
                   float(np.max(np.abs(r2 - np.eye(2)))))
    return residual <= tol, residual


def same_family_resolution_residual(basis: BiorthoBasis, family: str = "psi") -> float:
    """Residual of the same-family integral against identity.

    This integral equals eta^{-1} (psi) or eta (phi), so it only resolves
    the identity in the Hermitian limit.
    """
    r = resolution_integral(basis, family, family)
    return float(np.max(np.abs(r - np.eye(2))))
