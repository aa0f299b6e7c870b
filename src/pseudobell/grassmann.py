"""Exact arithmetic in a finite complex Grassmann algebra.

Generators come in two flavours, theta_i ("plain") and their conjugates
thetabar_i.  All products obey

    g * h = -h * g      for distinct generators g, h,
    g * g = 0           (nilpotency).

Elements are stored sparsely as ``{monomial bitmask: complex coefficient}``.
Monomials are kept in a fixed canonical order,

    theta_1 < theta_2 < ... < thetabar_1 < thetabar_2 < ...,

so any permutation of a word is represented by the sorted monomial times the
parity sign of the sorting permutation.  Berezin integration uses the
left-derivative convention: integrating against d(g) anticommutes g to the
front of every word containing it and strips it; words without g map to zero.
Iterated integrals nest with the rightmost measure innermost,
``f.integrate([g1, g2, g3])`` meaning "integrate g3 first".

Rendering grammar (``__str__``, also used by the CLI, whose catalog, build
and solve output ``tests/golden/`` pins byte for byte)::

    element :=  ["-"] term { (" + " | " - ") term }
    term    :=  coeff | mono | coeff "·" mono
    mono    :=  gen { "·" gen }
    gen     :=  "θ" index | "θ̄" index
    coeff   :=  real ("2", "0.5") | imaginary ("i", "2i") | complex "(1+2i)"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Bit layout of a monomial mask: bit (index-1) holds theta_index, bit
# (_CONJ_OFFSET + index - 1) holds thetabar_index.  Python ints are unbounded,
# so the offset only caps the number of distinct sites, not memory.
MAX_SITES = 64
_CONJ_OFFSET = MAX_SITES


@dataclass(frozen=True)
class Generator:
    """Identity of a single anticommuting generator (theta_i or thetabar_i)."""

    index: int
    conjugate: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.index <= MAX_SITES:
            raise ValueError(f"generator index must be in 1..{MAX_SITES}, got {self.index}")

    @property
    def code(self) -> int:
        """Bit position in the monomial mask; also the canonical sort key."""
        return self.index - 1 + (_CONJ_OFFSET if self.conjugate else 0)

    def conjugated(self) -> "Generator":
        return Generator(self.index, not self.conjugate)

    def __lt__(self, other: "Generator") -> bool:
        return self.code < other.code

    def __str__(self) -> str:
        return ("θ̄" if self.conjugate else "θ") + str(self.index)


def theta(index: int) -> Generator:
    """The plain generator theta_index."""
    return Generator(index, False)


def theta_bar(index: int) -> Generator:
    """The conjugate generator thetabar_index."""
    return Generator(index, True)


def _mask_codes(mask: int) -> list[int]:
    """Bit positions set in `mask`, ascending (= canonical word order)."""
    codes = []
    while mask:
        low = mask & -mask
        codes.append(low.bit_length() - 1)
        mask ^= low
    return codes


def _code_to_generator(code: int) -> Generator:
    if code >= _CONJ_OFFSET:
        return Generator(code - _CONJ_OFFSET + 1, True)
    return Generator(code + 1, False)


def normalize_word(word: Sequence[Generator]) -> tuple[int, int] | None:
    """Sort a word of generators into canonical order.

    Returns ``(sign, mask)`` where sign is the parity of the sorting
    permutation, or ``None`` when a generator repeats (the word is zero).
    The empty word gives ``(1, 0)``, i.e. unity.
    """
    sign = 1
    mask = 0
    for g in word:
        bit = 1 << g.code
        if mask & bit:
            return None
        # g hops over every generator already placed that sits above it
        if (mask >> (g.code + 1)).bit_count() & 1:
            sign = -sign
        mask |= bit
    return sign, mask


def _merge_sign(a: int, b: int) -> int:
    """Parity sign for concatenating canonical words a, b and re-sorting."""
    sign = 1
    rest = b
    while rest:
        low = rest & -rest
        code = low.bit_length() - 1
        if (a >> (code + 1)).bit_count() & 1:
            sign = -sign
        rest ^= low
    return sign


class GrassmannElement:
    """Sparse complex combination of canonical Grassmann monomials.

    Instances are immutable in practice: every operation returns a new
    element and zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, complex] | None = None):
        pruned = {}
        if terms:
            for mask, c in terms.items():
                c = complex(c)
                if c != 0:
                    pruned[mask] = c
        self.terms: dict[int, complex] = pruned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GrassmannElement":
        return cls({})

    @classmethod
    def scalar(cls, c: complex) -> "GrassmannElement":
        return cls({0: complex(c)})

    @classmethod
    def one(cls) -> "GrassmannElement":
        return cls.scalar(1)

    @classmethod
    def word(cls, *gens: Generator, coeff: complex = 1) -> "GrassmannElement":
        """Element ``coeff * g1*g2*...*gk`` for the given generator word."""
        norm = normalize_word(gens)
        if norm is None:
            return cls.zero()
        sign, mask = norm
        return cls({mask: sign * complex(coeff)})

    # -- structure queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def scalar_part(self) -> complex:
        return self.terms.get(0, 0j)

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.terms), default=0)

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mask in self.terms:
            out.update(_code_to_generator(c) for c in _mask_codes(mask))
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mask, c in other.terms.items():
            out[mask] = out.get(mask, 0j) + c
        return GrassmannElement(out)

    __radd__ = __add__

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        out: dict[int, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue  # repeated generator, term vanishes
                mask = ma | mb
                c = ca * cb * _merge_sign(ma, mb)
                out[mask] = out.get(mask, 0j) + c
        return GrassmannElement(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement({m: other * c for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # scalars compare equal to plain numbers, so they must hash alike
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash(frozenset(self.terms.items()))

    # -- conjugation and Berezin integration --------------------------------

    def conjugate(self) -> "GrassmannElement":
        """Hermitian conjugation: theta <-> thetabar, word order reversed,
        coefficients complex-conjugated."""
        out: dict[int, complex] = {}
        for mask, c in self.terms.items():
            word = [_code_to_generator(code).conjugated()
                    for code in reversed(_mask_codes(mask))]
            norm = normalize_word(word)
            sign, new_mask = norm  # bijection on codes, never zero
            out[new_mask] = out.get(new_mask, 0j) + sign * c.conjugate()
        return GrassmannElement(out)

    def berezin(self, g: Generator) -> "GrassmannElement":
        """Left-derivative Berezin integral in the single generator g."""
        bit = 1 << g.code
        out: dict[int, complex] = {}
        for mask, c in self.terms.items():
            if not mask & bit:
                continue
            # anticommute g to the front, over the generators below it
            if (mask & (bit - 1)).bit_count() & 1:
                c = -c
            stripped = mask ^ bit
            out[stripped] = out.get(stripped, 0j) + c
        return GrassmannElement(out)

    def integrate(self, measures: Iterable[Generator]) -> "GrassmannElement":
        """Iterated Berezin integral, rightmost measure applied first."""
        out = self
        for g in reversed(list(measures)):
            out = out.berezin(g)
        return out

    def signed_by_degree(self, sign: int) -> "GrassmannElement":
        """Scale each degree-k monomial by sign**k (Koszul-type move sign)."""
        if sign == 1:
            return self
        return GrassmannElement(
            {m: (-c if m.bit_count() & 1 else c) for m, c in self.terms.items()})

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[mask]
            mono = "·".join(str(_code_to_generator(code)) for code in _mask_codes(mask))
            parts.append(_format_term(c, mono, first=not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GrassmannElement({self})"


def _coerce(x) -> "GrassmannElement":
    if isinstance(x, GrassmannElement):
        return x
    if isinstance(x, (int, float, complex)):
        return GrassmannElement.scalar(x)
    return NotImplemented


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_complex(z: complex) -> str:
    """Compact complex formatting: "2", "-0.5", "i", "-2i", "(1+2i)"."""
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_real(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _fmt_real(im) + "i"
    sign = "+" if im > 0 else "-"
    imag = "" if abs(im) == 1 else _fmt_real(abs(im))
    return f"({_fmt_real(re)}{sign}{imag}i)"


def _format_term(c: complex, mono: str, first: bool) -> str:
    cs = format_complex(c)
    negated = cs.startswith("-")
    if negated:
        cs = cs[1:]
    if mono:
        body = mono if cs == "1" else f"{cs}·{mono}"
    else:
        body = cs
    if first:
        return ("-" if negated else "") + body
    return (" - " if negated else " + ") + body
