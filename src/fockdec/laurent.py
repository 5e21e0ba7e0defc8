"""Exact Laurent polynomials over the integers in one variable v.

This is the coefficient ring for everything else in the package: the
arithmetic, the bar involution v -> 1/v and the bar-symmetric truncation
used by basis eliminations live here.  Quantum integers and exact
division serve only the cross-checks, in fockdec.reference.

>>> p = LaurentPoly.from_terms({-2: 1, 1: 3})
>>> str(p)
'v^-2 + 3*v'
>>> str(p.bar())
'3*v^-1 + v^2'
>>> str(p * (V + ONE))
'v^-2 + v^-1 + 3*v + 3*v^2'
>>> LaurentPoly.from_pairs([[-2, 1], [1, 3]]) == p == ONE.shift(-2) + V * 3
True

Coefficients are arbitrary-precision Python ints.  Every sum, difference
and product of two polynomials goes through one multiply-add loop,
LaurentPoly.add_product (self + p*q in one buffer): + and - multiply by
ONE and MINUS_ONE, and * starts from ZERO.  The one other accumulation
loop is the n-ary LaurentPoly.sum_shifted, which the Fock operators use
to add every shifted contribution to one target in a single buffer
instead of one buffer per term.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

# the one implementation's name, still read into benchmark run metadata
KERNEL = "python"

__all__ = [
    "LaurentPoly",
    "KERNEL",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "V",
    "bar_symmetric_part",
]


class LaurentPoly:
    """An immutable Laurent polynomial in normal form.

    ``val`` is the exponent of the lowest term, ``coeffs`` the tuple of
    integer coefficients from that exponent upward, with nonzero ends.
    Structural equality and hashing; all arithmetic returns new objects.
    The hash is computed on first use and kept.
    """

    __slots__ = ("val", "coeffs", "_hash")

    def __init__(self, val: int = 0, coeffs: tuple[int, ...] = ()):
        # inputs are trusted to be in normal form; use the constructors
        # below for raw data
        self.val = val
        self.coeffs = coeffs

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "LaurentPoly":
        """Build from an exponent -> coefficient mapping.

        >>> LaurentPoly.from_terms({0: 1, 2: 1, 5: 0}) == ONE + V * V
        True
        """
        live = {e: c for e, c in terms.items() if c}
        if not live:
            return ZERO
        lo = min(live)
        hi = max(live)
        return LaurentPoly(lo, tuple(live.get(e, 0) for e in range(lo, hi + 1)))

    @staticmethod
    def from_pairs(pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        """Build from [exponent, coefficient] pairs (the JSON form)."""
        terms: dict[int, int] = {}
        for e, c in pairs:
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly.from_terms(terms)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, ascending, nonzero only."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield (self.val + i, c)

    def is_bar_symmetric(self) -> bool:
        """True when invariant under v -> 1/v."""
        return self.bar() == self

    def is_nonneg(self) -> bool:
        """True when every coefficient is >= 0."""
        return all(c >= 0 for c in self.coeffs)

    def in_v_ztimes(self) -> bool:
        """True when the polynomial lies in v*Z[v] (zero included).

        >>> (V + V * V).in_v_ztimes(), ONE.in_v_ztimes(), ZERO.in_v_ztimes()
        (True, False, True)
        """
        return not self.coeffs or self.val >= 1

    def in_nonneg_v_poly(self) -> bool:
        """True when in N[v]: nonnegative coefficients, no negative exponents."""
        return not self.coeffs or (self.val >= 0 and self.is_nonneg())

    def eval_one(self) -> int:
        """The integer value at v = 1."""
        return sum(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.add_product(other, ONE)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.add_product(other, MINUS_ONE)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.val, tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self.shift(0, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return ZERO.add_product(self, other)

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def add_product(self, p: "LaurentPoly", q: "LaurentPoly") -> "LaurentPoly":
        """self + p * q, formed in one buffer.

        The one two-operand accumulation loop: + is add_product(other, ONE),
        - is add_product(other, MINUS_ONE) and * is ZERO.add_product(p, q).
        An empty self skips the trim, since the ends of a bare product are
        products of nonzero ints.

        >>> ONE.add_product(V, V) == ONE + V * V
        True
        """
        pc, qc, sc = p.coeffs, q.coeffs, self.coeffs
        if not pc or not qc:
            return self
        pv = p.val + q.val
        hi = pv + len(pc) + len(qc) - 1
        if sc:
            lo = min(self.val, pv)
            out = [0] * (max(self.val + len(sc), hi) - lo)
            a = self.val - lo
            out[a : a + len(sc)] = sc
        else:
            lo = pv
            out = [0] * (hi - lo)
        for k, x in enumerate(pc, pv - lo):
            if x:
                for j, y in enumerate(qc, k):
                    if y:
                        out[j] += x * y
        if not sc:
            return LaurentPoly(lo, tuple(out))
        return _normal(lo, out)

    def shift(self, exp: int, coeff: int = 1) -> "LaurentPoly":
        """Multiply by coeff * v**exp."""
        if coeff == 0 or not self.coeffs:
            return ZERO
        if coeff == 1:
            return LaurentPoly(self.val + exp, self.coeffs)
        return LaurentPoly(self.val + exp, tuple(coeff * x for x in self.coeffs))

    @staticmethod
    def sum_shifted(terms: Iterable[tuple["LaurentPoly", int]]) -> "LaurentPoly":
        """The sum of p * v**k over the (p, k) pairs, formed in one buffer.

        The n-ary sum: a chain of add_product calls would build one buffer
        per term, this builds one for all of them.

        >>> LaurentPoly.sum_shifted([(ONE, 1), (V, 0), (-V, 2)]) == V * 2 - V * V * V
        True
        """
        live = [(p.val + k, p.coeffs) for p, k in terms if p.coeffs]
        if not live:
            return ZERO
        lo = min(a for a, _ in live)
        out = [0] * (max(a + len(c) for a, c in live) - lo)
        for a, c in live:
            for j, x in enumerate(c, a - lo):
                out[j] += x
        return _normal(lo, out)

    def bar(self) -> "LaurentPoly":
        """Apply the involution v -> 1/v."""
        if not self.coeffs:
            return ZERO
        return LaurentPoly(1 - self.val - len(self.coeffs), self.coeffs[::-1])

    # -- comparisons and formatting --------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.val == other.val
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.val, self.coeffs))
            return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({self.val}, {self.coeffs})"

    def __str__(self) -> str:
        """Human form, terms ascending: 'v^-2 + 3*v', '0', '1 - v^2'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                vpart = "v" if e == 1 else f"v^{e}"
                body = vpart if mag == 1 else f"{mag}*{vpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_pairs(self) -> list[list[int]]:
        """Sorted [exponent, coefficient] pairs (the JSON serialization)."""
        return [[e, c] for e, c in self.items()]


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))
MINUS_ONE = LaurentPoly(0, (-1,))
V = LaurentPoly(1, (1,))


def _normal(val: int, coeffs: list[int]) -> LaurentPoly:
    """The polynomial sum(coeffs[k] * v**(val + k)), its zero ends trimmed."""
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return ZERO
    return LaurentPoly(val + lo, tuple(coeffs[lo:hi]))


def bar_symmetric_part(p: LaurentPoly) -> LaurentPoly:
    """The bar-invariant truncation a_0 + sum_{k>0} a_{-k} (v^k + v^-k).

    The result m is bar-invariant, agrees with p on all exponents <= 0, and
    p - m has only exponents >= 1.  A bar-invariant input is returned whole.

    >>> str(bar_symmetric_part(LaurentPoly.from_terms({-1: 1, 0: 2, 1: 3})))
    'v^-1 + 2 + v'
    >>> bar_symmetric_part(V * V * 5)
    LaurentPoly(0, ())
    """
    terms: dict[int, int] = {}
    for e, c in p.items():
        if e == 0:
            terms[0] = terms.get(0, 0) + c
        elif e < 0:
            terms[e] = terms.get(e, 0) + c
            terms[-e] = terms.get(-e, 0) + c
    return LaurentPoly.from_terms(terms)
