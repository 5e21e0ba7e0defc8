"""Exact Laurent polynomials over the integers in one variable v.

This is the coefficient ring for everything else in the package: balanced
quantum integers, the bar involution v -> 1/v, exact division, and the
bar-symmetric truncation used by basis eliminations all live here.

>>> p = LaurentPoly.from_terms({-2: 1, 1: 3})
>>> str(p)
'v^-2 + 3*v'
>>> str(p.bar())
'3*v^-1 + v^2'
>>> str(qint(3) * qint(2))
'v^-3 + 2*v^-1 + 2*v + v^3'

Coefficients are arbitrary-precision Python ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

# the one implementation's name, still read into benchmark run metadata
KERNEL = "python"

__all__ = [
    "LaurentPoly",
    "DivisionNotExact",
    "KERNEL",
    "ZERO",
    "ONE",
    "V",
    "qint",
    "qfactorial",
    "exact_div",
    "bar_symmetric_part",
]


class DivisionNotExact(ArithmeticError):
    """Raised when a quotient does not exist over Z[v, 1/v]."""


class LaurentPoly:
    """An immutable Laurent polynomial in normal form.

    ``val`` is the exponent of the lowest term, ``coeffs`` the tuple of
    integer coefficients from that exponent upward, with nonzero ends.
    Structural equality and hashing; all arithmetic returns new objects.
    """

    __slots__ = ("val", "coeffs")

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

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentPoly":
        if coeff == 0:
            return ZERO
        return LaurentPoly(exp, (coeff,))

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, exp: int) -> int:
        i = exp - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs, ascending, nonzero only."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield (self.val + i, c)

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no extreme exponents")
        return self.val

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no extreme exponents")
        return self.val + len(self.coeffs) - 1

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
        ac, bc = self.coeffs, other.coeffs
        if not ac:
            return other
        if not bc:
            return self
        lo = min(self.val, other.val)
        out = [0] * (max(self.val + len(ac), other.val + len(bc)) - lo)
        for k, x in enumerate(ac, self.val - lo):
            out[k] += x
        for k, x in enumerate(bc, other.val - lo):
            out[k] += x
        return _normal(lo, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.val, tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return self.shift(0, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        ac, bc = self.coeffs, other.coeffs
        if not ac or not bc:
            return ZERO
        out = [0] * (len(ac) + len(bc) - 1)
        for k, x in enumerate(ac):
            if x:
                for j, y in enumerate(bc, k):
                    if y:
                        out[j] += x * y
        # ends are products of nonzero ints, so no trim needed
        return LaurentPoly(self.val + other.val, tuple(out))

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def shift(self, exp: int, coeff: int = 1) -> "LaurentPoly":
        """Multiply by coeff * v**exp."""
        if coeff == 0 or not self.coeffs:
            return ZERO
        if coeff == 1:
            return LaurentPoly(self.val + exp, self.coeffs)
        return LaurentPoly(self.val + exp, tuple(coeff * x for x in self.coeffs))

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
        return hash((self.val, self.coeffs))

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
V = LaurentPoly(1, (1,))


def qint(n: int) -> LaurentPoly:
    """The balanced quantum integer [n] = v^(n-1) + v^(n-3) + ... + v^(1-n).

    >>> str(qint(1)), str(qint(2)), str(qint(3))
    ('1', 'v^-1 + v', 'v^-2 + 1 + v^2')
    """
    if n <= 0:
        raise ValueError(f"quantum integer needs n >= 1, got {n}")
    coeffs = [0] * (2 * n - 1)
    coeffs[0::2] = [1] * n
    return LaurentPoly(1 - n, tuple(coeffs))


def qfactorial(n: int) -> LaurentPoly:
    """The quantum factorial [n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError(f"quantum factorial needs n >= 0, got {n}")
    out = ONE
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """The exact quotient p / q, raising DivisionNotExact when none exists.

    >>> str(exact_div(qint(2) * qint(3), qint(3)))
    'v^-1 + v'
    >>> exact_div(ONE + V, qint(2))
    Traceback (most recent call last):
        ...
    fockdec.laurent.DivisionNotExact: (1 + v) / (v^-1 + v)
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    bc = q.coeffs
    n = max(len(p.coeffs) - len(bc) + 1, 0)
    rem = list(p.coeffs)
    quo = [0] * n
    for k in range(n):
        quo[k], r = divmod(rem[k], bc[0])
        if r:
            break
        for j in range(1, len(bc)):
            rem[k + j] -= quo[k] * bc[j]
    else:
        if not any(rem[n:]):
            return _normal(p.val - q.val, quo)
    raise DivisionNotExact(f"({p}) / ({q})")


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
