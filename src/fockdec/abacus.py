"""The level-l abacus correspondence and its reading sequences.

Positions of an l-runner abacus with runners of period e are labeled by
all integers: position k sits on runner d(k) at column phi(k), where
k = c + e*(d-1) + e*l*m with c in 1..e determines (c, d, m) uniquely and
phi = c + e*m.  A charged multipartition of level l puts a bead at column
part_i + charge_d + 1 - i of runner d for every row i; pulling those beads
back through the position labels and listing them in decreasing order
yields the beta-sequence of a single charged partition of level one.  With
l = 1 the labeling is the identity and the classical one-runner abacus
comes back.

Truncating to the r largest labels is faithful as long as the level-one
partition has fewer than r rows; tau_inverse enforces that and RTooSmall
carries the smallest admissible r.

>>> ks = tau_inverse(((1, 1), (1, 1), (1,)), (0, 0, -1), 2, 7)
>>> ks
(3, 1, 0, -2, -4, -6, -7)
>>> reading_word(ks, 2, 3).w
(0, -6, -7, 3, -2, 1, -4)
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .combinatorics import Charge, InvariantViolated, Multipartition

__all__ = [
    "RTooSmall",
    "AbacusData",
    "position",
    "position_label",
    "tau_inverse",
    "tau_forward",
    "reading_word",
    "min_valid_r",
    "stable_r",
    "ascii_art",
]


class RTooSmall(ValueError):
    """Truncation cuts into nonzero rows; .suggested holds the least valid r."""

    def __init__(self, r: int, suggested: int):
        super().__init__(f"r={r} is too small; the least valid choice is {suggested}")
        self.suggested = suggested


def _decompose(k: int, e: int, l: int) -> tuple[int, int, int]:
    """Split a position label into (c, d, m) with c in 1..e, d in 1..l."""
    c = (k - 1) % e + 1
    t = (k - c) // e
    d = t % l + 1
    m = (t - (d - 1)) // l
    return c, d, m


def position(k: int, e: int, l: int) -> tuple[int, int]:
    """The (column, runner) of a position label.

    >>> position(3, 2, 3), position(-7, 2, 3)
    ((1, 2), (-3, 3))
    """
    c, d, m = _decompose(k, e, l)
    return (c + e * m, d)


def position_label(phi: int, d: int, e: int, l: int) -> int:
    """The position label of column phi on runner d (inverse of position)."""
    c = (phi - 1) % e + 1
    m = (phi - c) // e
    return c + e * (d - 1) + e * l * m


def _check_el(e: int, l: int) -> None:
    if e < 1:
        raise ValueError(f"runner period e={e} must be >= 1")
    if l < 1:
        raise ValueError(f"level l={l} must be >= 1")


def _bead_labels(mp: Multipartition, charge: Charge, e: int, count: int) -> list[int]:
    """The 'count' largest position labels of the bead set, exactly.

    Each runner's beads have strictly decreasing columns and so strictly
    increasing-in-column labels; generating 'count' beads per runner makes
    the combined top 'count' exact.
    """
    l = len(charge)
    out = []
    for d, (part, s) in enumerate(zip(mp, charge), start=1):
        for i in range(1, count + 1):
            row = part[i - 1] if i <= len(part) else 0
            out.append(position_label(row + s + 1 - i, d, e, l))
    out.sort(reverse=True)
    return out[:count]


def min_valid_r(mp: Multipartition, charge: Charge, e: int) -> int:
    """The least r whose truncation is faithful for this shape and charge."""
    _check_el(e, len(charge))
    s_tot = sum(charge)
    count = 8 + len(charge) * e + sum(len(p) for p in mp) + sum(abs(s) for s in charge)
    while True:
        ks = _bead_labels(mp, charge, e, count)
        for i, k in enumerate(ks, start=1):
            row = k - (s_tot + 1 - i)
            if row < 0:
                raise InvariantViolated("bead labels do not form a beta-sequence")
            if row == 0:
                # rows of the level-one partition weakly decrease, so the
                # first zero row ends them all
                return i
        count *= 2


def tau_inverse(mp: Multipartition, charge: Charge, e: int, r: int) -> tuple[int, ...]:
    """The r largest bead labels, i.e. a truncated level-one beta-sequence.

    Raises RTooSmall unless the level-one partition fits above the cut.
    """
    _check_el(e, len(charge))
    if len(mp) != len(charge):
        raise ValueError(f"level {len(mp)} multipartition with charge {charge}")
    if r < 1:
        raise ValueError(f"r={r} must be >= 1")
    ks = _bead_labels(mp, charge, e, r)
    if ks[r - 1] != sum(charge) + 1 - r:
        raise RTooSmall(r, min_valid_r(mp, charge, e))
    return tuple(ks)


def tau_forward(k: tuple[int, ...], e: int, l: int) -> tuple[Multipartition, Charge]:
    """Read a truncated beta-sequence back into a charged multipartition.

    The charge of each runner is recovered by compacting: the runner's
    continuation below the cut is full, so its charge is the count of listed
    beads plus the highest column its tail would occupy.
    """
    _check_el(e, l)
    if not k:
        raise ValueError("empty bead sequence")
    if any(k[i] <= k[i + 1] for i in range(len(k) - 1)):
        raise ValueError("bead labels must be strictly decreasing")
    columns: dict[int, list[int]] = {d: [] for d in range(1, l + 1)}
    for kk in k:
        phi, d = position(kk, e, l)
        columns[d].append(phi)
    tail_top: dict[int, int] = {}
    kk = k[-1] - 1
    while len(tail_top) < l:
        phi, d = position(kk, e, l)
        if d not in tail_top:
            tail_top[d] = phi
        kk -= 1
    parts = []
    charge = []
    for d in range(1, l + 1):
        phis = sorted(columns[d], reverse=True)
        s_d = tail_top[d] + len(phis)
        rows = []
        for i, phi in enumerate(phis, start=1):
            row = phi - (s_d + 1 - i)
            if row < 0:
                raise ValueError(f"labels do not come from a multipartition (runner {d})")
            if rows and rows[-1] < row:
                raise ValueError(f"labels do not come from a multipartition (runner {d})")
            rows.append(row)
        parts.append(tuple(x for x in rows if x > 0))
        charge.append(s_d)
    return tuple(parts), tuple(charge)


class AbacusData(NamedTuple):
    """All reading sequences of one truncated bead list.

    k is the input; c, d, m, phi decompose each label in k order; w lists
    the labels runner by runner from runner l down to 1, each in
    decreasing column order; a is c sorted ascending, b the runner indices
    in w order, zeta the columns in w order.
    """

    e: int
    l: int
    k: tuple[int, ...]
    w: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    m: tuple[int, ...]
    phi: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    zeta: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self._asdict().items()
        }


def reading_word(k: tuple[int, ...], e: int, l: int) -> AbacusData:
    """Decompose a bead list and read it runner by runner."""
    _check_el(e, l)
    trip = [_decompose(kk, e, l) for kk in k]
    cs = tuple(t[0] for t in trip)
    ds = tuple(t[1] for t in trip)
    ms = tuple(t[2] for t in trip)
    phis = tuple(c + e * m for (c, _, m) in trip)
    order = sorted(
        range(len(k)),
        key=lambda i: (-ds[i], -phis[i]),
    )
    w = tuple(k[i] for i in order)
    b = tuple(ds[i] for i in order)
    zeta = tuple(phis[i] for i in order)
    return AbacusData(
        e=e,
        l=l,
        k=tuple(k),
        w=w,
        c=cs,
        d=ds,
        m=ms,
        phi=phis,
        a=tuple(sorted(cs)),
        b=b,
        zeta=zeta,
    )


def stable_r(
    mp: Multipartition, charge: Charge, e: int, e_prime: int
) -> int:
    """The least faithful r whose cut sits at a common cell corner.

    Cells of width e (and of width e_prime) tile each runner; requiring the
    cut label to be congruent to 1 modulo e*l and modulo e_prime*l makes
    the runner-by-runner reading sequences agree between the two periods.
    """
    l = len(charge)
    _check_el(e, l)
    _check_el(e_prime, l)
    s_tot = sum(charge)
    base = max(min_valid_r(mp, charge, e), min_valid_r(mp, charge, e_prime), 1)
    step = l * lcm(e, e_prime)
    # smallest r >= base with r - s_tot divisible by step
    offset = (base - s_tot) % step
    return base if offset == 0 else base + step - offset


def ascii_art(ks: tuple[int, ...], e: int, l: int) -> str:
    """Draw the abacus of the bead labels ks: one line per runner, columns
    descending left to right, 'o' for a bead and '.' for a gap."""
    spots = {}
    for kk in ks:
        phi, d = position(kk, e, l)
        spots[(phi, d)] = kk
    his = [phi for (phi, _) in spots]
    hi, lo = max(his), min(his)
    width = max(len(str(phi)) for phi in range(lo, hi + 1))
    header = "phi: " + " ".join(str(phi).rjust(width) for phi in range(hi, lo - 1, -1))
    lines = [header]
    for d in range(1, l + 1):
        cells = [
            ("o" if (phi, d) in spots else ".").rjust(width)
            for phi in range(hi, lo - 1, -1)
        ]
        lines.append(f"  {d}: " + " ".join(cells))
    return "\n".join(lines)
