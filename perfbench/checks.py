"""Output checks that share no arithmetic with fockdec.

Every matrix cell is parsed from the JSON ``[exponent, coefficient]`` pairs
into a plain ``{exponent: coefficient}`` dict and all products, counts and
label sets are computed here from scratch: partitions by recursion, layer
sizes from the partition generating function, abacus positions from the
labeling formula.  Nothing is compared with a stored copy of earlier
output, so a check passes only when the output has the property itself.

Each ``check_*`` function takes the parsed JSON of one operation and the
parameters it was run with, and raises CheckFailed with a one-line reason
at the first property that does not hold.  It returns a small summary that
the cross-operation checks (order antisymmetry, finite-e versus e=inf
identity) and the per-round size observables read.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

__all__ = [
    "CheckFailed",
    "parse_poly",
    "parse_label",
    "format_label",
    "partitions",
    "multipartitions",
    "count_multipartitions",
    "count_e_regular",
    "bead_labels",
    "min_faithful_r",
    "check_canonical",
    "check_factorize",
    "check_crystal",
    "check_abacus",
    "check_order",
    "check_antisymmetric",
    "check_same_output",
]


class CheckFailed(AssertionError):
    """An output lacks a property it must have."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# -- exact Laurent polynomials as {exponent: coefficient} ----------------


def parse_poly(pairs) -> dict[int, int]:
    """Read one JSON cell: a list of [exponent, coefficient] pairs."""
    _require(isinstance(pairs, list), f"cell is not a list: {pairs!r}")
    out: dict[int, int] = {}
    for pair in pairs:
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in pair),
            f"cell term is not an [exponent, coefficient] pair: {pair!r}",
        )
        exp, coeff = pair
        _require(coeff != 0, f"cell carries a zero term: {pairs!r}")
        _require(exp not in out, f"cell repeats exponent {exp}: {pairs!r}")
        out[exp] = coeff
    return out


def _add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = acc.get(e, 0) + ca * cb
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)


def _in_v_z_v(p: dict[int, int]) -> bool:
    return all(e >= 1 for e in p)


# -- labels and their counts ---------------------------------------------


def parse_label(text: str) -> tuple[tuple[int, ...], ...]:
    """'2.1|-|1' -> ((2, 1), (), (1,))."""
    _require(isinstance(text, str), f"label is not a string: {text!r}")
    comps = []
    for chunk in text.split("|"):
        if chunk == "-":
            comps.append(())
            continue
        try:
            parts = tuple(int(p) for p in chunk.split("."))
        except ValueError:
            raise CheckFailed(f"malformed label {text!r}") from None
        _require(
            all(p > 0 for p in parts)
            and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)),
            f"label {text!r} is not a tuple of partitions",
        )
        comps.append(parts)
    return tuple(comps)


def format_label(mp) -> str:
    return "|".join(".".join(map(str, p)) if p else "-" for p in mp)


@lru_cache(maxsize=None)
def partitions(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most cap."""
    if cap is None:
        cap = n
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    )


@lru_cache(maxsize=None)
def multipartitions(level: int, n: int) -> frozenset:
    """All level-l tuples of partitions with n boxes in total."""
    if level == 1:
        return frozenset((p,) for p in partitions(n))
    return frozenset(
        (p,) + rest
        for k in range(n + 1)
        for p in partitions(k)
        for rest in multipartitions(level - 1, n - k)
    )


def _series_power(factors, n: int) -> list[int]:
    """Coefficients up to q^n of prod over (num_exp, den_exp) of (1-q^a)/(1-q^b)."""
    coeffs = [1] + [0] * n
    for num, den in factors:
        if den:
            for i in range(den, n + 1):  # multiply by 1/(1 - q^den)
                coeffs[i] += coeffs[i - den]
        if num:
            for i in range(n, num - 1, -1):  # multiply by (1 - q^num)
                coeffs[i] -= coeffs[i - num]
    return coeffs


def count_multipartitions(level: int, n: int) -> int:
    """[q^n] of prod_k (1 - q^k)^-level, the partition generating function."""
    return _series_power([(0, k) for k in range(1, n + 1)] * level, n)[n]


def count_e_regular(n: int, e: int) -> int:
    """[q^n] of prod_k (1 - q^(e k)) / (1 - q^k): no part repeated e times."""
    return _series_power([(e * k, k) for k in range(1, n + 1)], n)[n]


# -- matrices ------------------------------------------------------------


class Matrix:
    """A parsed labeled matrix, stored sparsely by column."""

    def __init__(self, obj, what: str):
        _require(isinstance(obj, dict), f"{what} is not an object")
        _require(
            set(obj) == {"row_labels", "col_labels", "entries"},
            f"{what} has keys {sorted(obj)}",
        )
        self.what = what
        self.rows = [parse_label(t) for t in obj["row_labels"]]
        self.cols = [parse_label(t) for t in obj["col_labels"]]
        _require(len(set(self.rows)) == len(self.rows), f"{what} repeats a row label")
        _require(len(set(self.cols)) == len(self.cols), f"{what} repeats a column label")
        entries = obj["entries"]
        _require(
            isinstance(entries, list) and len(entries) == len(self.rows),
            f"{what} has {len(entries)} entry rows for {len(self.rows)} labels",
        )
        self.columns: list[dict[int, dict[int, int]]] = [{} for _ in self.cols]
        for i, row in enumerate(entries):
            _require(
                isinstance(row, list) and len(row) == len(self.cols),
                f"{what} row {format_label(self.rows[i])} has the wrong length",
            )
            for j, cell in enumerate(row):
                p = parse_poly(cell)
                if p:
                    self.columns[j][i] = p


def _check_rows(m: Matrix, level: int, rank: int) -> None:
    expected = count_multipartitions(level, rank)
    _require(
        len(m.rows) == expected,
        f"{m.what} has {len(m.rows)} rows; the generating function gives {expected}",
    )
    _require(
        set(m.rows) == multipartitions(level, rank),
        f"{m.what} rows are not the level-{level} rank-{rank} multipartitions",
    )


def _check_basis_columns(m: Matrix) -> None:
    row_index = {r: i for i, r in enumerate(m.rows)}
    for j, lab in enumerate(m.cols):
        name = format_label(lab)
        _require(lab in row_index, f"{m.what} column {name} is not a row label")
        diag = row_index[lab]
        for i, p in m.columns[j].items():
            if i == diag:
                _require(p == {0: 1}, f"{m.what} column {name} has {p} at its label")
            else:
                _require(
                    _in_v_z_v(p),
                    f"{m.what} column {name} has {p} at {format_label(m.rows[i])}, "
                    "outside v*Z[v]",
                )
        _require(diag in m.columns[j], f"{m.what} column {name} is zero at its label")


def _check_level_one(m: Matrix, e, rank: int) -> None:
    if e is None:
        _require(
            m.rows == m.cols
            and all(col == {j: {0: 1}} for j, col in enumerate(m.columns)),
            f"{m.what}: the level-1 e=inf matrix is not the identity",
        )
    else:
        expected = count_e_regular(rank, e)
        _require(
            len(m.cols) == expected,
            f"{m.what} has {len(m.cols)} columns; there are {expected} "
            f"{e}-regular partitions of {rank}",
        )


def _check_relative(rel: Matrix) -> None:
    row_index = {r: i for i, r in enumerate(rel.rows)}
    for j, lab in enumerate(rel.cols):
        name = format_label(lab)
        _require(lab in row_index, f"relative column {name} has no row")
        diag = row_index[lab]
        _require(
            rel.columns[j].get(diag) == {0: 1},
            f"relative diagonal at {name} is {rel.columns[j].get(diag, {})}, not 1",
        )
        for i, p in rel.columns[j].items():
            where = f"relative ({format_label(rel.rows[i])}, {name})"
            _require(
                all(c > 0 for c in p.values()), f"{where} = {p} has a negative coefficient"
            )
            if i != diag:
                _require(_in_v_z_v(p), f"{where} = {p} is outside v*Z[v]")


def _check_product(de: Matrix, dinf: Matrix, rel: Matrix) -> None:
    _require(de.rows == dinf.rows, "basis_e and basis_inf rows differ")
    _require(rel.rows == dinf.cols, "relative rows are not the basis_inf columns")
    _require(rel.cols == de.cols, "relative columns are not the basis_e columns")
    for j, lab in enumerate(de.cols):
        acc: dict[int, dict[int, int]] = {}
        for k, r in rel.columns[j].items():
            for i, a in dinf.columns[k].items():
                cell = acc.setdefault(i, {})
                _add_product(cell, a, r)
        acc = {i: p for i, p in acc.items() if p}
        if acc != de.columns[j]:
            bad = min(
                i for i in set(acc) | set(de.columns[j])
                if acc.get(i) != de.columns[j].get(i)
            )
            raise CheckFailed(
                f"basis_e != basis_inf * relative at ({format_label(de.rows[bad])}, "
                f"{format_label(lab)}): {de.columns[j].get(bad, {})} vs {acc.get(bad, {})}"
            )


def _sizes(matrices, relative=None) -> dict:
    """Size observables of the output: cells and nonzeros over all matrices,
    off-diagonal nonzeros of the relative matrix, and the largest
    |coefficient| and degree span in any entry."""
    max_coeff = max_span = 0
    for m in matrices:
        for col in m.columns:
            for p in col.values():
                max_coeff = max(max_coeff, max(abs(c) for c in p.values()))
                max_span = max(max_span, max(p) - min(p))
    out = {
        "cells": sum(len(m.rows) * len(m.cols) for m in matrices),
        "nonzeros": sum(len(col) for m in matrices for col in m.columns),
        "max_coeff": max_coeff,
        "max_span": max_span,
    }
    if relative is not None:
        out["extract_steps"] = sum(
            1 for j, col in enumerate(relative.columns) for i in col
            if relative.rows[i] != relative.cols[j]
        )
    return out


def _e_field(e):
    return "inf" if e is None else e


def _check_header(obj, op, keys) -> None:
    _require(isinstance(obj, dict) and set(obj) == keys, f"output keys are {sorted(obj)}")
    _require(obj["charge"] == list(op["charge"]), f"charge echoed as {obj['charge']}")
    _require(obj["rank"] == op["rank"], f"rank echoed as {obj['rank']}")


def check_canonical(obj, op) -> dict:
    """One canonical-basis matrix at (e, charge, rank)."""
    _check_header(obj, op, {"e", "charge", "rank", "matrix"})
    _require(obj["e"] == str(_e_field(op["e"])), f"e echoed as {obj['e']}")
    level = len(op["charge"])
    m = Matrix(obj["matrix"], "matrix")
    _check_rows(m, level, op["rank"])
    _check_basis_columns(m)
    if level == 1:
        _check_level_one(m, op["e"], op["rank"])
    return {"matrix": obj["matrix"], **_sizes([m])}


def check_factorize(obj, op) -> dict:
    """Both basis matrices, the relative matrix and the program's own report."""
    _check_header(
        obj, op,
        {"e", "charge", "rank", "basis_e", "basis_inf", "relative", "report", "all_pass"},
    )
    _require(obj["e"] == op["e"], f"e echoed as {obj['e']}")
    level = len(op["charge"])
    de = Matrix(obj["basis_e"], "basis_e")
    dinf = Matrix(obj["basis_inf"], "basis_inf")
    rel = Matrix(obj["relative"], "relative")
    for m in (de, dinf):
        _check_rows(m, level, op["rank"])
    _check_relative(rel)
    for m in (de, dinf):
        _check_basis_columns(m)
    if level == 1:
        _check_level_one(de, op["e"], op["rank"])
        _check_level_one(dinf, None, op["rank"])
    _check_product(de, dinf, rel)
    _require(obj["all_pass"] is True, "the program's own report did not pass")
    return _sizes([de, dinf, rel], relative=rel)


def _one_box_apart(src, dst):
    """The (row, col, comp) of the single box dst adds to src, else None."""
    diff = [k for k in range(len(src)) if src[k] != dst[k]]
    if len(diff) != 1:
        return None
    k = diff[0]
    a, b = src[k], dst[k]
    if len(b) == len(a) + 1 and b[:-1] == a and b[-1] == 1:
        return (len(b), 1, k)
    if len(b) == len(a):
        rows = [i for i in range(len(a)) if a[i] != b[i]]
        if len(rows) == 1 and b[rows[0]] == a[rows[0]] + 1:
            return (rows[0] + 1, b[rows[0]], k)
    return None


def check_crystal(obj, op) -> dict:
    """Layers by rank from the empty multipartition; each edge adds one box
    whose content reduces to the edge's residue."""
    _require(
        isinstance(obj, dict) and set(obj) == {"e", "charge", "max_rank", "vertices", "edges"},
        f"output keys are {sorted(obj)}",
    )
    _require(obj["e"] == _e_field(op["e"]), f"e echoed as {obj['e']}")
    _require(obj["charge"] == list(op["charge"]), f"charge echoed as {obj['charge']}")
    _require(obj["max_rank"] == op["rank"], f"max_rank echoed as {obj['max_rank']}")
    charge, e = op["charge"], op["e"]
    level = len(charge)
    layers = [[parse_label(t) for t in layer] for layer in obj["vertices"]]
    _require(len(layers) == op["rank"] + 1, f"{len(layers)} layers for rank {op['rank']}")
    _require(layers[0] == [((),) * level], "layer 0 is not the empty multipartition")
    where = {}
    for n, layer in enumerate(layers):
        _require(len(set(layer)) == len(layer), f"layer {n} repeats a vertex")
        _require(
            set(layer) <= multipartitions(level, n),
            f"layer {n} holds a vertex that is not a level-{level} rank-{n} multipartition",
        )
        for mp in layer:
            where[mp] = n
    if level == 1:
        for n, layer in enumerate(layers):
            expected = len(partitions(n)) if e is None else count_e_regular(n, e)
            _require(len(layer) == expected, f"layer {n} has {len(layer)} vertices, not {expected}")
    reached = {((),) * level}
    arrows = set()
    for edge in obj["edges"]:
        src, dst, i = parse_label(edge["source"]), parse_label(edge["target"]), edge["residue"]
        name = f"{edge['source']} -{i}-> {edge['target']}"
        _require(src in where and dst in where, f"edge {name} leaves the component")
        _require((src, i) not in arrows, f"two {i}-edges leave {edge['source']}")
        arrows.add((src, i))
        box = _one_box_apart(src, dst)
        _require(box is not None, f"edge {name} does not add exactly one box")
        row, col, k = box
        content = col - row + charge[k]
        _require(
            content == i if e is None else (content - i) % e == 0 and 0 <= i < e,
            f"edge {name} adds a box of content {content}",
        )
        reached.add(dst)
    _require(reached == set(where), "a vertex has no incoming edge")
    return {"vertices": obj["vertices"]}


# -- abacus --------------------------------------------------------------


def _position_label(phi: int, d: int, e: int, l: int) -> int:
    c = (phi - 1) % e + 1
    return c + e * (d - 1) + e * l * ((phi - c) // e)


def bead_labels(mp, charge, e: int, count: int) -> list[int]:
    """The count largest position labels of the beads of a charged multipartition."""
    l = len(charge)
    out = []
    for d, (part, s) in enumerate(zip(mp, charge), start=1):
        for i in range(1, count + 1):
            row = part[i - 1] if i <= len(part) else 0
            out.append(_position_label(row + s + 1 - i, d, e, l))
    return sorted(out, reverse=True)[:count]


def min_faithful_r(mp, charge, e: int) -> int:
    """The least cut r whose r-th bead sits at its empty-partition place."""
    s_tot = sum(charge)
    count = 4 + len(charge) * (e + sum(map(len, mp)) + sum(abs(s) for s in charge))
    ks = bead_labels(mp, charge, e, count)
    for i, k in enumerate(ks, start=1):
        if k == s_tot + 1 - i:
            return i
    raise ValueError("bead count too small")  # cannot happen for the count above


def check_abacus(obj, op, tau_forward=None) -> dict:
    """Bead labels of the charged multipartition, read back by runner.

    The labels are recomputed from the labeling formula and decomposed
    again; each runner's beads must give back its component and charge.
    With ``tau_forward`` given, the program's own reader must return the
    input multipartition and charge too.
    """
    keys = {"r", "e", "l", "k", "w", "c", "d", "m", "phi", "a", "b", "zeta"}
    _require(isinstance(obj, dict) and set(obj) == keys, f"output keys are {sorted(obj)}")
    mp, charge, e = op["mp"], op["charge"], op["e"]
    l, r, k = len(charge), obj["r"], obj["k"]
    _require(obj["e"] == e and obj["l"] == l, f"e, l echoed as {obj['e']}, {obj['l']}")
    if op.get("r") is not None:
        _require(r == op["r"], f"r echoed as {r}")
    else:
        step = l * lcm(e, op["stable_for"])
        _require((r - sum(charge)) % step == 0, f"stable cut r={r} is not on a common corner")
        _require(
            r >= max(min_faithful_r(mp, charge, e), min_faithful_r(mp, charge, op["stable_for"])),
            f"stable cut r={r} is not faithful for both periods",
        )
    _require(k == bead_labels(mp, charge, e, r), "bead labels differ from the labeling formula")
    _require(k[-1] == sum(charge) + 1 - r, f"cut r={r} is not faithful")
    cs = [(x - 1) % e + 1 for x in k]
    ts = [(x - c) // e for x, c in zip(k, cs)]
    ds = [t % l + 1 for t in ts]
    ms = [(t - (d - 1)) // l for t, d in zip(ts, ds)]
    phis = [c + e * m for c, m in zip(cs, ms)]
    _require(
        (obj["c"], obj["d"], obj["m"], obj["phi"]) == (cs, ds, ms, phis),
        "label decomposition (c, d, m, phi) is wrong",
    )
    order = sorted(range(r), key=lambda i: (-ds[i], -phis[i]))
    _require(obj["w"] == [k[i] for i in order], "reading word w is not runner by runner")
    _require(obj["b"] == [ds[i] for i in order], "runner sequence b is wrong")
    _require(obj["zeta"] == [phis[i] for i in order], "column sequence zeta is wrong")
    _require(obj["a"] == sorted(cs), "a is not c sorted")
    for d in range(1, l + 1):
        beads = sorted((p for p, dd in zip(phis, ds) if dd == d), reverse=True)
        s = charge[d - 1]
        rows = [p - (s + 1 - i) for i, p in enumerate(beads, start=1)]
        part = tuple(x for x in rows if x)
        _require(
            part == mp[d - 1] and len(mp[d - 1]) <= len(beads),
            f"runner {d} reads back as {part}, not {mp[d - 1]}",
        )
    if tau_forward is not None:
        back = tau_forward(tuple(k), e, l)
        _require(
            back == (tuple(mp), tuple(charge)),
            f"tau_forward reads the labels back as {back}",
        )
    return {}


# -- order ---------------------------------------------------------------

RELATIONS = {"Greater": "Less", "Less": "Greater", "Equal": "Equal",
             "Incomparable": "Incomparable"}


def check_order(obj, op) -> dict:
    _require(
        isinstance(obj, dict) and set(obj) == {"left", "right", "charge", "relation"},
        f"output keys are {sorted(obj)}",
    )
    _require(
        (obj["left"], obj["right"]) == (format_label(op["left"]), format_label(op["right"])),
        "operands echoed wrongly",
    )
    _require(obj["charge"] == list(op["charge"]), f"charge echoed as {obj['charge']}")
    rel = obj["relation"]
    _require(rel in RELATIONS, f"unknown relation {rel!r}")
    _require((rel == "Equal") == (op["left"] == op["right"]), f"relation {rel} on {obj['left']}")
    return {"relation": rel}


# -- checks across operations --------------------------------------------


def check_antisymmetric(a: dict, b: dict) -> None:
    """order(x, y) and order(y, x) must be each other's reverse."""
    _require(
        RELATIONS[a["relation"]] == b["relation"],
        f"order is not antisymmetric: {a['relation']} one way, {b['relation']} the other",
    )


def check_same_output(a: dict, b: dict) -> None:
    """Once e exceeds the content spread, the finite-e canonical matrix and
    crystal vertices must equal those at e=inf."""
    _require(
        (a.get("matrix"), a.get("vertices")) == (b.get("matrix"), b.get("vertices")),
        "the finite-e and e=inf outputs differ",
    )


CHECKS = {
    "canonical": check_canonical,
    "factorize": check_factorize,
    "crystal": check_crystal,
    "abacus": check_abacus,
    "order": check_order,
}
