"""The benchmark's four workloads, built from a seed.

A workload is a list of operations, one round; a run repeats whole rounds,
so every run attempts the same operations in the same proportions.  Each
operation is a dict holding the CLI ``argv`` and the parameters the output
checks need.  ``pair`` names operations whose outputs are checked against
each other.  Reference operations are run once after the timed rounds,
only to be compared with a timed operation; they are not timed or counted.

Why each workload:

factorize-l3  verify-heavy factorizations at levels 2-3 (the dense products
              in verify take 45-80% of each operation), so the matrix
              layer shows.
canonical-l2  basis construction at e=2, e=inf and level 1, where verify
              and relative extraction never run: a matrix-layer change
              must leave it unchanged.
wide-e        very large e with small ranks: the range(e) residue scans in
              crystal generation and peeling take nearly all the time and
              the matrix layer is idle.
sweep-small   hundreds of small operations over all five commands, where
              per-call overhead, rendering, abacus and order dominate.  It
              also carries a fixed, seed-independent block of level-3
              non-dominant charges, the inputs that reach the charge
              reduction route; the seeded part draws level-3 charges from
              the dominant ones only, so which operations fail does not
              depend on the seed.
"""

from __future__ import annotations

import random

from checks import format_label, min_faithful_r, multipartitions

__all__ = ["WORKLOADS", "build"]


def _matrix_op(cmd, e, charge, rank, **extra):
    argv = [
        cmd, "--e", "inf" if e is None else str(e),
        f"--charge={','.join(map(str, charge))}", "--rank", str(rank),
        "--format", "json",
    ]
    if rank > 12:
        argv += ["--guard", str(rank)]
    return {"cmd": cmd, "argv": argv, "e": e, "charge": tuple(charge), "rank": rank, **extra}


def _abacus_op(mp, charge, e, r=None, stable_for=None):
    argv = ["abacus", f"--multipartition={format_label(mp)}",
            f"--charge={','.join(map(str, charge))}", "--e", str(e), "--format", "json"]
    argv += ["--r", str(r)] if r is not None else ["--stable-for", str(stable_for)]
    return {"cmd": "abacus", "argv": argv, "mp": mp, "charge": tuple(charge), "e": e,
            "r": r, "stable_for": stable_for}


def _order_op(left, right, charge, pair):
    argv = ["order", f"--left={format_label(left)}", f"--right={format_label(right)}",
            f"--charge={','.join(map(str, charge))}", "--format", "json"]
    return {"cmd": "order", "argv": argv, "left": left, "right": right,
            "charge": tuple(charge), "pair": pair}


# In the large-operation workloads a round holds three operations of
# well-separated cost, which puts the median in the middle of one
# operation's own times, not on the boundary between two.


def factorize_l3(rng):
    ops = [
        _matrix_op("factorize", 3, (0, 0), 8),
        _matrix_op("factorize", 3, (0, 1, 2), 6),
        _matrix_op("factorize", 4, (0, 1, 2), 6),
    ]
    rng.shuffle(ops)
    return ops, []


def canonical_l2(rng):
    # A uniform shift of a nonpositive charge at e=inf is an isomorphism of
    # Fock spaces that leaves gamma-sequence lengths alone, so the seed
    # varies the input without varying the work.
    s = rng.choice((-2, -1, 0))
    ops = [
        _matrix_op("canonical", 2, (0, 0), 11),
        _matrix_op("canonical", None, (s, s), 10),
        _matrix_op("canonical", 3, (0,), 15),
    ]
    rng.shuffle(ops)
    return ops, []


def wide_e(rng):
    # e well above the content spread, so each finite-e output must equal
    # its e=inf reference; the seed moves e in a narrow window.
    e = 2000 + rng.randrange(16)
    configs = [("canonical", (0, 0), 3), ("canonical", (0, 1, 2), 3),
               ("crystal", (0, 0, 1), 3)]
    ops, refs = [], []
    for cmd, charge, rank in configs:
        pair = f"wide:{cmd}:{charge}:{rank}"
        ops.append(_matrix_op(cmd, e, charge, rank, pair=pair))
        refs.append(_matrix_op(cmd, None, charge, rank, pair=pair))
    rng.shuffle(ops)
    return ops, refs


# The largest rank per (command, level), so no operation is large.  Every
# rank from 1 to it meets every e, SWEEP_REPEATS times, so the seed draws
# only charges and multipartitions and the mix of sizes is the same in
# every run.
SWEEP_REPEATS = 2
SWEEP_RANKS = {
    "crystal": {1: 8, 2: 5, 3: 4},
    "canonical": {1: 7, 2: 5, 3: 4},
    "factorize": {1: 7, 2: 4, 3: 3},
}
SWEEP_PER_LEVEL = 20
SWEEP_PAIRS_PER_LEVEL = 10
# Level-3 non-dominant charges reach the charge-reduction route.  The
# block is the same for every seed: which of its operations fail is a
# property of the program, not of the draw.
REDUCTION_CHARGES = ((2, 0, 1), (0, 0, -1), (-2, 1, 0), (1, -1, 2))
REDUCTION_CONFIGS = (("canonical", None, 3), ("canonical", 3, 3),
                     ("factorize", 2, 4), ("factorize", 4, 3))


def _random_charge(rng, level):
    return tuple(rng.randint(-2, 2) for _ in range(level))


def _dominant_charge(rng, level, e):
    if e is None:
        return tuple(sorted(_random_charge(rng, level)))
    return tuple(sorted(rng.randrange(min(e, 3)) for _ in range(level)))


def _random_mp(rng, level, rank):
    return rng.choice(sorted(multipartitions(level, rank)))


def sweep_small(rng):
    ops = []
    for cmd, ranks in SWEEP_RANKS.items():
        moduli = (2, 3, 4) if cmd == "factorize" else (2, 3, 4, None)
        for level, top in ranks.items():
            for rank in range(1, top + 1):
                for e in moduli * SWEEP_REPEATS:
                    if level == 3 and cmd != "crystal":
                        charge = _dominant_charge(rng, level, e)
                    else:
                        charge = _random_charge(rng, level)
                    ops.append(_matrix_op(cmd, e, charge, rank))
    for level in (1, 2, 3):
        for _ in range(SWEEP_PER_LEVEL):
            e = rng.choice((2, 3, 4))
            charge = _random_charge(rng, level)
            mp = _random_mp(rng, level, rng.randint(0, 6))
            if rng.random() < 0.5:
                r = min_faithful_r(mp, charge, e) + rng.randrange(4)
                ops.append(_abacus_op(mp, charge, e, r=r))
            else:
                ops.append(_abacus_op(mp, charge, e, stable_for=rng.choice((2, 3, 4))))
        for k in range(SWEEP_PAIRS_PER_LEVEL):
            rank = rng.randint(1, 6)
            left, right = _random_mp(rng, level, rank), _random_mp(rng, level, rank)
            charge = _random_charge(rng, level)
            pair = f"order:{level}:{k}"
            ops.append(_order_op(left, right, charge, pair))
            ops.append(_order_op(right, left, charge, pair))
    rng.shuffle(ops)
    for charge in REDUCTION_CHARGES:
        for cmd, e, rank in REDUCTION_CONFIGS:
            ops.append(_matrix_op(cmd, e, charge, rank))
    return ops, []


WORKLOADS = {
    "factorize-l3": factorize_l3,
    "canonical-l2": canonical_l2,
    "wide-e": wide_e,
    "sweep-small": sweep_small,
}


def build(name: str, seed: int):
    """(round operations, reference operations) of a workload for a seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
