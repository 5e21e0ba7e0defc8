"""Compare the compiled and pure-Python polynomial kernels.

Times the raw kernel primitives on identical inputs, then an end-to-end
canonical-basis factorization in whichever kernel the current process
selected.  To time the other kernel end to end, rerun with FOCKDEC_PURE=1:

    python3 benchmarks/bench_kernels.py
    FOCKDEC_PURE=1 python3 benchmarks/bench_kernels.py
"""

from __future__ import annotations

import random
import time

from fockdec import _poly_py
from fockdec.canonical import canonical_basis
from fockdec.factorize import basis_matrix, extract_relative
from fockdec.laurent import KERNEL

try:
    from fockdec import _poly_cy
except ImportError:
    _poly_cy = None


def random_poly(rng, size):
    val = rng.randint(-10, 10)
    coeffs = [rng.randint(-50, 50) for _ in range(size)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    return val, tuple(coeffs)


def bench_primitive(kernel, name, pairs, repeat):
    func = getattr(kernel, name)
    start = time.perf_counter()
    for _ in range(repeat):
        for (av, ac), (bv, bc) in pairs:
            if name in ("add", "mul"):
                func(av, ac, bv, bc)
            else:
                func(av, ac)
    return time.perf_counter() - start


def bench_exact_div(kernel, pairs, repeat):
    products = [
        (kernel.mul(av, ac, bv, bc), (bv, bc)) for (av, ac), (bv, bc) in pairs
    ]
    start = time.perf_counter()
    for _ in range(repeat):
        for (pv, pc), (bv, bc) in products:
            kernel.exact_div(pv, pc, bv, bc)
    return time.perf_counter() - start


def main():
    rng = random.Random(20240817)
    pairs = [
        (random_poly(rng, rng.randint(1, 12)), random_poly(rng, rng.randint(1, 12)))
        for _ in range(400)
    ]
    repeat = 200

    kernels = [("python", _poly_py)]
    if _poly_cy is not None:
        kernels.append(("cython", _poly_cy))

    print(f"primitive benchmarks ({len(pairs)} operand pairs x {repeat} rounds)")
    rows = {}
    for label, kernel in kernels:
        for op in ("add", "mul", "bar"):
            rows[label, op] = bench_primitive(kernel, op, pairs, repeat)
        rows[label, "exact_div"] = bench_exact_div(kernel, pairs, repeat)
    for op in ("add", "mul", "bar", "exact_div"):
        line = f"  {op:10s}"
        for label, _ in kernels:
            line += f"  {label}: {rows[label, op]:7.3f}s"
        if len(kernels) == 2:
            ratio = rows["python", op] / max(rows["cython", op], 1e-9)
            line += f"  speedup: {ratio:4.1f}x"
        print(line)

    print(f"\nend-to-end with the selected kernel ({KERNEL})")
    start = time.perf_counter()
    ge = canonical_basis(2, (0, 0), 8)
    gi = canonical_basis(None, (0, 0), 8)
    extract_relative(ge, gi)
    basis_matrix(ge)
    print(f"  factorize e=2 charge=0,0 rank=8: {time.perf_counter() - start:.3f}s")


if __name__ == "__main__":
    main()
