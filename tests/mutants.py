"""A catalogue of mutants that the test suite must kill.

Each row names one small change to the source, the test files that must
catch it, and the claim those tests back.  The runner copies ``src/``,
``tests/``, ``perfbench/`` and README.md to a temporary directory, checks
that the unmutated copy passes every named test file, then, one mutant at
a time, requires the old text exactly once in its file, applies the
change, runs ``pytest -x -q`` on the mutant's test files (or single
tests, ``file.py::test``) in one subprocess, and requires a test failure.

Run from anywhere::

    python tests/mutants.py

Each report line names the side a mutant hits: the runtime, or the
tests-only cross-checks in reference.py.

Pytest does not collect this file (its name does not match test_*.py).
A mutant that survives is a finding: keep its row and add the test that
kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/fockdec
    old: str
    new: str
    tests: tuple[str, ...]  # files or file.py::test, relative to tests/
    claim: str

    @property
    def side(self) -> str:
        """The code the mutant hits: the runtime, or the tests-only cross-checks."""
        return "reference" if self.file == "reference.py" else "runtime"


MUTANTS = [
    Mutant(
        "single-exponents-off-by-one",
        "fock.py",
        "single = [k - j - 1 - (rems & -(low << 1)).bit_count() for j, low in enumerate(nodes)]",
        "single = [k - j - (rems & -(low << 1)).bit_count() for j, low in enumerate(nodes)]",
        ("test_fock.py::test_mask_scan_lists_the_nodes_and_exponents_of_i_nodes",),
        "f_i's exponents count the addable minus removable i-nodes above the new box",
    ),
    Mutant(
        "reduce-skips-correction",
        "canonical.py",
        "        if offender is None:\n            break\n",
        "        if True:\n            break\n",
        ("test_canonical.py",),
        "the elimination pass leaves every off-diagonal coefficient in v*Z[v]",
    ),
    Mutant(
        "transition-table-without-u",
        "fock.py",
        "key = (m, i, u)",
        "key = (m, i)",
        ("test_canonical.py",),
        "the transition table keeps the moves of each divided power f_i^(u) apart",
    ),
    Mutant(
        "good-addable-without-cancelling",
        "crystal.py",
        "        if pending:\n            pending -= 1\n        else:\n            good = add\n",
        "        good = add\n",
        ("test_crystal.py",),
        "the merge pass cancels removable-addable pairs like the signature rule",
    ),
    Mutant(
        "prefix-sums-without-first-entry",
        "combinatorics.py",
        "    if all(map(ge, a, b)):\n"
        "        return Ordering.EQUAL if a == b else Ordering.GREATER\n"
        "    return Ordering.LESS if all(map(le, a, b)) else Ordering.INCOMPARABLE\n",
        "    if all(map(ge, a[1:], b[1:])):\n"
        "        return Ordering.EQUAL if a == b else Ordering.GREATER\n"
        "    return Ordering.LESS if all(map(le, a[1:], b[1:])) else Ordering.INCOMPARABLE\n",
        ("test_combinatorics.py",),
        "dominance compares every prefix sum of the gamma sequences",
    ),
    Mutant(
        "extract-relative-takes-max",
        "factorize.py",
        "mu = min(resid.entries, key=position.__getitem__)",
        "mu = max(resid.entries, key=position.__getitem__)",
        ("test_factorize.py",),
        "extraction strips the gamma-greatest support term first",
    ),
    Mutant(
        "crystal-least-good-key",
        "crystal.py",
        "if best is None or best[0] < good[0]:",
        "if best is None or best[0] > good[0]:",
        ("test_canonical.py",),
        "a peeling word starts with the residue of the greatest good removable node",
    ),
    Mutant(
        "add-product-never-trims",
        "laurent.py",
        "        if not sc:\n            return LaurentPoly(lo, tuple(out))\n"
        "        return _normal(lo, out)\n",
        "        return LaurentPoly(lo, tuple(out))\n",
        ("test_laurent.py",),
        "every sum and difference comes back in normal form, with nonzero ends",
    ),
    Mutant(
        "difference-adds",
        "laurent.py",
        "return self.add_product(other, MINUS_ONE)",
        "return self.add_product(other, ONE)",
        ("test_laurent.py",),
        "a - b multiplies b by MINUS_ONE in the one multiply-add loop",
    ),
    Mutant(
        "gamma-key-without-component-offset",
        "combinatorics.py",
        "base[ci] = (s + off) * lv + ci",
        "base[ci] = (s + off) * lv",
        ("test_combinatorics.py",),
        "the integer gamma key orders entries of equal v by their component",
    ),
    Mutant(
        "inf-run-boundary-inclusive",
        "crystal.py",
        "        if rem[0] in groups:\n            groups[rem[0]][1].append(rem)\n",
        "        if rem[0] + 1 in groups:\n            groups[rem[0] + 1][1].append(rem)\n",
        ("test_crystal.py",),
        "at e=inf each content's removable nodes join that content's group of the modulus-1 scan",
    ),
    Mutant(
        "verify-order-arguments-swapped",
        "factorize.py",
        "compare_prefix_sums(key[lam], key[nu]) is Ordering.GREATER",
        "compare_prefix_sums(key[nu], key[lam]) is Ordering.GREATER",
        ("test_factorize.py",),
        "the order check requires each column label to dominate its rows' labels",
    ),
    Mutant(
        "verify-diagonal-taken-as-one",
        "factorize.py",
        "diagonal = [ZERO] * len(diag_row)",
        "diagonal = [ONE] * len(diag_row)",
        ("test_factorize.py",),
        "a relative matrix column without its diagonal cell fails the unitriangular check",
    ),
    Mutant(
        "verify-product-and-unitriangular-swapped",
        "factorize.py",
        "passes = (prod_ok, tri_ok, order_ok, pos_ok, spec_ok)",
        "passes = (tri_ok, prod_ok, order_ok, pos_ok, spec_ok)",
        ("test_factorize.py",),
        "each report entry carries the verdict of its own check",
    ),
    Mutant(
        "json-cell-indent-off-by-one-level",
        "factorize.py",
        '"," + i3 + "    ", i3 + "  ]"',
        '"," + i3 + "  ", i3 + "  ]"',
        ("test_factorize.py",),
        "the direct JSON text of a cell is json.dumps(indent=2) at its depth",
    ),
    Mutant(
        "reference-residue-of-absolute-content",
        "reference.py",
        "return c if e is None else c % e",
        "return c if e is None else abs(c) % e",
        ("test_combinatorics.py",),
        "the reference residue of a negative content is its class mod e",
    ),
    Mutant(
        "canonical-basis-one-word-at-a-time",
        "canonical.py",
        "_peel(list(peelings.values()), e, charge, n)",
        "[_peel([w], e, charge, n)[0] for w in peelings.values()]",
        ("test_canonical.py::test_each_distinct_suffix_is_applied_once",),
        "canonical_basis applies all peeling words of a rank in one pass over shared suffixes",
    ),
    Mutant(
        "peeling-memo-extends-the-wrong-suffix",
        "canonical.py",
        "apply_divided_power(vectors[seq[j + 1 :]], i, u, lv, masks, table)",
        "apply_divided_power(vectors[seq[k:]], i, u, lv, masks, table)",
        ("test_canonical.py",),
        "each step of a peeling word applies to the vector of the suffix after it",
    ),
    Mutant(
        "peeling-memo-never-reused",
        "canonical.py",
        "        while seq[k:] not in vectors:\n",
        "        while seq[k:]:\n",
        ("test_canonical.py::test_each_distinct_suffix_is_applied_once",),
        "apply_peelings applies each distinct nonempty suffix of its words once",
    ),
    Mutant(
        "crystal-merge-without-pending-count",
        "crystal.py",
        "pending += 1",
        "pending = 1",
        ("test_crystal.py",),
        "the merge pass cancels an addable node against each pending removable one",
    ),
    Mutant(
        "canonical-basis-closure-cycle",
        "canonical.py",
        "    for lam in reversed(verts_desc):\n"
        "        _build(keys[lam], monomials, label, vectors, corrections, building)\n",
        "    def build(lam):\n"
        "        return build, _build(keys[lam], monomials, label, vectors, corrections, building)\n"
        "\n"
        "    for lam in reversed(verts_desc):\n"
        "        build(lam)\n",
        ("test_lifetime.py",),
        "each canonical basis is freed by reference counting when its command ends",
    ),
    Mutant(
        "build-without-order-check",
        "canonical.py",
        "    if lam in building:\n",
        "    if False:\n",
        ("test_canonical.py::test_a_dependency_cycle_raises_order_violation",),
        "a dependency cycle between basis vectors raises OrderViolation",
    ),
    Mutant(
        "build-without-predecessor-check",
        "canonical.py",
        "    if lam not in monomials:\n",
        "    if False:\n",
        ("test_canonical.py::test_an_offender_that_is_no_label_raises_missing_predecessor",),
        "an offender that is no crystal vertex raises MissingPredecessor",
    ),
    Mutant(
        "write-failure-handler-narrowed",
        "cli.py",
        "    except OSError as exc:\n",
        "    except BrokenPipeError as exc:\n",
        ("test_cli.py::test_a_failed_write_exits_four_with_one_line",),
        "any failed write of the document, not only a closed pipe, is one line and exit 4",
    ),
    Mutant(
        "write-failure-leaves-the-buffer",
        "cli.py",
        "            os.dup2(null, fd)\n",
        "",
        ("test_cli.py::test_a_failed_write_exits_four_with_one_line",),
        "after a failed write the flush at interpreter exit adds nothing to stderr",
    ),
    Mutant(
        "kernel-removable-at-window-floor",
        "combinatorics.py",
        "for d in range(1 - n, n):",
        "for d in range(-n, n):",
        ("test_fock.py::test_mask_scan_lists_the_nodes_and_exponents_of_i_nodes",),
        "the floor bead of a window, under an empty row, is never a removable node",
    ),
    Mutant(
        "residue-mask-from-one-component",
        "combinatorics.py",
        "for s, b in zip(charge, _bead_bases(charge, n)):",
        "for s, b in zip(charge[:1], _bead_bases(charge, n)):",
        ("test_fock.py::test_mask_scan_lists_the_nodes_and_exponents_of_i_nodes",),
        "each residue mask holds the nodes of that residue in every component",
    ),
    Mutant(
        "offender-least-key",
        "canonical.py",
        "        offender = max(\n",
        "        offender = min(\n",
        ("test_canonical.py::test_offenders_are_cleared_greatest_key_first",),
        "the elimination clears the gamma-greatest offender, the greatest key, first",
    ),
]


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(str(copy / "tests" / t) for t in tests)],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def run(mutants: list[Mutant]) -> int:
    """Run the catalogue; return the number of problems (0 when all are killed)."""
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        # test_cli.py reads the README's command lines, test_reference.py
        # the names perfbench looks up
        shutil.copy2(ROOT / "README.md", copy / "README.md")
        shutil.copytree(
            ROOT / "perfbench", copy / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", "results"),
        )
        files = tuple(sorted({t for m in mutants for t in m.tests}))
        proc = _pytest(copy, files)
        if proc.returncode != 0:
            print(f"unmutated copy fails {' '.join(files)}:\n{proc.stdout}{proc.stderr}")
            return 1
        for m in mutants:
            path = copy / "src" / "fockdec" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name} [{m.side}]: old text found {text.count(m.old)} times in {m.file}")
                problems += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                proc = _pytest(copy, m.tests)
            finally:
                path.write_text(text)
            took = time.perf_counter() - start
            # pytest exits 1 when tests ran and some failed; 2-5 mean no verdict
            if proc.returncode == 1:
                killer = next(
                    (ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("FAILED ")),
                    "?",
                )
                print(f"killed   {m.name} [{m.side}] ({took:.1f} s) by {killer.rpartition('/')[2]}")
            else:
                print(f"SURVIVED {m.name} [{m.side}] (pytest exit {proc.returncode}): {m.claim}")
                problems += 1
    return problems


def main() -> int:
    start = time.perf_counter()
    problems = run(MUTANTS)
    print(f"{len(MUTANTS)} mutants, {problems} problems, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
