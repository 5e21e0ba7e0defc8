"""The boundary between the runtime and the reference routes.

fockdec.reference recomputes the runtime's results by independent routes,
so no command may run it and it may lean on the runtime only where that is
declared below.  The runtime, in turn, holds what the commands run: every
function and method of it is reached by a golden command line or by
``--help``, or is declared below with the reason it stays.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import fockdec
from test_golden_digests import CASES

PACKAGE = Path(fockdec.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every name fockdec.reference imports from the rest of the package
REFERENCE_IMPORTS = {
    "canonical": {
        "PeelingUnitriangularityViolated",
        # shared with canonical_basis on purpose: brute_force_basis solves in
        # the span of the same peeling monomials, which the mask kernel
        # forms; tests/test_canonical.py checks them against apply_f_divided
        "apply_peeling",
        "apply_peelings",
    },
    "combinatorics": {
        "Charge",
        "InvariantViolated",
        "Multipartition",
        # the i-node scan and box insertion of the tuple kernel, which the
        # crystal shares; the mask kernel uses neither
        "add_boxes",
        "empty",
        "format_multipartition",
        "gamma_sequence",
        "i_nodes",
    },
    "crystal": {"generate_component"},
    "factorize": {"PolyMatrix"},
    "fock": {"FockVector"},
    "laurent": {"ONE", "ZERO", "LaurentPoly", "bar_symmetric_part"},
}


def _package_imports(path: Path) -> dict[str, set[str]]:
    """Module of the package -> the names the file imports from it.

    ``import fockdec.x`` and ``from fockdec import x`` count as importing
    the module x itself, under the name "*".
    """
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "fockdec" or (
                node.module or ""
            ).startswith("fockdec."):
                module = (node.module or "").removeprefix("fockdec").lstrip(".")
                if module:
                    found.setdefault(module, set()).update(a.name for a in node.names)
                else:
                    for alias in node.names:
                        found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fockdec."):
                    found.setdefault(alias.name.split(".")[1], set()).add("*")
    return found


def _top_level_names(path: Path) -> set[str]:
    """Names a module defines at top level, dunders such as __all__ left out."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def test_reference_is_imported_by_no_runtime_module_and_imports_only_declared_names():
    runtime = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "reference")
    assert {p.stem for p in runtime} >= {"canonical", "cli", "crystal", "factorize", "fock"}
    for path in runtime:
        assert "reference" not in _package_imports(path), path.name
    assert _package_imports(PACKAGE / "reference.py") == REFERENCE_IMPORTS
    # a name moved into reference leaves no copy behind in the runtime
    ours = _top_level_names(PACKAGE / "reference.py")
    for path in runtime:
        assert not ours & _top_level_names(path), path.name


def test_the_cli_does_not_load_the_reference_module():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fockdec.cli; print('fockdec.reference' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"


# -- the runtime is what the commands run --------------------------------

# the runtime modules; reference.py is the cross-checks, __main__.py the
# entry point
RUNTIME = sorted(p for p in PACKAGE.glob("*.py") if p.stem not in {"reference", "__main__"})

# why a function that no golden command line calls stays in the runtime
DOCTEST = "doctest"  # a doctest of its module calls it
PROTOCOL = "protocol method"  # Python calls it for an operator or a builtin
GUARD = "immutability guard"  # it refuses to set an attribute
REFERENCE = "reference calls it"  # fockdec.reference calls it
BENCHMARK = "perfbench reads it"  # perfbench looks it up by name

# every runtime function and method that no golden command line (nor --help) calls
UNREACHED = {
    "abacus.tau_forward": BENCHMARK,
    "canonical.apply_peeling": BENCHMARK,
    "canonical.apply_peelings": REFERENCE,
    # canonical_basis enumerates its layer through layer_keys
    "combinatorics.enumerate_multipartitions": DOCTEST,
    "crystal.CrystalGraph.__setattr__": GUARD,
    "factorize.PolyMatrix.__setattr__": GUARD,
    # canonical_basis wraps its decoded entries with FockVector._of
    "fock.FockVector.__init__": PROTOCOL,
    "fock.FockVector.__add__": PROTOCOL,
    "fock.FockVector.scale": REFERENCE,
    "fock.FockVector.__eq__": PROTOCOL,
    "fock.FockVector.__str__": PROTOCOL,
    "fock.FockVector.__repr__": PROTOCOL,
    "laurent.LaurentPoly.from_pairs": DOCTEST,
    "laurent.LaurentPoly.__mul__": PROTOCOL,
    "laurent.LaurentPoly.__rmul__": PROTOCOL,
    "laurent.LaurentPoly.shift": REFERENCE,
    "laurent.LaurentPoly.__repr__": PROTOCOL,
    "laurent.LaurentPoly.to_pairs": REFERENCE,
}

# names perfbench reads with getattr or hasattr: a missing one turns a
# benchmark check off without failing
PERFBENCH_READS = {"abacus": "tau_forward", "canonical": "apply_peeling", "laurent": "KERNEL"}

# Runs the command lines read from stdin through cli.main under
# sys.setprofile and prints the (file, first line) of every code object
# called.  A fresh interpreter, so that no cache an earlier test filled
# (the cli's parser) keeps a function from being called.
PROFILE = """
import contextlib, io, json, sys
import fockdec.cli

called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

argvs = json.load(sys.stdin)
sys.setprofile(hook)
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        fockdec.cli.main(argv)
sys.setprofile(None)
json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in called}), sys.stdout)
"""


def _functions(path: Path) -> dict[int, str]:
    """First line -> dotted name of each function and method of a module,
    nested ones included.

    The first line is the one the function's code object reports: its
    first decorator's line, or else its def line.  Matching on it works on
    every supported Python; co_qualname is new in 3.11.
    """
    out = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), path.stem + ".")
    return out


def _perfbench_source() -> str:
    return "".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))


def test_every_runtime_function_is_reached_by_a_command_or_declared():
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE],
        # the golden command lines, and --help, whose text main writes too
        input=json.dumps([argv.split() for argv, _, _ in CASES] + [["--help"]]),
        capture_output=True,
        text=True,
        check=True,
    )
    called = {(Path(f).resolve(), line) for f, line in json.loads(proc.stdout)}
    unreached = {
        name
        for path in RUNTIME
        for line, name in _functions(path).items()
        if (path.resolve(), line) not in called
    }
    assert not unreached - UNREACHED.keys(), "never called: delete, move or declare"
    assert not UNREACHED.keys() - unreached, "declared, but a command calls it"


def test_each_declared_reason_holds():
    perfbench = _perfbench_source()
    reference_calls = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(ast.parse((PACKAGE / "reference.py").read_text()))
        if isinstance(node, ast.Call)
    }
    for name, reason in UNREACHED.items():
        module, attr = name.split(".")[0], name.rsplit(".", 1)[1]
        dunder = attr.startswith("__") and attr.endswith("__")
        if reason == DOCTEST:
            doctests = [
                line for line in (PACKAGE / f"{module}.py").read_text().splitlines()
                if line.lstrip().startswith(">>> ")
            ]
            assert any(attr in line for line in doctests), name
        elif reason == PROTOCOL:
            assert dunder and attr != "__setattr__", name
        elif reason == GUARD:
            assert attr == "__setattr__", name
        elif reason == REFERENCE:
            assert attr in reference_calls, name
        else:
            assert reason == BENCHMARK, name
            assert attr in perfbench, name


def test_the_names_perfbench_reads_exist():
    perfbench = _perfbench_source()
    for module, name in PERFBENCH_READS.items():
        assert name in perfbench, name
        assert hasattr(importlib.import_module(f"fockdec.{module}"), name), name
