"""The boundary between the runtime and the reference routes.

fockdec.reference recomputes the runtime's results by independent routes,
so no command may run it and it may lean on the runtime only where that is
declared below.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import fockdec

PACKAGE = Path(fockdec.__file__).parent

# every name fockdec.reference imports from the rest of the package
REFERENCE_IMPORTS = {
    "canonical": {
        "PeelingUnitriangularityViolated",
        # shared with canonical_basis on purpose: brute_force_basis solves in
        # the span of the same peeling monomials, and tests/test_fock.py
        # checks this operator kernel against the rescanning fock.apply_f
        "apply_peeling",
        "apply_peelings",
    },
    "combinatorics": {
        "Charge",
        "InvariantViolated",
        "Multipartition",
        "empty",
        "format_multipartition",
        "gamma_sequence",
    },
    "crystal": {"generate_component"},
    "factorize": {"PolyMatrix"},
    "fock": {"FockVector", "apply_f"},
    "laurent": {"ONE", "ZERO", "LaurentPoly", "bar_symmetric_part", "exact_div"},
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
