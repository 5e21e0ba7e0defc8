"""Every object a command makes is freed by reference counting.

A reference cycle keeps its objects alive until the cyclic collector
runs, so a cycle through a canonical basis would keep the whole basis in
memory after its command ends.  The test runs each golden command line
through cli.main with gc.DEBUG_SAVEALL set, so that every object the
collector finds unreachable, during the command or in one collection
after it, is kept in gc.garbage, and it requires that none of them comes
from fockdec.

The standard library leaves cycles of its own, which the test ignores
because their objects are not fockdec's:
- argparse: its HelpFormatter sections refer to their parents; the first
  parse_args builds the parser and with it such formatters, and a usage
  error formats one;
- json.dumps(indent=2): the pure-Python encoder's nested functions refer
  to each other.
"""

from __future__ import annotations

import json
import subprocess
import sys

from test_golden_digests import CASES

# Runs the command lines read from stdin through cli.main and prints, per
# command, the fockdec types and functions among the objects the cyclic
# collector found unreachable.  A fresh interpreter, so that no earlier
# test's garbage or cached parser is counted.
COLLECT = """
import contextlib, gc, io, json, sys, types
import fockdec.cli

# module.qualname of a fockdec function or of a fockdec object's type
def ours(obj):
    owner = obj if isinstance(obj, types.FunctionType) else type(obj)
    if (owner.__module__ or "").split(".")[0] == "fockdec":
        return f"{owner.__module__}.{owner.__qualname__}"
    return None

gc.collect()
found = {}
for argv in json.load(sys.stdin):
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            fockdec.cli.main(argv)
        gc.collect()
    finally:
        gc.set_debug(flags)
    names = sorted(set(map(ours, gc.garbage)) - {None})
    if names:
        found[" ".join(argv)] = names
    gc.garbage.clear()
    gc.collect()
json.dump(found, sys.stdout)
"""


def test_no_command_leaves_a_fockdec_object_in_a_reference_cycle():
    proc = subprocess.run(
        [sys.executable, "-c", COLLECT],
        input=json.dumps([argv.split() for argv, _, _ in CASES]),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == {}
