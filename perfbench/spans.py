"""Spans around calls into fockdec's modules, recorded from outside.

The tracer replaces the module attributes through which fockdec calls one
layer from another (``fockdec.cli.verify``, ``fockdec.canonical.
generate_component`` and so on) with wrappers that record a span per call,
and puts the originals back when it is removed.  Nothing inside fockdec
changes.  Spans are kept in memory as (id, name, start, end, parent, op)
rows and written out by the runner when the run ends.

Counting work (basis vectors, crystal vertices) happens after the wrapped
call returns, inside a ``trace.count`` span, so it never lands in the self
time of a program layer.  ``fock.peel`` replays the peeling words of a
finished basis through ``apply_peeling`` as a span of its own.  An
attribute that a later version of fockdec no longer has is left unwrapped,
and its metrics read 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "SELF_TIME_METRICS"]

# per-layer metric name -> span name whose self time it reports
SELF_TIME_METRICS = {
    "factorize.verify_s": "factorize.verify",
    "factorize.extract_s": "factorize.extract",
    "factorize.basis_matrix_s": "factorize.basis_matrix",
    "canonical.busy_s": "canonical",
    "fock.peel_s": "fock.peel",
    "crystal.busy_s": "crystal",
    "combinatorics.enumerate_s": "combinatorics.enumerate",
    "abacus.busy_s": "abacus",
    "cli.render_s": "cli.main",
}


class Tracer:
    """Records spans and counts for one run; ``op`` tags what follows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [sid, name, time.perf_counter(), None, parent, self.op]
        self.spans.append(row)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            row[3] = time.perf_counter()

    def count(self, **amounts) -> None:
        self.counts[self.op].update(amounts)

    def _wrap(self, module, attr: str, name: str, after=None) -> bool:
        """Wrap module.attr if it exists; report whether it did."""
        original = getattr(module, attr, None)
        if original is None:
            return False

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def install(self, fockdec) -> None:
        """Wrap the calls between fockdec's layers."""
        cli, canonical, factorize = fockdec.cli, fockdec.canonical, fockdec.factorize

        def crystal_done(graph):
            with self.span("trace.count"):
                self.count(**{"crystal.vertices": sum(map(len, graph.layers))})

        def basis_done(basis):
            with self.span("trace.count"):
                corrections = getattr(basis, "corrections", {})
                self.count(**{
                    "canonical.vectors": len(basis.labels),
                    "canonical.corrections": sum(map(len, corrections.values())),
                    "canonical.support": sum(len(v.entries) for v in basis.vectors.values()),
                })
            if hasattr(canonical, "apply_peeling") and hasattr(basis, "peelings"):
                with self.span("fock.peel"):
                    terms = 0
                    for lab in basis.labels:
                        x = canonical.apply_peeling(basis.peelings[lab], basis.e, basis.charge)
                        terms += len(x.entries)
                    self.count(**{"fock.peel_terms": terms})

        def rows_done(rows):
            self.count(**{"combinatorics.rows": len(rows)})

        def abacus_done(_):
            self.count(**{"abacus.calls": 1})

        self._wrap(cli, "generate_component", "crystal", crystal_done)
        self._wrap(canonical, "generate_component", "crystal", crystal_done)
        if not self._wrap(cli, "canonical_basis_any_charge", "canonical", basis_done):
            self._wrap(cli, "canonical_basis", "canonical", basis_done)
        self._wrap(cli, "basis_matrix", "factorize.basis_matrix")
        self._wrap(cli, "extract_relative", "factorize.extract")
        self._wrap(cli, "verify", "factorize.verify")
        self._wrap(factorize, "enumerate_multipartitions", "combinatorics.enumerate",
                   rows_done)
        # not reported; keeps the order command's comparison out of cli.main's self time
        self._wrap(cli, "compare_dominance", "combinatorics.compare")
        for attr in ("tau_inverse", "reading_word", "stable_r", "ascii_art"):
            self._wrap(cli, attr, "abacus", abacus_done)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, Counter]:
        """Self time by span name, per operation id."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for sid, name, start, end, _, op in self.spans:
            out[op][name] += (end - start) - child_time[sid]
        return out
