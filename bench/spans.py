"""In-memory span tracer that wraps exacthom's public functions from outside.

``install()`` patches each layer boundary at every name it is called
through: class attributes for methods, and the module global at each call
site for functions imported by name.  A span records
(id, parent id, name, start ns, end ns, command index).  Counts are taken
at the same boundaries, outside the timed interval of the span.  A parent's
self time excludes the whole wrapper interval of each child, so the
tracer's own work (counts and bookkeeping) is charged to no layer.  The
program's files are never edited; the patches live only in the traced
process.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # [span id, name, start, ns covered by children]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.command = -1
        self._reps = {}  # id -> object, held so that ids are not reused

    def enter(self, name: str) -> None:
        self.stack.append([len(self.spans) + len(self.stack), name, _clock(), 0])

    def exit(self) -> None:
        end = _clock()
        sid, name, start, covered = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.calls[name] += 1
        self.self_ns[name] += end - start - covered
        self.spans.append((sid, parent, name, start, end, self.command))

    def cover(self, since: int) -> None:
        """Mark [since, now] as covered in the enclosing span: a child's wrapper interval."""
        if self.stack:
            self.stack[-1][3] += _clock() - since

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result) record counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            since = _clock()
            try:
                if before is not None:
                    before(*args, **kwargs)
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
                if after is not None:
                    after(result)
                return result
            finally:
                self.cover(since)

        return wrapper

    def span_each_item(self, name: str, fn):
        """Generator function whose every next() is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                since = _clock()
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                    self.cover(since)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    # -- counts ----------------------------------------------------------

    def _matmul_counts(self, a, b) -> None:
        if a.cols != b.rows:
            return
        m, k, n = a.rows, a.cols, b.cols
        ea, eb = a.entries(), b.entries()
        col_nnz = [sum(1 for i in range(m) if ea[i * k + j]) for j in range(k)]
        row_nnz = [sum(1 for x in eb[j * n:(j + 1) * n] if x) for j in range(k)]
        self.counts["rational.matmul.madds"] += m * k * n
        self.counts["rational.matmul.useful"] += sum(c * r for c, r in zip(col_nnz, row_nnz))

    def _rank_counts(self, a) -> None:
        self.counts["rational.rank.entries"] += a.rows * a.cols

    def _hom_complex_counts(self, result) -> None:
        cx = result.complex
        self.counts["quiver.hom_complex.dim"] += cx.space.total_dim()
        for blk in cx.differential.blocks().values():
            entries = blk.entries()
            self.counts["quiver.hom_complex.entries"] += len(entries)
            self.counts["quiver.hom_complex.nonzero"] += sum(1 for x in entries if x)

    def _first_violation_counts(self, rep) -> None:
        self._reps.setdefault(id(rep), rep)

    def _parse_counts(self, path) -> None:
        self.counts["io.parse.bytes"] += os.path.getsize(path)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, by metric name."""
        c, calls, self_s = self.counts, self.calls, lambda n: self.self_ns[n] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "rational.matmul.calls": calls["rational.matmul"],
            "rational.matmul.self_s": self_s("rational.matmul"),
            "rational.matmul.madds": c["rational.matmul.madds"],
            "rational.matmul.nonzero_frac": ratio(c["rational.matmul.useful"], c["rational.matmul.madds"]),
            "rational.rank.calls": calls["rational.rank"],
            "rational.rank.self_s": self_s("rational.rank"),
            "rational.rank.entries": c["rational.rank.entries"],
            "rational.kernel.calls": calls["rational.kernel"],
            "rational.kernel.self_s": self_s("rational.kernel"),
            "graded.compose.calls": calls["graded.compose"],
            "graded.compose.self_s": self_s("graded.compose"),
            "graded.hom_basis.self_s": self_s("graded.hom_basis"),
            "graded.hom_coordinates.calls": calls["graded.hom_coordinates"],
            "graded.hom_coordinates.self_s": self_s("graded.hom_coordinates"),
            "complexes.validate.calls": calls["complexes.validate"],
            "complexes.validate.self_s": self_s("complexes.validate"),
            "complexes.validate.per_complex": ratio(calls["complexes.validate"], c["complexes.constructed"]),
            "complexes.cohomology.calls": calls["complexes.cohomology"],
            "complexes.cohomology.self_s": self_s("complexes.cohomology"),
            "cellular.chain_complex.calls": calls["cellular.chain_complex"],
            "cellular.chain_complex.self_s": self_s("cellular.chain_complex"),
            "quiver.hom_complex.calls": calls["quiver.hom_complex"],
            "quiver.hom_complex.self_s": self_s("quiver.hom_complex"),
            "quiver.hom_complex.dim": c["quiver.hom_complex.dim"],
            "quiver.hom_complex.nonzero_frac": ratio(c["quiver.hom_complex.nonzero"], c["quiver.hom_complex.entries"]),
            "quiver.first_violation.calls": calls["quiver.first_violation"],
            "quiver.first_violation.self_s": self_s("quiver.first_violation"),
            "quiver.first_violation.per_rep": ratio(calls["quiver.first_violation"], len(self._reps)),
            "quiver.euler_of_hom.calls": calls["quiver.euler_of_hom"],
            "classify.sample.calls": calls["classify.sample"],
            "classify.sample.self_s": self_s("classify.sample"),
            "classify.enumerate.items": c["classify.enumerate.items"],
            "classify.enumerate.self_s": self_s("classify.enumerate"),
            "classify.commuting_pairs.self_s": self_s("classify.commuting_pairs"),
            "io.parse.calls": calls["io.parse"],
            "io.parse.self_s": self_s("io.parse"),
            "io.parse.bytes": c["io.parse.bytes"],
            "cli.self_s": self_s("cli"),
        }

    def dump(self, path: str) -> None:
        """Spans as JSON: one [id, parent, name, start_ns, end_ns, command] each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "command"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def install() -> Tracer:
    """Patch every traced boundary of the imported exacthom modules."""
    from exacthom import cellular, classify, cli, complexes, graded, quiver, rational

    t = Tracer()

    construct = complexes.CochainComplex.__init__

    @functools.wraps(construct)
    def counted_construct(*args, **kwargs):
        t.counts["complexes.constructed"] += 1
        construct(*args, **kwargs)

    patches = [
        (rational.RationalMatrix, "__matmul__", t.span("rational.matmul", rational.RationalMatrix.__matmul__, before=t._matmul_counts)),
        (rational.RationalMatrix, "rank", t.span("rational.rank", rational.RationalMatrix.rank, before=t._rank_counts)),
        (rational.RationalMatrix, "kernel_basis", t.span("rational.kernel", rational.RationalMatrix.kernel_basis)),
        (graded.GradedMap, "__matmul__", t.span("graded.compose", graded.GradedMap.__matmul__)),
        (complexes.CochainComplex, "__init__", counted_construct),
        (complexes.CochainComplex, "validate", t.span("complexes.validate", complexes.CochainComplex.validate)),
        (complexes.CochainComplex, "cohomology", t.span("complexes.cohomology", complexes.CochainComplex.cohomology)),
        (quiver.Representation, "first_violation", t.span("quiver.first_violation", quiver.Representation.first_violation, before=t._first_violation_counts)),
    ]
    hom_basis = t.span("graded.hom_basis", quiver.hom_basis)
    hom_coordinates = t.span("graded.hom_coordinates", quiver.hom_coordinates)
    hom_complex = t.span("quiver.hom_complex", quiver.hom_complex, after=t._hom_complex_counts)
    euler_of_hom = t.span("quiver.euler_of_hom", quiver.euler_of_hom)
    chain_complex_of = t.span("cellular.chain_complex", cellular.chain_complex_of)
    patches += [
        (quiver, "hom_basis", hom_basis),
        (quiver, "hom_coordinates", hom_coordinates),
        (quiver, "hom_complex", hom_complex),
        (cli, "hom_complex", hom_complex),
        (quiver, "euler_of_hom", euler_of_hom),
        (classify, "euler_of_hom", euler_of_hom),
        (cellular, "chain_complex_of", chain_complex_of),
        (cli, "chain_complex_of", chain_complex_of),
        (classify, "sample_representation_at", t.span("classify.sample", classify.sample_representation_at)),
        (classify, "enumerate_sphere_representations", t.span_each_item("classify.enumerate", classify.enumerate_sphere_representations)),
        (classify, "enumerate_torus_representations", t.span_each_item("classify.enumerate", classify.enumerate_torus_representations)),
        (classify, "commuting_invertible_pairs", t.span("classify.commuting_pairs", classify.commuting_invertible_pairs)),
    ]
    for name in ("load_homology_input", "load_cell_complex", "load_representation"):
        patches.append((cli, name, t.span("io.parse", getattr(cli, name), before=t._parse_counts)))
    for name in ("cmd_homology", "cmd_classify", "cmd_floer", "cmd_verify"):
        patches.append((cli, name, t.span("cli", getattr(cli, name))))
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    return t
