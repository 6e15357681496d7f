"""Tracing from outside the package: wrap public functions, record spans.

``Tracer.install`` wraps every public function defined in a lieforge module
and the ``LatticeBuilder`` methods, then rebinds every module attribute that
refers to a wrapped function.  ``from .x import f`` makes ``f`` an attribute
of the importing module, so calls between modules are traced too.  Nothing
is wrapped unless ``install`` is called; ``uninstall`` restores the
originals.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at top level) and ``run_id``
numbers the CLI op that caused it.  Spans stay in memory until the caller
writes them out.

Besides time, the tracer reads exact work counters off returned objects:
lattice shapes, dk candidates scanned against kept, and the "N commutators
scanned" records of the Johnson suite.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

BUILDER_METHODS = ("add", "contains", "lattice")

_SCANNED = re.compile(r"^degree-\d+ image lattice rank \((\d+) commutators scanned\)$")


def self_times(spans) -> dict[str, list]:
    """Aggregate spans by name into ``[calls, self seconds]``.

    A span's self time is its duration minus the durations of its direct
    children; children lie inside their parent, so this is the part of the
    parent's interval that no child covers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out[name]
        agg[0] += 1
        agg[1] += (end - start) - child_time[i]
    return dict(out)


def lattice_shape(lat) -> tuple[int, int, int, int]:
    """(ambient dimension, rank, basis nonzeros, largest entry bit length)."""
    rows = lat.basis.entries
    nnz = sum(len(r) - r.count(0) for r in rows)
    bits = max((max(map(abs, r)).bit_length() for r in rows if r), default=0)
    return lat.ambient_dim, len(rows), nnz, bits


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.run_id = 0
        self.originals: dict = {}
        self._stack: list[int] = []
        self._restore: list = []
        self.reset_counters()

    def reset_counters(self):
        self.spans.clear()
        self.adds = 0
        self.adds_enlarged = 0
        self.add_nonzeros = 0
        self.add_length = 0
        self.lattice_max = [0, 0, 0, 0]  # ambient, rank, nnz, entry bits
        self.dk_seen: set[tuple[int, int]] = set()
        self.dk_scanned = 0
        self.dk_kept = 0
        self.johnson_scanned = 0
        self.johnson_kept = 0
        self.compose_out_terms = 0

    # -- span recording -------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock, tracer = self.spans, self._stack, self.clock, self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, tracer.run_id)
            if observe is not None:
                observe(result, args)
            return result

        self.originals[name] = fn
        return traced

    # -- counters read off returned objects -------------------------------

    def _on_add(self, enlarged, args):
        self.adds += 1
        self.adds_enlarged += bool(enlarged)
        vec = args[1]
        if isinstance(vec, (list, tuple)):
            self.add_length += len(vec)
            self.add_nonzeros += len(vec) - vec.count(0)

    def _on_lattice(self, lat, args):
        for i, v in enumerate(lattice_shape(lat)):
            self.lattice_max[i] = max(self.lattice_max[i], v)

    def _on_dk_component(self, comp, args):
        n, k = comp.rank_n, comp.degree
        if (n, k) in self.dk_seen:  # served from the lru cache
            return
        self.dk_seen.add((n, k))
        # dk_component scans every generator pair against the previous
        # degree's spanning list (against the single empty bracket at k = 1)
        prev = len(self.originals["dk.dk_component"](n, k - 1).spanning) if k > 1 else 1
        self.dk_scanned += n * (n - 1) // 2 * prev
        self.dk_kept += len(comp.spanning)

    def _on_johnson(self, report, args):
        for rec in report.records:
            m = _SCANNED.match(rec.description)
            if m:
                self.johnson_scanned += int(m.group(1))
                self.johnson_kept += int(rec.computed)

    def _on_compose(self, se, args):
        self.compose_out_terms += sum(len(s.coeffs) for s in se.images)

    # -- installation ---------------------------------------------------

    def install(self, modules, builder_cls):
        """Wrap public functions of ``modules`` and ``builder_cls`` methods."""
        observers = {
            "dk.dk_component": self._on_dk_component,
            "suites.verify_johnson_injectivity": self._on_johnson,
            "magnus.series_endo_compose": self._on_compose,
            "zlattice.LatticeBuilder.add": self._on_add,
            "zlattice.LatticeBuilder.lattice": self._on_lattice,
        }
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, observers.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        short = builder_cls.__module__.rsplit(".", 1)[-1]
        for meth in BUILDER_METHODS:
            fn = vars(builder_cls)[meth]
            name = f"{short}.{builder_cls.__name__}.{meth}"
            self._restore.append((builder_cls, meth, fn))
            setattr(builder_cls, meth, self.wrap(name, fn, observers.get(name)))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    def write(self, path):
        """Write the recorded spans, one tab-separated line each."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")
