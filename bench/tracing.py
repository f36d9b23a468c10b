"""Opt-in tracing of godex layers, installed from outside the package.

`Tracer.install(g)` wraps the public functions and methods listed in
`TARGETS` with timing spans (or plain call counters) in every imported
`godex` module that binds them, so a name imported with `from .site import
sections` is wrapped in the importing module too.  Methods are wrapped on
their class.  The wrappers do nothing but call through while the tracer is
inactive.

A span records its name, start, end, parent span and instance id.  Spans
stay in memory (packed arrays) until `write` is called at the end of a run.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute path, metric prefix, kind); kind "span" times the call,
# kind "count" only counts it.
TARGETS = (
    ("exactlin", "Matrix.rref", "exactlin.rref", "span"),
    ("exactlin", "Matrix.solve", "exactlin.solve", "span"),
    ("exactlin", "Matrix.kernel_matrix", "exactlin.kernel_matrix", "span"),
    ("exactlin", "Matrix.__init__", "exactlin.matrix_new", "count"),
    ("exactlin", "Matrix.__matmul__", "exactlin.matmul", "span"),
    ("exactlin", "Matrix.assemble", "exactlin.assemble", "count"),
    ("complexes", "CochainComplex.cohomology", "complexes.cohomology", "span"),
    ("complexes", "is_quis", "complexes.is_quis", "span"),
    ("site", "sections", "site.sections", "span"),
    ("site", "sections_map", "site.sections_map", "span"),
    ("site", "Poset.up_set", "site.up_set", "count"),
    ("site", "Poset.covers", "site.covers", "count"),
    ("godement", "apply_T", "godement.apply_T", "span"),
    ("godement", "t_apply_map", "godement.t_apply_map", "span"),
    ("godement", "godement_resolution", "godement.godement_resolution", "span"),
    ("godement", "hypercohomology_sheaf", "godement.hypercohomology_sheaf", "span"),
    ("godement", "reduced_hypercohomology", "godement.reduced_hypercohomology", "span"),
    ("cosimplicial", "simple", "cosimplicial.simple", "span"),
    ("cosimplicial", "simple_map", "cosimplicial.simple_map", "span"),
    ("cosimplicial", "aw_map", "cosimplicial.aw_map", "span"),
    ("filtered", "er_page", "filtered.er_page", "span"),
    ("filtered", "filtered_simple", "filtered.filtered_simple", "span"),
    ("oracle", "replacement_complex", "oracle.replacement_complex", "span"),
)

# The per-layer metrics a traced run reports, with their units, in
# BENCHMARK.json order.  A `.share` is the layer's self time as a share of the
# pass's timed work (absolute self seconds go to the run report); a layer a
# workload never calls reads 0.  `trace.instances_per_s` is the traced
# throughput; untraced minus traced is the tracing overhead.
LAYER_METRICS = (
    ("exactlin.rref.calls", "count"), ("exactlin.rref.share", "share"),
    ("exactlin.rref.cells", "count"), ("exactlin.rref.work", "count"),
    ("exactlin.rref.density", "share"),
    ("exactlin.solve.calls", "count"), ("exactlin.solve.share", "share"),
    ("exactlin.kernel_matrix.calls", "count"), ("exactlin.kernel_matrix.share", "share"),
    ("exactlin.matrix_new.calls", "count"),
    ("exactlin.matmul.calls", "count"), ("exactlin.matmul.share", "share"),
    ("exactlin.assemble.calls", "count"),
    ("complexes.cohomology.calls", "count"), ("complexes.cohomology.share", "share"),
    ("complexes.is_quis.calls", "count"), ("complexes.is_quis.share", "share"),
    ("site.sections.calls", "count"), ("site.sections.share", "share"),
    ("site.sections_map.calls", "count"), ("site.sections_map.share", "share"),
    ("site.up_set.calls", "count"), ("site.covers.calls", "count"),
    ("godement.apply_T.calls", "count"), ("godement.apply_T.share", "share"),
    ("godement.t_apply_map.calls", "count"), ("godement.t_apply_map.share", "share"),
    ("godement.godement_resolution.calls", "count"),
    ("godement.godement_resolution.share", "share"),
    ("godement.hypercohomology_sheaf.share", "share"),
    ("godement.reduced_hypercohomology.share", "share"),
    ("godement.stalk_dim.max", "count"),
    ("cosimplicial.simple.calls", "count"), ("cosimplicial.simple.share", "share"),
    ("cosimplicial.simple_map.calls", "count"), ("cosimplicial.simple_map.share", "share"),
    ("cosimplicial.aw_map.share", "share"),
    ("filtered.er_page.calls", "count"), ("filtered.er_page.share", "share"),
    ("filtered.filtered_simple.share", "share"),
    ("oracle.replacement_complex.calls", "count"), ("oracle.replacement_complex.share", "share"),
    ("trace.instances_per_s", "1/s"),
)


def _rref_counts(m, result):
    """Cells, work (rows * cols * rank) and nonzero entries of one rref input."""
    rows, cols = m.rows, m.cols
    rank = len(result[1])
    dense = getattr(m, "_a", None)
    if dense is not None:
        nnz = int((dense != 0).sum())
    else:
        nnz = sum(1 for row in m.rows_list() for v in row if v != 0)
    return rows * cols, rows * cols * rank, nnz


def _max_stalk_dim(hyper):
    """Largest total stalk dimension of the H_X(F) in a Hypercohomology."""
    H = hyper.H
    return max((H.stalk(x).total_dim() for x in H.poset.elements), default=0)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.active = False
        self.instance = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # ---- installation ---------------------------------------------------

    def install(self, g) -> None:
        """Wrap every target in the freshly imported godex modules of `g`."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "godex" or n.startswith("godex.")) and m is not None]
        for mod_name, path, metric, kind in TARGETS:
            owner = getattr(g, mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(raw.__func__, metric, kind)))
                else:
                    setattr(cls, attr, self._wrap(raw, metric, kind))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(fn, metric, kind)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)

    def _wrap(self, fn, metric, kind):
        tracer = self
        self.calls.setdefault(metric, 0)
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[metric] += 1
                return fn(*args, **kwargs)
            return counted

        name_id = self._name_id(metric)
        self.self_s.setdefault(metric, 0.0)
        post = {"exactlin.rref": self._after_rref,
                "godement.hypercohomology_sheaf": self._after_hyper}.get(metric)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, metric)
            if post is not None:
                post(args, result)
            return result
        return spanned

    def _name_id(self, metric: str) -> int:
        if metric not in self._ids:
            self._ids[metric] = len(self.names)
            self.names.append(metric)
        return self._ids[metric]

    # ---- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, metric: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        _, child = self._stack.pop()
        dur = end - self.span_start[idx]
        self.calls[metric] += 1
        self.self_s[metric] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _after_rref(self, args, result) -> None:
        cells, work, nnz = _rref_counts(args[0], result)
        c = self.counters
        c["exactlin.rref.cells"] = c.get("exactlin.rref.cells", 0) + cells
        c["exactlin.rref.work"] = c.get("exactlin.rref.work", 0) + work
        c["exactlin.rref.nnz"] = c.get("exactlin.rref.nnz", 0) + nnz

    def _after_hyper(self, args, result) -> None:
        key = "godement.stalk_dim.max"
        self.counters[key] = max(self.counters.get(key, 0), _max_stalk_dim(result))

    # ---- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-layer values so far, keyed by metric name."""
        out = {}
        for metric, n in self.calls.items():
            out[metric + ".calls"] = n
        for metric, s in self.self_s.items():
            out[metric + ".s"] = s
        c = self.counters
        out["exactlin.rref.cells"] = c.get("exactlin.rref.cells", 0)
        out["exactlin.rref.work"] = c.get("exactlin.rref.work", 0)
        out["exactlin.rref.nnz"] = c.get("exactlin.rref.nnz", 0)
        out["godement.stalk_dim.max"] = c.get("godement.stalk_dim.max", 0)
        return out

    def write(self, path) -> None:
        """Write every span recorded in this run as one compressed archive."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            instance=np.frombuffer(self.span_instance, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


def pass_layers(before: dict, after: dict, pass_s: float) -> dict:
    """Per-layer values of one pass from two cumulative snapshots."""
    out = {k: after[k] - before.get(k, 0) for k in after if k != "godement.stalk_dim.max"}
    for k in [k for k in out if k.endswith(".s")]:
        out[k[:-2] + ".share"] = out[k] / pass_s
    cells = out.get("exactlin.rref.cells", 0)
    out["exactlin.rref.density"] = out.pop("exactlin.rref.nnz", 0) / cells if cells else 0.0
    out["godement.stalk_dim.max"] = after.get("godement.stalk_dim.max", 0)
    return out
