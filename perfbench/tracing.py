"""Span tracing from the outside: wrappers around the program's public
functions, installed only for a traced run.

A wrapper records (name, start, end, parent) for each call and adds the
counts that its counter function derives from the call's arguments and
result.  `from x import f` copies `f` into the importing module, so a
wrapper is rebound under every name, in every loaded `propcalc` module,
that refers to the original function; wrapping only the home module
would miss those call sites.  Nothing under `src/` changes.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


# ---------------------------------------------------------------------------
# counters: (args, kwargs, result) -> iterable of (count name, value)

def _act_type_counts(args, kwargs, result):
    t, faces = args[0], args[1]
    combos = 1
    for blk, face in zip(t.blocks, faces):
        q = len(face) - 1
        if blk:
            combos *= comb(q + len(blk) - 1, len(blk) - 1)
        elif q != 0:
            combos = 0
    return (("combos", combos), ("terms_out", len(result)))


def _cup_i_counts(args, kwargs, result):
    i, a, b, complex_ = args
    scanned = 0
    if a and b:
        deg = len(next(iter(a))) + len(next(iter(b))) - 2 - i
        if deg >= 0:
            scanned = len(complex_.simplices(deg))
    return (("simplices_scanned", scanned), ("support_out", len(result)))


# layer name -> (module, attribute, counter); "Class.method" names a classmethod
TARGETS = {
    "terms.parse": ("terms", "parse", lambda a, k, r: (("chars", len(a[0])),)),
    "graphs.vertical_compose": ("graphs", "vertical_compose", None),
    "graphs.validate": ("graphs", "validate", None),
    "graphs.require_valid": ("graphs", "require_valid", None),
    "generators.apply_attaching": ("generators", "apply_attaching", None),
    "generators.to_edge_weights": ("generators", "to_edge_weights", None),
    "surjections.normalize": ("surjections", "normalize",
                              lambda a, k, r: (("strands_out", r.r),)),
    "surjections.compose_weighted": ("surjections", "compose_weighted", None),
    "surjections.expand_graph": ("surjections", "expand_graph", None),
    "surjections.eliminate_counits": ("surjections", "eliminate_counits", None),
    "surjections.leibniz_push": ("surjections", "leibniz_push",
                                 lambda a, k, r: (("vertices_out", len(r.vertices)),)),
    "surfaces.to_ribbon": ("surfaces", "to_ribbon", None),
    "surfaces.collapse_edges": ("surfaces", "collapse_edges",
                                lambda a, k, r: (("edges_in", len(a[0].edges)),)),
    "surfaces.surface_summary": ("surfaces", "surface_summary", None),
    "chains.act_type": ("chains", "act_type", _act_type_counts),
    "chains.differential": ("chains", "differential", None),
    "chains.chain_compose": ("chains", "chain_compose", None),
    "chains.cup_i": ("chains", "cup_i", _cup_i_counts),
    "chains.steenrod_square": ("chains", "steenrod_square", None),
    "complexes.coboundary": ("complexes", "coboundary", None),
    "complexes.from_text": ("complexes", "SimplicialComplex.from_text", None),
    "complexes.cochain_from_text": ("complexes", "cochain_from_text", None),
    "complexes.representative_cocycle": ("complexes", "representative_cocycle", None),
    "cli.run": ("cli", "run", None),
    "simplex.eval_term": ("simplex", "eval_term",
                          lambda a, k, r: (("vertices", len(a[0].vertices)),
                                           ("coords_in", sum(p.d for p in a[1])))),
    "simplex.check_naturality": ("simplex", "check_naturality", None),
    "sset.realization_act": ("sset", "realization_act", None),
    "sset.canonicalize": ("sset", "canonicalize", None),
}

# per-layer metrics as (name, unit, better); a ratio divides two counts
COUNT_METRICS = [
    ("terms.parse.calls", "count", "lower"),
    ("terms.parse.chars", "count", "lower"),
    ("graphs.validate.calls", "count", "lower"),
    ("graphs.require_valid.calls", "count", "lower"),
    ("surjections.normalize.calls", "count", "lower"),
    ("surjections.normalize.strands_out", "count", "lower"),
    ("surjections.leibniz_push.vertices_out", "count", "lower"),
    ("surfaces.collapse_edges.edges_in", "count", "lower"),
    ("chains.act_type.calls", "count", "lower"),
    ("chains.act_type.combos", "count", "lower"),
    ("chains.act_type.terms_out", "count", "lower"),
    ("chains.cup_i.calls", "count", "lower"),
    ("chains.cup_i.simplices_scanned", "count", "lower"),
    ("chains.cup_i.support_out", "count", "lower"),
    ("complexes.coboundary.calls", "count", "lower"),
    ("simplex.eval_term.calls", "count", "lower"),
    ("simplex.eval_term.vertices", "count", "lower"),
    ("simplex.eval_term.coords_in", "count", "lower"),
    ("sset.canonicalize.calls", "count", "lower"),
]
RATIO_METRICS = [
    ("chains.act_type.yield", "chains.act_type.terms_out", "chains.act_type.combos"),
    ("chains.cup_i.yield", "chains.cup_i.support_out", "chains.cup_i.simplices_scanned"),
]
SELF_METRICS = [name + ".self_s" for name in TARGETS]
# layers measured only by `compose`'s stage replay, which is traced apart
# from the op so that the layers below it count the op's work alone
REPLAY_LAYERS = ("surjections.eliminate_counits", "surjections.leibniz_push")
OVERHEAD_METRIC = "trace.overhead_ratio"


def per_layer_spec():
    """Every per-layer metric as (name, unit, better)."""
    spec = list(COUNT_METRICS)
    spec += [(name, "ratio", "higher") for name, _, _ in RATIO_METRICS]
    spec += [(name, "s", "lower") for name in SELF_METRICS]
    spec.append((OVERHEAD_METRIC, "ratio", "lower"))
    return spec


class Tracer:
    """Spans kept in memory; `only` limits recording to some layer names.

    The installed wrappers record into `sink`, which is the tracer itself
    unless another (uninstalled) Tracer is put there to keep some calls
    apart, as the traced run does for `compose`'s stage replay."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.on = False
        self.only = None
        self.sink = self
        self._stack = []
        self._installed = []     # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on or (tracer.only is not None and name not in tracer.only):
                return fn(*args, **kwargs)
            sink = tracer.sink
            stack = sink._stack
            idx = len(sink.spans)
            sink.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                sink.spans[idx] = (name, start, end, parent)
            sink.counts[name + ".calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    sink.counts[name + "." + key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Rebind every reference to each target inside the propcalc modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "propcalc" or key.startswith("propcalc."))]
        for name, (module, attr, counter) in TARGETS.items():
            home = sys.modules["propcalc." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__, counter))
                setattr(cls, meth, wrapped)
                self._installed.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """Per layer: summed span time minus the time of its child spans."""
        spans = self.spans
        out = defaultdict(float)
        for name, start, end, parent in spans:
            dur = end - start
            out[name] += dur
            if parent >= 0:
                out[spans[parent][0]] -= dur
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
