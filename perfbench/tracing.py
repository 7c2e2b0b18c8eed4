"""Spans around the calls into each sandpiles module, recorded from outside.

A traced round substitutes every layer entry point in LAYERS by a wrapper,
in every ``sandpiles`` namespace that binds it (``experiments`` imports
``_add_inplace``, ``estimate_tv`` and ``Histogram`` by name, and the package
re-exports most functions). Each call records a span (name, start, end,
parent) in memory; the spans are written out when the run ends. Calls made
inside the package between wrapped functions nest, so a layer's self time
is its own span minus the part its child spans cover. Nothing is wrapped
outside a traced round, so the end-to-end run runs the package untouched.
"""

from array import array
from collections import defaultdict
from contextlib import contextmanager
import statistics
import sys
import time

import numpy as np


def _array_bytes(obj):
    """Bytes held by the numpy arrays an object references directly or in
    tuples and lists, computed from the array sizes."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_build_lattice(args, kwargs):
    return lambda lat: {"lattice.adjacency.bytes_computed": _array_bytes(lat)}


def _count_stabilize_from(args, kwargs):
    seeds = _arg(args, kwargs, 2, "seeds")
    odometer = _arg(args, kwargs, 3, "odometer")
    before = int(odometer.sum()) if odometer is not None else 0
    n_seeds = len(seeds) if hasattr(seeds, "__len__") else 0
    return lambda od: {"btw.stabilize_from.seeds": n_seeds,
                       "btw.stabilize_from.topplings": int(od.sum()) - before}


def _count_stabilize_many(args, kwargs):
    replicas = int(_arg(args, kwargs, 1, "quanta").shape[0])
    return lambda od: {"btw.stabilize_many.replicas": replicas,
                       "btw.stabilize_many.topplings": int(od.sum())}


def _count_enumerate_recurrent(args, kwargs):
    lat = args[0]
    scanned = lat.threshold ** lat.n_sites
    return lambda rows: {"btw.enumerate_recurrent.configs_scanned": scanned,
                         "btw.enumerate_recurrent.recurrent": len(rows)}


def _count_from_samples(args, kwargs):
    return lambda hist: {"measures.Histogram.from_samples.samples": hist.total,
                         "measures.Histogram.from_samples.cells": len(hist.counts)}


# (module, attribute, count hook). A hook sees the call's arguments before
# the call and returns a function of its result giving exact counts.
LAYERS = (
    ("lattice", "build_lattice", _count_build_lattice),
    ("lattice", "determinant_exact", None),
    ("btw", "stabilize_many", _count_stabilize_many),
    ("btw", "stabilize_from", _count_stabilize_from),
    ("btw", "btw_add", None),
    ("btw", "enumerate_recurrent", _count_enumerate_recurrent),
    ("btw", "addition_order", None),
    ("btw", "btw_inverse_add", None),
    ("cbtw", "_add_inplace", None),
    ("cbtw", "cbtw_inverse_add", None),
    ("experiments", "step_ensemble", None),
    ("experiments", "run_chain", None),
    ("experiments", "ergodic_average", None),
    ("measures", "Histogram.from_samples", _count_from_samples),
    ("measures", "estimate_tv", None),
    ("measures", "sample_rational_limit_batch", None),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span store plus the attribute substitutions that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._patches = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, values):
        root = self._stack[0]
        for key, value in values.items():
            self.counts[root, key] = self.counts.get((root, key), 0) + value

    def _wrap(self, name, fn, hook):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            after = hook(args, kwargs) if hook is not None else None
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.count(after(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Substitute every layer entry point in every namespace binding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sandpiles" or n.startswith("sandpiles."))]
        for module_name, attr, hook in LAYERS:
            owner = sys.modules["sandpiles." + module_name]
            span_name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(span_name, raw.__func__, hook)))
                self._patches.append((cls, meth, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def traced(self, root_name):
        """Record one root span with wrappers installed; returns its index."""
        self.install()
        idx = self.open(self._name_id(root_name))
        try:
            yield idx
        finally:
            self.close(idx)
            self.uninstall()

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.root, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end))

    def save(self, path):
        name, parent, root, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            root=root, start=start, end=end)


def self_times(start, end, parent):
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    covered = np.zeros(len(start))
    order = np.lexsort((start, parent))
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p < 0:
            continue
        if p != current:
            current, reach = p, s[p]
        lo = max(s[i], reach)
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def root_summaries(tracer, roots):
    """{root: {quantity: value}} with per-layer calls, s and self_s, plus
    the hook counts, for the spans under each given root span."""
    name, parent, root, start, end = tracer.arrays()
    own = self_times(start, end, parent)
    dur = end - start
    out = {}
    for r in roots:
        mask = (root == r) & (np.arange(len(root)) != r)
        summary = {}
        for nid in np.unique(name[mask]).tolist():
            sel = mask & (name == nid)
            layer = tracer.names[nid]
            summary[f"{layer}.calls"] = int(sel.sum())
            summary[f"{layer}.s"] = float(dur[sel].sum())
            summary[f"{layer}.self_s"] = float(own[sel].sum())
        for (rr, key), value in tracer.counts.items():
            if rr == r:
                summary[key] = value
        out[r] = summary
    return out


# Per-layer metrics that are ratios of the combined quantities; every other
# per-layer metric in BENCHMARK.json is one of the quantities itself.
def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


DERIVED = {
    "btw.stabilize_many.ns_per_replica_call":
        lambda q: _ratio(q["btw.stabilize_many.s"], q["btw.stabilize_many.replicas"], 1e9),
    "btw.stabilize_from.us_per_toppling":
        lambda q: _ratio(q["btw.stabilize_from.self_s"], q["btw.stabilize_from.topplings"], 1e6),
    "btw.enumerate_recurrent.yield":
        lambda q: _ratio(q["btw.enumerate_recurrent.recurrent"],
                         q["btw.enumerate_recurrent.configs_scanned"]),
    "measures.Histogram.from_samples.ns_per_sample":
        lambda q: _ratio(q["measures.Histogram.from_samples.s"],
                         q["measures.Histogram.from_samples.samples"], 1e9),
}


def is_time(key):
    return key.endswith(".s") or key.endswith(".self_s")


def combine(setup, rounds):
    """Setup quantities plus one round's: the median over rounds for times,
    the count itself for exact counts. Returns (quantities, counts that
    differ between rounds)."""
    keys = set(setup).union(*rounds)
    combined, unstable = {}, []
    for key in keys:
        values = [r.get(key, 0) for r in rounds]
        if is_time(key):
            per_round = statistics.median(values)
        else:
            per_round = values[0]
            if any(v != per_round for v in values):
                unstable.append(key)
        combined[key] = setup.get(key, 0) + per_round
    return combined, sorted(unstable)


def per_layer_metrics(quantities, spec):
    """Every per-layer metric of the spec (BENCHMARK.json's per_layer list);
    a layer the workload never calls reads 0."""
    q = defaultdict(int, quantities)
    return {m["name"]: {"value": DERIVED[m["name"]](q) if m["name"] in DERIVED else q[m["name"]],
                        "unit": m["unit"]}
            for m in spec}
