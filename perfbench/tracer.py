"""Spans around the public functions of each cslab layer, installed from
the benchmark's side.

Each target is wrapped once and the wrapper is bound in place of the
original in every cslab module that imported it, so calls between layers
go through it too.  Spans live in memory as
[name, parent, question, start, end, ok, info] lists and are written out
once the run ends.  The program itself is not edited; ``partitions`` is
left unwrapped on purpose: it is a leaf helper whose cost lands in its
callers' self time, and wrapping ``Partition.__new__`` would distort every
other number.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

from benchlib import self_times


def _target_basis(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["target"]


# (module, attribute, span name, info(args, kwargs, result) or None)
TARGETS = (
    ("cslab.graphs", "enumerate_stable_partitions", "graphs.enumerate_stable_partitions",
     lambda a, k, r: sum(r.values())),
    ("cslab.graphs", "count_stable_partitions", "graphs.count_stable_partitions", None),
    ("cslab.graphs", "has_connected_partition", "graphs.has_connected_partition", None),
    ("cslab.csf", "compute_csf", "csf.compute_csf", lambda a, k, r: r.route),
    ("cslab.csf", "csf_via_stable_partitions", "csf.csf_via_stable_partitions", None),
    ("cslab.csf", "csf_via_edge_subsets", "csf.csf_via_edge_subsets",
     lambda a, k, r: 1 << a[0].edge_count),
    ("cslab.csf", "path_csf_e", "csf.path_csf_e", lambda a, k, r: len(r.terms)),
    ("cslab.csf", "spider_csf", "csf.spider_csf", lambda a, k, r: len(r.terms)),
    ("cslab.csf", "broom_csf", "csf.broom_csf", lambda a, k, r: len(r.terms)),
    ("cslab.symfunc", "SymFunc.__mul__", "symfunc.SymFunc.mul", None),
    ("cslab.symfunc", "SymFunc.__add__", "symfunc.SymFunc.add", None),
    ("cslab.symfunc", "change_basis", "symfunc.change_basis",
     lambda a, k, r: (a[0].basis, _target_basis(a, k), a[0].degree, len(a[0].terms), len(r.terms))),
    ("cslab.rimhook", "enumerate_srht", "rimhook.enumerate_srht", lambda a, k, r: len(r)),
    ("cslab.rimhook", "schur_coefficient", "rimhook.schur_coefficient", None),
    ("cslab.rimhook", "schur_expansion_solve", "rimhook.schur_expansion_solve", None),
    ("cslab.positivity", "screen_spider", "positivity.screen_spider",
     lambda a, k, r: any(not passed for _, passed, _ in r)),
    ("cslab.positivity", "e_positivity", "positivity.e_positivity", None),
    ("cslab.positivity", "schur_positivity", "positivity.schur_positivity", None),
    ("cslab.positivity", "run_sweep", "positivity.run_sweep", None),
    ("cslab.cli", "main", "cli.main", None),
)

# (module, attribute) of each lru_cache memo whose hit ratio is reported.
CACHES = {
    "csf.path_csf_e.hit_ratio": ("cslab.csf", "path_csf_e"),
    "graphs.has_connected_partition.hit_ratio": ("cslab.graphs", "_has_connected_partition"),
    "symfunc.kostka_number.hit_ratio": ("cslab.symfunc", "kostka_number"),
}

FAMILY = ("csf.path_csf_e", "csf.spider_csf", "csf.broom_csf")
EXPANSIONS = ("csf.compute_csf", "csf.csf_via_stable_partitions", "csf.csf_via_edge_subsets") + FAMILY
ROUTES = ("stable-m", "edge-p", "family-recurrence")
BASIS_PAIRS = ("m-e", "m-s", "p-e", "p-s")

_COUNTED = (
    "graphs.enumerate_stable_partitions", "graphs.count_stable_partitions",
    "graphs.has_connected_partition", "rimhook.schur_coefficient", "rimhook.enumerate_srht",
    "rimhook.schur_expansion_solve", "csf.csf_via_edge_subsets", "positivity.screen_spider",
    "cli.main",
)
_TIMED = _COUNTED + (
    "symfunc.SymFunc.mul", "symfunc.SymFunc.add", "positivity.e_positivity",
    "positivity.schur_positivity", "positivity.run_sweep",
)

#: Every per-layer metric, in report order: (name, unit, better).
LAYER_METRICS = tuple(
    [
        ("graphs.enumerate_stable_partitions.calls", "count", "lower"),
        ("graphs.enumerate_stable_partitions.self_s", "s", "lower"),
        ("graphs.enumerate_stable_partitions.partitions_out", "count", "lower"),
        ("graphs.count_stable_partitions.calls", "count", "lower"),
        ("graphs.count_stable_partitions.self_s", "s", "lower"),
        ("graphs.has_connected_partition.calls", "count", "lower"),
        ("graphs.has_connected_partition.self_s", "s", "lower"),
        ("graphs.has_connected_partition.hit_ratio", "ratio", "higher"),
        ("rimhook.schur_coefficient.calls", "count", "lower"),
        ("rimhook.schur_coefficient.self_s", "s", "lower"),
        ("rimhook.enumerate_srht.calls", "count", "lower"),
        ("rimhook.enumerate_srht.self_s", "s", "lower"),
        ("rimhook.enumerate_srht.tabloids_out", "count", "lower"),
        ("rimhook.schur_expansion_solve.calls", "count", "lower"),
        ("rimhook.schur_expansion_solve.self_s", "s", "lower"),
        ("csf.csf_via_edge_subsets.calls", "count", "lower"),
        ("csf.csf_via_edge_subsets.self_s", "s", "lower"),
        ("csf.csf_via_edge_subsets.subsets", "count", "lower"),
        ("csf.family.calls", "count", "lower"),
        ("csf.family.self_s", "s", "lower"),
        ("csf.family.terms_out", "count", "lower"),
        ("csf.path_csf_e.hit_ratio", "ratio", "higher"),
    ]
    + [(f"csf.compute_csf.route.{route}", "count", "lower") for route in ROUTES]
    + [
        ("csf.expansions_per_graph", "ratio", "lower"),
        ("symfunc.SymFunc.mul.self_s", "s", "lower"),
        ("symfunc.SymFunc.add.self_s", "s", "lower"),
    ]
    + [
        (f"symfunc.change_basis.{pair}.{field}", unit, "lower")
        for pair in BASIS_PAIRS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("terms_in", "count"), ("terms_out", "count"))
    ]
    + [
        ("symfunc.change_basis.cold_s", "s", "lower"),
        ("symfunc.change_basis.warm_s", "s", "lower"),
        ("symfunc.kostka_number.hit_ratio", "ratio", "higher"),
        ("positivity.e_positivity.self_s", "s", "lower"),
        ("positivity.schur_positivity.self_s", "s", "lower"),
        ("positivity.run_sweep.self_s", "s", "lower"),
        ("positivity.screen_spider.calls", "count", "lower"),
        ("positivity.screen_spider.rejects", "count", "lower"),
        ("positivity.screen_spider.self_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Records spans around TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.question = -1
        self._stack: list = []
        self._restore: list = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span named ``name``."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.question, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = True
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        cslab_modules = [
            m for key, m in sys.modules.items() if key == "cslab" or key.startswith("cslab.")
        ]
        for module_name, attr, name, info in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, info))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original, info)
            for module in cslab_modules:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "parent", "question", "start", "end", "ok", "info"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _hit_ratio(module_name: str, attr: str) -> float:
    info = getattr(importlib.import_module(module_name), attr).cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(spans, graph_count: int, speed) -> dict:
    """Per-layer metrics from finished spans and the memo counters.

    Self times are scaled to reference speed by ``speed[q]``, the factor of
    the question each span belongs to (see speed.py).  Must run after the
    tracer is uninstalled and before anything else calls into cslab, so
    that the cache counters cover the timed calls only.
    ``trace.overhead_s`` needs an untraced run and is filled in by the
    caller.
    """
    selfs = [
        t * speed[span[2]]
        for t, span in zip(self_times([(s[1], s[3], s[4]) for s in spans]), spans)
    ]
    out: dict = {name: 0.0 if unit == "s" else 0 for name, unit, _ in LAYER_METRICS}

    def has_ancestor(index: int, names) -> bool:
        parent = spans[index][1]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][1]
        return False

    expansions = 0
    seen_conversions: set = set()
    for i, (name, _, _, _, _, ok, info) in enumerate(spans):
        if name in _TIMED:
            out[f"{name}.self_s"] += selfs[i]
        if name in _COUNTED:
            out[f"{name}.calls"] += 1
        if name in EXPANSIONS and ok and not has_ancestor(i, EXPANSIONS):
            expansions += 1
        if name in FAMILY:
            out["csf.family.calls"] += 1
            out["csf.family.self_s"] += selfs[i]
            if ok and not has_ancestor(i, FAMILY):
                out["csf.family.terms_out"] += info
        if not ok:
            continue
        if name == "graphs.enumerate_stable_partitions":
            out["graphs.enumerate_stable_partitions.partitions_out"] += info
        elif name == "csf.csf_via_edge_subsets":
            out["csf.csf_via_edge_subsets.subsets"] += info
        elif name == "rimhook.enumerate_srht":
            out["rimhook.enumerate_srht.tabloids_out"] += info
        elif name == "positivity.screen_spider":
            out["positivity.screen_spider.rejects"] += info
        elif name == "csf.compute_csf" and info in ROUTES:
            out[f"csf.compute_csf.route.{info}"] += 1
        elif name == "symfunc.change_basis":
            source, target, degree, terms_in, terms_out = info
            pair = f"{source}-{target}"
            if pair in BASIS_PAIRS:
                prefix = f"symfunc.change_basis.{pair}"
                out[f"{prefix}.calls"] += 1
                out[f"{prefix}.self_s"] += selfs[i]
                out[f"{prefix}.terms_in"] += terms_in
                out[f"{prefix}.terms_out"] += terms_out
            # The first conversion of each kind and degree fills the
            # transition memos; later ones find them warm.
            key = (pair, degree)
            cold = key not in seen_conversions
            seen_conversions.add(key)
            out["symfunc.change_basis.cold_s" if cold else "symfunc.change_basis.warm_s"] += selfs[i]
    out["csf.expansions_per_graph"] = expansions / graph_count
    for metric, (module_name, attr) in CACHES.items():
        out[metric] = _hit_ratio(module_name, attr)
    out["trace.spans"] = len(spans)
    return out
