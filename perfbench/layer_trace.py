"""Traced in-process run of one boxprime command, and its analysis.

``python3 perfbench/layer_trace.py SPANS_FILE ARGS...`` imports the package
and wraps, from outside, every public function of each layer module in every
``boxprime`` module namespace that holds it (so ``factor.canonical_form`` is
traced as well as ``graphs.canonical_form``).  Then it runs
``boxprime.cli.main(ARGS)``.  Each call becomes a span (name, start, end,
parent id) kept in memory in flat arrays and written to SPANS_FILE when the
command ends.  Nothing inside ``src/boxprime`` is changed.

``summarize`` turns the span files of one job into per-layer metrics.
"""

from __future__ import annotations

import array
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("graphs", "graph6", "counting", "expansion", "factor", "semiring",
          "bounds", "functions", "serialize", "cli")
# classes whose public methods are layer entry points; the value types
# (Graph, CountSequence, ...) are not, and run inside their caller's span
TRACED_CLASSES = {"semiring": ("SemiringInstance",)}
# per-edge bit helper: a span per call would cost more than the call itself
UNTRACED = frozenset({"graphs.pair_bit"})
# spans that also record len(result), and the one recording its first argument
SIZED = frozenset({"graphs.enumerate_graphs", "graphs.enumerate_connected",
                   "factor.composite_map"})
ORDER_ARG = "counting.count_graphs_polya"
# lru caches read at exit: metric name -> (module, attribute)
CACHES = {"graphs.canon_cache": ("graphs", "_canonical_bits_for"),
          "factor.factorize_cache": ("factor", "_factorize_canonical")}
# metric groups named by function: group -> traced span names
FUNCTIONS = {
    "graphs.enumerate": ("graphs.enumerate_graphs", "graphs.enumerate_connected"),
    "graphs.canonical_form": ("graphs.canonical_form",),
    "graphs.cartesian_product": ("graphs.cartesian_product",),
    "graph6.parse_graph6": ("graph6.parse_graph6",),
    "graph6.encode_graph6": ("graph6.encode_graph6",),
    "counting.count_graphs_polya": ("counting.count_graphs_polya",),
    "counting.euler_inverse": ("counting.euler_inverse",),
    "factor.composite_map": ("factor.composite_map",),
    "factor.factorize": ("factor.factorize",),
    "semiring.build_instance": ("semiring.build_instance",),
    "semiring.S_box": ("semiring.S_box",),
    "functions.evaluate": ("functions.evaluate",),
}


class Tracer:
    """Spans in flat arrays; span k's parent is an earlier span or -1."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.aux = array.array("q")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, aux, stack = (
            self.name, self.parent, self.start, self.end, self.aux, self.stack)
        clock = time.perf_counter
        sized = name in SIZED
        order_arg = name == ORDER_ARG

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            aux.append(args[0] if order_arg else -1)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if sized:
                aux[sid] = len(result)
            return result

        return traced

    def dump(self, path: str, caches: dict) -> None:
        header = {"names": self.names, "spans": len(self.name), "caches": caches}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end, self.aux):
                column.tofile(handle)


def install(tracer: Tracer) -> dict:
    """Wrap the layers' public functions wherever boxprime modules bind them."""
    modules = {layer: importlib.import_module(f"boxprime.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if f"{layer}.{attr}" in UNTRACED:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(obj):
                    setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", obj))
    for name, module in list(sys.modules.items()):
        if name == "boxprime" or name.startswith("boxprime."):
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
    return modules


def _cache_counts(modules) -> dict:
    out = {}
    for metric, (layer, attr) in CACHES.items():
        info = getattr(getattr(modules[layer], attr, None), "cache_info", None)
        out[metric] = list(info()[:2]) if info else [0, 0]
    return out


def child(argv: list[str]) -> int:
    spans_file, args = argv[0], argv[1:]
    tracer = Tracer()
    modules = install(tracer)
    try:
        return modules["cli"].main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, _cache_counts(modules))


def _load(path):
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for code in ("i", "i", "d", "d", "q"):
            column = array.array(code)
            column.fromfile(handle, header["spans"])
            columns.append(column)
    return header, columns


def summarize(paths) -> dict:
    """Per-layer metrics of one job from its commands' span files.

    Counts (``calls``, ``graphs_out``, ``partitions``, ``products``, hit and
    useful ratios) repeat exactly from run to run; ``self_s`` is span time
    minus the time of its child spans.
    """
    from reference import partitions

    calls, self_s = Counter(), Counter()
    cache = {metric: [0, 0] for metric in CACHES}
    graphs_out = order_partitions = products = composite_keys = 0
    for path in paths:
        header, (name, parent, start, end, aux) = _load(path)
        names = header["names"]
        for metric, (hits, misses) in header["caches"].items():
            cache[metric][0] += hits
            cache[metric][1] += misses
        nspans = len(name)
        children = [0.0] * nspans
        product_children = [0] * nspans
        for k in range(nspans):
            p = parent[k]
            if p >= 0:
                children[p] += end[k] - start[k]
                if (names[name[k]] == "graphs.cartesian_product"
                        and names[name[p]] == "factor.composite_map"):
                    product_children[p] += 1
        for k in range(nspans):
            fn = names[name[k]]
            calls[fn] += 1
            self_s[fn] += end[k] - start[k] - children[k]
            if fn in ("graphs.enumerate_graphs", "graphs.enumerate_connected"):
                graphs_out += aux[k]
            elif fn == ORDER_ARG:
                order_partitions += partitions(aux[k])
            elif fn == "factor.composite_map" and product_children[k]:
                products += product_children[k]
                composite_keys += aux[k]
    metrics = {}
    for group, members in FUNCTIONS.items():
        metrics[f"{group}.calls"] = sum(calls[m] for m in members)
        metrics[f"{group}.self_s"] = sum(self_s[m] for m in members)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for fn, t in self_s.items()
                                         if fn.split(".")[0] == layer)
    metrics["graphs.enumerate.graphs_out"] = graphs_out
    metrics["counting.partitions"] = order_partitions
    metrics["factor.composite_map.products"] = products
    metrics["factor.composite_map.useful_ratio"] = (
        composite_keys / products if products else 0.0)
    for metric, (hits, misses) in cache.items():
        metrics[f"{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["spans"] = sum(calls.values())
    return {"metrics": metrics, "calls": dict(calls), "self_s": dict(self_s)}


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
