"""Spans and counters around calls into each ``deltachain`` layer.

Nothing here edits the package's source: ``install`` replaces the layer
functions and methods listed in ``SPECS`` with wrappers, at every module
that binds them (``numeric``, ``symbolic`` and ``cli`` import names from the
other modules, and recursive calls look their own module global up again).

A *timed* wrapper opens a span whose parent is the innermost open span; a
recursive call of a function already on the stack only counts, so a
function's time is taken at its outermost call.  A span's self time is its
duration minus the durations of its child spans, and a layer's self time is
the sum over its spans.  A *counted* wrapper only counts: the hottest small
functions (``MultiIndex`` construction and order tests, ``vector_add``,
``Poly.__add__``, the pseudorandom maps) would cost more to time than they
take, so their time stays in the span that called them.

Spans are kept per request, aggregated by (parent, name), and written out
by the caller when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Span stack and counters of the request running in this process."""

    def __init__(self, node_types: tuple[type, ...] = ()):
        self.node_types = node_types
        self.begin()

    def begin(self) -> None:
        self.stack = [["harness.request", 0.0]]
        self.active: set[str] = set()
        self.counts: Counter[str] = Counter()
        self.groups: dict[tuple[str, str], list] = {}
        self.module_self: Counter[str] = Counter()
        self.expressions: dict[int, object] = {}
        self.start = perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def close(self, module: str, name: str, elapsed: float, frame: list) -> None:
        parent = self.stack[-1]
        parent[1] += elapsed
        own = elapsed - frame[1]
        group = self.groups.get((parent[0], name))
        if group is None:
            self.groups[(parent[0], name)] = [1, elapsed, own]
        else:
            group[0] += 1
            group[1] += elapsed
            group[2] += own
        self.module_self[module] += own

    def end(self) -> dict:
        """Close the request's root span and return what the request recorded."""
        total = perf_counter() - self.start
        own = total - self.stack[0][1]
        self.groups[("", "harness.request")] = [1, total, own]
        self.module_self["harness"] += own
        nodes, distinct = tree_stats(self.expressions.values(), self.node_types)
        self.counts["symbolic.tree_nodes"] += nodes
        self.counts["symbolic.distinct_nodes"] += distinct
        return {
            "counts": dict(self.counts),
            "module_self": dict(self.module_self),
            "groups": [[parent, name, *values] for (parent, name), values in self.groups.items()],
        }


def tree_stats(roots, node_types: tuple[type, ...]) -> tuple[int, int]:
    """(nodes of the expression trees, distinct node values among them)."""
    sizes: dict[int, int] = {}
    distinct: set = set()

    def children(e):
        for f in dataclasses.fields(e):
            value = getattr(e, f.name)
            if isinstance(value, tuple):
                yield from (v for v in value if isinstance(v, node_types))
            elif isinstance(value, node_types):
                yield value

    def size(e) -> int:
        key = id(e)
        if key not in sizes:
            distinct.add(e)
            sizes[key] = 1 + sum(size(c) for c in children(e))
        return sizes[key]

    return sum(size(r) for r in roots), len(distinct)


def timed(tracer: Tracer, module: str, label: str, fn, *, label_of=None, before=None, after=None, visits=None):
    key = f"{module}.{label}"

    def wrapper(*args, **kwargs):
        t = tracer
        if visits is not None:
            t.counts[visits] += 1
        if key in t.active:
            return fn(*args, **kwargs)
        name = key if label_of is None else f"{key}.{label_of(args, kwargs)}"
        t.counts[name + ".calls"] += 1
        if before is not None:
            before(t, args)
        frame = [name, 0.0]
        t.stack.append(frame)
        t.active.add(key)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            t.active.discard(key)
            t.stack.pop()
            t.close(module, name, elapsed, frame)
        if after is not None:
            after(t, args, result)
        return result

    return functools.wraps(fn)(wrapper)


def counted(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return functools.wraps(fn)(wrapper)


def _fmt_arg(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("fmt", "text")


def _poly_products(t: Tracer, args) -> None:
    self, other = args[0], args[1]
    t.counts["polynomials.product_terms"] += len(self.terms) * len(getattr(other, "terms", (None,)))


def _families(t: Tracer, args, result) -> None:
    t.counts["asets.families"] += len(result)


def _rendered(t: Tracer, args, result) -> None:
    t.counts["symbolic.output_bytes"] += len(result.encode("utf-8"))


def _expansion(t: Tracer, args, result) -> None:
    # Only expansions a caller asked for: expand_chain builds a tangent
    # expansion internally, which is part of the chain's tree, not another.
    if not t.active & {"symbolic.expand_chain", "symbolic.expand_tangent"}:
        t.expressions[id(result)] = result


def _map_call(tracer: Tracer, fn):
    def wrapper(self, *args, **kwargs):
        memo = getattr(self, "_memo", None)
        before = len(memo) if memo is not None else -1
        result = fn(self, *args, **kwargs)
        tracer.counts["numeric.map_calls"] += 1
        if memo is not None and len(memo) == before:
            tracer.counts["numeric.map_memo_hits"] += 1
        return result

    return functools.wraps(fn)(wrapper)


# (module, attribute path, how to wrap).  "timed" takes the options of
# ``timed``; "counted" names its counter; "map" counts the pseudorandom
# map's calls and memo hits.
SPECS = (
    ("combinatorics", "enumerate_partitions", "timed", {}),
    ("combinatorics", "refine", "counted", "combinatorics.refine.calls"),
    ("combinatorics", "MultiIndex.__post_init__", "counted", "combinatorics.MultiIndex.built"),
    ("combinatorics", "MultiIndex.__le__", "counted", "combinatorics.MultiIndex.le.calls"),
    ("combinatorics", "MultiIndex.embed", "counted", "combinatorics.MultiIndex.embed.calls"),
    ("cuboid", "delta", "timed", {}),
    ("cuboid", "delta_inv", "timed", {}),
    ("cuboid", "discrete_tangent", "timed", {}),
    ("cuboid", "pointwise", "timed", {}),
    ("cuboid", "inject", "timed", {}),
    ("cuboid", "vector_add", "counted", "cuboid.vector_add.calls"),
    ("asets", "build_asets", "timed", {"after": _families}),
    ("asets", "validate", "timed", {}),
    ("asets", "asets_to_json", "timed", {}),
    ("symbolic", "expand_tangent", "timed", {"after": _expansion}),
    ("symbolic", "expand_chain", "timed", {"after": _expansion}),
    ("symbolic", "canonicalize", "timed", {}),
    ("symbolic", "substitute_components", "timed", {}),
    ("symbolic", "render", "timed", {"label_of": _fmt_arg, "after": _rendered}),
    ("symbolic", "parse", "timed", {"label_of": _fmt_arg}),
    ("numeric", "run_suite", "timed", {}),
    ("numeric", "verify_chain_expansion", "timed", {}),
    ("numeric", "verify_tangent_expansion", "timed", {}),
    ("numeric", "identity_suite", "timed", {}),
    ("numeric", "verify_smooth_chain", "timed", {}),
    ("numeric", "reports_to_json", "timed", {}),
    ("numeric", "eval_expr", "timed", {"visits": "numeric.eval_expr.nodes_visited"}),
    ("numeric", "evaluate_delta", "timed", {}),
    ("numeric", "RandomRationalMap.__call__", "map", None),
    ("polynomials", "Poly.__mul__", "timed", {"label": "Poly.mul", "before": _poly_products}),
    ("polynomials", "Poly.make", "timed", {}),
    ("polynomials", "Poly.__add__", "counted", "polynomials.Poly.add.calls"),
    ("polynomials", "Poly.__call__", "timed", {"label": "Poly.call"}),
    ("polynomials", "PolynomialMap.__call__", "timed", {"label": "PolynomialMap.call"}),
    ("polynomials", "compose", "timed", {}),
    ("polynomials", "d_alpha", "timed", {}),
    ("polynomials", "iterated_directional", "timed", {}),
    ("polynomials", "tangent_lift", "timed", {}),
    ("polynomials", "iterated_tangent_lift", "timed", {}),
    ("polynomials", "random_polynomial_map", "timed", {}),
    ("cli", "main", "timed", {}),
)


def _wrap(tracer: Tracer, module: str, path: str, how: str, opts, fn):
    if how == "counted":
        return counted(tracer, opts, fn)
    if how == "map":
        return _map_call(tracer, fn)
    opts = dict(opts)
    label = opts.pop("label", path)
    return timed(tracer, module, label, fn, **opts)


def _rebind(old, new) -> None:
    # Replace every module-level binding of ``old`` inside the package.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "deltachain" or name.startswith("deltachain.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new


LAYERS = ("combinatorics", "asets", "symbolic", "numeric", "cuboid", "polynomials", "cli", "harness")

# (name, unit, better).  Every value but the two ratios is per round of the
# workload; a ``<layer>.self_s`` is that layer's self time, a
# ``<function>.self_s`` the self time of that function's spans.
PER_LAYER = (
    ("combinatorics.enumerate_partitions.calls", "count/round", "lower"),
    ("combinatorics.enumerate_partitions.self_s", "s/round", "lower"),
    ("combinatorics.refine.calls", "count/round", "lower"),
    ("combinatorics.MultiIndex.built", "count/round", "lower"),
    ("combinatorics.MultiIndex.le.calls", "count/round", "lower"),
    ("combinatorics.MultiIndex.embed.calls", "count/round", "lower"),
    ("combinatorics.self_s", "s/round", "lower"),
    ("asets.build_asets.calls", "count/round", "lower"),
    ("asets.build_asets.self_s", "s/round", "lower"),
    ("asets.families", "count/round", "lower"),
    ("asets.validate.calls", "count/round", "lower"),
    ("asets.validate.self_s", "s/round", "lower"),
    ("asets.asets_to_json.self_s", "s/round", "lower"),
    ("asets.self_s", "s/round", "lower"),
    ("symbolic.expand_tangent.self_s", "s/round", "lower"),
    ("symbolic.expand_chain.self_s", "s/round", "lower"),
    ("symbolic.canonicalize.self_s", "s/round", "lower"),
    ("symbolic.render.text.self_s", "s/round", "lower"),
    ("symbolic.render.latex.self_s", "s/round", "lower"),
    ("symbolic.render.json.self_s", "s/round", "lower"),
    ("symbolic.parse.text.self_s", "s/round", "lower"),
    ("symbolic.parse.json.self_s", "s/round", "lower"),
    ("symbolic.tree_nodes", "count/round", "lower"),
    ("symbolic.distinct_nodes", "count/round", "lower"),
    ("symbolic.output_bytes", "bytes/round", "lower"),
    ("symbolic.self_s", "s/round", "lower"),
    ("numeric.eval_expr.calls", "count/round", "lower"),
    ("numeric.eval_expr.nodes_visited", "count/round", "lower"),
    ("numeric.eval_expr.self_s", "s/round", "lower"),
    ("numeric.evaluate_delta.calls", "count/round", "lower"),
    ("numeric.evaluate_delta.self_s", "s/round", "lower"),
    ("numeric.map_calls", "count/round", "lower"),
    ("numeric.map_memo_hit_ratio", "ratio", "higher"),
    ("numeric.trials", "count/round", "higher"),
    ("numeric.report_failures", "count/round", "lower"),
    ("numeric.self_s", "s/round", "lower"),
    ("cuboid.delta.calls", "count/round", "lower"),
    ("cuboid.delta.self_s", "s/round", "lower"),
    ("cuboid.delta_inv.calls", "count/round", "lower"),
    ("cuboid.delta_inv.self_s", "s/round", "lower"),
    ("cuboid.discrete_tangent.calls", "count/round", "lower"),
    ("cuboid.discrete_tangent.self_s", "s/round", "lower"),
    ("cuboid.vector_add.calls", "count/round", "lower"),
    ("cuboid.self_s", "s/round", "lower"),
    ("polynomials.Poly.mul.calls", "count/round", "lower"),
    ("polynomials.Poly.mul.self_s", "s/round", "lower"),
    ("polynomials.Poly.make.calls", "count/round", "lower"),
    ("polynomials.Poly.make.self_s", "s/round", "lower"),
    ("polynomials.Poly.add.calls", "count/round", "lower"),
    ("polynomials.Poly.call.calls", "count/round", "lower"),
    ("polynomials.Poly.call.self_s", "s/round", "lower"),
    ("polynomials.compose.self_s", "s/round", "lower"),
    ("polynomials.tangent_lift.self_s", "s/round", "lower"),
    ("polynomials.product_terms", "count/round", "lower"),
    ("polynomials.self_s", "s/round", "lower"),
    ("cli.main.self_s", "s/round", "lower"),
    ("cli.output_bytes", "bytes/round", "lower"),
    ("harness.self_s", "s/round", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def merge(layers: list[dict]) -> tuple[Counter, Counter, Counter]:
    """Sum what requests recorded: (counts, self time per layer, self time per span name)."""
    counts: Counter = Counter()
    layer_self: Counter = Counter()
    span_self: Counter = Counter()
    for layer in layers:
        counts.update(layer["counts"])
        layer_self.update(layer["module_self"])
        for _parent, name, _calls, _total, own in layer["groups"]:
            span_self[name] += own
    return counts, layer_self, span_self


def layer_metrics(layers: list[dict], rounds: int, overhead_ratio: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric, per round, from the requests of ``rounds`` rounds."""
    counts, layer_self, span_self = merge(layers)
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name == "trace.overhead_ratio":
            out[name] = overhead_ratio
        elif name == "numeric.map_memo_hit_ratio":
            calls = counts["numeric.map_calls"]
            out[name] = counts["numeric.map_memo_hits"] / calls if calls else 0.0
        elif name.endswith(".self_s"):
            prefix = name[: -len(".self_s")]
            out[name] = (layer_self[prefix] if prefix in LAYERS else span_self[prefix]) / rounds
        else:
            out[name] = counts[name] / rounds
    return out


def install(target) -> Tracer:
    """Wrap every function in ``SPECS``; return the tracer they report to."""
    symbolic = target.modules["symbolic"]
    tracer = Tracer(tuple(
        obj for obj in vars(symbolic).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == symbolic.__name__
    ))
    for module_name, path, how, opts in SPECS:
        module = target.modules[module_name]
        if "." not in path:
            old = getattr(module, path)
            _rebind(old, _wrap(tracer, module_name, path, how, opts, old))
            continue
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = vars(cls)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        new = _wrap(tracer, module_name, path, how, opts, fn)
        if is_classmethod:
            new = classmethod(new)
        # Aliases such as ``__rmul__ = __mul__`` share the function object.
        for name, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, name, new)
    return tracer
