"""Symbolic difference expressions and the expansion formulas.

The expression language covers exactly what the expansions produce: point
and vector symbols, cuboid components, function application, finite sums,
and iterated difference terms.  Equality of expressions means syntactic
equality of canonical forms; there is no general rewriting.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): constructing a node returns the one live node with
equal fields, so structurally equal expressions are one object, ``==`` and
``hash`` are identity, and the inner differences an expansion shares are
stored once.  A node's children must be nodes, so every node is interned,
and carries the sort key made there from its children's, which
``canonicalize`` and the generators sort by.  Each other pass over an
expression is one loop over its distinct nodes, children first; only
``parse`` and ``expr_from_obj`` recurse, and they report ``nesting too
deep``.  The text reader reads each token at the offset it has reached.  A
term whose brackets hold no other bracket is matched whole by one regex and
skipped when its source text was read before, so the reader reads only a
fraction of a rendered expansion's tokens.

The expansion generators take only alpha and write fixed names (``f``,
``g``, ``x``, ``v_i``, ``u``) that the text reader reads back.  They take
one pass over the cached mask families and place each leaf below alpha;
each node is built once, its operands already in canonical order, so
nothing is canonicalized or substituted afterwards; ``expand_chain`` does
not build (or fill the cache of) ``expand_tangent``.  Each builds term r
from family r, in partition-row order (``_row_terms``), and sorts once.
"""

from __future__ import annotations

import json
import re
import threading
import weakref
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Union, get_args

from .asets import _json_array, _ones_families
from .combinatorics import MAX_DIM, MultiIndex, cached_after, check_int, check_type, shown

# Every live node, keyed by its class and field values.  The table is weak:
# a node no expression or caller holds any more drops out of it.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _HashConsed(type):
    """Metaclass of the node classes: the single interning point."""

    def __call__(cls, *args, **kwargs):
        node = type.__call__(cls, *args, **kwargs)
        # Only interned nodes are children, so every node is interned and keyed.
        children = node._children()
        if not _NODE_TYPES.issuperset(map(type, children)):
            bad = next(c for c in children if type(c) not in _NODE_TYPES)
            raise ValueError(f"not an expression: {shown(bad)}")
        table_key = (cls, *node.__dict__.values())
        found = _NODES.get(table_key)
        if found is not None:
            return found
        # Set before the node is stored, so no thread gets it without its key.
        object.__setattr__(node, "_key", _key_of(node))
        with _NODES_LOCK:
            return _NODES.setdefault(table_key, node)


class _Node(metaclass=_HashConsed):
    def _children(self) -> tuple:
        return ()

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the interning point.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class PointSym(_Node):
    """A point of the underlying space; contributes order 0."""

    name: str

    def __post_init__(self) -> None:
        check_type("name", self.name, str)


@dataclass(frozen=True, eq=False)
class VecSym(_Node):
    """A displacement vector; contributes order 1."""

    name: str

    def __post_init__(self) -> None:
        check_type("name", self.name, str)


@dataclass(frozen=True, eq=False)
class ComponentSym(_Node):
    """Component of a named cuboid at a multi-index; order is the index order."""

    cuboid: str
    index: MultiIndex

    def __post_init__(self) -> None:
        check_type("cuboid", self.cuboid, str)
        check_type("index", self.index, MultiIndex)


@dataclass(frozen=True, eq=False)
class App(_Node):
    """Function application; order 0 regardless of the argument."""

    func: str
    arg: "Expr"

    def __post_init__(self) -> None:
        check_type("func", self.func, str)

    def _children(self) -> tuple:
        return (self.arg,)


@dataclass(frozen=True, eq=False)
class DeltaTerm(_Node):
    """An iterated difference of ``func`` at ``base``, taken once along each
    of ``directions``: a direction applied twice is listed twice."""

    directions: tuple["Expr", ...]
    func: str
    base: "Expr"

    def __post_init__(self) -> None:
        check_type("directions", self.directions, (tuple, list))
        object.__setattr__(self, "directions", tuple(self.directions))
        check_type("func", self.func, str)

    def _children(self) -> tuple:
        return (*self.directions, self.base)


@dataclass(frozen=True, eq=False)
class Sum(_Node):
    terms: tuple["Expr", ...]

    def __post_init__(self) -> None:
        check_type("terms", self.terms, (tuple, list))
        object.__setattr__(self, "terms", tuple(self.terms))

    def _children(self) -> tuple:
        return self.terms


Expr = Union[PointSym, VecSym, ComponentSym, App, DeltaTerm, Sum]
_NODE_TYPES = frozenset(get_args(Expr))


def _postorder(root: Expr) -> list[Expr]:
    """The distinct nodes of ``root`` in the order a recursive left-to-right
    postorder finishes them, found with an explicit stack so that nesting
    has no limit.  A root that is not a node raises ``TypeError``."""
    if type(root) not in _NODE_TYPES:
        raise TypeError(f"not an expression: {shown(root)}")
    # A node is marked when it is pushed: the graph has no cycles, so no
    # node is met again below itself before it is finished.
    seen = {root}
    out = []
    stack = [(root, iter(root._children()))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(child._children())))
                break
        else:
            stack.pop()
            out.append(node)
    return out


def order_of(e: Expr) -> int:
    """Leading order of an expression in the direction calculus.

    Points and applications have order 0, vectors order 1, components the
    order of their index; a sum takes the minimum of its terms and a
    difference term the sum of its directions' orders.
    """
    orders: dict[Expr, int] = {}
    for n in _postorder(e):
        if isinstance(n, VecSym):
            orders[n] = 1
        elif isinstance(n, ComponentSym):
            orders[n] = n.index.order
        elif isinstance(n, DeltaTerm):
            orders[n] = sum(orders[d] for d in n.directions)
        elif isinstance(n, Sum):
            orders[n] = min((orders[t] for t in n.terms), default=0)
        else:  # a point or an application
            orders[n] = 0
    return orders[e]


def _key_of(n: Expr) -> tuple:
    """The sort key of ``n``, built from the keys its children carry."""
    if isinstance(n, PointSym):
        return (0, n.name)
    if isinstance(n, VecSym):
        return (1, n.name)
    if isinstance(n, ComponentSym):
        return (2, n.index.order, str(n.index), n.cuboid)
    if isinstance(n, App):
        return (3, n.func, n.arg._key)
    if isinstance(n, DeltaTerm):
        return (4, len(n.directions), tuple(d._key for d in n.directions), n.func, n.base._key)
    return (5, len(n.terms), tuple(t._key for t in n.terms))


_stored_key = attrgetter("_key")


def sort_key(e: Expr) -> tuple:
    """Total order on expressions used everywhere a canonical order is needed:
    the key ``e`` was given when it was interned."""
    if type(e) not in _NODE_TYPES:
        raise TypeError(f"not an expression: {shown(e)}")
    return e._key


def canonicalize(e: Expr) -> Expr:
    """Flatten sums, sort operands, and collapse differences with no
    directions into plain applications.  Idempotent.  Sorting compares the
    operands' keys, nested tuples, recursively: operands equal down to a
    level deeper than the interpreter can recurse raise ``ValueError``."""
    out: dict[Expr, Expr] = {}
    try:
        for n in _postorder(e):
            if isinstance(n, (PointSym, VecSym, ComponentSym)):
                c = n
            elif isinstance(n, App):
                c = App(n.func, out[n.arg])
            elif isinstance(n, Sum):
                flat: list[Expr] = []
                for t in n.terms:
                    ct = out[t]
                    if isinstance(ct, Sum):
                        flat.extend(ct.terms)
                    else:
                        flat.append(ct)
                if len(flat) == 1:
                    c = flat[0]
                else:
                    flat.sort(key=_stored_key)
                    c = Sum(tuple(flat))
            else:  # a difference term
                if n.directions:
                    dirs = sorted((out[d] for d in n.directions), key=_stored_key)
                    c = DeltaTerm(tuple(dirs), n.func, out[n.base])
                else:
                    c = App(n.func, out[n.base])
            out[n] = c
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    return out[e]


def substitute_components(e: Expr, repl: Callable[[ComponentSym], Expr]) -> Expr:
    """Rebuild ``e`` with every cuboid component replaced by ``repl(component)``.

    ``repl`` is called once per distinct component."""
    out: dict[Expr, Expr] = {}
    for n in _postorder(e):
        if isinstance(n, ComponentSym):
            out[n] = repl(n)
        elif isinstance(n, App):
            out[n] = App(n.func, out[n.arg])
        elif isinstance(n, DeltaTerm):
            out[n] = DeltaTerm(tuple(out[d] for d in n.directions), n.func, out[n.base])
        elif isinstance(n, Sum):
            out[n] = Sum(tuple(out[t] for t in n.terms))
        else:
            out[n] = n
    return out[e]


def _build_expansion(alpha: MultiIndex, families, leaf: Callable[[MultiIndex], Expr]) -> tuple[Expr, ...]:
    """One difference of ``f`` per family, in family order, each built
    canonical: the node ``canonicalize`` returns for it, in one pass.

    Each family is a tuple of mask sets, the base set first and then one
    per direction; mask c stands for ``alpha.placements()[c]``, a set for
    the sum of ``leaf`` over its indices, and ``leaf`` must return canonical
    nodes that are not sums.  Each leaf and each distinct set is built once,
    and every operand list is sorted by the keys its nodes carry as it is built.
    """
    placed = alpha.placements()
    leaves: dict[int, Expr] = {}
    sums: dict[tuple[int, ...], Expr] = {}

    def summed(masks: tuple[int, ...]) -> Expr:
        e = sums.get(masks)
        if e is None:
            parts = [leaves.get(c) or leaves.setdefault(c, leaf(placed[c])) for c in masks]
            if len(parts) == 1:
                e = parts[0]
            else:
                parts.sort(key=_stored_key)
                e = Sum(tuple(parts))
            sums[masks] = e
        return e

    terms = []
    for base, *blocks in families:
        dirs = sorted(map(summed, blocks), key=_stored_key)
        terms.append(DeltaTerm(tuple(dirs), "f", summed(base)) if dirs else App("f", summed(base)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _row_terms(alpha: MultiIndex, kind: str) -> tuple[Expr, ...]:
    """The terms of an expansion of ``alpha`` in partition-row order: term r
    belongs to ``enumerate_partitions(alpha)[r]``.  ``kind`` is "tangent",
    "chain" (family r's sets) or "main" (partition r's blocks, at ``g(x)``)."""
    rows = _ones_families(alpha.order)
    families = (((0,), *((b,) for b in blocks)) if kind == "main" else sets for blocks, sets in rows)
    return _build_expansion(alpha, families, partial(ComponentSym, "u") if kind == "tangent" else _inner_difference)


def _expansion(alpha: MultiIndex, kind: str) -> Expr:
    """The ``kind`` expansion's one term, or the sum of its terms sorted."""
    terms = _row_terms(alpha, kind)
    return terms[0] if len(terms) == 1 else Sum(tuple(sorted(terms, key=_stored_key)))


@cached_after(lambda alpha: check_type("alpha", alpha, MultiIndex))
def expand_tangent(alpha: MultiIndex) -> Expr:
    """Component ``alpha`` of the conjugated pointwise map ``f`` over the
    cuboid ``u``, as one difference term per partition of ``alpha`` with
    directions and base point given by the per-partition index-set
    families.  Built canonical in one pass over the cached families."""
    return _expansion(alpha, "tangent")


def _inner_difference(gamma: MultiIndex) -> Expr:
    """``g`` differenced at ``x`` along ``v_i`` for each position i of
    ``gamma``, canonical: the vectors in name order, so ``v_10`` comes
    before ``v_2``."""
    if gamma.order == 0:
        return App("g", PointSym("x"))
    dirs = tuple(map(VecSym, sorted([f"v_{i + 1}" for i in gamma.support])))
    return DeltaTerm(dirs, "g", PointSym("x"))


@cached_after(lambda alpha: check_type("alpha", alpha, MultiIndex))
def expand_chain(alpha: MultiIndex) -> Expr:
    """Iterated difference of the composite ``f(g(x))`` along the vectors
    ``v_i``: ``expand_tangent(alpha)`` with the inner difference of each
    component's index in place of the component.  Built canonical in one
    pass over the families, without building (or caching) the tangent
    expansion."""
    return _expansion(alpha, "chain")


@cached_after(lambda alpha: check_type("alpha", alpha, MultiIndex))
def main_part(alpha: MultiIndex) -> Expr:
    """The leading-order truncation of ``expand_chain(alpha)``: per partition,
    every direction keeps only its lowest-order summand and the base point
    collapses to ``g(x)``.  Every term has order exactly |alpha|."""
    return _expansion(alpha, "main")


# ---------------------------------------------------------------------------
# rendering

def _component_subscript(index: MultiIndex) -> str:
    if index.order == 0:
        return "0"
    positions = [str(p + 1) for p in index.support]
    if len(positions) == 1:
        return positions[0]
    return "{" + ",".join(positions) + "}"


def _interleave(texts: list[str], kids: list) -> list[str]:
    """``texts[0]``, ``kids[0]``, ``texts[1]``, ..., ``kids[-1]``, ``texts[-1]``,
    with each kid's parts spliced in: a kid is a leaf's text or a list of parts."""
    if list not in map(type, kids):
        parts = texts + kids
        parts[::2] = texts
        parts[1::2] = kids
        return parts
    parts = [texts[0]]
    for kid, text in zip(kids, texts[1:]):
        parts += (kid,) if type(kid) is str else kid
        parts.append(text)
    return parts


def _array_texts(head: str, count: int, depth: int, tail: str) -> list[str]:
    """The texts around the ``count`` items of a JSON array whose closing
    bracket sits at ``depth``, the first after ``head`` and the last before ``tail``."""
    if not count:
        return [head + "[]" + tail]
    item = "\n" + "  " * (depth + 1)
    texts = [f",{item}"] * (count + 1)
    texts[0] = f"{head}[{item}"
    texts[-1] = "\n" + "  " * depth + "]" + tail
    return texts


def _json_parts(e: Expr) -> list[str]:
    """Parts whose join is ``json.dumps({"version": 1, "root": <the object
    form of e>}, indent=2, sort_keys=True)``.

    A leaf's text is made once per depth it is printed at.  Every other
    (node, depth) is a list of parts, its own text between its children's
    parts spliced in, so each byte of the output is copied once, by the
    caller's join."""
    nodes = _postorder(e)
    # The depths each node is printed at, found parents first.  A node's
    # parts are dropped after its last reader, the parent that meets it
    # first here, so a deep chain holds a few levels' parts, not every level's.
    depths: dict[Expr, set[int]] = {e: {1}}
    last_read: dict[Expr, list[Expr]] = {}
    for n in reversed(nodes):
        if isinstance(n, App):
            groups = ((1, (n.arg,)),)
        elif isinstance(n, DeltaTerm):
            groups = ((2, n.directions), (1, (n.base,)))
        elif isinstance(n, Sum):
            groups = ((2, n.terms),)
        else:
            continue
        for step, children in groups:
            below = {d + step for d in depths[n]}
            for child in children:
                if child not in depths:
                    depths[child] = set()
                    last_read.setdefault(n, []).append(child)
                depths[child] |= below
    out: dict[Expr, dict[int, str | list[str]]] = {}
    for n in nodes:
        texts = out[n] = {}
        for depth in depths[n]:
            # As _json_object lays out an object: a field starts at ``pad``.
            pad = "\n" + "  " * (depth + 1)
            close = "\n" + "  " * depth + "}"
            if isinstance(n, (PointSym, VecSym)):
                kind = "point" if isinstance(n, PointSym) else "vector"
                texts[depth] = f'{{{pad}"name": {json.dumps(n.name)},{pad}"node": "{kind}"{close}'
                continue
            if isinstance(n, ComponentSym):
                cuboid, index = json.dumps(n.cuboid), json.dumps(str(n.index))
                texts[depth] = f'{{{pad}"cuboid": {cuboid},{pad}"index": {index},{pad}"node": "component"{close}'
                continue
            if isinstance(n, App):
                kids = [out[n.arg][depth + 1]]
                own = [f'{{{pad}"arg": ', f',{pad}"func": {json.dumps(n.func)},{pad}"node": "apply"{close}']
            elif isinstance(n, DeltaTerm):
                kids = [out[n.base][depth + 1], *(out[d][depth + 2] for d in n.directions)]
                alpha = _json_array(["1"] * len(n.directions), depth + 1)
                tail = f',{pad}"func": {json.dumps(n.func)},{pad}"node": "delta"{close}'
                own = [f'{{{pad}"alpha": {alpha},{pad}"base": ']
                own += _array_texts(f',{pad}"directions": ', len(n.directions), depth + 1, tail)
            else:
                kids = [out[t][depth + 2] for t in n.terms]
                own = _array_texts(f'{{{pad}"node": "sum",{pad}"terms": ', len(kids), depth + 1, close)
            texts[depth] = _interleave(own, kids)
        for child in last_read.get(n, ()):
            del out[child]
    # The envelope goes into the root's first and last parts: the root's
    # list, the longest, is not copied.
    parts = out.pop(e)[1]
    if type(parts) is str:
        parts = [parts]
    parts[0] = '{\n  "root": ' + parts[0]
    parts[-1] += ',\n  "version": 1\n}'
    return parts


def render(e: Expr, fmt: str = "text") -> str:
    """Serialize an expression.

    ``text`` and ``latex`` print a difference term's exponent as the number
    of its listed directions.  ``json`` is a faithful serialization and
    round-trips through ``parse``.
    """
    if fmt == "json":
        return "".join(_json_parts(e))
    if fmt != "text" and fmt != "latex":
        raise ValueError(f"unknown format: {shown(fmt)}")
    latex = fmt == "latex"
    out: dict[Expr, str] = {}
    for n in _postorder(e):
        if isinstance(n, (PointSym, VecSym)):
            out[n] = n.name
        elif isinstance(n, ComponentSym):
            out[n] = f"{n.cuboid}_{_component_subscript(n.index)}"
        elif isinstance(n, App):
            out[n] = f"{n.func}({out[n.arg]})"
        elif isinstance(n, Sum):
            out[n] = " + ".join(out[t] for t in n.terms) if n.terms else "0"
        else:  # a difference term
            dirs = [out[d] for d in n.directions]
            if not dirs:
                out[n] = f"{n.func}({out[n.base]})"
                continue
            head = "\\Delta" if latex else "Δ"
            if len(dirs) >= 2:
                head += f"^{{{len(dirs)}}}" if latex else f"^{len(dirs)}"
            sub = ", ".join(dirs)
            out[n] = f"{head}_{{{sub}}} {n.func}({out[n.base]})"
    return out[e]


# ---------------------------------------------------------------------------
# parsing
#
# Both readers build each distinct subexpression once per call.  The text
# reader keys each flat difference term, application and symbol by its
# source text and skips a repeat.  ``_node_of`` reads every JSON object
# form, keyed by its fields: json.loads calls it children first, and
# ``expr_from_obj`` calls it top down.  A hit returns the node a build
# would have returned, since nodes are interned.

_TOO_DEEP = "nesting too deep"

# The most directions ``expr_from_obj`` lists for one difference term, so
# that a few ``alpha`` digits cannot ask for a tuple too large to build.
_MAX_DIRECTIONS = 1 << 16


def expr_from_obj(obj: dict) -> Expr:
    """Rebuild an expression from its JSON object form.

    A difference node's ``alpha`` gives each direction's multiplicity:
    direction i is listed ``alpha[i]`` times, so a 0 drops it.  Missing
    fields, fields of the wrong type, booleans where integers belong,
    multiplicities summing above 2**16 and nesting deeper than the
    interpreter can recurse raise ``ValueError``.  A node in place of an
    object form is taken as it is.
    """
    return _node_of({}, True, obj)


def _left_as_object():
    raise ValueError("a child left as an object")


def _node_of(memo: dict, nested: bool, obj):
    """The node of one JSON object form, its own fields checked in order.

    A child that is a node is taken as it is.  Called top down (``nested``),
    this builds a child that is still an object by calling itself, one frame
    per level; as the ``object_hook`` of json.loads, which calls it
    innermost first, it raises on one, and returns an object that carries
    ``root`` (the envelope) unchanged.  ``memo`` maps each built node's
    fields to the node and is looked up before anything is built; only
    ``str`` names, exact ``int`` multiplicities and nodes go into a key, so
    1, True and 1.0 are never merged.
    """
    if not nested and "root" in obj or nested and type(obj) in _NODE_TYPES:
        return obj
    if nested and not isinstance(obj, dict) or "node" not in obj:  # json.loads gives only dicts
        raise ValueError(f"malformed expression node: {shown(obj)}")
    kind = obj["node"]
    try:
        if kind == "point" or kind == "vector":
            name = obj["name"]
            if type(name) is str:
                key = (kind, name)
                return memo.get(key) or memo.setdefault(key, PointSym(name) if kind == "point" else VecSym(name))
        elif kind == "component":
            cuboid, index = obj["cuboid"], obj["index"]
            if type(cuboid) is str and type(index) is str:
                key = (kind, cuboid, index)
                return memo.get(key) or memo.setdefault(key, ComponentSym(cuboid, MultiIndex.from_string(index)))
        elif kind == "delta":
            alpha, dirs, func = obj["alpha"], obj["directions"], obj["func"]
            if (
                (type(alpha) is list or isinstance(alpha, (list, tuple)))
                and (type(dirs) is list or isinstance(dirs, (list, tuple)))
                and type(func) is str
                and ((exact := {int}.issuperset(map(type, alpha))) or bool not in map(type, alpha))
            ):
                if not _NODE_TYPES.issuperset(map(type, dirs)):
                    dirs = [_node_of(memo, True, d) for d in dirs] if nested else _left_as_object()
                base = obj["base"]
                if type(base) not in _NODE_TYPES:
                    base = _node_of(memo, True, base) if nested else _left_as_object()
                key = (kind, tuple(alpha), tuple(dirs), func, base) if exact else None
                node = memo.get(key)
                if node is None:  # checked on a miss only: a hit passed these checks
                    if len(alpha) != len(dirs):
                        raise ValueError("alpha and directions must have equal length")
                    if any(not isinstance(a, int) or a < 0 for a in alpha):
                        raise ValueError("alpha entries must be nonnegative integers")
                    if sum(alpha) > _MAX_DIRECTIONS:
                        raise ValueError(f"a difference along more than {_MAX_DIRECTIONS} directions")
                    node = DeltaTerm(tuple(d for a, d in zip(alpha, dirs) for _ in range(a)), func, base)
                    if exact:
                        memo[key] = node
                return node
        elif kind == "sum":
            terms = obj["terms"]
            if isinstance(terms, (list, tuple)):
                if not _NODE_TYPES.issuperset(map(type, terms)):
                    terms = [_node_of(memo, True, t) for t in terms] if nested else _left_as_object()
                key = (kind, tuple(terms))
                return memo.get(key) or memo.setdefault(key, Sum(key[1]))
        elif kind == "apply":
            func = obj["func"]
            if type(func) is str:
                arg = obj["arg"]
                if type(arg) not in _NODE_TYPES:
                    arg = _node_of(memo, True, arg) if nested else _left_as_object()
                key = (kind, func, arg)
                return memo.get(key) or memo.setdefault(key, App(func, arg))
        else:
            raise ValueError(f"unknown node kind: {shown(kind)}")
    except KeyError as exc:
        raise ValueError(f"{kind} node lacks the field {exc}") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    raise ValueError(f"{kind} node has a field of the wrong type")


# The name text reads as the cuboid, and the names it reads as points; any
# other name is a vector.
_CUBOID = "u"
_POINTS = frozenset({"x", "y", "z"})

# A name, a natural number, or any other one non-space character.
_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|\S)")
_KIND_OF_CHAR = {
    "Δ": "delta",
    "^": "caret",
    "_": "under",
    "{": "lbrace",
    "}": "rbrace",
    "(": "lparen",
    ")": "rparen",
    "+": "plus",
    ",": "comma",
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "name"),
}
# A character that starts no token: not a space, not a decimal digit (\d
# matches every one, not only 0-9), and of no kind above.
_UNREADABLE_RE = re.compile(r"[^\s\d" + re.escape("".join(_KIND_OF_CHAR)) + "]")

# A flat term: a difference term, an application or a symbol whose brackets
# hold no other bracket.  A name is matched whole, and alone only when no
# "(" or "_" follows it, so the match ends where the reader ends the term.
_FLAT_TERM_RE = re.compile(
    r"Δ(?:\s*\^\s*(?:\{\s*\d+\s*\}|\d+))?\s*_\s*\{[^(){}]*\}\s*[A-Za-z][A-Za-z0-9]*\s*\([^(){}]*\)"
    r"|[A-Za-z][A-Za-z0-9]*(?![A-Za-z0-9])(?:\s*\([^(){}]*\)|\s*_\s*(?:\d+|\{[^(){}]*\})|(?!\s*[_(]))"
)

# The cuboid name as a whole token, followed by "_", with the subscript
# tokens after it that the dimension is inferred from (group 1): braces,
# commas and numbers.  The digits before the name are part of the match,
# so that a name after a number ("1u") is found and the end of a longer
# name ("a1u") is not.
_CUBOID_SUBSCRIPT_RE = re.compile(
    rf"(?<![A-Za-z0-9])[0-9]*{_CUBOID}(?![A-Za-z0-9])(?=\s*_((?:\s*(?:[{{,]|\d+))*))"
)
_NUMBER_RE = re.compile(r"\d+")

# CPython's default limit on the digits ``int`` converts from a string.  A
# longer numeral names no position or exponent a formula can have, and is
# rejected by its length before any conversion, which is quadratic.
_MAX_DIGITS = 4300


def _natural(digits: str) -> int:
    if len(digits) > _MAX_DIGITS:
        raise ValueError(f"number too long: {len(digits)} digits")
    return int(digits)


def _infer_dim(s: str) -> int:
    """The largest number in a subscript of the cuboid name; 0 when there is none."""
    subscripts = " ".join(m.group(1) for m in _CUBOID_SUBSCRIPT_RE.finditer(s))
    return max(map(_natural, _NUMBER_RE.findall(subscripts)), default=0)


class _Reader:
    """Recursive-descent reader of the documented text grammar, which reads
    each token at the offset it has reached.

    The text format does not record the cube dimension of component
    subscripts, so it is supplied (or inferred as the largest position
    mentioned; ``None`` when no position is).

    The grammar is context free and the dimension is fixed for the call,
    so equal source text reads as the equal node: a difference term, an
    application or a symbol whose text was read before is looked up by
    that text and skipped.  Only a flat term, whose brackets hold no other
    bracket, is looked up: its end is found by one regex match.  A nested
    term is read in full, and its flat parts are looked up.
    """

    __slots__ = ("s", "dim", "memo", "kind", "text", "start", "end")

    def __init__(self, s: str, dim: int | None):
        self.s = s
        self.dim = dim
        self.memo: dict[str, Expr] = {}
        self.read(0)

    def read(self, pos: int) -> None:
        """Make the token after offset ``pos`` the current one: its kind,
        its text and where that text starts and ends.  Past the last token
        the kind and text are ``None``."""
        m = _TOKEN_RE.match(self.s, pos)
        if m is None:
            self.kind = self.text = None
            self.start = self.end = pos
            return
        self.text = text = m.group(1)
        # Every character that starts no token was rejected before reading,
        # so one of no kind here is a decimal digit.
        self.kind = _KIND_OF_CHAR.get(text[0], "nat")
        self.end = end = m.end()
        self.start = end - len(text)

    def token_index(self) -> int:
        # Counted only for an error message.
        return len(_TOKEN_RE.findall(self.s, 0, self.start))

    def take(self, kind: str) -> str:
        text = self.text
        if self.kind != kind:
            raise ValueError(f"expected {kind}, got {self.kind} ({text!r}) at token {self.token_index()}")
        self.read(self.end)
        return text

    def span_end(self) -> int | None:
        """The end offset of the term at the current token when it is a flat
        difference term, application or symbol."""
        m = _FLAT_TERM_RE.match(self.s, self.start)
        return None if m is None else m.end()

    def parse_expr(self) -> Expr:
        # Terms are parsed inline, so that each level of nested parentheses
        # costs one frame of recursion.  The key of a term is sliced again
        # to store it, rather than held across the recursion.
        s, memo = self.s, self.memo
        terms = []
        while True:
            start, end = self.start, self.span_end()
            term = None if end is None else memo.get(s[start:end])
            if term is not None:
                self.read(end)
            else:
                kind, text = self.kind, self.text
                if kind == "delta":
                    term = self.parse_delta()
                elif kind == "nat":
                    if text != "0":
                        _natural(text)  # a numeral past the digit limit is reported by its length
                        raise ValueError(f"unexpected number {text!r}")
                    self.take("nat")
                    term = Sum(())
                elif kind == "name":
                    self.take("name")
                    if self.kind == "lparen":
                        self.take("lparen")
                        arg = self.parse_expr()
                        self.take("rparen")
                        term = App(text, arg)
                    else:
                        term = self.parse_symbol(text)
                else:
                    raise ValueError(f"unexpected token {kind} ({text!r})")
                if end is not None:
                    memo[s[start:end]] = term
            terms.append(term)
            if self.kind != "plus":
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))
            self.take("plus")

    def parse_delta(self) -> Expr:
        self.take("delta")
        exponent = None
        if self.kind == "caret":
            self.take("caret")
            if self.kind == "lbrace":
                self.take("lbrace")
                exponent = _natural(self.take("nat"))
                self.take("rbrace")
            else:
                exponent = _natural(self.take("nat"))
        self.take("under")
        self.take("lbrace")
        dirs = [self.parse_expr()]
        while self.kind == "comma":
            self.take("comma")
            dirs.append(self.parse_expr())
        self.take("rbrace")
        func = self.take("name")
        self.take("lparen")
        base = self.parse_expr()
        self.take("rparen")
        if exponent is not None and exponent != len(dirs):
            raise ValueError(
                f"exponent {exponent} disagrees with {len(dirs)} listed directions"
            )
        return DeltaTerm(tuple(dirs), func, base)

    def parse_symbol(self, name: str) -> Expr:
        """The symbol whose name was just taken."""
        symbol = PointSym if name in _POINTS else VecSym
        if self.kind != "under":
            return symbol(name)
        self.take("under")
        if self.kind == "lbrace":
            self.take("lbrace")
            positions = [_natural(self.take("nat"))]
            while self.kind == "comma":
                self.take("comma")
                positions.append(_natural(self.take("nat")))
            self.take("rbrace")
            subtext = "{" + ",".join(str(p) for p in positions) + "}"
        else:
            positions = [_natural(self.take("nat"))]
            subtext = str(positions[0])
        if name == _CUBOID:
            if self.dim is None:
                raise ValueError(
                    f"cannot infer the dimension of {name}_{subtext}: no component"
                    " has a nonzero position, so pass dim"
                )
            if positions == [0]:
                return ComponentSym(name, MultiIndex.zero(self.dim))
            mask = 0
            for p in positions:
                if not 1 <= p <= self.dim:
                    raise ValueError(f"component position {p} outside dimension {self.dim}")
                mask |= 1 << (p - 1)
            return ComponentSym(name, MultiIndex(self.dim, mask))
        return symbol(f"{name}_{subtext}")


def parse(s: str, fmt: str = "text", dim: int | None = None) -> Expr:
    """Parse an expression from ``text`` or ``json``.

    JSON is faithful.  In text, ``u`` names the cuboid, ``x``, ``y`` and
    ``z`` points, and any other name a vector.  The text form needs the
    component dimension ``dim`` to rebuild subscripts like ``u_{1,3}``;
    when omitted it is inferred as the largest position appearing in any
    component subscript, which may not exceed ``MAX_DIM`` = 2**16, and text
    whose only components are ``u_0`` raises ``ValueError``.  A ``dim``
    outside [0, ``MAX_DIM``] raises it before any text is read; a numeral of
    more than 4,300 digits, and input nested deeper than the interpreter can
    recurse, raise it too.  Each distinct subexpression is built once,
    and the result is the interned node.
    """
    check_type("s", s, str)
    if dim is not None:
        check_int("dim", dim, 0, MAX_DIM)
    if fmt == "json":
        try:
            try:
                obj = json.loads(s, object_hook=partial(_node_of, {}, False))
            except ValueError:
                obj = None  # the load stopped at a malformed object
            if type(obj) is dict and obj.get("version") == 1 and type(obj.get("root")) in _NODE_TYPES:
                return obj["root"]
            # Read again as plain objects, so that an error quotes the input as it reads.
            obj = json.loads(s)
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
        if not isinstance(obj, dict) or obj.get("version") != 1 or "root" not in obj:
            raise ValueError("expected an envelope {'version': 1, 'root': ...}")
        return expr_from_obj(obj["root"])
    if fmt != "text":
        raise ValueError(f"unknown format: {shown(fmt)}")
    unreadable = _UNREADABLE_RE.search(s)
    if unreadable:
        raise ValueError(f"cannot tokenize at: {s[unreadable.start():].strip()[:20]!r}")
    if dim is None:
        dim = _infer_dim(s)
        if dim > MAX_DIM:
            raise ValueError(f"component position {dim} is above {MAX_DIM}")
        dim = dim or None  # no position to infer it from
    reader = _Reader(s, dim)
    try:
        expr = reader.parse_expr()
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    if reader.kind is not None:
        raise ValueError(f"trailing input from token {reader.token_index()}")
    return expr
