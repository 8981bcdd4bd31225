"""Symbolic difference expressions and the expansion formulas.

The expression language covers exactly what the expansions produce: point
and vector symbols, cuboid components, function application, finite sums,
and iterated difference terms.  Equality of expressions means syntactic
equality of canonical forms; there is no general rewriting.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): constructing a node returns the one live node with
equal fields, so structurally equal expressions are one object, ``==`` and
``hash`` are identity, and the inner differences an expansion shares are
stored once.  A node is interned when its children are, and carries the sort
key made there from theirs, which ``canonicalize`` and the generators sort
by.  Each other pass over an expression is one loop over its distinct nodes,
children first; only ``parse`` and ``expr_from_obj`` recurse, and they
report ``nesting too deep``.

The expansion generators take only alpha and write fixed names (``f``,
``g``, ``x``, ``v_i``, ``u``) that the text reader reads back.  They take
one pass over the cached mask families and place each leaf below alpha;
each node is built once, its operands already in canonical order, so
nothing is canonicalized or substituted afterwards; ``expand_chain`` does
not build (or fill the cache of) ``expand_tangent``.
"""

from __future__ import annotations

import json
import re
import threading
import weakref
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import attrgetter
from typing import Callable, Union, get_args

from .asets import _json_array, _json_object, _ones_families
from .combinatorics import MultiIndex, check_alpha

# Every live node, keyed by its class and field values.  The table is weak:
# a node no expression or caller holds any more drops out of it.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _HashConsed(type):
    """Metaclass of the node classes: the single interning point."""

    def __call__(cls, *args, **kwargs):
        node = type.__call__(cls, *args, **kwargs)
        table_key = (cls, *node.__dict__.values())
        try:
            found = _NODES.get(table_key)
            if found is not None:
                return found
            # Set before the node is stored, so no thread gets it without its key.
            object.__setattr__(node, "_key", _key_of(node))
        except (TypeError, AttributeError):
            # A child is unhashable or carries no key, so it is no interned node
            # and this node is not interned either: no value that is ``==`` but
            # of another type (1 and True, say) is ever merged into it.
            return node
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
        if type(self.name) is not str:
            raise ValueError("a symbol name must be a str")


@dataclass(frozen=True, eq=False)
class VecSym(_Node):
    """A displacement vector; contributes order 1."""

    name: str

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            raise ValueError("a symbol name must be a str")


@dataclass(frozen=True, eq=False)
class ComponentSym(_Node):
    """Component of a named cuboid at a multi-index; order is the index order."""

    cuboid: str
    index: MultiIndex

    def __post_init__(self) -> None:
        if type(self.cuboid) is not str:
            raise ValueError("a cuboid name must be a str")
        if type(self.index) is not MultiIndex:
            raise ValueError("ComponentSym.index must be a MultiIndex")


@dataclass(frozen=True, eq=False)
class App(_Node):
    """Function application; order 0 regardless of the argument."""

    func: str
    arg: "Expr"

    def __post_init__(self) -> None:
        if type(self.func) is not str:
            raise ValueError("a function name must be a str")

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
        if not isinstance(self.directions, (tuple, list)):
            raise ValueError(f"DeltaTerm.directions must be a tuple or list, not {self.directions!r}")
        object.__setattr__(self, "directions", tuple(self.directions))
        if type(self.func) is not str:
            raise ValueError("a function name must be a str")

    def _children(self) -> tuple:
        return (*self.directions, self.base)


@dataclass(frozen=True, eq=False)
class Sum(_Node):
    terms: tuple["Expr", ...]

    def __post_init__(self) -> None:
        if not isinstance(self.terms, (tuple, list)):
            raise ValueError(f"Sum.terms must be a tuple or list, not {self.terms!r}")
        object.__setattr__(self, "terms", tuple(self.terms))

    def _children(self) -> tuple:
        return self.terms


Expr = Union[PointSym, VecSym, ComponentSym, App, DeltaTerm, Sum]
_NODE_TYPES = frozenset(get_args(Expr))


def _postorder(root: Expr) -> list[Expr]:
    """The distinct nodes of ``root`` in the order a recursive left-to-right
    postorder finishes them, found with an explicit stack so that nesting
    has no limit.  A child that is not a node raises ``TypeError``."""
    if type(root) not in _NODE_TYPES:
        raise TypeError(f"not an expression: {root!r}")
    # A node is marked when it is pushed: the graph has no cycles, so no
    # node is met again below itself before it is finished.
    seen = {root}
    out = []
    stack = [(root, iter(root._children()))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if type(child) not in _NODE_TYPES:
                raise TypeError(f"not an expression: {child!r}")
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
    if not hasattr(e, "_key"):
        _postorder(e)  # raises TypeError: only a node over a non-expression has none
    return e._key


def canonicalize(e: Expr) -> Expr:
    """Flatten sums, sort operands, and collapse differences with no
    directions into plain applications.  Idempotent."""
    out: dict[Expr, Expr] = {}
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


def _build_expansion(alpha: MultiIndex, families, leaf: Callable[[MultiIndex], Expr]) -> Expr:
    """The sum over ``families`` of one difference of ``f`` each, built
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
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_stored_key)
    return Sum(tuple(terms))


@lru_cache(maxsize=None)
def expand_tangent(alpha: MultiIndex) -> Expr:
    """Component ``alpha`` of the conjugated pointwise map ``f`` over the
    cuboid ``u``, as one difference term per partition of ``alpha`` with
    directions and base point given by the per-partition index-set
    families.  Built canonical in one pass over the cached families; an
    alpha that is not a ``MultiIndex`` raises ``ValueError``."""
    check_alpha(alpha)
    families = (sets for _, sets in _ones_families(alpha.order))
    return _build_expansion(alpha, families, lambda m: ComponentSym("u", m))


def _inner_difference(gamma: MultiIndex) -> Expr:
    """``g`` differenced at ``x`` along ``v_i`` for each position i of
    ``gamma``, canonical: the vectors in name order, so ``v_10`` comes
    before ``v_2``."""
    if gamma.order == 0:
        return App("g", PointSym("x"))
    dirs = tuple(map(VecSym, sorted([f"v_{i + 1}" for i in gamma.support])))
    return DeltaTerm(dirs, "g", PointSym("x"))


@lru_cache(maxsize=None)
def expand_chain(alpha: MultiIndex) -> Expr:
    """Iterated difference of the composite ``f(g(x))`` along the vectors
    ``v_i``: ``expand_tangent(alpha)`` with the inner difference of each
    component's index in place of the component.  Built canonical in one
    pass over the families, without building (or caching) the tangent
    expansion; an alpha that is not a ``MultiIndex`` raises ``ValueError``."""
    check_alpha(alpha)
    families = (sets for _, sets in _ones_families(alpha.order))
    return _build_expansion(alpha, families, _inner_difference)


@lru_cache(maxsize=None)
def main_part(alpha: MultiIndex) -> Expr:
    """The leading-order truncation of ``expand_chain(alpha)``: per partition,
    every direction keeps only its lowest-order summand and the base point
    collapses to ``g(x)``.  Every term has order exactly |alpha|."""
    check_alpha(alpha)
    families = (((0,), *((b,) for b in blocks)) for blocks, _ in _ones_families(alpha.order))
    return _build_expansion(alpha, families, _inner_difference)


# ---------------------------------------------------------------------------
# rendering

def _component_subscript(index: MultiIndex) -> str:
    if index.order == 0:
        return "0"
    positions = [str(p + 1) for p in index.support]
    if len(positions) == 1:
        return positions[0]
    return "{" + ",".join(positions) + "}"


def _json(e: Expr) -> str:
    """The JSON object form of ``e`` as json.dumps(..., indent=2,
    sort_keys=True) prints it as the root of the envelope, built once per
    (node, depth)."""
    nodes = _postorder(e)
    # The depths each node is printed at, found parents first.  A node's
    # strings are dropped after its last reader, the parent that meets it
    # first here, so a deep chain holds a few levels' text, not every level's.
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
    out: dict[Expr, dict[int, str]] = {}
    for n in nodes:
        strings = out[n] = {}
        for depth in depths[n]:
            if isinstance(n, (PointSym, VecSym)):
                kind = '"point"' if isinstance(n, PointSym) else '"vector"'
                fields = (("name", json.dumps(n.name)), ("node", kind))
            elif isinstance(n, ComponentSym):
                fields = (
                    ("cuboid", json.dumps(n.cuboid)),
                    ("index", json.dumps(str(n.index))),
                    ("node", '"component"'),
                )
            elif isinstance(n, App):
                fields = (("arg", out[n.arg][depth + 1]), ("func", json.dumps(n.func)), ("node", '"apply"'))
            elif isinstance(n, DeltaTerm):
                fields = (
                    ("alpha", _json_array(["1"] * len(n.directions), depth + 1)),
                    ("base", out[n.base][depth + 1]),
                    ("directions", _json_array([out[d][depth + 2] for d in n.directions], depth + 1)),
                    ("func", json.dumps(n.func)),
                    ("node", '"delta"'),
                )
            else:
                fields = (("node", '"sum"'), ("terms", _json_array([out[t][depth + 2] for t in n.terms], depth + 1)))
            strings[depth] = _json_object(fields, depth)
        for child in last_read.get(n, ()):
            del out[child]
    return out[e][1]


def render(e: Expr, fmt: str = "text") -> str:
    """Serialize an expression.

    ``text`` and ``latex`` print a difference term's exponent as the number
    of its listed directions.  ``json`` is a faithful serialization and
    round-trips through ``parse``.
    """
    if fmt == "json":
        # Byte-identical to json.dumps({"version": 1, "root": <the object
        # form>}, indent=2, sort_keys=True), without building the tree of dicts.
        return _json_object((("root", _json(e)), ("version", "1")), 0)
    if fmt != "text" and fmt != "latex":
        raise ValueError(f"unknown format: {fmt!r}")
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
# reader keys each difference term, application and symbol by its source
# text and skips a repeat; the JSON reader builds nodes inside json.loads,
# children first, keyed by their fields.  A hit returns the node a build
# would have returned, since nodes are interned.

_TOO_DEEP = "nesting too deep"

# The largest component dimension ``parse`` infers from text.  A larger
# position comes from no formula this library can build, and is rejected
# before a multi-index of that dimension is allocated.
_MAX_INFERRED_DIM = 1 << 16

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
    if type(obj) in _NODE_TYPES:
        return obj
    if not isinstance(obj, dict) or "node" not in obj:
        raise ValueError(f"malformed expression node: {obj!r}")
    kind = obj["node"]
    try:
        if kind == "point" or kind == "vector":
            name = obj["name"]
            if type(name) is str:
                return PointSym(name) if kind == "point" else VecSym(name)
        elif kind == "component":
            cuboid, index = obj["cuboid"], obj["index"]
            if type(cuboid) is str and type(index) is str:
                return ComponentSym(cuboid, MultiIndex.from_string(index))
        elif kind == "apply":
            func = obj["func"]
            if type(func) is str:
                return App(func, expr_from_obj(obj["arg"]))
        elif kind == "delta":
            alpha, dirs, func = obj["alpha"], obj["directions"], obj["func"]
            if (
                isinstance(alpha, (list, tuple))
                and isinstance(dirs, (list, tuple))
                and type(func) is str
                and bool not in map(type, alpha)
            ):
                dirs = [expr_from_obj(d) for d in dirs]
                base = expr_from_obj(obj["base"])
                if len(alpha) != len(dirs):
                    raise ValueError("alpha and directions must have equal length")
                if any(not isinstance(a, int) or a < 0 for a in alpha):
                    raise ValueError("alpha entries must be nonnegative integers")
                if sum(alpha) > _MAX_DIRECTIONS:
                    raise ValueError(f"a difference along more than {_MAX_DIRECTIONS} directions")
                return DeltaTerm(tuple(d for a, d in zip(alpha, dirs) for _ in range(a)), func, base)
        elif kind == "sum":
            terms = obj["terms"]
            if isinstance(terms, (list, tuple)):
                return Sum(tuple(expr_from_obj(t) for t in terms))
        else:
            raise ValueError(f"unknown node kind: {kind!r}")
    except KeyError as exc:
        raise ValueError(f"{kind} node lacks the field {exc}") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    raise ValueError(f"{kind} node has a field of the wrong type")


def _node_hook(memo: dict) -> Callable[[dict], object]:
    """An ``object_hook`` for json.loads that turns a node object whose
    children are already nodes into its node, through ``expr_from_obj``.

    json.loads calls it innermost first, so a well-formed tree arrives
    bottom-up.  ``memo`` maps the fields of each node built to the node,
    so a repeat costs one lookup.  Only exact ``int`` multiplicities and
    ``str`` names go into a key, so 1, True and 1.0 are never merged.  An
    object that is malformed, has a child left as an object, or carries
    ``root`` (the envelope) is returned unchanged.
    """

    def hook(obj: dict):
        if "root" in obj:
            return obj
        kind = obj.get("node")
        if kind == "apply":
            func, arg = obj.get("func"), obj.get("arg")
            if type(func) is not str or type(arg) not in _NODE_TYPES:
                return obj
            key = (kind, func, arg)
        elif kind == "point" or kind == "vector":
            name = obj.get("name")
            if type(name) is not str:
                return obj
            key = (kind, name)
        elif kind == "component":
            cuboid, index = obj.get("cuboid"), obj.get("index")
            if type(cuboid) is not str or type(index) is not str:
                return obj
            key = (kind, cuboid, index)
        elif kind == "delta":
            alpha, dirs, func, base = obj.get("alpha"), obj.get("directions"), obj.get("func"), obj.get("base")
            if not (
                type(alpha) is list
                and type(dirs) is list
                and type(func) is str
                and type(base) in _NODE_TYPES
                and {int}.issuperset(map(type, alpha))
                and _NODE_TYPES.issuperset(map(type, dirs))
            ):
                return obj
            key = (kind, tuple(alpha), tuple(dirs), func, base)
        elif kind == "sum":
            terms = obj.get("terms")
            if type(terms) is not list or not _NODE_TYPES.issuperset(map(type, terms)):
                return obj
            key = (kind, tuple(terms))
        else:
            return obj
        node = memo.get(key)
        if node is None:
            try:
                node = memo[key] = expr_from_obj(obj)
            except ValueError:
                return obj
        return node

    return hook


# The names text reads as a cuboid and as points; any other name is a vector.
_CUBOIDS = frozenset({"u"})
_POINTS = frozenset({"x", "y", "z"})

# A name, a natural number, or any other one non-space character.
_TOKEN_RE = re.compile(r"\s*(?:[A-Za-z][A-Za-z0-9]*|\d+|\S)")
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
    **dict.fromkeys("0123456789", "nat"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "name"),
}
_OPENER = {"rparen": "lparen", "rbrace": "lbrace"}
_BRACKETS = frozenset(_OPENER) | frozenset(_OPENER.values())


class _TokenKinds(dict):
    """Token text to kind, classified by its first character on first sight;
    ``None`` for a character that starts no token."""

    def __missing__(self, text: str) -> str | None:
        first = text[0]
        # \d matches every decimal digit, not only 0-9
        kind = self[text] = _KIND_OF_CHAR.get(first) or ("nat" if first.isdecimal() else None)
        return kind


def _tokenize(s: str) -> tuple[list, list, list, dict | None]:
    """The kinds, texts and end offsets of the tokens of ``s``, and the
    index of the closing bracket of each opening one.

    The kind and text lists end with two ``None`` markers, so lookahead
    past the last token reads ``None``.  The bracket map is ``None`` when
    the brackets do not balance.
    """
    raw = _TOKEN_RE.findall(s)
    ends = list(accumulate(map(len, raw)))
    texts = [t.lstrip() for t in raw]
    kinds = list(map(_TokenKinds(_KIND_OF_CHAR).__getitem__, texts))
    if None in kinds:
        i = kinds.index(None)
        raise ValueError(f"cannot tokenize at: {s[ends[i] - 1:].strip()[:20]!r}")
    close: dict | None = {}
    stack = []
    for i in compress(count(), map(_BRACKETS.__contains__, kinds)):
        kind = kinds[i]
        if kind == "lparen" or kind == "lbrace":
            stack.append(i)
        elif stack and kinds[stack[-1]] == _OPENER[kind]:
            close[stack.pop()] = i
        else:
            close = None
            break
    if stack:
        close = None
    kinds += (None, None)
    texts += (None, None)
    return kinds, texts, ends, close


class _Parser:
    """Recursive-descent parser for the documented text grammar.

    The text format does not record the cube dimension of component
    subscripts, so it is supplied (or inferred as the largest position
    mentioned; ``None`` when no position is).  The name ``u`` parses as a
    cuboid component, ``x``, ``y`` and ``z`` as points, and any other name
    as a vector.

    The grammar is context free and the dimension is fixed for the call,
    so equal source text parses to the equal node: a difference term, an
    application or a symbol whose text was parsed before is looked up and
    skipped.  Without balanced brackets nothing is looked up, and the
    parse, with its error, is the plain one.
    """

    def __init__(self, s, dim):
        self.s = s
        self.kinds, self.texts, self.ends, self.close = _tokenize(s)
        self.n = len(self.ends)
        self.i = 0
        self.dim = dim
        self.memo: dict[str, Expr] = {}

    def peek(self, offset: int = 0):
        # Never past the end markers: the position stops at the first.
        j = self.i + offset
        return self.kinds[j], self.texts[j]

    def take(self, kind: str) -> str:
        got, text = self.peek()
        if got != kind:
            raise ValueError(f"expected {kind}, got {got} ({text!r}) at token {self.i}")
        self.i += 1
        return text

    def span_end(self, i: int) -> int | None:
        """The last token of the term at token ``i`` when it is a difference
        term, an application or a symbol and the brackets balance."""
        kinds, close = self.kinds, self.close
        if close is None:
            return None
        kind = kinds[i]
        if kind == "name":
            after = kinds[i + 1]
            if after == "lparen":
                return close[i + 1]
            if after != "under":
                return i
            after = kinds[i + 2]
            if after == "lbrace":
                return close[i + 2]
            return i + 2 if after == "nat" else None
        if kind != "delta":
            return None
        j = i + 1
        if kinds[j] == "caret":
            if kinds[j + 1] == "lbrace":
                j = close[j + 1] + 1
            elif kinds[j + 1] == "nat":
                j += 2
            else:
                return None
        if kinds[j] != "under" or kinds[j + 1] != "lbrace":
            return None
        j = close[j + 1] + 1
        if kinds[j] != "name" or kinds[j + 1] != "lparen":
            return None
        return close[j + 1]

    def source(self, i: int, j: int) -> str:
        """The source text of tokens ``i`` to ``j``."""
        return self.s[self.ends[i] - len(self.texts[i]) : self.ends[j]]

    def parse_expr(self) -> Expr:
        # Terms are parsed inline, so that each level of nested parentheses
        # costs one frame of recursion.  The key of a term is sliced again
        # to store it, rather than held across the recursion.
        memo = self.memo
        terms = []
        while True:
            i = self.i
            end = self.span_end(i)
            term = None if end is None else memo.get(self.source(i, end))
            if term is not None:
                self.i = end + 1
            else:
                kind, text = self.peek()
                if kind == "delta":
                    term = self.parse_delta()
                elif kind == "nat":
                    if text != "0":
                        raise ValueError(f"unexpected number {text!r}")
                    self.take("nat")
                    term = Sum(())
                elif kind == "name" and self.peek(1)[0] == "lparen":
                    func = self.take("name")
                    self.take("lparen")
                    arg = self.parse_expr()
                    self.take("rparen")
                    term = App(func, arg)
                elif kind == "name":
                    term = self.parse_symbol()
                else:
                    raise ValueError(f"unexpected token {kind} ({text!r})")
                if end is not None:
                    memo[self.source(i, end)] = term
            terms.append(term)
            if self.peek()[0] != "plus":
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))
            self.take("plus")

    def parse_delta(self) -> Expr:
        self.take("delta")
        exponent = None
        if self.peek()[0] == "caret":
            self.take("caret")
            if self.peek()[0] == "lbrace":
                self.take("lbrace")
                exponent = int(self.take("nat"))
                self.take("rbrace")
            else:
                exponent = int(self.take("nat"))
        self.take("under")
        self.take("lbrace")
        dirs = [self.parse_expr()]
        while self.peek()[0] == "comma":
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

    def parse_symbol(self) -> Expr:
        name = self.take("name")
        if self.peek()[0] != "under":
            if name in _POINTS:
                return PointSym(name)
            return VecSym(name)
        self.take("under")
        if self.peek()[0] == "lbrace":
            self.take("lbrace")
            positions = [int(self.take("nat"))]
            while self.peek()[0] == "comma":
                self.take("comma")
                positions.append(int(self.take("nat")))
            self.take("rbrace")
            subtext = "{" + ",".join(str(p) for p in positions) + "}"
        else:
            positions = [int(self.take("nat"))]
            subtext = str(positions[0])
        if name in _CUBOIDS:
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
        full = f"{name}_{subtext}"
        if name in _POINTS:
            return PointSym(full)
        return VecSym(full)


def _infer_dim(kinds: list, texts: list) -> int:
    # The largest number in a subscript of a cuboid name; ``kinds`` ends
    # with ``None`` markers, which stop the scan.
    best = 0
    for i in [i for i, text in enumerate(texts) if text in _CUBOIDS]:
        if kinds[i] == "name" and kinds[i + 1] == "under":
            j = i + 2
            while kinds[j] in ("lbrace", "nat", "comma"):
                if kinds[j] == "nat":
                    best = max(best, int(texts[j]))
                j += 1
            # closing brace (if any) ends the subscript
    return best


def parse(s: str, fmt: str = "text", dim: int | None = None) -> Expr:
    """Parse an expression from ``text`` or ``json``.

    JSON is faithful.  In text, ``u`` names the cuboid, ``x``, ``y`` and
    ``z`` points, and any other name a vector.  The text form needs the
    component dimension ``dim`` to rebuild subscripts like ``u_{1,3}``;
    when omitted it is inferred as the largest position appearing in any
    component subscript, which may not exceed 2**16, and text whose only
    components are ``u_0`` raises ``ValueError``, as does a ``dim`` that is
    not ``None`` or an int >= 0.  Input that is not a ``str``, or nested
    deeper than the interpreter can recurse, raises ``ValueError``.  Each
    distinct subexpression is built once, and the result is the interned node.
    """
    if not isinstance(s, str):
        raise ValueError(f"expected a str to parse, not {type(s).__name__}")
    if dim is not None and (type(dim) is not int or dim < 0):
        raise ValueError(f"dim must be None or an int >= 0, not {dim!r}")
    if fmt == "json":
        try:
            obj = json.loads(s, object_hook=_node_hook({}))
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
        if not isinstance(obj, dict) or obj.get("version") != 1 or "root" not in obj:
            raise ValueError("expected an envelope {'version': 1, 'root': ...}")
        root = obj["root"]
        if type(root) in _NODE_TYPES:
            return root
        # Left as an object while loading: rebuild it from the plain objects,
        # so that an error quotes the input as it reads.
        return expr_from_obj(json.loads(s)["root"])
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt!r}")
    parser = _Parser(s, dim)
    if dim is None:
        dim = _infer_dim(parser.kinds, parser.texts)
        if dim > _MAX_INFERRED_DIM:
            raise ValueError(f"component position {dim} is above {_MAX_INFERRED_DIM}")
        parser.dim = dim or None  # no position to infer it from
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    if parser.i != parser.n:
        raise ValueError(f"trailing input from token {parser.i}")
    return expr
