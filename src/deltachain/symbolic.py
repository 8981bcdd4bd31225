"""Symbolic difference expressions and the expansion formulas.

The expression language covers exactly what the expansions produce: point
and vector symbols, cuboid components, function application, finite sums,
and iterated difference terms.  Equality of expressions means syntactic
equality of canonical forms; there is no general rewriting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Union

from .asets import build_asets
from .combinatorics import MultiIndex, enumerate_partitions


@dataclass(frozen=True)
class PointSym:
    """A point of the underlying space; contributes order 0."""

    name: str


@dataclass(frozen=True)
class VecSym:
    """A displacement vector; contributes order 1."""

    name: str


@dataclass(frozen=True)
class ComponentSym:
    """Component of a named cuboid at a multi-index; order is the index order."""

    cuboid: str
    index: MultiIndex


@dataclass(frozen=True)
class App:
    """Function application; order 0 regardless of the argument."""

    func: str
    arg: "Expr"


@dataclass(frozen=True)
class DeltaTerm:
    """An iterated difference of ``func`` at ``base`` along ``directions``.

    ``alpha[i]`` counts how many times direction i is applied; generated
    expressions always carry all-ones exponents, but canonicalization
    accepts arbitrary nonnegative entries and expands them by repetition.
    """

    alpha: tuple[int, ...]
    directions: tuple["Expr", ...]
    func: str
    base: "Expr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.alpha) != len(self.directions):
            raise ValueError("alpha and directions must have equal length")
        if any(not isinstance(a, int) or a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative integers")


@dataclass(frozen=True)
class Sum:
    terms: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))


Expr = Union[PointSym, VecSym, ComponentSym, App, DeltaTerm, Sum]


def order_of(e: Expr) -> int:
    """Leading order of an expression in the direction calculus.

    Points and applications have order 0, vectors order 1, components the
    order of their index; a sum takes the minimum of its terms and a
    difference term adds ``alpha[i]`` copies of each direction's order.
    """
    if isinstance(e, PointSym):
        return 0
    if isinstance(e, VecSym):
        return 1
    if isinstance(e, ComponentSym):
        return e.index.order
    if isinstance(e, App):
        return 0
    if isinstance(e, DeltaTerm):
        return sum(a * order_of(d) for a, d in zip(e.alpha, e.directions))
    if isinstance(e, Sum):
        return min((order_of(t) for t in e.terms), default=0)
    raise TypeError(f"not an expression: {e!r}")


def sort_key(e: Expr) -> tuple:
    """Total order on expressions used everywhere a canonical order is needed."""
    if isinstance(e, PointSym):
        return (0, e.name)
    if isinstance(e, VecSym):
        return (1, e.name)
    if isinstance(e, ComponentSym):
        return (2, e.index.order, str(e.index), e.cuboid)
    if isinstance(e, App):
        return (3, e.func, sort_key(e.arg))
    if isinstance(e, DeltaTerm):
        return (
            4,
            sum(e.alpha),
            tuple(sort_key(d) for d in e.directions),
            e.func,
            sort_key(e.base),
            e.alpha,
        )
    if isinstance(e, Sum):
        return (5, len(e.terms), tuple(sort_key(t) for t in e.terms))
    raise TypeError(f"not an expression: {e!r}")


def canonicalize(e: Expr) -> Expr:
    """Flatten sums, sort operands, expand repeated directions, and collapse
    zero-fold differences into plain applications.  Idempotent."""
    if isinstance(e, (PointSym, VecSym, ComponentSym)):
        return e
    if isinstance(e, App):
        return App(e.func, canonicalize(e.arg))
    if isinstance(e, Sum):
        flat: list[Expr] = []
        for t in e.terms:
            ct = canonicalize(t)
            if isinstance(ct, Sum):
                flat.extend(ct.terms)
            else:
                flat.append(ct)
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=sort_key)
        return Sum(tuple(flat))
    if isinstance(e, DeltaTerm):
        base = canonicalize(e.base)
        dirs: list[Expr] = []
        for a, d in zip(e.alpha, e.directions):
            if a:
                dirs.extend([canonicalize(d)] * a)
        if not dirs:
            return App(e.func, base)
        dirs.sort(key=sort_key)
        return DeltaTerm((1,) * len(dirs), tuple(dirs), e.func, base)
    raise TypeError(f"not an expression: {e!r}")


def substitute_components(e: Expr, repl: Callable[[ComponentSym], Expr]) -> Expr:
    """Rebuild ``e`` with every cuboid component replaced by ``repl(component)``."""
    if isinstance(e, (PointSym, VecSym)):
        return e
    if isinstance(e, ComponentSym):
        return repl(e)
    if isinstance(e, App):
        return App(e.func, substitute_components(e.arg, repl))
    if isinstance(e, DeltaTerm):
        return DeltaTerm(
            e.alpha,
            tuple(substitute_components(d, repl) for d in e.directions),
            e.func,
            substitute_components(e.base, repl),
        )
    if isinstance(e, Sum):
        return Sum(tuple(substitute_components(t, repl) for t in e.terms))
    raise TypeError(f"not an expression: {e!r}")


def _sum_of_components(cuboid: str, indices: Iterable[MultiIndex]) -> Expr:
    parts = tuple(ComponentSym(cuboid, m) for m in indices)
    return parts[0] if len(parts) == 1 else Sum(parts)


@lru_cache(maxsize=None)
def expand_tangent(alpha: MultiIndex, func: str = "f", cuboid: str = "u") -> Expr:
    """Component ``alpha`` of the conjugated pointwise map, as one difference
    term per partition of ``alpha`` with directions and base point given by
    the per-partition index-set families."""
    terms = []
    for partition, fam in build_asets(alpha).items():
        base = _sum_of_components(cuboid, fam.base_set)
        dirs = tuple(_sum_of_components(cuboid, fam.block_set(b)) for b in partition.blocks)
        terms.append(DeltaTerm((1,) * len(dirs), dirs, func, base))
    return canonicalize(Sum(tuple(terms)))


def _inner_difference(gamma: MultiIndex, inner: str, point: str, vec: str) -> Expr:
    if gamma.order == 0:
        return App(inner, PointSym(point))
    dirs = tuple(VecSym(f"{vec}_{i + 1}") for i in gamma.support)
    return DeltaTerm((1,) * len(dirs), dirs, inner, PointSym(point))


@lru_cache(maxsize=None)
def expand_chain(
    alpha: MultiIndex,
    outer: str = "f",
    inner: str = "g",
    point: str = "x",
    vec: str = "v",
) -> Expr:
    """Iterated difference of the composite ``outer(inner(point))`` along the
    vectors, obtained by substituting inner differences for the cuboid
    components of ``expand_tangent(alpha)``."""
    tangent = expand_tangent(alpha, func=outer, cuboid="u")
    return canonicalize(
        substitute_components(
            tangent, lambda c: _inner_difference(c.index, inner, point, vec)
        )
    )


@lru_cache(maxsize=None)
def main_part(
    alpha: MultiIndex,
    outer: str = "f",
    inner: str = "g",
    point: str = "x",
    vec: str = "v",
) -> Expr:
    """The leading-order truncation of ``expand_chain(alpha)``: per partition,
    every direction keeps only its lowest-order summand and the base point
    collapses to ``inner(point)``.  Every term has order exactly |alpha|."""
    terms = []
    for p in enumerate_partitions(alpha):
        dirs = tuple(_inner_difference(b, inner, point, vec) for b in p.blocks)
        terms.append(DeltaTerm((1,) * len(dirs), dirs, outer, App(inner, PointSym(point))))
    return canonicalize(Sum(tuple(terms)))


# ---------------------------------------------------------------------------
# rendering

def _component_subscript(index: MultiIndex) -> str:
    if index.order == 0:
        return "0"
    positions = [str(p + 1) for p in index.support]
    if len(positions) == 1:
        return positions[0]
    return "{" + ",".join(positions) + "}"


def _render(e: Expr, latex: bool) -> str:
    if isinstance(e, (PointSym, VecSym)):
        return e.name
    if isinstance(e, ComponentSym):
        return f"{e.cuboid}_{_component_subscript(e.index)}"
    if isinstance(e, App):
        return f"{e.func}({_render(e.arg, latex)})"
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        return " + ".join(_render(t, latex) for t in e.terms)
    if isinstance(e, DeltaTerm):
        dirs: list[Expr] = []
        for a, d in zip(e.alpha, e.directions):
            dirs.extend([d] * a)
        if not dirs:
            return f"{e.func}({_render(e.base, latex)})"
        head = "\\Delta" if latex else "Δ"
        if len(dirs) >= 2:
            head += f"^{{{len(dirs)}}}" if latex else f"^{len(dirs)}"
        sub = ", ".join(_render(d, latex) for d in dirs)
        return f"{head}_{{{sub}}} {e.func}({_render(e.base, latex)})"
    raise TypeError(f"not an expression: {e!r}")


def expr_to_obj(e: Expr) -> dict:
    if isinstance(e, PointSym):
        return {"node": "point", "name": e.name}
    if isinstance(e, VecSym):
        return {"node": "vector", "name": e.name}
    if isinstance(e, ComponentSym):
        return {"node": "component", "cuboid": e.cuboid, "index": str(e.index)}
    if isinstance(e, App):
        return {"node": "apply", "func": e.func, "arg": expr_to_obj(e.arg)}
    if isinstance(e, DeltaTerm):
        return {
            "node": "delta",
            "alpha": list(e.alpha),
            "directions": [expr_to_obj(d) for d in e.directions],
            "func": e.func,
            "base": expr_to_obj(e.base),
        }
    if isinstance(e, Sum):
        return {"node": "sum", "terms": [expr_to_obj(t) for t in e.terms]}
    raise TypeError(f"not an expression: {e!r}")


def render(e: Expr, fmt: str = "text") -> str:
    """Serialize an expression.

    ``text`` and ``latex`` print difference terms with repeated directions
    expanded, so the exponent always equals the number of listed directions.
    ``json`` is a faithful serialization and round-trips through ``parse``.
    """
    if fmt == "text":
        return _render(e, latex=False)
    if fmt == "latex":
        return _render(e, latex=True)
    if fmt == "json":
        return json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2, sort_keys=True)
    raise ValueError(f"unknown format: {fmt!r}")


# ---------------------------------------------------------------------------
# parsing

_TOO_DEEP = "nesting too deep"

# The largest component dimension ``parse`` infers from text.  A larger
# position comes from no formula this library can build, and is rejected
# before a multi-index of that dimension is allocated.
_MAX_INFERRED_DIM = 1 << 16


def expr_from_obj(obj: dict) -> Expr:
    """Rebuild an expression from its JSON object form.

    Missing fields, fields of the wrong type, booleans where integers
    belong and nesting deeper than the interpreter can recurse raise
    ``ValueError``.
    """
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
                return DeltaTerm(
                    tuple(alpha), tuple(expr_from_obj(d) for d in dirs), func, expr_from_obj(obj["base"])
                )
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


_TOKEN_RE = re.compile(
    r"\s*(?P<delta>Δ)|\s*(?P<caret>\^)|\s*(?P<under>_)|\s*(?P<lbrace>\{)"
    r"|\s*(?P<rbrace>\})|\s*(?P<lparen>\()|\s*(?P<rparen>\))|\s*(?P<plus>\+)"
    r"|\s*(?P<comma>,)|\s*(?P<nat>\d+)|\s*(?P<name>[A-Za-z][A-Za-z0-9]*)"
)


def _tokenize(s: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None or m.end() == pos:
            rest = s[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize at: {rest[:20]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the documented text grammar.

    The text format does not record the cube dimension of component
    subscripts, so it is supplied (or inferred as the largest position
    mentioned).  Names listed in ``cuboids`` parse as components, names in
    ``points`` as points, anything else as a vector.
    """

    def __init__(self, tokens, dim, cuboids, points):
        self.tokens = tokens
        self.i = 0
        self.dim = dim
        self.cuboids = cuboids
        self.points = points

    def peek(self, offset: int = 0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else (None, None)

    def take(self, kind: str) -> str:
        got, text = self.peek()
        if got != kind:
            raise ValueError(f"expected {kind}, got {got} ({text!r}) at token {self.i}")
        self.i += 1
        return text

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek()[0] == "plus":
            self.take("plus")
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self) -> Expr:
        kind, text = self.peek()
        if kind == "delta":
            return self.parse_delta()
        if kind == "nat":
            if text == "0":
                self.take("nat")
                return Sum(())
            raise ValueError(f"unexpected number {text!r}")
        if kind == "name":
            if self.peek(1)[0] == "lparen":
                func = self.take("name")
                self.take("lparen")
                arg = self.parse_expr()
                self.take("rparen")
                return App(func, arg)
            return self.parse_symbol()
        raise ValueError(f"unexpected token {kind} ({text!r})")

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
        return DeltaTerm((1,) * len(dirs), tuple(dirs), func, base)

    def parse_symbol(self) -> Expr:
        name = self.take("name")
        if self.peek()[0] != "under":
            if name in self.points:
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
        if name in self.cuboids:
            if positions == [0]:
                return ComponentSym(name, MultiIndex.zero(self.dim))
            mask = 0
            for p in positions:
                if not 1 <= p <= self.dim:
                    raise ValueError(f"component position {p} outside dimension {self.dim}")
                mask |= 1 << (p - 1)
            return ComponentSym(name, MultiIndex(self.dim, mask))
        full = f"{name}_{subtext}"
        if name in self.points:
            return PointSym(full)
        return VecSym(full)


def _infer_dim(tokens, cuboids) -> int:
    best = 0
    for i, (kind, text) in enumerate(tokens):
        if kind == "name" and text in cuboids and i + 2 < len(tokens) and tokens[i + 1][0] == "under":
            j = i + 2
            while j < len(tokens) and tokens[j][0] in ("lbrace", "nat", "comma"):
                if tokens[j][0] == "nat":
                    best = max(best, int(tokens[j][1]))
                j += 1
            # closing brace (if any) ends the subscript
    return best


def parse(
    s: str,
    fmt: str = "text",
    dim: int | None = None,
    cuboids: frozenset[str] = frozenset({"u"}),
    points: frozenset[str] = frozenset({"x", "y", "z"}),
) -> Expr:
    """Parse an expression from ``text`` or ``json``.

    JSON is faithful.  The text form needs the component dimension ``dim``
    to rebuild subscripts like ``u_{1,3}``; when omitted it is inferred as
    the largest position appearing in any component subscript, which may
    not exceed 2**16.  Input nested deeper than the interpreter can recurse
    raises ``ValueError``.
    """
    if fmt == "json":
        try:
            obj = json.loads(s)
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
        if not isinstance(obj, dict) or obj.get("version") != 1 or "root" not in obj:
            raise ValueError("expected an envelope {'version': 1, 'root': ...}")
        return expr_from_obj(obj["root"])
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt!r}")
    tokens = _tokenize(s)
    if dim is None:
        dim = _infer_dim(tokens, cuboids)
        if dim > _MAX_INFERRED_DIM:
            raise ValueError(f"component position {dim} is above {_MAX_INFERRED_DIM}")
    parser = _Parser(tokens, dim, cuboids, points)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input from token {parser.i}")
    return expr
