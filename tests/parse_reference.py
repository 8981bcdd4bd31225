"""The text reader that ``symbolic.parse`` replaced, kept as a reference, and
a sweep that compares the two.

The reference splits the whole input into tokens first, builds lists of
their kinds, texts and end offsets and a bracket map by token index, and
then parses those lists; it looks a repeated term up only when the brackets
balance.  The library reads each token at the character offset it has
reached, and looks up only a flat term, whose brackets hold no other
bracket, matched whole by one regex.  Both build the library's interned nodes,
so the two agree exactly when they return the same object or raise a
``ValueError`` with the same message.  The only intended difference is a
numeral of more than 4,300 digits: the library rejects it by its length,
the reference passes it to ``int``.

Run the sweep (the tangent and chain expansions and the main part of the
index with no digits, of every alpha of dimension 1..7 and of
``11111111``):

    PYTHONPATH=src python tests/parse_reference.py

Each rendered text must parse back to the expansion itself with
``dim=k``, and with the dimension inferred wherever the text prints
position k or no component at all.  Up to dimension 6 the reference must
give the same outcome, for both.  Up to dimension 5 each text also gets 50
seeded single-character edits (a character deleted, one duplicated, or one
of ``( ) { } _ , +`` or a digit inserted), and the reference must give the
same outcome on each, with ``dim=k`` and with the dimension inferred.  It
prints the counts and exits 1 on any difference.
"""

from __future__ import annotations

import random
import re
import sys
from itertools import accumulate, compress, count

from deltachain.combinatorics import MAX_DIM, MultiIndex
from deltachain.symbolic import (
    _TOO_DEEP,
    App,
    ComponentSym,
    DeltaTerm,
    Expr,
    PointSym,
    Sum,
    VecSym,
    expand_chain,
    expand_tangent,
    main_part,
    parse,
    render,
)

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


def reference_parse(s: str, dim: int | None = None) -> Expr:
    """``parse(s, dim=dim)`` as the reference reads text."""
    parser = _Parser(s, dim)
    if dim is None:
        dim = _infer_dim(parser.kinds, parser.texts)
        if dim > MAX_DIM:
            raise ValueError(f"component position {dim} is above {MAX_DIM}")
        parser.dim = dim or None  # no position to infer it from
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    if parser.i != parser.n:
        raise ValueError(f"trailing input from token {parser.i}")
    return expr


def _outcome(read, s: str, dim: int | None):
    # The node read, or the message of the ValueError raised.
    try:
        return read(s, dim=dim)
    except ValueError as exc:
        return f"ValueError: {exc}"


def reader_difference(s: str, dim: int | None = None) -> str | None:
    """How the library's reading of ``s`` differs from the reference's, or
    ``None`` when both return the same node or raise the same message."""
    got, want = _outcome(parse, s, dim), _outcome(reference_parse, s, dim)
    if got is want or (type(got) is str and got == want):
        return None
    return f"{s[:60]!r} with dim={dim}: the library reads {repr(got)[:80]}, the reference {repr(want)[:80]}"


def text_differences(alpha: MultiIndex, compare: bool) -> list[str]:
    """What goes wrong reading back the texts of ``alpha``'s expansions,
    against the reference too when ``compare`` is set."""
    k, bad = alpha.dim, []
    for build in (expand_tangent, expand_chain, main_part):
        e = build(alpha)
        text = render(e)
        if _outcome(parse, text, k) is not e:
            bad.append(f"{build.__name__}({alpha}) does not read back with dim={k}")
        # Only the tangent prints components, so only it can print fewer positions than k.
        if (build is not expand_tangent or k and alpha.mask >> (k - 1)) and _outcome(parse, text, None) is not e:
            bad.append(f"{build.__name__}({alpha}) does not read back with the dimension inferred")
        if compare:
            bad += filter(None, (reader_difference(text, dim) for dim in (k, None)))
    return bad


# Seeded single-character edits the sweep reads per rendered text of
# dimension 5 or less.
_EDITS_PER_TEXT = 50


def edits(text: str, rng: random.Random) -> list[str]:
    """Seeded single-character edits of ``text``: a character deleted, one
    duplicated, or one of ``( ) { } _ , +`` or a digit inserted."""
    out = []
    for _ in range(_EDITS_PER_TEXT):
        i = rng.randrange(len(text))
        edit = rng.randrange(3)
        if edit == 0:
            out.append(text[:i] + text[i + 1 :])
        elif edit == 1:
            out.append(text[:i] + text[i] + text[i:])
        else:
            inserted = rng.choice(["(", ")", "{", "}", "_", ",", "+", str(rng.randrange(10))])
            out.append(text[:i] + inserted + text[i:])
    return out


def main() -> int:
    alphas = [MultiIndex(dim, mask) for dim in range(8) for mask in range(1 << dim)]
    alphas.append(MultiIndex.ones(8))
    bad = []
    for alpha in alphas:
        bad += text_differences(alpha, compare=alpha.dim <= 6)
    rng = random.Random(0)
    edited = [
        (text, alpha.dim)
        for alpha in alphas
        if alpha.dim <= 5
        for build in (expand_tangent, expand_chain, main_part)
        for text in edits(render(build(alpha)), rng)
    ]
    for text, k in edited:
        bad += filter(None, (reader_difference(text, dim) for dim in (k, None)))
    for line in bad:
        print(line)
    print(f"{len(alphas)} alphas, {3 * len(alphas)} texts, {len(edited)} edited texts, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
