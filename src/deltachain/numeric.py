"""Exact evaluation of difference expressions and the verification suites.

Everything here computes in rational arithmetic, and every verdict is exact.
The scaling check evaluates its remainder once, in ε-series of order above
deg f · deg g, so exactly: that one polynomial gives the verdict and the grid
norms, and their slope fit is the only float step.  The main-term identity
check truncates mod ε^(|α|+1), which is exact below that order.
Every suite runs through one trial runner: each trial is one ``check(seed)``
call on a seed derived from the suite's labels, so a failure replays from its
recorded seed alone, and a trial count below 1 raises ``ValueError``.  Since
a trial is a pure function of its seed, the trials of one suite call run in
one pool: the caller and up to min(CPUs, 8) - 1 workers forked after every
expansion is built.  Outcomes come back in trial order, so every report is
byte-identical with any CPU count, and no worker outlives the call.
The evaluators pack each exact vector into one int, signed numerators in
fields of one width proved wide enough (``_NodeTable.bounds``) that
``polynomials._unpack`` reads, so a sum is one int sum and a corner one int
add and a map's memo key.  What is fixed before the trials start is made
once: the oracle suites build each expansion's node table before the pool
forks, and a map hashes its per-coordinate prefix once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import random
import statistics
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .combinatorics import MultiIndex, check_int, check_type, enumerate_partitions, refine
from .cuboid import (
    Cuboid,
    PointedDirections,
    Value,
    corners,
    delta,
    delta_inv,
    discrete_tangent,
    inject,
    pair,
    vector_add,
    vector_sub,
    vector_sum,
)
from .polynomials import (
    PolynomialMap,
    _coefficient,
    _Series,
    _unpack,
    _width,
    compose,
    d_alpha,
    directional_derivative,
    iterated_directional,
    iterated_tangent_lift,
    random_polynomial_map,
    series_valuation,
)
from .symbolic import (
    App,
    ComponentSym,
    DeltaTerm,
    Expr,
    PointSym,
    Sum,
    VecSym,
    _postorder,
    expand_chain,
    expand_tangent,
    main_part,
)


class EvaluationError(Exception):
    """Unbound symbol, dimension mismatch, or non-evaluable expression."""


_SCALE = 720720  # lcm(1..16): a RandomRationalMap value's numerators over it are integers
_RATIONAL = frozenset((int, Fraction))


def _packing(bound: int, vectors: Sequence[Value]) -> tuple[int, int]:
    """The lcm of the exact ``vectors``' denominators and ``_SCALE``, and the
    least width whose signed fields hold it times ``bound`` times the
    largest of their coordinates and a map value's (100)."""
    den = math.lcm(_SCALE, *[c.denominator for v in vectors for c in v])
    return den, _width(bound * den * max([100, *[abs(c.numerator) for v in vectors for c in v]]))


def _pack(v: Value, den: int, width: int) -> int:
    """``v``'s numerators over ``den`` as signed fields of ``width`` bits,
    the first lowest, above a low part that ``_tag`` fills for a memo key:
    ``den`` in ``width`` bits, then log2(width / 64) in 8; ``_unpack`` inverts it."""
    num = 0
    for c in reversed(v):
        num = (num << width) + c.numerator * (den // c.denominator)
    return num << width + 8


def _tag(den: int, width: int) -> int:
    return (den << 8) + (width >> 6).bit_length() - 1


def _decode(num: int, den: int, width: int, n: int, mask: int) -> Value:
    """The n coordinates packed in ``num`` over ``den``, coordinate j a
    ``Fraction`` when bit j of ``mask`` is set."""
    out = _unpack(num >> width + 8, width, n)
    for j, x in enumerate(out):
        out[j] = Fraction(x, den) if mask >> j & 1 else x // den
    return tuple(out)


def _difference(F: Callable[[Value], Value], base: Any, dirs: Sequence[Any]) -> Any:
    """The alternating sum of F over the corners base + a subset of
    ``dirs``.  Packed (``base`` a key of F's memo, ``dirs`` packed ints),
    each corner's key is one int add from a smaller corner's, and the values
    read by those keys are summed by sign.  Tuples are passed to F at the
    corners ``cuboid.corners`` builds, and summed by ``vector_sum``."""
    if type(base) is not int:
        signs = [-1 if (len(dirs) - m.bit_count()) % 2 else 1 for m in range(1 << len(dirs))]
        return vector_sum([tuple(F(c)) for c in corners(base, dirs)], signs)
    plus, minus = [base], []
    for step in dirs:
        plus, minus = minus + [c + step for c in plus], plus + [c + step for c in minus]
    at = F._memo.__getitem__
    return sum(map(at, plus)) - sum(map(at, minus))


def evaluate_delta(F: Callable[[Value], Value], base: Value, directions: Sequence[Value]) -> Value:
    """Iterated difference of F at ``base``: the alternating sum of F over
    all corners base + sum of a subset of directions.

    Each direction is taken once as listed, so a direction listed twice is
    differenced twice.  With no directions this is just F(base).  For a
    ``RandomRationalMap`` and exact vectors of its domain, the corners are
    packed ints read through the map's memo, and its values are summed as
    ints; any other map is called at corners added by + and -.  Both run
    ``_difference``, as ``eval_expr`` does at each difference node.
    """
    check_type("F", F, Callable)
    check_type("base", base, (tuple, list))
    check_type("directions", directions, (tuple, list))
    for d in directions:
        check_type("each direction", d, (tuple, list))
    vectors = [tuple(base), *map(tuple, directions)]
    if type(F) is not RandomRationalMap or any(len(v) != F.domain_dim or set(map(type, v)) - _RATIONAL for v in vectors):
        return _difference(F, vectors[0], vectors[1:])
    den, width = _packing(1 << len(directions), vectors)  # a corner adds 1 + len(directions) vectors
    first, *steps = [_pack(v, den, width) for v in vectors]
    return _decode(_difference(F, first + _tag(den, width), steps), den, width, F.codomain_dim, -1)


_VECTOR, _COMPONENT, _APP, _SUM, _DELTA = range(5)  # the kinds of a node table's rows


class _NodeTable:
    """The distinct nodes of an expression in the order ``eval_expr`` runs
    them: children before their parent, the root last.  Row i is ``(kind,
    name, args)``: a vector's name; a component's cuboid name and index; a
    map's name and the row of its argument; a sum's rows; or a difference's
    map name and the rows of its base and its directions.  ``bounds[i]``
    bounds row i's coordinates in units of the largest leaf or map
    coordinate, as ``_Series.bound`` bounds digits: 1 for a leaf or an
    application, its terms' sum for a sum, 2^d for a difference along d
    directions.  ``bound`` is the largest of them and of each difference's
    corners (its base's and directions' bounds added), or 0 if a sum is
    empty.  A suite that evaluates one expression in many trials builds its
    table once."""

    __slots__ = ("rows", "bounds", "bound", "leaves", "maps")

    def __init__(self, e: Expr):
        try:
            nodes = _postorder(e)
        except TypeError as exc:
            raise EvaluationError(str(exc)) from None
        row = {n: i for i, n in enumerate(nodes)}
        rows, bounds, top = [], [], 1
        for n in nodes:
            kind = type(n)
            if kind is PointSym or kind is VecSym:
                rows.append((_VECTOR, n.name, None))
            elif kind is ComponentSym:
                rows.append((_COMPONENT, n.cuboid, n.index))
            elif kind is App:
                rows.append((_APP, n.func, row[n.arg]))
            elif kind is Sum:
                rows.append((_SUM, None, [row[t] for t in n.terms]))
                bounds.append(sum(map(bounds.__getitem__, rows[-1][2])))
                continue
            else:  # a difference term
                rows.append((_DELTA, n.func, (row[n.base], [row[d] for d in n.directions])))
                bounds.append(1 << len(n.directions))
                top = max(top, bounds[row[n.base]] + sum(bounds[row[d]] for d in n.directions))
                continue
            bounds.append(1)
        self.rows, self.bounds, self.bound = tuple(rows), tuple(bounds), max(top, *bounds) if min(bounds) else 0
        self.leaves = tuple(i for i, r in enumerate(rows) if r[0] <= _COMPONENT)  # the vector and component rows
        self.maps = frozenset(name for kind, name, _ in rows if kind in (_APP, _DELTA))


class _Rows:
    """Every row's value of one evaluation: ``rows[i]`` is row i's vector.
    Packed ``values`` hold n coordinates over ``den`` at ``width``, each a
    ``Fraction`` where a map or a ``Fraction`` of a leaf (``leaves``, by
    row) reaches it; unpacked, ``leaves`` is None."""

    __slots__ = ("values", "rows", "leaves", "den", "width", "n")

    def __init__(self, values: list[Any], rows: tuple, leaves: dict | None, den=1, width=0, n=0):
        self.values, self.rows, self.leaves, self.den, self.width, self.n = values, rows, leaves, den, width, n

    def __getitem__(self, i: int) -> Value:
        if self.leaves is None:
            return self.values[i]
        mask, todo, seen = 0, [range(len(self.values))[i]], set()
        while todo and mask != -1:
            kind, _, args = self.rows[j := todo.pop()]
            if kind == _SUM:
                todo += set(args) - seen
                seen.update(args)
            elif kind <= _COMPONENT:
                mask |= sum(1 << k for k, c in enumerate(self.leaves[j]) if type(c) is Fraction)
            else:
                mask = -1
        return _decode(self.values[i], self.den, self.width, self.n, mask)


def _eval_rows(table: _NodeTable, bindings: Mapping[str, Any]) -> _Rows:
    """The value of every row of ``table``, children first, the root last.
    When the leaves are exact vectors of one space and the maps
    ``RandomRationalMap``s of it, rows are packed at ``_packing(table.bound,
    leaves)`` and cannot fault; else they are tuples, and of several faults
    the first met in row order is reported."""

    def bound(name: str, ok: Callable[[Any], bool], what: str) -> Any:
        try:
            value = bindings[name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {name!r}") from None
        if not ok(value):
            raise EvaluationError(f"symbol {name!r} must be bound to {what}")
        return value

    def leaf(kind: int, name: str, index: Any) -> Value:
        if kind == _VECTOR:
            return tuple(bound(name, lambda v: isinstance(v, (tuple, list)), "a vector"))
        return bound(name, lambda c: isinstance(c, Cuboid), "a cuboid").component(index)

    rows, values, vectors = table.rows, [], []
    push = values.append
    for i in table.leaves:
        try:
            vectors.append(leaf(*rows[i]))
        except (EvaluationError, ValueError):
            vectors.append(None)  # the walk below binds it again, and meets the fault in row order
    try:
        n = len(vectors[0])
        packed = table.bound and all(len(v) == n and set(map(type, v)) <= _RATIONAL for v in vectors)
        for F in [bindings[name] for name in table.maps]:
            packed = packed and type(F) is RandomRationalMap and F.domain_dim == F.codomain_dim == n
    except (IndexError, KeyError, TypeError):  # no leaf, an unbound map, or a leaf that faulted (None)
        packed = False
    if packed:
        den, width = _packing(table.bound, vectors)
        tag, add, leaves = _tag(den, width), sum, iter([_pack(v, den, width) for v in vectors])
        apply = lambda F, v: F._memo[v + tag]
    else:
        tag, add, apply, leaves = (), vector_sum, (lambda F, v: tuple(F(v))), iter(vectors)  # a tuple plus () is itself
    # A ValueError from a cuboid lookup, a vector sum or a bound map becomes
    # an EvaluationError with the same text, whichever node raised it.
    try:
        for kind, name, args in rows:
            if kind == _DELTA:
                base, dirs = args
                push(_difference(bound(name, callable, "a map"), values[base] + tag, [values[d] for d in dirs]))
            elif kind == _SUM:
                if not args:
                    raise EvaluationError("cannot evaluate an empty sum")
                push(add([values[t] for t in args]))
            elif kind == _APP:
                push(apply(bound(name, callable, "a map"), values[args]))
            else:  # a leaf, in row order
                v = next(leaves)
                push(leaf(kind, name, args) if v is None else v)
    except ValueError as exc:
        raise EvaluationError(str(exc)) from None
    if not packed:
        return _Rows(values, rows, None)
    return _Rows(values, rows, dict(zip(table.leaves, vectors)), den, width, n)


def eval_expr(e: Expr | _NodeTable, bindings: Mapping[str, Any]) -> Value:
    """Evaluate an expression with names bound to points (tuples), cuboids,
    and callables for function symbols.

    Each distinct subexpression is evaluated once per call, children first:
    equal expressions are one node (the nodes are hash-consed), so the inner
    differences shared by many terms of an expansion are computed once.  The
    value is the last row of ``_eval_rows`` over the expression's
    ``_NodeTable``: packed ints when every leaf is an exact vector of one
    space and every map a ``RandomRationalMap`` of it, else tuples, with
    each map called on a tuple.  Of several faults, the one met first in
    that order is reported.  The oracle suites build each expansion's table
    once and pass it for ``e``.  No value is kept between calls.
    """
    check_type("bindings", bindings, Mapping)
    return _eval_rows(e if type(e) is _NodeTable else _NodeTable(e), bindings)[-1]


# ---------------------------------------------------------------------------
# deterministic pseudorandom data

def derive_seed(root: int, *labels: Any) -> int:
    """Stable child seed from a root seed and a label path."""
    msg = "|".join([str(root)] + [str(p) for p in labels])
    return int.from_bytes(hashlib.blake2b(msg.encode(), digest_size=8).digest(), "big")


class _Memo(dict):
    """A map's memo: key -> value, packed as the key is.  A miss reads the
    key by ``_unpack``, and folds the hashed value as ``_unpack`` reads it."""

    __slots__ = ("n", "prefixes")

    def __missing__(self, key: int) -> int:
        width = 64 << (key & 255)
        den = key >> 8 & ((1 << width) - 1)
        text = []
        for n in _unpack(key >> width + 8, width, self.n):
            g = math.gcd(n, den)
            text.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        text, value = "|".join(text).encode(), 0
        for prefix in reversed(self.prefixes):
            h = prefix.copy()
            h.update(text)
            # the first 8 digest bytes pick the numerator, the last 8 the denominator
            digest = int.from_bytes(h.digest(), "big")
            value = (value << width) + ((digest >> 64) % 201 - 100) * (den // (digest % 16 + 1))
        value = self[key] = value << width + 8
        return value


class RandomRationalMap:
    """A deterministic pseudorandom map between rational vector spaces.

    Values are derived from a keyed hash of the exact input coordinates, so
    equal seeds give equal maps across runs and platforms, and every call is
    memoized.  Numerators lie in [-100, 100], denominators in [1, 16].  The
    memo is keyed by one int per point (``_pack`` and ``_tag``): an
    evaluation keys a corner at its own denominator and width, and a call
    its point as ``_packing`` packs it alone.  A key is decoded only on a
    miss, to hash the text of each reduced coordinate, as str(Fraction)
    writes it, joined by ``|``: coordinate j hashes ``f"{seed};{j};"`` and
    then that text, from a copy of the prefix's hash state.
    """

    def __init__(self, seed: int, domain_dim: int, codomain_dim: int):
        check_int("seed", seed, None)
        check_int("domain_dim", domain_dim)
        check_int("codomain_dim", codomain_dim)
        self.seed, self.domain_dim, self.codomain_dim = seed, domain_dim, codomain_dim
        self._memo = _Memo()
        self._memo.n = domain_dim
        self._memo.prefixes = [hashlib.blake2b(f"{seed};{j};".encode(), digest_size=16) for j in range(codomain_dim)]
        self._values: dict[int, Value] = {}  # a call's key -> value, as Fractions

    def __reduce__(self):
        # A hash state does not pickle: a copy is built anew, with an empty memo.
        return type(self), (self.seed, self.domain_dim, self.codomain_dim)

    def __call__(self, point: Value) -> Value:
        check_type("point", point, (tuple, list))
        if len(point) != self.domain_dim:
            raise ValueError(f"need {self.domain_dim} coordinates, got {len(point)}")
        exact = [c if type(c) in _RATIONAL else _coefficient("a point coordinate", c) for c in point]
        den, width = _packing(1, [exact])
        key = _pack(exact, den, width) + _tag(den, width)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = _decode(self._memo[key], den, width, self.codomain_dim, -1)
        return value


def random_rational_vector(rng: random.Random, dim: int, bound: int = 5) -> Value:
    return tuple(rng.randint(-bound, bound) for _ in range(dim))


def random_cuboid(rng: random.Random, dim: int, space: int, bound: int = 5) -> Cuboid:
    return Cuboid(dim, tuple(random_rational_vector(rng, space, bound) for _ in range(1 << dim)))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Failure:
    seed: int
    alpha: str
    detail: str

    def to_obj(self) -> dict:
        return {"seed": self.seed, "alpha": self.alpha, "detail": self.detail}


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    trials: int
    failures: tuple[Failure, ...]
    exact: bool
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "trials": self.trials,
            "failures": [f.to_obj() for f in self.failures],
            "exact": self.exact,
        }
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_obj() for r in reports], indent=2, sort_keys=True)


_MAX_PROCESSES = 8  # the caller and at most seven forked workers
_MAX_CHUNKS = 1024  # 4-byte chunk numbers: the whole queue fits one 4 KB pipe write


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _take(tasks: Sequence[tuple[Callable[[int], Any], int]], chunk: int, queue: int, parent: int, done: dict) -> Any:
    """Run the chunks read from ``queue`` into ``done`` (index -> outcome)
    until the queue is empty or this process's parent is no longer
    ``parent``.  The first exception stops the taking, empties the queue so
    that every process stops, and is returned as ``(index, exception)``."""
    while os.getppid() == parent and (record := os.read(queue, 4)):
        start = int.from_bytes(record, "little") * chunk
        for i in range(start, min(start + chunk, len(tasks))):
            check, s = tasks[i]
            try:
                done[i] = check(s)
            except Exception as exc:
                while os.read(queue, 4096):
                    pass
                return i, exc
    return None


def _run_tasks(tasks: Sequence[tuple[Callable[[int], Any], int]]) -> list[Any]:
    """``[check(s) for check, s in tasks]``, run by the caller and up to
    min(CPUs, tasks, 8) - 1 forked workers that share every built object
    copy-on-write.  Workers take chunks of consecutive tasks from one pipe
    and send their outcomes back pickled when the queue is empty.  Each task
    a worker did not send (it raised, died or could not pickle its outcomes)
    is run again by the caller in task order, so the first exception raised
    is the one the serial loop would meet.  Every worker is killed and
    reaped before this returns or raises."""
    chunk = -(-len(tasks) // _MAX_CHUNKS) or 1
    queue, feed = os.pipe()
    os.write(feed, b"".join(c.to_bytes(4, "little") for c in range(-(-len(tasks) // chunk))))
    os.close(feed)
    done: dict[int, Any] = {}
    workers: dict[int, Any] = {}  # pid -> read end of its outcome pipe
    caller = os.getpid()
    try:
        for _ in range(min(_cpu_count(), len(tasks), _MAX_PROCESSES) - 1 if hasattr(os, "fork") else 0):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                break
            if pid == 0:  # a worker: it leaves by os._exit, flushing nothing it inherited
                try:
                    os.close(out)
                    _take(tasks, chunk, queue, caller, done)
                    with os.fdopen(into, "wb") as fh:
                        fh.write(pickle.dumps(done))
                finally:
                    os._exit(0)
            os.close(into)
            workers[pid] = os.fdopen(out, "rb")
        raised = _take(tasks, chunk, queue, os.getppid(), done)
        for fh in workers.values():
            try:
                done.update(pickle.loads(fh.read()))
            except Exception:
                pass  # its tasks are run again below
    finally:
        os.close(queue)
        for pid, fh in workers.items():
            fh.close()
            os.kill(pid, 9)  # SIGKILL: a worker that already sent its outcomes has no work left
            os.waitpid(pid, 0)
    outcomes = []
    for i, (check, s) in enumerate(tasks):
        if i in done:
            outcomes.append(done[i])
        elif raised and raised[0] == i:
            raise raised[1]
        else:
            outcomes.append(check(s))
    return outcomes


# (identity, labels, trials, check, exact, detail): one report's trials
_Spec = tuple[str, tuple[Any, ...], int, Callable[[int], Any], bool, Callable[[list[str]], str] | None]


def _run_trials(seed: int, specs: Sequence[_Spec]) -> list[VerificationReport]:
    """One report per spec ``(identity, labels, trials, check, exact, detail)``.
    Trial t calls ``check(derive_seed(seed, *labels, t))``, and every trial
    of every spec runs in one call of the trial pool, ``_run_tasks``.  A
    check returns a ``Failure`` or ``None``; with a ``detail``, it returns
    ``(failure, note)``, and the report's detail is ``detail(notes)`` in
    trial order."""
    tasks = [(check, derive_seed(seed, *labels, t)) for _, labels, n, check, _, _ in specs for t in range(n)]
    outcomes = iter(_run_tasks(tasks))
    reports = []
    for identity, _, trials, _, exact, detail in specs:
        got, text = [next(outcomes) for _ in range(trials)], None
        if detail is not None:
            text = detail([note for _, note in got])
            got = [f for f, _ in got]
        reports.append(VerificationReport(identity, trials, tuple(f for f in got if f is not None), exact, text))
    return reports


# ---------------------------------------------------------------------------
# oracle suites

def _chain_bindings(f: Any, g: Any, x: Value, vs: Sequence[Value]) -> dict[str, Any]:
    """The names a chain expansion reads: ``f``, ``g``, ``x`` and ``v_1`` on."""
    return {"f": f, "g": g, "x": x, **{f"v_{i + 1}": v for i, v in enumerate(vs)}}


def verify_chain_expansion(seed: int, trials: int | None = None, kmax: int | None = None) -> list[VerificationReport]:
    """Evaluate the symbolic expansion of an iterated difference of f(g(x))
    against direct evaluation, with fresh pseudorandom maps per trial: x,
    g(x) and f(g(x)) all lie in the plane."""
    return run_suite("theorem-b", seed, trials, kmax)


def _chain_specs(trials: int, kmax: int) -> list[_Spec]:
    def spec(k: int) -> _Spec:
        alpha = MultiIndex.ones(k)
        table = _NodeTable(expand_chain(alpha))

        def check(s: int) -> Failure | None:
            rng = random.Random(s)
            g = RandomRationalMap(derive_seed(s, "g"), 2, 2)
            f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
            x = random_rational_vector(rng, 2)
            vs = [random_rational_vector(rng, 2) for _ in range(k)]
            if eval_expr(table, _chain_bindings(f, g, x, vs)) != evaluate_delta(lambda p: f(g(p)), x, vs):
                return Failure(s, str(alpha), "expansion differs from direct difference")
            return None

        return f"chain-expansion-k{k}", ("chain", k), trials, check, True, None

    return [spec(k) for k in range(1, kmax + 1)]


def verify_tangent_expansion(seed: int, trials: int | None = None, kmax: int | None = None) -> list[VerificationReport]:
    """Evaluate the symbolic top component of the conjugated pointwise map
    against the cuboid-level computation on random cuboids: the cuboid's
    vectors and f's values lie in the plane."""
    return run_suite("eq9", seed, trials, kmax)


def _tangent_specs(trials: int, kmax: int) -> list[_Spec]:
    def spec(k: int) -> _Spec:
        alpha = MultiIndex.ones(k)
        table = _NodeTable(expand_tangent(alpha))

        def check(s: int) -> Failure | None:
            rng = random.Random(s)
            f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
            cub = random_cuboid(rng, k, 2)
            if eval_expr(table, {"f": f, "u": cub}) != discrete_tangent(f, cub).component(alpha):
                return Failure(s, str(alpha), "expansion differs from cuboid computation")
            return None

        return f"tangent-expansion-k{k}", ("tangent", k), trials, check, True, None

    return [spec(k) for k in range(1, kmax + 1)]


# ---------------------------------------------------------------------------
# identity suite

def _check_difference_additivity(s: int) -> str | None:
    rng = random.Random(s)
    f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
    x = random_rational_vector(rng, 2)
    u = random_rational_vector(rng, 2)
    v = random_rational_vector(rng, 2)
    lhs = evaluate_delta(f, x, [vector_add(u, v)])
    rhs = vector_add(evaluate_delta(f, x, [u]), evaluate_delta(f, vector_add(x, u), [v]))
    return None if lhs == rhs else "split along the first direction failed"


def _check_pair_sum_operator(s: int) -> str | None:
    rng = random.Random(s)
    k = rng.randrange(0, 4)
    u = random_cuboid(rng, k, 2)
    v = random_cuboid(rng, k, 2)
    lhs = delta_inv(pair(u, v))
    rhs = pair(delta_inv(u), delta_inv(u + v))
    return None if lhs == rhs else f"k={k}"


def _check_pair_difference_operator(s: int) -> str | None:
    rng = random.Random(s)
    k = rng.randrange(0, 4)
    u = random_cuboid(rng, k, 2)
    v = random_cuboid(rng, k, 2)
    lhs = delta(pair(u, v))
    rhs = pair(delta(u), delta(v) - delta(u))
    return None if lhs == rhs else f"k={k}"


def _check_pair_tangent_map(s: int) -> str | None:
    rng = random.Random(s)
    k = rng.randrange(0, 3)
    f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
    u = random_cuboid(rng, k, 2)
    v = random_cuboid(rng, k, 2)
    lhs = discrete_tangent(f, pair(u, v))
    tu = discrete_tangent(f, u)
    rhs = pair(tu, discrete_tangent(f, u + v) - tu)
    return None if lhs == rhs else f"k={k}"


def _check_telescoping(s: int) -> str | None:
    rng = random.Random(s)
    n = rng.randrange(1, 5)
    f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
    x = random_rational_vector(rng, 2)
    w = random_rational_vector(rng, 2)
    us = [random_rational_vector(rng, 2) for _ in range(n)]
    vs = [random_rational_vector(rng, 2) for _ in range(n)]
    lhs = vector_sub(
        evaluate_delta(f, vector_add(x, w), [vector_add(a, b) for a, b in zip(us, vs)]),
        evaluate_delta(f, x, us),
    )
    total = evaluate_delta(f, x, [w] + us)
    for i in range(n):
        dirs = us[:i] + [vs[i]] + [vector_add(us[j], vs[j]) for j in range(i + 1, n)]
        total = vector_add(
            total, evaluate_delta(f, vector_add(vector_add(x, w), us[i]), dirs)
        )
    return None if lhs == total else f"n={n}"


def _check_refinement_cover(s: int) -> str | None:
    rng = random.Random(s)
    k = rng.randrange(1, 6)
    alpha = MultiIndex.from_bits(rng.randint(0, 1) for _ in range(k))
    children = []
    for p in enumerate_partitions(alpha):
        children.extend(refine(p))
    expected = set(enumerate_partitions(alpha.diamond(1)))
    if len(children) != len(expected) or set(children) != expected:
        return f"alpha={alpha}"
    return None


def _check_main_term_remainder_order(s: int) -> str | None:
    rng = random.Random(s)
    k = 2 + s % 2
    alpha = MultiIndex.ones(k)
    n = alpha.order + 1
    space = 2
    # Corners recur across the partitions' differences: evaluate each once.
    f = functools.cache(random_polynomial_map(rng, space, space, degree=2 + s % 2, dense=True))
    eps = _Series.epsilon(n)
    x = random_rational_vector(rng, space)

    def component(m: MultiIndex) -> tuple:
        if m.order == 0:
            return x
        scale = eps ** m.order
        return tuple(scale * rng.randint(-3, 3) for _ in range(space))

    cub = Cuboid.build(k, component)
    lhs = discrete_tangent(f, cub).component(alpha)
    terms = [evaluate_delta(f, x, [cub.component(b) for b in p.blocks]) for p in enumerate_partitions(alpha)]
    v = series_valuation(lhs, vector_sum(terms))
    return None if v is None else f"remainder valuation {v} below {n}"


_IDENTITY_CHECKS = (
    ("difference-additivity", _check_difference_additivity),
    ("pair-sum-operator", _check_pair_sum_operator),
    ("pair-difference-operator", _check_pair_difference_operator),
    ("pair-tangent-map", _check_pair_tangent_map),
    ("telescoping-expansion", _check_telescoping),
    ("partition-refinement-cover", _check_refinement_cover),
    ("main-term-remainder-order", _check_main_term_remainder_order),
)


def identity_suite(seed: int, trials: int | None = None) -> list[VerificationReport]:
    """Run every exact structural identity check ``trials`` times each."""
    return run_suite("identities", seed, trials)


def _identity_specs(trials: int) -> list[_Spec]:
    return [
        (name, (name,), trials, lambda s, c=check: None if (d := c(s)) is None else Failure(s, "", d), True, None)
        for name, check in _IDENTITY_CHECKS
    ]


# ---------------------------------------------------------------------------
# remainder scaling

# The scale grid: a remainder norm is reported at each ε = 2**-j.
EPS_EXPONENTS = tuple(range(3, 11))
# The largest |alpha| the scaling suite takes.  A trial draws maps of degree
# |alpha| + 1 and evaluates them in ε-series of order (|alpha| + 1)² + 1, so
# its cost grows steeply: `verify --suite scaling --trials 1` with an
# all-ones alpha takes about 1.7 s at |alpha| = 5 and 20-23 s at 6 on one CPU.
MAX_SCALING_ORDER = 5


@dataclass(frozen=True)
class ScalingResult:
    slope: float | None
    degenerate: bool
    norms: tuple[Fraction, ...]
    valuation: int | None = None


def _main_term_split(
    f: PolynomialMap, g: PolynomialMap, x: Value, dirs: Sequence[Value], alpha: MultiIndex
) -> tuple[Value, Value]:
    """The direct difference of f∘g at x along the ``dirs`` on alpha's
    support, and its main part."""
    direct = evaluate_delta(lambda p: f(g(p)), x, [dirs[i] for i in alpha.support])
    return direct, eval_expr(main_part(alpha), _chain_bindings(f, g, x, dirs))


def scaling_slope(
    f: PolynomialMap,
    g: PolynomialMap,
    x: Value,
    ws: Sequence[Value],
    alpha: MultiIndex,
) -> ScalingResult:
    """The remainder left after the leading-order truncation at directions
    ε·w, evaluated once in ε-series of order deg f · deg g + 1: exact, as
    both sides have degree at most deg f · deg g in ε.  ``valuation`` is its
    lowest nonzero degree when below |alpha| + 1, else ``None``; ``norms``
    are max_i |R_i(2**-j)| over ``EPS_EXPONENTS``, by Horner's rule, and
    ``slope`` their log-log fit on the finest three points (coarse scales
    still carry next-order corrections).  The result is degenerate when
    every norm is zero; ``slope`` is ``None`` then or when fewer than two
    norms are nonzero.
    """
    check_type("f", f, PolynomialMap)
    check_type("g", g, PolynomialMap)
    check_type("x", x, (tuple, list))
    check_type("ws", ws, (tuple, list))
    check_type("alpha", alpha, MultiIndex)
    df, dg = (max(0, max((p.degree for p in m.components), default=0)) for m in (f, g))
    eps = _Series.epsilon(df * dg + 1)
    lhs, rhs = _main_term_split(f, g, x, [tuple(eps * c for c in w) for w in ws], alpha)
    v = series_valuation(lhs, rhs)
    valuation = v if v is not None and v <= alpha.order else None
    rem = [d.coeffs if isinstance(d, _Series) else (d,) for d in vector_sub(lhs, rhs)]
    pts, norms = [], []
    for j in EPS_EXPONENTS:
        e = Fraction(1, 2**j)
        norm = max(abs(functools.reduce(lambda acc, c: acc * e + c, reversed(cs), 0)) for cs in rem)
        norms.append(norm)
        if norm:
            # logs of the exact values: 2**-j and a tiny norm underflow as floats
            pts.append((-j * math.log(2), math.log(norm.numerator) - math.log(norm.denominator)))
    slope = statistics.linear_regression(*zip(*pts[-3:])).slope if len(pts) > 1 else None
    return ScalingResult(slope, not pts, tuple(norms), valuation)


def scaling_trial(s: int, alpha: MultiIndex) -> tuple[PolynomialMap, PolynomialMap, Value, list[Value]]:
    """The maps f and g, point x and directions ws of one scaling trial."""
    rng = random.Random(s)
    deg = alpha.order + 1
    f = random_polynomial_map(rng, 2, 2, degree=deg, dense=True)
    g = random_polynomial_map(rng, 2, 2, degree=deg, dense=True)
    x = random_rational_vector(rng, 2, bound=2)
    return f, g, x, [random_rational_vector(rng, 2, bound=3) for _ in range(alpha.dim)]


def verify_scaling(seed: int, alpha: MultiIndex, trials: int | None = None) -> VerificationReport:
    """Check that the remainder shrinks at least like the next order.

    Each trial makes one ``scaling_slope`` call: one exact ε-series
    evaluation of the remainder gives both the verdict and the grid norms.
    A trial fails when the remainder's ε-valuation at directions ε·w is
    below |alpha| + 1.  The fitted slope is only reported, next to the
    threshold |alpha| + 1 - 0.2 it is expected to clear; a remainder zero
    at every grid point is reported as degenerate, and one nonzero at a
    single point as having no slope.  An alpha of order above
    ``MAX_SCALING_ORDER`` raises ``ValueError`` before any trial runs.
    """
    check_type("alpha", alpha, MultiIndex)
    (report,) = run_suite("scaling", seed, trials, alpha=alpha)
    return report


def _scaling_spec(alpha: MultiIndex, trials: int) -> _Spec:
    if alpha.order > MAX_SCALING_ORDER:
        raise ValueError(f"the scaling suite takes |alpha| up to MAX_SCALING_ORDER = {MAX_SCALING_ORDER}, not {alpha.order}")

    def check(s: int) -> tuple[Failure | None, str]:
        result = scaling_slope(*scaling_trial(s, alpha), alpha)
        if result.degenerate:
            note = "degenerate (remainder identically zero)"
        elif result.slope is None:
            note = "no slope"
        else:
            note = f"slope {result.slope:.3f}"
        if result.valuation is not None:
            return Failure(s, str(alpha), f"remainder valuation {result.valuation} below {alpha.order + 1}"), note
        return None, note

    def detail(notes: list[str]) -> str:
        return f"threshold {alpha.order + 1 - 0.2:.3f}; " + "; ".join(f"trial {t}: {n}" for t, n in enumerate(notes))

    return f"remainder-scaling-{alpha}", ("scaling", str(alpha)), trials, check, False, detail


# ---------------------------------------------------------------------------
# smooth composition suite

def verify_smooth_chain(alpha: MultiIndex, seed: int, trials: int | None = None) -> VerificationReport:
    """Exact polynomial checks of the derivative-level composition formula,
    the lifted tangent map on injected and general cuboids, and (for small
    dimensions) functoriality of the lift."""
    check_type("alpha", alpha, MultiIndex)
    (report,) = run_suite("smooth-chain", seed, trials, alpha=alpha)
    return report


def _derivatives(f: PolynomialMap, us: Sequence[Value], alpha: MultiIndex) -> dict[int, PolynomialMap]:
    """``d_alpha(f, us, b)`` for every b below alpha, by mask: each entry
    extends the one without b's highest digit by that digit's direction, the
    order in which ``d_alpha`` applies them, so it is the map ``d_alpha`` returns."""
    table = {0: f}
    for b in alpha.placements()[1:]:  # each after the entry it extends
        top = b.mask.bit_length() - 1
        table[b.mask] = directional_derivative(table[b.mask ^ 1 << top], us[top])
    return table


def _smooth_spec(alpha: MultiIndex, trials: int) -> _Spec:
    k = alpha.dim
    table = enumerate_partitions(alpha)
    for p in table:
        if sum(b.order for b in p.blocks) != alpha.order:
            raise AssertionError("partition violates homogeneity")

    def check(s: int) -> Failure | None:
        rng = random.Random(s)
        f = random_polynomial_map(rng, 2, 2, degree=2)
        g = random_polynomial_map(rng, 2, 2, degree=2)
        x = random_rational_vector(rng, 2, bound=3)
        us = [random_rational_vector(rng, 2, bound=3) for _ in range(k)]

        dg = {m: D(x) for m, D in _derivatives(g, us, alpha).items()}  # dg[0] is g(x)
        terms = [iterated_directional(f, [dg[b.mask] for b in p.blocks])(dg[0]) for p in table]
        fg = compose(f, g)
        if d_alpha(fg, us, alpha)(x) != vector_sum(terms):
            return Failure(s, str(alpha), "composition derivative expansion")

        lift = iterated_tangent_lift(f, k)
        injected = inject(PointedDirections(x, tuple(us)))
        out = Cuboid.from_flat(k, 2, lift(injected.flatten()))
        df = _derivatives(f, us, MultiIndex.ones(k))
        for beta in injected.indices():
            if out.component(beta) != df[beta.mask](x):
                return Failure(s, str(beta), "lift disagrees on injected cuboid")

        cub = random_cuboid(rng, k, 2, bound=3)
        out = Cuboid.from_flat(k, 2, lift(cub.flatten()))
        base = cub.component(MultiIndex.zero(k))
        terms = [iterated_directional(f, [cub.component(b) for b in p.blocks])(base) for p in table]
        if out.component(alpha) != vector_sum(terms):
            return Failure(s, str(alpha), "component formula on a general cuboid")

        if k <= 2:
            flat = random_cuboid(rng, k, 2, bound=3).flatten()
            if iterated_tangent_lift(fg, k)(flat) != lift(iterated_tangent_lift(g, k)(flat)):
                return Failure(s, str(alpha), "lift is not functorial")
        return None

    return f"smooth-composition-{alpha}", ("smooth", str(alpha)), trials, check, True, None


# ---------------------------------------------------------------------------
# suite dispatch

def _scaling_suite(trials: int, kmax: int | None, alpha: MultiIndex | None) -> list[_Spec]:
    alphas = [alpha] if alpha is not None else [MultiIndex.ones(2), MultiIndex.ones(3)]
    return [_scaling_spec(a, trials) for a in alphas]


def _smooth_suite(trials: int, kmax: int, alpha: MultiIndex | None) -> list[_Spec]:
    alphas = [alpha] if alpha is not None else [MultiIndex.ones(k) for k in range(1, kmax + 1)]
    return [_smooth_spec(a, trials) for a in alphas]


# name: (its specs for (trials, kmax, alpha), default trials, default kmax).
# A suite that sweeps no dimensions has no kmax; "all" runs every suite, in
# this order.
_SUITES: dict[str, tuple[Callable[..., list[_Spec]], int, int | None]] = {
    "theorem-b": (lambda trials, kmax, alpha: _chain_specs(trials, kmax), 50, 5),
    "eq9": (lambda trials, kmax, alpha: _tangent_specs(trials, kmax), 50, 5),
    "identities": (lambda trials, kmax, alpha: _identity_specs(trials), 1000, None),
    "scaling": (_scaling_suite, 3, None),
    "smooth-chain": (_smooth_suite, 25, 3),
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(
    name: str,
    seed: int,
    trials: int | None = None,
    kmax: int | None = None,
    alpha: MultiIndex | None = None,
) -> list[VerificationReport]:
    """Run one named verification suite (or all of them) and return reports.
    Every trial of the call runs in one trial pool.  Only this function
    checks ``seed``, ``trials``, ``kmax`` and ``alpha``, before any spec is
    built; a ``None`` takes the suite's default, and each suite wrapper
    above is one call of this function."""
    check_int("seed", seed, None)
    for count, n in (("trials", trials), ("kmax", kmax)):
        if n is not None:
            check_int(count, n, 1)
    if alpha is not None:
        check_type("alpha", alpha, MultiIndex)
    return _run_trials(seed, _suite_specs(name, trials, kmax, alpha))


def _suite_specs(name: str, trials: int | None, kmax: int | None, alpha: MultiIndex | None) -> list[_Spec]:
    if name == "all":
        return [s for n in _SUITES for s in _suite_specs(n, trials, kmax, alpha)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name!r}")
    specs, default_trials, default_kmax = _SUITES[name]
    return specs(trials or default_trials, kmax or default_kmax, alpha)
