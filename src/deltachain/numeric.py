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
The evaluators hold each exact vector as one integer record (``_Exact``):
numerators over one denominator and a bit per ``Fraction`` coordinate.  A
``RandomRationalMap`` is read at such a record through its integer-keyed
memo, so sums and differences of exact trees run on ``int``s, and
``Fraction``s are built only for the caller.
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
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, or_
from typing import Any, Callable, Mapping, Sequence

from .combinatorics import MultiIndex, check_alpha, enumerate_partitions, refine
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
    _Series,
    compose,
    d_alpha,
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


class _Exact:
    """An exact rational vector inside the evaluators: coordinate j is
    ``nums[j] / den``, and a ``Fraction`` exactly when bit j of ``mask`` is
    set.  Records are never changed once built, so nodes may share one."""

    __slots__ = ("den", "nums", "mask")

    def __init__(self, den: int, nums: tuple[int, ...], mask: int):
        self.den, self.nums, self.mask = den, nums, mask


def _record(v: Value) -> Any:
    """``v`` as an ``_Exact`` when every entry is exactly an ``int`` or a
    ``Fraction``, over the lcm of their denominators; else ``v`` itself."""
    if not set(map(type, v)) <= _RATIONAL:
        return v
    den = math.lcm(*[c.denominator for c in v])
    mask = sum(1 << j for j, c in enumerate(v) if type(c) is Fraction)
    return _Exact(den, tuple([c.numerator * (den // c.denominator) for c in v]), mask)


def _vector(v: Any) -> Value:
    """The tuple of an evaluator value: the inverse of ``_record``."""
    if type(v) is not _Exact:
        return v
    den, mask = v.den, v.mask
    return tuple(Fraction(n, den) if mask >> j & 1 else n // den for j, n in enumerate(v.nums))


def _common(vectors: Sequence[_Exact]) -> tuple[int, list[Sequence[int]]]:
    """The lcm of the records' denominators and each record's numerators
    over it; records of unequal length raise ``vector_add``'s error."""
    size = len(vectors[0].nums)
    for v in vectors:
        if len(v.nums) != size:
            raise ValueError(f"space dimension mismatch: {size} vs {len(v.nums)}")
    den = math.lcm(*[v.den for v in vectors])
    return den, [v.nums if v.den == den else [n * (den // v.den) for n in v.nums] for v in vectors]


def _sum(values: Sequence[Any]) -> Any:
    """The sum of evaluator values: records add integer numerators over one
    denominator and OR their masks; other values go through ``vector_sum``."""
    if any(type(v) is not _Exact for v in values):
        return _record(vector_sum([_vector(v) for v in values]))
    den, rows = _common(values)
    return _Exact(den, tuple(map(sum, zip(*rows))), functools.reduce(or_, [v.mask for v in values]))


def _difference(F: Callable[[Value], Value], base: Any, dirs: Sequence[Any]) -> Any:
    """The alternating sum of F over the corners base + a subset of
    ``dirs``, on evaluator values; corner m adds ``dirs[i]`` for each bit i.

    For a ``RandomRationalMap`` and records, each corner is an integer
    subset sum ``(den, *nums)``, read from the map's memo as its key, and
    the integer values are summed with signs over ``_SCALE``.  Any other map
    is called on the tuples ``cuboid.corners`` builds, and its values are
    summed by ``vector_sum``.
    """
    signs = [-1 if len(dirs) % 2 else 1]
    for _ in dirs:
        signs += [-s for s in signs]
    if type(F) is not RandomRationalMap or type(base) is not _Exact or any(type(d) is not _Exact for d in dirs):
        values = [tuple(F(c)) for c in corners(_vector(base), [_vector(d) for d in dirs])]
        return _record(vector_sum(values, signs))
    den, (first, *steps) = _common([base, *dirs])
    points = [(den, *first)]
    for step in steps:
        step = (0, *step)
        points += [tuple(map(add, p, step)) for p in points]
    outs = [F._at(p).nums for p in points]
    return _Exact(_SCALE, tuple([sum(map(mul, col, signs)) for col in zip(*outs)]), F._mask)


def evaluate_delta(F: Callable[[Value], Value], base: Value, directions: Sequence[Value]) -> Value:
    """Iterated difference of F at ``base``: the alternating sum of F over
    all corners base + sum of a subset of directions.

    Each direction is taken once as listed, so a direction listed twice is
    differenced twice.  With no directions this is just F(base).  For a
    ``RandomRationalMap`` and exact rational vectors, the corners are
    integer subset sums over one common denominator, read through the map's
    integer-keyed memo, and its values are summed as integers; any other map
    is called at corners added by + and -.  ``eval_expr`` runs the same kernel,
    ``_difference``, at each difference node.
    """
    return _vector(_difference(F, _record(tuple(base)), [_record(tuple(d)) for d in directions]))


def eval_expr(e: Expr, bindings: Mapping[str, Any]) -> Value:
    """Evaluate an expression with names bound to points (tuples), cuboids,
    and callables for function symbols.

    Each distinct subexpression is evaluated once per call, children first:
    equal expressions are one node (the nodes are hash-consed), so the inner
    differences shared by many terms of an expansion are computed once.  A
    node's value is kept as an integer record (``_Exact``) while its entries
    are exact rationals, and becomes a tuple only at the root.  Of several
    faults, the one met first in that order is reported.
    """
    try:
        nodes = _postorder(e)
    except TypeError as exc:
        raise EvaluationError(str(exc)) from None

    def bound(name: str, ok: Callable[[Any], bool], what: str) -> Any:
        try:
            value = bindings[name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {name!r}") from None
        if not ok(value):
            raise EvaluationError(f"symbol {name!r} must be bound to {what}")
        return value

    values: dict[Expr, Any] = {}
    # A ValueError from a cuboid lookup, a vector sum or a bound map becomes
    # an EvaluationError with the same text, whichever node raised it.
    try:
        for n in nodes:
            if isinstance(n, (PointSym, VecSym)):
                value = _record(tuple(bound(n.name, lambda v: isinstance(v, (tuple, list)), "a vector")))
            elif isinstance(n, ComponentSym):
                value = _record(bound(n.cuboid, lambda c: isinstance(c, Cuboid), "a cuboid").component(n.index))
            elif isinstance(n, App):
                F, arg = bound(n.func, callable, "a map"), values[n.arg]
                if type(F) is RandomRationalMap and type(arg) is _Exact:
                    value = F._at((arg.den, *arg.nums))
                else:
                    value = _record(tuple(F(_vector(arg))))
            elif isinstance(n, Sum):
                if not n.terms:
                    raise EvaluationError("cannot evaluate an empty sum")
                value = _sum([values[t] for t in n.terms])
            else:  # a difference term
                F = bound(n.func, callable, "a map")
                value = _difference(F, values[n.base], [values[d] for d in n.directions])
            values[n] = value
    except ValueError as exc:
        raise EvaluationError(str(exc)) from None
    return _vector(values[e])


# ---------------------------------------------------------------------------
# deterministic pseudorandom data

def derive_seed(root: int, *labels: Any) -> int:
    """Stable child seed from a root seed and a label path."""
    msg = "|".join([str(root)] + [str(p) for p in labels])
    return int.from_bytes(hashlib.blake2b(msg.encode(), digest_size=8).digest(), "big")


class RandomRationalMap:
    """A deterministic pseudorandom map between rational vector spaces.

    Values are derived from a keyed hash of the exact input coordinates, so
    equal seeds give equal maps across runs and platforms, and every call is
    memoized.  Numerators lie in [-100, 100], denominators in [1, 16].  The
    memo is keyed by integers: a point's key is ``(den, *nums)``, with
    ``den`` the lcm of its reduced denominators, so no ``Fraction`` is
    hashed on a hit.
    """

    def __init__(self, seed: int, domain_dim: int, codomain_dim: int):
        self.seed = seed
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self._mask = (1 << codomain_dim) - 1
        self._memo: dict[tuple[int, ...], _Exact] = {}  # key -> value, over _SCALE
        self._values: dict[tuple[int, ...], Value] = {}  # key -> value, as Fractions

    def __call__(self, point: Value) -> Value:
        exact = _record(tuple(c if type(c) is Fraction else Fraction(c) for c in point))
        key = (exact.den, *exact.nums)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = _vector(self._at(key))
        return value

    def _at(self, point: tuple[int, ...]) -> _Exact:
        """The value at ``point[1:] / point[0]``, as a record over ``_SCALE``."""
        if len(point) != self.domain_dim + 1:
            raise ValueError(f"need {self.domain_dim} coordinates, got {len(point) - 1}")
        g = math.gcd(*point)
        key = point if g == 1 else tuple([x // g for x in point])
        value = self._memo.get(key)
        if value is None:
            # the text of each reduced coordinate, as str(Fraction) writes it
            den, text = key[0], []
            for n in key[1:]:
                g = math.gcd(n, den)
                text.append(str(n // g) if g == den else f"{n // g}/{den // g}")
            text, nums = "|".join(text), []
            for j in range(self.codomain_dim):
                digest = hashlib.blake2b(f"{self.seed};{j};{text}".encode(), digest_size=16).digest()
                num = int.from_bytes(digest[:8], "big") % 201 - 100
                nums.append(num * (_SCALE // (int.from_bytes(digest[8:], "big") % 16 + 1)))
            value = self._memo[key] = _Exact(_SCALE, tuple(nums), self._mask)
        return value


def random_rational_vector(rng: random.Random, dim: int, bound: int = 5) -> Value:
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))


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


def _require_count(name: str, n: Any) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"{name} must be an int >= 1, got {n!r}")


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
    trial order.  A ``trials`` that is not an ``int`` >= 1 (a ``bool``
    included) raises ``ValueError`` before any trial runs."""
    for spec in specs:
        _require_count("trials", spec[2])
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


def verify_chain_expansion(seed: int, trials: int = 50, kmax: int = 5) -> list[VerificationReport]:
    """Evaluate the symbolic expansion of an iterated difference of f(g(x))
    against direct evaluation, with fresh pseudorandom maps per trial: x,
    g(x) and f(g(x)) all lie in the plane."""
    return _run_trials(seed, _chain_specs(trials, kmax))


def _chain_specs(trials: int, kmax: int) -> list[_Spec]:
    _require_count("kmax", kmax)
    _require_count("trials", trials)  # before any expansion is built

    def spec(k: int) -> _Spec:
        alpha = MultiIndex.ones(k)
        expr = expand_chain(alpha)

        def check(s: int) -> Failure | None:
            rng = random.Random(s)
            g = RandomRationalMap(derive_seed(s, "g"), 2, 2)
            f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
            x = random_rational_vector(rng, 2)
            vs = [random_rational_vector(rng, 2) for _ in range(k)]
            if eval_expr(expr, _chain_bindings(f, g, x, vs)) != evaluate_delta(lambda p: f(g(p)), x, vs):
                return Failure(s, str(alpha), "expansion differs from direct difference")
            return None

        return f"chain-expansion-k{k}", ("chain", k), trials, check, True, None

    return [spec(k) for k in range(1, kmax + 1)]


def verify_tangent_expansion(seed: int, trials: int = 50, kmax: int = 5) -> list[VerificationReport]:
    """Evaluate the symbolic top component of the conjugated pointwise map
    against the cuboid-level computation on random cuboids: the cuboid's
    vectors and f's values lie in the plane."""
    return _run_trials(seed, _tangent_specs(trials, kmax))


def _tangent_specs(trials: int, kmax: int) -> list[_Spec]:
    _require_count("kmax", kmax)
    _require_count("trials", trials)  # before any expansion is built

    def spec(k: int) -> _Spec:
        alpha = MultiIndex.ones(k)
        expr = expand_tangent(alpha)

        def check(s: int) -> Failure | None:
            rng = random.Random(s)
            f = RandomRationalMap(derive_seed(s, "f"), 2, 2)
            cub = random_cuboid(rng, k, 2)
            if eval_expr(expr, {"f": f, "u": cub}) != discrete_tangent(f, cub).component(alpha):
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


def identity_suite(seed: int, trials: int = 1000) -> list[VerificationReport]:
    """Run every exact structural identity check ``trials`` times each."""
    return _run_trials(seed, _identity_specs(trials))


def _identity_specs(trials: int) -> list[_Spec]:
    return [
        (name, (name,), trials, lambda s, c=check: None if (d := c(s)) is None else Failure(s, "", d), True, None)
        for name, check in _IDENTITY_CHECKS
    ]


# ---------------------------------------------------------------------------
# remainder scaling

DEFAULT_EPS_EXPONENTS = tuple(range(3, 11))


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
    eps_exponents: Sequence[int] = DEFAULT_EPS_EXPONENTS,
) -> ScalingResult:
    """The remainder left after the leading-order truncation at directions
    ε·w, evaluated once in ε-series of order deg f · deg g + 1: exact, as
    both sides have degree at most deg f · deg g in ε.  ``valuation`` is its
    lowest nonzero degree when below |alpha| + 1, else ``None``; ``norms``
    are max_i |R_i(2**-j)| over the grid, by Horner's rule, and ``slope``
    their log-log fit on the finest three points (coarse scales still carry
    next-order corrections).  A grid of fewer than two points, or an
    exponent not a nonnegative ``int``, raises ``ValueError``.  The result
    is degenerate when every norm is zero; ``slope`` is ``None`` then or
    when fewer than two norms are nonzero.
    """
    if any(not isinstance(j, int) or isinstance(j, bool) or j < 0 for j in eps_exponents):
        raise ValueError(f"grid exponents must be nonnegative integers, got {list(eps_exponents)}")
    if len(set(eps_exponents)) < 2:
        raise ValueError(f"a slope needs at least two grid points, got {sorted(set(eps_exponents))}")
    df, dg = (max(0, max((p.degree for p in m.components), default=0)) for m in (f, g))
    eps = _Series.epsilon(df * dg + 1)
    lhs, rhs = _main_term_split(f, g, x, [tuple(eps * c for c in w) for w in ws], alpha)
    v = series_valuation(lhs, rhs)
    valuation = v if v is not None and v <= alpha.order else None
    rem = [d.coeffs if isinstance(d, _Series) else (d,) for d in vector_sub(lhs, rhs)]
    pts, norms = [], []
    for j in sorted(eps_exponents):
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


def verify_scaling(
    seed: int,
    alpha: MultiIndex,
    trials: int = 3,
    eps_exponents: Sequence[int] = DEFAULT_EPS_EXPONENTS,
) -> VerificationReport:
    """Check that the remainder shrinks at least like the next order.

    Each trial makes one ``scaling_slope`` call: one exact ε-series
    evaluation of the remainder gives both the verdict and the grid norms.
    A trial fails when the remainder's ε-valuation at directions ε·w is
    below |alpha| + 1.  The fitted slope is only reported, next to the
    threshold |alpha| + 1 - 0.2 it is expected to clear; a remainder zero
    at every grid point is reported as degenerate, and one nonzero at a
    single point as having no slope.  A bad grid, or an alpha that is not a
    ``MultiIndex``, raises ``ValueError``.
    """
    (report,) = _run_trials(seed, [_scaling_spec(alpha, trials, eps_exponents)])
    return report


def _scaling_spec(alpha: MultiIndex, trials: int, eps_exponents: Sequence[int]) -> _Spec:
    check_alpha(alpha)

    def check(s: int) -> tuple[Failure | None, str]:
        result = scaling_slope(*scaling_trial(s, alpha), alpha, eps_exponents)
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

def verify_smooth_chain(alpha: MultiIndex, seed: int, trials: int = 25) -> VerificationReport:
    """Exact polynomial checks of the derivative-level composition formula,
    the lifted tangent map on injected and general cuboids, and (for small
    dimensions) functoriality of the lift.  An alpha that is not a
    ``MultiIndex`` raises ``ValueError``."""
    (report,) = _run_trials(seed, [_smooth_spec(alpha, trials)])
    return report


def _smooth_spec(alpha: MultiIndex, trials: int) -> _Spec:
    check_alpha(alpha)
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

        gx = g(x)
        terms = [iterated_directional(f, [d_alpha(g, us, b)(x) for b in p.blocks])(gx) for p in table]
        fg = compose(f, g)
        if d_alpha(fg, us, alpha)(x) != vector_sum(terms):
            return Failure(s, str(alpha), "composition derivative expansion")

        lift = iterated_tangent_lift(f, k)
        injected = inject(PointedDirections(x, tuple(us)))
        out = Cuboid.from_flat(k, 2, lift(injected.flatten()))
        for beta in injected.indices():
            if out.component(beta) != d_alpha(f, us, beta)(x):
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

SUITE_NAMES = ("theorem-b", "eq9", "identities", "scaling", "smooth-chain", "all")


def run_suite(
    name: str,
    seed: int,
    trials: int | None = None,
    kmax: int | None = None,
    alpha: MultiIndex | None = None,
    eps_exponents: Sequence[int] = DEFAULT_EPS_EXPONENTS,
) -> list[VerificationReport]:
    """Run one named verification suite (or all of them) and return reports.
    Every trial of the call runs in one trial pool."""
    if any(n is not None and (type(n) is not int or n < 1) for n in (trials, kmax)):
        raise ValueError(f"trials and kmax must be None or an int >= 1, got {trials!r} and {kmax!r}")
    if alpha is not None:
        check_alpha(alpha)
    return _run_trials(seed, _suite_specs(name, trials, kmax, alpha, eps_exponents))


def _suite_specs(
    name: str, trials: int | None, kmax: int | None, alpha: MultiIndex | None, eps_exponents: Sequence[int]
) -> list[_Spec]:
    if name == "theorem-b":
        return _chain_specs(trials or 50, kmax or 5)
    if name == "eq9":
        return _tangent_specs(trials or 50, kmax or 5)
    if name == "identities":
        return _identity_specs(trials or 1000)
    if name == "scaling":
        alphas = [alpha] if alpha is not None else [MultiIndex.ones(2), MultiIndex.ones(3)]
        return [_scaling_spec(a, trials or 3, eps_exponents) for a in alphas]
    if name == "smooth-chain":
        alphas = [alpha] if alpha is not None else [MultiIndex.ones(k) for k in range(1, (kmax or 3) + 1)]
        return [_smooth_spec(a, trials or 25) for a in alphas]
    if name == "all":
        return [s for n in SUITE_NAMES[:-1] for s in _suite_specs(n, trials, kmax, alpha, eps_exponents)]
    raise ValueError(f"unknown suite: {name!r}")
