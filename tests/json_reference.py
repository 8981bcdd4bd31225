"""The JSON object form of an expression, built as a tree of dicts by
recursion, kept as the reference for ``render(e, "json")``.

``render(e, "json")`` makes a leaf's text once per depth and every other
node's as a list of parts, joined once, without building this tree; the
tests check that it is byte-identical to
``json.dumps({"version": 1, "root": expr_to_obj(e)}, indent=2,
sort_keys=True)``, the layout the README documents.
"""

from __future__ import annotations

from deltachain.symbolic import App, ComponentSym, DeltaTerm, Expr, PointSym, Sum, VecSym


def expr_to_obj(e: Expr) -> dict:
    """The JSON object form of ``e``; nesting too deep to recurse raises ``ValueError``."""
    try:
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
                "alpha": [1] * len(e.directions),
                "directions": [expr_to_obj(d) for d in e.directions],
                "func": e.func,
                "base": expr_to_obj(e.base),
            }
        if isinstance(e, Sum):
            return {"node": "sum", "terms": [expr_to_obj(t) for t in e.terms]}
    except RecursionError:
        raise ValueError("nesting too deep") from None
    raise TypeError(f"not an expression: {e!r}")
