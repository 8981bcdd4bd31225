"""Hand-transcribed expected expansions for small cubes.

These are the regression references for the formula generators: the
two-term and five-term expansions of the discrete tangent component over
all-ones multi-indices of length 2 and 3, and the matching composite-map
expansions.  They are written out block by block, independently of the
generator code, so a change in the construction that alters any term is
caught as a diff against these trees.
"""

from deltachain.combinatorics import MultiIndex
from deltachain.symbolic import App, ComponentSym, DeltaTerm, PointSym, Sum, VecSym


def mi(s: str) -> MultiIndex:
    return MultiIndex.from_string(s)


def comp(bits: str, cuboid: str = "u") -> ComponentSym:
    return ComponentSym(cuboid, mi(bits))


def comp_sum(*bits: str):
    parts = tuple(comp(b) for b in bits)
    return parts[0] if len(parts) == 1 else Sum(parts)


def dt(directions, func, base) -> DeltaTerm:
    return DeltaTerm(tuple(directions), func, base)


GX = App("g", PointSym("x"))


def dg(*positions: int):
    """Iterated difference of g at x along the numbered vectors v_i."""
    dirs = tuple(VecSym(f"v_{p}") for p in positions)
    return DeltaTerm(dirs, "g", PointSym("x"))


def gx_plus(*terms):
    return Sum((GX,) + tuple(terms))


# -- tangent component, k = 2: one term per partition of 11 ----------------

TANGENT_11 = Sum(
    (
        # partition {11}: single direction u_{1,2}, base collects the
        # strictly smaller components
        dt([comp("11")], "f", comp_sum("00", "01", "10")),
        # partition {10, 01}: two first-order directions, bare base
        dt([comp("10"), comp("01")], "f", comp("00")),
    )
)

# -- tangent component, k = 3: one term per partition of 111 ---------------

TANGENT_111 = Sum(
    (
        # {111}
        dt(
            [comp("111")],
            "f",
            comp_sum("000", "001", "010", "011", "100", "101", "110"),
        ),
        # {100, 011}
        dt([comp("100"), comp("011")], "f", comp_sum("000", "001", "010")),
        # {101, 010}
        dt(
            [comp("101"), Sum((comp("010"), comp("011")))],
            "f",
            comp_sum("000", "001", "100"),
        ),
        # {110, 001}
        dt(
            [comp("110"), Sum((comp("001"), comp("011"), comp("101")))],
            "f",
            comp_sum("000", "010", "100"),
        ),
        # {100, 010, 001}
        dt([comp("100"), comp("010"), comp("001")], "f", comp("000")),
    )
)

# -- second difference of a composite --------------------------------------

CHAIN_11 = Sum(
    (
        dt([dg(1, 2)], "f", gx_plus(dg(1), dg(2))),
        dt([dg(1), dg(2)], "f", GX),
    )
)

# -- third difference of a composite ----------------------------------------

CHAIN_111 = Sum(
    (
        dt(
            [dg(1, 2, 3)],
            "f",
            gx_plus(dg(1), dg(2), dg(3), dg(1, 2), dg(1, 3), dg(2, 3)),
        ),
        dt([dg(1), dg(2, 3)], "f", gx_plus(dg(2), dg(3))),
        dt([dg(1, 3), Sum((dg(2), dg(2, 3)))], "f", gx_plus(dg(1), dg(3))),
        dt(
            [dg(1, 2), Sum((dg(3), dg(1, 3), dg(2, 3)))],
            "f",
            gx_plus(dg(1), dg(2)),
        ),
        dt([dg(1), dg(2), dg(3)], "f", GX),
    )
)

# -- leading-order truncations ----------------------------------------------

MAIN_11 = Sum(
    (
        dt([dg(1, 2)], "f", GX),
        dt([dg(1), dg(2)], "f", GX),
    )
)

MAIN_111 = Sum(
    (
        dt([dg(1, 2, 3)], "f", GX),
        dt([dg(1), dg(2, 3)], "f", GX),
        dt([dg(1, 3), dg(2)], "f", GX),
        dt([dg(1, 2), dg(3)], "f", GX),
        dt([dg(1), dg(2), dg(3)], "f", GX),
    )
)
