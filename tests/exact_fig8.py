"""Exact figure-eight arithmetic over the Eisenstein integers: a test oracle.

Every entry of both fig8 holonomy documents lies in Z[w], w = exp(i pi/3),
w^2 = w - 1 (R. Riley, "A quadratic parabolic group", Math. Proc. Camb.
Phil. Soc. 77, 1975). So every pool element is an exact integer matrix:
identity is +- equality of integer tuples, and two fixed points coincide
exactly when their bracket is the Eisenstein integer 0. Nothing here
rounds or compares against a tolerance, so it is the ground truth for the
float identity decisions of `volquandle.holquandle`.

An Eisenstein integer a + b w is the pair (a, b); a 2x2 matrix is the
tuple of its four entries (a, b, c, d), row by row.
"""

from __future__ import annotations

import itertools
import math

from volquandle.holquandle import forcing_schedule, invert_word, reduce_word

SQRT3 = math.sqrt(3.0)
# Largest distance of a fixture float from its Eisenstein integer.
ROUNDING_TOL = 1e-9

ZERO, ONE = (0, 0), (1, 0)


def from_complex(z: complex) -> tuple[int, int]:
    """The Eisenstein integer a + b w at z, asserting z is one to ROUNDING_TOL."""
    b = 2.0 * z.imag / SQRT3
    a = z.real - b / 2.0
    ra, rb = round(a), round(b)
    assert abs(a - ra) < ROUNDING_TOL and abs(b - rb) < ROUNDING_TOL, z
    return (ra, rb)


def to_complex(x) -> complex:
    return complex(x[0] + x[1] / 2.0, x[1] * SQRT3 / 2.0)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    """(a + b w)(c + d w) = ac - bd + (ad + bc + bd) w, as w^2 = w - 1."""
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c + b * d)


def matmul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
    )


def det(m):
    a, b, c, d = m
    return sub(mul(a, d), mul(b, c))


def inverse(m):
    """Inverse of a determinant-1 matrix: the adjugate."""
    a, b, c, d = m
    return (d, neg(b), neg(c), a)


def key(m):
    """The same for m and -m, and different for any other matrix."""
    return min(m, tuple(neg(x) for x in m))


def fixed_point(m):
    """A nonzero vector spanning the fixed line of a parabolic matrix.

    m - (tr/2) I is nilpotent with parallel columns; its image is the
    fixed line. The trace is +-2, so tr/2 is +-1.
    """
    a, b, c, d = m
    half = ONE if add(a, d) == (2, 0) else neg(ONE)
    assert add(a, d) == add(half, half), "not parabolic"
    col = (sub(a, half), c)
    return col if col != (ZERO, ZERO) else (b, sub(d, half))


def bracket(p, q):
    """[p, q] = p0 q1 - p1 q0; zero exactly when [p] = [q]."""
    return sub(mul(p[0], q[1]), mul(p[1], q[0]))


class ExactRep:
    """The generator matrices of a holonomy document, read into Z[w]."""

    def __init__(self, doc: dict):
        self.generators = tuple(doc["generators"])
        self.matrices = {}
        for name in self.generators:
            (a, b), (c, d) = doc["matrices"][name]
            m = tuple(from_complex(complex(*x)) for x in (a, b, c, d))
            assert det(m) == ONE, name
            self.matrices[name] = m

    def pools(self, depth: int):
        """The conjugate pools at depths 0..depth, as lists of (word, matrix).

        The candidates g^-1 x g are taken over every reduced word g, as the
        pool is defined: words g breadth first, extended by x, x^-1, y,
        y^-1, ... in generator order, and the generators in order for every
        g. A candidate is kept when its +- key is new. Walking every word,
        not only the extensions of the elements new at the last length, is
        what makes this an independent check of `enumerate_conjugates`. The
        depth-d pool is the prefix kept from the words of length <= d.
        """
        letters = [(name, e) for name in self.generators for e in (1, -1)]
        letter_matrix = {
            (name, e): m if e == 1 else inverse(m)
            for name, m in self.matrices.items()
            for e in (1, -1)
        }
        seen, pool, pools = set(), [], []
        level = [((), (ONE, ZERO, ZERO, ONE))]
        for length in range(depth + 1):
            for g, mg in level:
                mg_inv = inverse(mg)
                for name in self.generators:
                    m = matmul(matmul(mg_inv, self.matrices[name]), mg)
                    if key(m) not in seen:
                        seen.add(key(m))
                        word = reduce_word(invert_word(g) + ((name, 1),) + g)
                        pool.append((word, m))
            pools.append(list(pool))
            level = [
                (g + (letter,), matmul(mg, letter_matrix[letter]))
                for g, mg in level
                for letter in letters
                if not g or g[-1] != (letter[0], -letter[1])
            ]
        return pools


def arc_colorings(frames, n_arcs: int, pool):
    """Every arc coloring by pool indices, in lexicographic seed order.

    `pool` is a list of (word, matrix). The seed arcs are those of
    `forcing_schedule`, a combinatorial plan; every seed assignment is
    tried, and each forced color is the exact conjugate, found by its
    +- key, never by a float.
    """
    at = {key(m): i for i, (_, m) in enumerate(pool)}
    mats = [m for _, m in pool]
    inv = [inverse(m) for m in mats]
    images = {}

    def image(under, over, sign):
        if (under, over, sign) not in images:
            if sign > 0:  # b^-1 a b
                m = matmul(matmul(inv[over], mats[under]), mats[over])
            else:  # b a b^-1
                m = matmul(matmul(mats[over], mats[under]), inv[over])
            images[under, over, sign] = at.get(key(m))
        return images[under, over, sign]

    levels = forcing_schedule(frames, n_arcs)
    steps = [step for _, level_steps in levels for step in level_steps]
    out = []
    for seeds in itertools.product(range(len(pool)), repeat=len(levels)):
        color = [None] * n_arcs
        for (seed, _), c in zip(levels, seeds):
            color[seed] = c
        for source, over, target, sign, check in steps:
            c = image(color[source], color[over], sign)
            if c is None or (check and c != color[target]):
                break
            color[target] = c
        else:
            out.append(tuple(color))
    return out
