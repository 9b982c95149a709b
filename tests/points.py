"""Points of CP^1 as vectors, in floats: helpers shared by the tests.

A point is a nonzero vector of C^2 up to scale; `unit` scales it to unit
length, the form `ideal_tet_volume` reads.
"""

from volquandle.hypgeom import unit

INFINITY = (1.0, 0.0)


def bp(z: complex):
    """The finite point z, as the unit vector of (z, 1)."""
    return unit((z, 1.0))


def bracket(p, q) -> float:
    """|[p, q]| = |p0 q1 - p1 q0|; of unit vectors, half their chordal distance."""
    (p0, p1), (q0, q1) = p, q
    return abs(p0 * q1 - p1 * q0)


def act(m, p):
    """The image of the point [p] under the Moebius map m, as a unit vector."""
    p0, p1 = p
    return unit((m.a * p0 + m.b * p1, m.c * p0 + m.d * p1))
