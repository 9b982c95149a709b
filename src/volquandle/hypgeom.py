"""Boundary geometry of hyperbolic 3-space in the upper half-space model.

A point of the ideal boundary CP^1 is a nonzero vector p = (u, v) of C^2
up to scale, a plain tuple: z in C is (z, 1) and infinity is (1, 0), so
nothing branches on infinity. The one closeness test is the bracket
|[p, q]| = |p0 q1 - p1 q0| of unit vectors, half the chordal distance on
the unit Riemann sphere; `unit` scales a vertex to unit length once, so
that the coincident-vertex guard of `ideal_tet_volume` reads brackets on
that one scale. Orientation-preserving isometries act as Moebius maps
(PSL(2, C), so all matrix comparisons are up to a global sign); a
parabolic one is +-(I + v v^T J) for a vector v in C^2, unique up to
sign, and fixes the point [v]. Signed ideal-tetrahedron volume is the
Bloch-Wigner function of the vertex cross-ratio, a ratio of brackets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dilog import bloch_wigner
from .errors import BadMatrix, NotParabolic

TOL = 1e-9
# Bracket (half the chordal distance) below which two ideal vertices
# count as one (the tetrahedron is then degenerate, volume 0): a repeated
# vertex recomputed through a chain of Moebius maps differs from its twin
# by rounding noise, and the cross-ratio of that noise is an arbitrary
# O(1) number.
COINCIDENT_VERTEX_TOL = 1e-7

Vector = tuple[complex, complex]


def unit(p: Vector) -> Vector:
    """The unit vector of the point [p]; p is any nonzero finite vector."""
    u, v = complex(p[0]), complex(p[1])
    n = math.hypot(abs(u), abs(v))
    if not (0.0 < n < math.inf):
        raise ValueError(f"({u!r}, {v!r}) is not a point of CP^1")
    return (u / n, v / n)


@dataclass(frozen=True)
class MoebiusMap:
    """2x2 complex matrix [[a, b], [c, d]], normalized to determinant 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-12:
            raise BadMatrix(f"matrix has vanishing determinant ({det!r})")
        if abs(det - 1.0) > 1e-14:
            s = cmath.sqrt(det)
            object.__setattr__(self, "a", self.a / s)
            object.__setattr__(self, "b", self.b / s)
            object.__setattr__(self, "c", self.c / s)
            object.__setattr__(self, "d", self.d / s)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def trace(self) -> complex:
        return self.a + self.d

    def eq_up_to_sign(self, other: "MoebiusMap", tol: float = TOL) -> bool:
        mine = self.entries()
        theirs = other.entries()
        plus = max(abs(x - y) for x, y in zip(mine, theirs))
        minus = max(abs(x + y) for x, y in zip(mine, theirs))
        # Tolerance scales with entry magnitude: long words of parabolic
        # generators evaluate to large entries, and an absolute 1e-9 would
        # spuriously separate equal elements there.
        scale = max(1.0, *(abs(x) for x in mine + theirs))
        return min(plus, minus) < tol * scale

    def is_identity_up_to_sign(self) -> bool:
        return self.eq_up_to_sign(MoebiusMap.identity())

    @classmethod
    def from_json(cls, rows) -> "MoebiusMap":
        try:
            (a, b), (c, d) = rows
            entries = [complex(x[0], x[1]) for x in (a, b, c, d)]
        except (TypeError, ValueError, IndexError) as exc:
            raise BadMatrix(f"malformed matrix document: {rows!r}") from exc
        # every comparison with NaN is false, so the determinant guards and
        # `is_parabolic` would let a NaN entry through
        if not all(map(cmath.isfinite, entries)):
            raise BadMatrix(f"matrix entries must be finite: {rows!r}")
        return cls(*entries)


def is_parabolic(m: MoebiusMap) -> bool:
    """Trace squared is 4 and the map is not +-identity.

    The trace test scales with entry magnitude, as `eq_up_to_sign` does:
    a long word's rounding error in the trace grows with its entries.
    """
    tr = m.trace()
    if abs(tr * tr - 4.0) >= TOL * max(1.0, *(abs(x) for x in m.entries())):
        return False
    return not m.is_identity_up_to_sign()


def parabolic_map(v: Vector) -> MoebiusMap:
    """P_v = I + v v^T J = [[1 - v0 v1, v0^2], [-v1^2, 1 + v0 v1]].

    Here J = [[0, 1], [-1, 0]]. Every parabolic map is +-P_v for a vector
    v, unique up to sign, and its fixed point is [v] (v^T J v = 0).
    Conjugation acts on v linearly: M^-1 P_v M = P_(M^-1 v).
    """
    v0, v1 = v
    return MoebiusMap(1.0 - v0 * v1, v0 * v0, -v1 * v1, 1.0 + v0 * v1)


def parabolic_vector(m: MoebiusMap) -> Vector:
    """The vector v, up to sign, with m = +-P_v (see `parabolic_map`).

    Of the trace +2 representative of +-m, the entry b is v0^2 and -c is
    v1^2; the larger is square-rooted, so v is well conditioned, and the
    other coordinate follows from d - a = 2 v0 v1.
    """
    if not is_parabolic(m):
        raise NotParabolic(f"map with trace {m.trace()!r} is not parabolic")
    a, b, c, d = m.entries()
    if m.trace().real < 0.0:
        a, b, c, d = -a, -b, -c, -d
    if abs(b) >= abs(c):
        v0 = cmath.sqrt(b)
        return (v0, (d - a) / (2.0 * v0))
    v1 = cmath.sqrt(-c)
    return ((d - a) / (2.0 * v1), v1)


def ideal_tet_volume(p0: Vector, p1: Vector, p2: Vector, p3: Vector) -> float:
    """Signed volume D(z), z = [p0,p3][p1,p2] / ([p0,p2][p1,p3]) the cross-ratio.

    The vertices are unit vectors (see `unit`), ordered, and the order
    carries the orientation. Zero for degenerate (real cross-ratio)
    tetrahedra, and zero when two vertices have a bracket below
    `COINCIDENT_VERTEX_TOL`.
    """
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = p0, p1, p2, p3
    b01 = u0 * v1 - v0 * u1
    b02 = u0 * v2 - v0 * u2
    b03 = u0 * v3 - v0 * u3
    b12 = u1 * v2 - v1 * u2
    b13 = u1 * v3 - v1 * u3
    b23 = u2 * v3 - v2 * u3
    nearest = min(abs(b01), abs(b02), abs(b03), abs(b12), abs(b13), abs(b23))
    if nearest < COINCIDENT_VERTEX_TOL:
        return 0.0
    return bloch_wigner(b03 * b12 / (b02 * b13))
