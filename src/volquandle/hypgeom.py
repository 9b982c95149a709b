"""Boundary geometry of hyperbolic 3-space in the upper half-space model.

Points of the ideal boundary live on the Riemann sphere C u {inf};
orientation-preserving isometries act as Moebius maps (PSL(2, C), so all
matrix comparisons are up to a global sign). Signed ideal-tetrahedron
volume is the Bloch-Wigner function of the vertex cross-ratio.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dilog import bloch_wigner
from .errors import BadMatrix, NotParabolic

TOL = 1e-9
# Relative distance below which two ideal vertices count as one (the
# tetrahedron is then degenerate, volume 0): a repeated vertex recomputed
# through a chain of Moebius maps differs from its twin by rounding
# noise, and the cross-ratio of that noise is an arbitrary O(1) number.
COINCIDENT_VERTEX_TOL = 1e-7


class BoundaryPoint:
    """A point of C u {inf}; immutable. Use `finite()` or `INFINITY`."""

    __slots__ = ("value",)

    def __init__(self, value: complex | None):
        if value is not None:
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError("finite boundary point with non-finite components")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("BoundaryPoint is immutable")

    @classmethod
    def finite(cls, value: complex) -> "BoundaryPoint":
        return cls(value)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def approx_eq(self, other: "BoundaryPoint", tol: float = TOL) -> bool:
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return abs(self.value - other.value) < tol

    def __repr__(self):
        return "INFINITY" if self.is_infinity else f"BoundaryPoint({self.value!r})"

    def to_json(self):
        if self.is_infinity:
            return "inf"
        return [self.value.real, self.value.imag]


INFINITY = BoundaryPoint(None)


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

    def apply(self, p: BoundaryPoint) -> BoundaryPoint:
        if p.is_infinity:
            if abs(self.c) < TOL:
                return INFINITY
            return BoundaryPoint(self.a / self.c)
        z = p.value
        den = self.c * z + self.d
        if abs(den) < 1e-12 * max(1.0, abs(self.c * z), abs(self.d)):
            return INFINITY
        return BoundaryPoint((self.a * z + self.b) / den)

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

    def to_json(self):
        return [
            [[self.a.real, self.a.imag], [self.b.real, self.b.imag]],
            [[self.c.real, self.c.imag], [self.d.real, self.d.imag]],
        ]

    @classmethod
    def from_json(cls, rows) -> "MoebiusMap":
        try:
            (a, b), (c, d) = rows
            return cls(
                complex(a[0], a[1]),
                complex(b[0], b[1]),
                complex(c[0], c[1]),
                complex(d[0], d[1]),
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise BadMatrix(f"malformed matrix document: {rows!r}") from exc


def is_parabolic(m: MoebiusMap) -> bool:
    """Trace squared is 4 and the map is not +-identity."""
    tr = m.trace()
    if abs(tr * tr - 4.0) >= TOL:
        return False
    return not m.is_identity_up_to_sign()


def parabolic_fixed_point(m: MoebiusMap) -> BoundaryPoint:
    """The unique boundary fixed point of a parabolic map."""
    if not is_parabolic(m):
        raise NotParabolic(f"map with trace {m.trace()!r} is not parabolic")
    if abs(m.c) < TOL:
        return INFINITY
    return BoundaryPoint((m.a - m.d) / (2.0 * m.c))


def _proj(p: BoundaryPoint) -> tuple[complex, complex]:
    if p.is_infinity:
        return (1.0 + 0j, 0j)
    return (p.value, 1.0 + 0j)


def cross_ratio(
    v0: BoundaryPoint, v1: BoundaryPoint, v2: BoundaryPoint, v3: BoundaryPoint
) -> complex | BoundaryPoint:
    """((v3-v0)(v2-v1)) / ((v2-v0)(v3-v1)), projectively.

    Works with any placement of infinity. Returns INFINITY when the
    denominator vanishes; 0, 1 or INFINITY signal a degenerate tetrahedron.
    """

    def diff(p, q):
        (pp, pq), (qp, qq) = _proj(p), _proj(q)
        return pp * qq - qp * pq

    num = diff(v3, v0) * diff(v2, v1)
    den = diff(v2, v0) * diff(v3, v1)
    if den == 0:
        if num == 0:
            return 1.0 + 0j  # doubly degenerate; any volume-0 value works
        return INFINITY
    return num / den


@dataclass(frozen=True)
class IdealTetrahedron:
    """Ordered ideal vertices; order carries the orientation."""

    v0: BoundaryPoint
    v1: BoundaryPoint
    v2: BoundaryPoint
    v3: BoundaryPoint

    def vertices(self):
        return (self.v0, self.v1, self.v2, self.v3)

    def shape(self) -> complex | BoundaryPoint:
        return cross_ratio(self.v0, self.v1, self.v2, self.v3)


def _nearly_equal(p: BoundaryPoint, q: BoundaryPoint) -> bool:
    if p.is_infinity or q.is_infinity:
        return p.is_infinity and q.is_infinity
    scale = max(1.0, abs(p.value), abs(q.value))
    return abs(p.value - q.value) < COINCIDENT_VERTEX_TOL * scale


def ideal_tet_volume(t: IdealTetrahedron) -> float:
    """Signed volume; zero for degenerate (real cross-ratio) tetrahedra.

    Vertices within relative distance `COINCIDENT_VERTEX_TOL` are treated
    as coincident.
    """
    vs = t.vertices()
    for i in range(4):
        for j in range(i + 1, 4):
            if _nearly_equal(vs[i], vs[j]):
                return 0.0
    z = t.shape()
    if isinstance(z, BoundaryPoint):
        return 0.0
    return bloch_wigner(z)
