"""The state-sum invariant: cocycle, shadow colorings, Phi, symmetry flags.

Coloring conventions (coupled with the ones in `diagram`):

* Crossing rule (`holquandle.crossing_image`): color(under_out) =
  color(under_in) * color(over) at a positive crossing, and the inverse
  operation at a negative one.
* Region rule: crossing an arc along its normal (right side of the arc's
  orientation to its left side) sends r to r * (arc color). A region
  color is a vector r of C^2 and carries no word: its point [r] in CP^1
  (the X-set of Inoue-Kabaya, Geom. Dedicata 171, 2014) is a vertex.
* Boltzmann weight at a crossing: sign * vol_w(r, x, y) with y the over
  color, r the source-region color from the crossing frame, and x the
  under color on the source side (the incoming under-arc at a positive
  crossing, the outgoing one at a negative crossing).

These choices were calibrated together so that every valid coloring's
state sum lands on {-V, 0, +V} and the generator coloring of the built-in
figure-eight diagram yields +V.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .diagram import Diagram
from .errors import ColoringInvalid, InconsistentExtension, OutOfLattice
from .hypgeom import BoundaryPoint, ideal_tet_volume
from .holquandle import (
    ElementPool,
    HolonomyRep,
    QuandleElement,
    Vector,
    arc_colorings,
    crossing_image,
    enumerate_conjugates,
    quandle_op,
    quandle_op_inv,  # unused here; perfbench/spans.py still wraps this name
    vectors_equal,
    word_to_text,
)

CLASSIFICATION_TOL = 1e-6


@dataclass(frozen=True)
class ShadowColoring:
    """Arc colors (elements) and region colors (vectors), both by integer id."""

    arc_colors: dict[int, QuandleElement] = field(compare=False)
    region_colors: dict[int, Vector] = field(compare=False)

    def to_json_dict(self) -> dict:
        """The arc words by arc id; `coloring_from_doc` walks the regions."""
        return {
            "arcs": {
                str(i): word_to_text(e.word) for i, e in sorted(self.arc_colors.items())
            }
        }


@dataclass(frozen=True)
class PhiResult:
    phi: float
    volume: float
    k: int
    residual: float


def cocycle_vol(
    w: QuandleElement, z: Vector, x: QuandleElement, y: QuandleElement
) -> float:
    """Signed volume of the four-tetrahedron chain attached to (z, x, y).

    `z` is a region color, a vector; w, x and y are elements. Tetrahedra
    (by points): (w, z, x, y), (w, z*x, y, x), (w, (z*x)*y, x*y, y),
    (w, (z*y), y, x*y). The operated points are the vectors of
    `crossing_image`; no matrix is formed.
    """
    vx, vy = x.vector, y.vector
    zx = crossing_image(z, vx, +1)
    fw, fx, fy = (e.fixed_point for e in (w, x, y))
    fz = BoundaryPoint(*z)
    f_zx = BoundaryPoint(*zx)
    f_zxy = BoundaryPoint(*crossing_image(zx, vy, +1))
    f_xy = BoundaryPoint(*crossing_image(vx, vy, +1))
    f_zy = BoundaryPoint(*crossing_image(z, vy, +1))
    return (
        ideal_tet_volume(fw, fz, fx, fy)
        + ideal_tet_volume(fw, f_zx, fy, fx)
        + ideal_tet_volume(fw, f_zxy, f_xy, fy)
        + ideal_tet_volume(fw, f_zy, fy, f_xy)
    )


def cocycle_residuals(
    w: QuandleElement,
    pool: list[QuandleElement],
    samples: int,
    seed: int = 0,
) -> float:
    """Max residual of the 2-cocycle identity over random (r, x, y, z), r a vector."""
    if not pool:
        raise ValueError("pool must be nonempty")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        r, x, y, z = (rng.choice(pool) for _ in range(4))
        r = r.vector
        rx, ry, rz = (crossing_image(r, e.vector, +1) for e in (x, y, z))
        lhs = (
            cocycle_vol(w, r, x, y)
            + cocycle_vol(w, ry, quandle_op(x, y), z)
            + cocycle_vol(w, r, y, z)
        )
        rhs = (
            cocycle_vol(w, rx, y, z)
            + cocycle_vol(w, r, x, z)
            + cocycle_vol(w, rz, quandle_op(x, z), quandle_op(y, z))
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def validate_coloring(d: Diagram, s: ShadowColoring) -> list[str]:
    """All crossing-rule and region-rule violations; empty list means valid."""
    violations = []
    for i in range(len(d.arcs)):
        if i not in s.arc_colors:
            violations.append(f"arc {i} has no color")
    for r in range(d.n_regions):
        if r not in s.region_colors:
            violations.append(f"region {r} has no color")
    if violations:
        return violations
    for ci in range(d.n_crossings):
        f = d.crossing_frame(ci)
        cin = s.arc_colors[f.under_in_arc].vector
        over = s.arc_colors[f.over_arc].vector
        cout = s.arc_colors[f.under_out_arc].vector
        if not vectors_equal(crossing_image(cin, over, f.sign), cout):
            violations.append(f"crossing {ci}: under-arc colors break the crossing rule")
    for e in d.edges:
        # right side of the arc to its left (normal) side: a +1 step
        arc = s.arc_colors[d.arc_of_edge(e)].vector
        near = s.region_colors[d.region_right(e)]
        far = s.region_colors[d.region_left(e)]
        if not vectors_equal(crossing_image(near, arc, +1), far):
            violations.append(f"edge {e}: region colors break the region rule")
    return violations


def _extend_regions(
    walks, arc_colors: dict[int, QuandleElement], base: Vector
) -> dict[int, Vector]:
    """Color every region by walking from the base region's vector `base`.

    `walks` is `Diagram.region_steps_from(base_region)`, computed once by
    the caller rather than once per coloring. Each step is
    `crossing_image` with the step direction as the sign.
    """
    colors = {}
    for region, steps in walks:
        color = base
        for arc, direction in steps:
            color = crossing_image(color, arc_colors[arc].vector, direction)
        colors[region] = color
    return colors


def natural_coloring(
    d: Diagram,
    h: HolonomyRep,
    base_region: int = 0,
    base_color: QuandleElement | None = None,
) -> ShadowColoring:
    """Arcs colored by their Wirtinger generators, regions extended."""
    if h.arc_generators is None:
        raise ColoringInvalid(
            "representation has no arc-to-generator assignment for this diagram"
        )
    arc_colors = {i: h.element(text) for i, text in enumerate(h.arc_generators)}
    if base_color is None:
        base_color = h.element(((h.generators[0], 1),))
    walks = d.region_steps_from(base_region)
    region_colors = _extend_regions(walks, arc_colors, base_color.vector)
    s = ShadowColoring(arc_colors, region_colors)
    bad = validate_coloring(d, s)
    if bad:
        raise InconsistentExtension("; ".join(bad))
    return s


def coloring_from_doc(d: Diagram, h: HolonomyRep, doc: dict) -> ShadowColoring:
    """Build a ShadowColoring from its JSON document; raises on violations.

    The document is {"arcs": {id: word}, "regions": {id: word}}. Without
    "regions", the regions are walked from region 0 colored by the first
    generator, the base of `natural_coloring` and `tally_colorings`.
    """
    try:
        arc_colors = {int(i): h.element(t) for i, t in doc["arcs"].items()}
        regions = doc.get("regions")
        if regions is not None:
            region_colors = {int(i): h.element(t).vector for i, t in regions.items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ColoringInvalid(f"malformed coloring document: {exc!r}") from exc
    if sorted(arc_colors) != list(range(len(d.arcs))):
        raise ColoringInvalid(f"arcs {sorted(arc_colors)} are not 0..{len(d.arcs) - 1}")
    if regions is None:
        base = h.element(((h.generators[0], 1),)).vector
        region_colors = _extend_regions(d.region_steps_from(0), arc_colors, base)
    s = ShadowColoring(arc_colors, region_colors)
    bad = validate_coloring(d, s)
    if bad:
        raise ColoringInvalid("; ".join(bad))
    return s


def boltzmann_weight(
    d: Diagram, s: ShadowColoring, crossing: int, w: QuandleElement
) -> float:
    """sign * vol_w(source region color, source-side under color, over color)."""
    f = d.crossing_frame(crossing)
    r = s.region_colors[f.source_region]
    x_arc = f.under_in_arc if f.sign > 0 else f.under_out_arc
    x = s.arc_colors[x_arc]
    y = s.arc_colors[f.over_arc]
    return f.sign * cocycle_vol(w, r, x, y)


def phi(
    d: Diagram,
    s: ShadowColoring,
    w: QuandleElement,
    volume: float,
    tol: float = CLASSIFICATION_TOL,
) -> PhiResult:
    """State sum over all crossings, classified onto {-V, 0, +V}."""
    if not 0 < volume < math.inf:
        raise ValueError("reference volume must be positive and finite")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    total = sum(boltzmann_weight(d, s, ci, w) for ci in range(d.n_crossings))
    k = max(-1, min(1, round(total / volume)))
    residual = abs(total - k * volume)
    if residual >= tol:
        raise OutOfLattice(total, volume, residual)
    return PhiResult(phi=total, volume=volume, k=k, residual=residual)


def iter_colorings(d: Diagram, pool: list[QuandleElement], base_region: int = 0):
    """All valid colorings with arc and base-region colors from the pool.

    Deterministic: arc colorings come from `arc_colorings`, in the order
    of its forcing schedule (seed arcs branch over the pool, the crossing
    rule forces the rest); the base-region color runs through the
    interned pool in order for each complete arc coloring, so a duplicate
    in `pool` is one color, as it is in `arc_colorings`.
    """
    pool = ElementPool(pool).elements
    if not pool:
        return
    frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
    walks = d.region_steps_from(base_region)
    for arc_colors in arc_colorings(frames, len(d.arcs), pool):
        for base_color in pool:
            region_colors = _extend_regions(walks, arc_colors, base_color.vector)
            yield ShadowColoring(arc_colors, region_colors)


def reference_volume(h: HolonomyRep, d: Diagram, w: QuandleElement) -> float:
    """Declared volume if any, else the natural coloring's state sum."""
    if h.volume is not None:
        return h.volume
    if h.orientation == "standard" and h.arc_generators is not None:
        result = natural_coloring(d, h)
        total = sum(
            boltzmann_weight(d, result, ci, w) for ci in range(d.n_crossings)
        )
        if total > CLASSIFICATION_TOL:
            return total
    raise ValueError(
        "holonomy document declares no volume and none could be derived"
    )


@dataclass
class KTally:
    """Phi outcomes over one enumeration run.

    `counts` and `total` count shadow colorings; `max_residual` is the
    largest |Phi - kV| over the colorings Phi was evaluated on, one per
    arc coloring (see `tally_colorings`).
    """

    counts: dict[int, int]
    first_witness: dict[int, ShadowColoring]
    max_residual: float
    truncated: bool
    total: int

    def to_json_dict(self) -> dict:
        return {
            "k_counts": {str(k): v for k, v in sorted(self.counts.items())},
            "max_residual": self.max_residual,
            "truncated": self.truncated,
            "total_colorings": self.total,
        }


def tally_colorings(
    d: Diagram,
    h: HolonomyRep,
    depth: int,
    cap: int,
    w: QuandleElement | None = None,
    tol: float = CLASSIFICATION_TOL,
) -> KTally:
    """Classify the pool colorings at the given conjugation depth.

    The colorings counted are those of `iter_colorings`, in its order and
    up to `cap`: every arc coloring from the pool times every pool element
    as the base-region color. Phi is evaluated once per arc coloring, with
    base color `pool[0]`, and its k counts for all |pool| base colors
    (fewer when the cap cuts the block). `truncated`, the counts and the
    first witness of each k (the base-`pool[0]` coloring of the first arc
    coloring with that k) are what a Phi for every coloring would give.

    One Phi serves every base color because Phi is the volume of the
    representation, read off an ideal triangulation whose vertices are
    the fixed points of w and of the arc and region colors (Inoue-Kabaya,
    "Quandle homology and complex volume", Geom. Dedicata 171, 2014,
    with regions colored by points of CP^1 as in the shadow colorings of
    Carter-Jelsovsky-Kamada-Langford-Saito, Trans. AMS 355, 2003). The
    region rule moves every region's point by arc matrices, so the base
    color only places one class of vertices, and by the five-term
    relation of D the volume of the closed chain does not depend on where
    they sit; the same argument frees Phi of w. Every reported k and
    witness still rests on a lattice-checked Phi, and
    `TestBasePointIndependence` in the tests evaluates every base color
    at depth 1.
    """
    pool = enumerate_conjugates(h, depth)
    if w is None:
        w = h.element(((h.generators[0], 1),))
    volume = reference_volume(h, d, w)
    frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
    walks = d.region_steps_from(0)
    base = pool[0].vector
    counts: dict[int, int] = {}
    witness: dict[int, ShadowColoring] = {}
    max_residual = 0.0
    total = 0
    truncated = False
    for arc_colors in arc_colorings(frames, len(d.arcs), pool):
        if total >= cap:
            truncated = True
            break
        s = ShadowColoring(arc_colors, _extend_regions(walks, arc_colors, base))
        result = phi(d, s, w, volume, tol)
        counted = min(len(pool), cap - total)
        total += counted
        counts[result.k] = counts.get(result.k, 0) + counted
        witness.setdefault(result.k, s)
        max_residual = max(max_residual, result.residual)
        if counted < len(pool):
            truncated = True
            break
    return KTally(
        counts=counts,
        first_witness=witness,
        max_residual=max_residual,
        truncated=truncated,
        total=total,
    )


@dataclass
class SymmetryReport:
    """Bounded-search symmetry flags; False means 'not detected within bound'."""

    negatively_amphicheiral: bool
    invertible: bool | None
    positively_amphicheiral: bool | None
    standard: KTally
    reversed_: KTally | None

    @staticmethod
    def _flag(value) -> str:
        if value is None:
            return "not computed"
        return "detected" if value else "not detected within bound"

    def to_json_dict(self) -> dict:
        doc = {
            "negatively_amphicheiral": self._flag(self.negatively_amphicheiral),
            "invertible": self._flag(self.invertible),
            "positively_amphicheiral": self._flag(self.positively_amphicheiral),
            "standard": self.standard.to_json_dict(),
        }
        if self.reversed_ is not None:
            doc["reversed"] = self.reversed_.to_json_dict()
        return doc


def symmetry_report(
    d: Diagram,
    h_std: HolonomyRep,
    h_rev: HolonomyRep | None,
    depth: int,
    cap: int,
    tol: float = CLASSIFICATION_TOL,
) -> SymmetryReport:
    """Detect invertibility and amphicheirality from bounded enumerations.

    A coloring over the standard representation with k = -1 witnesses
    negative amphicheirality; over the reversed representation, k = +1
    witnesses invertibility and k = -1 positive amphicheirality.
    """
    std = tally_colorings(d, h_std, depth, cap, tol=tol)
    rev = None if h_rev is None else tally_colorings(d, h_rev, depth, cap, tol=tol)
    return SymmetryReport(
        negatively_amphicheiral=std.counts.get(-1, 0) > 0,
        invertible=None if rev is None else rev.counts.get(1, 0) > 0,
        positively_amphicheiral=None if rev is None else rev.counts.get(-1, 0) > 0,
        standard=std,
        reversed_=rev,
    )
