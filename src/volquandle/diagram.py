"""Oriented knot diagrams from PD codes.

Conventions, fixed once for the whole package:

* A term X(a, b, c, d) lists edge labels counterclockwise, starting at the
  incoming under-edge a; the outgoing under-edge is c. The over-strand
  enters at whichever of b, d is followed (mod 2n) by the other.
* With the under-strand drawn upward, the slots sit at a=bottom, b=right,
  c=top, d=left. A crossing is positive when the over-strand runs d -> b
  (left to right), negative when it runs b -> d.
* Arc normals point to the LEFT of the arc's orientation. Crossing an arc
  along its normal (right side to left side) multiplies a region color by
  the arc color on the right of the quandle operation.
* Corner k of a crossing is the region wedged between slots k and k+1.
"""

from __future__ import annotations

import re
from collections import deque
from typing import NamedTuple

from .errors import Disconnected, EdgeCountMismatch, MalformedTerm

_TERM_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


class Crossing(NamedTuple):
    index: int
    edges: tuple[int, int, int, int]  # (a, b, c, d) counterclockwise
    over_in: int
    over_out: int
    sign: int

    @property
    def under_in(self) -> int:
        return self.edges[0]

    @property
    def under_out(self) -> int:
        return self.edges[2]


class CrossingFrame(NamedTuple):
    """Arc and region data feeding the Boltzmann weight of one crossing."""

    under_in_arc: int
    under_out_arc: int
    over_arc: int
    source_region: int
    sign: int


class Diagram:
    """Immutable connected diagram of one oriented knot component."""

    def __init__(self, crossings: list[Crossing]):
        self.crossings = tuple(crossings)
        self.n_crossings = len(crossings)
        if self.n_crossings == 0:
            # Crossingless unknot: one closed arc, two regions.
            self.edges = (1,)
            self.succ = {1: 1}
            self.arcs = ((1,),)
            self._arc_of_edge = {1: 0}
            self.n_regions = 2
            self._region_left = {1: 0}
            self._region_right = {1: 1}
            self._corner_region = ()
            self._region_boundaries = (((0, +1),), ((0, -1),))
            return
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        n = self.n_crossings
        # in/out occurrence of every edge: (crossing index, slot)
        in_occ: dict[int, tuple[int, int]] = {}
        out_occ: dict[int, tuple[int, int]] = {}
        for ci, cr in enumerate(self.crossings):
            a, b, c, d = cr.edges
            roles = [(a, "in"), (c, "out")]
            roles.append((cr.over_in, "in"))
            roles.append((cr.over_out, "out"))
            for edge, role in roles:
                occ = (ci, cr.edges.index(edge))
                # index() is safe: an edge repeated inside one quadruple
                # only happens in 1-crossing codes, rejected below.
                table = in_occ if role == "in" else out_occ
                if edge in table:
                    raise EdgeCountMismatch(
                        f"edge {edge} is {role}-incident to two crossings"
                    )
                table[edge] = occ
        labels = set(range(1, 2 * n + 1))
        if set(in_occ) != labels or set(out_occ) != labels:
            raise EdgeCountMismatch(
                f"edge labels do not cover 1..{2 * n} once incoming and once outgoing"
            )
        self.edges = tuple(range(1, 2 * n + 1))

        # Successor along the knot orientation, and connectivity.
        succ: dict[int, int] = {}
        for cr in self.crossings:
            succ[cr.under_in] = cr.under_out
            succ[cr.over_in] = cr.over_out
        seen = {1}
        e = 1
        for _ in range(2 * n):
            e = succ[e]
            seen.add(e)
        if e != 1 or len(seen) != 2 * n:
            raise Disconnected("edge successor map is not a single cycle")
        self.succ = succ

        # Arcs: maximal runs of edges between under-passages.
        under_in_edges = {cr.under_in for cr in self.crossings}
        under_out_edges = sorted(cr.under_out for cr in self.crossings)
        arcs = []
        arc_of_edge: dict[int, int] = {}
        for start in under_out_edges:
            run = [start]
            e = start
            while e not in under_in_edges:
                e = succ[e]
                run.append(e)
            arcs.append(tuple(run))
            for edge in run:
                arc_of_edge[edge] = len(arcs) - 1
        if len(arc_of_edge) != 2 * n:
            raise Disconnected("arc decomposition did not cover every edge")
        self.arcs = tuple(arcs)
        self._arc_of_edge = arc_of_edge

        # Regions, by tracing faces of the 4-valent plane graph. A "dart"
        # is an arrival (crossing, slot); the next boundary edge of the
        # same face departs from the counterclockwise-previous slot, so
        # every face lies on the left of each dart traversing it.
        occ_pairs: dict[int, list[tuple[int, int]]] = {}
        for table in (in_occ, out_occ):
            for edge, occ in table.items():
                occ_pairs.setdefault(edge, []).append(occ)
        face_of_arrival: dict[tuple[int, int], int] = {}
        region_boundaries = []
        for ci in range(n):
            for slot in range(4):
                if (ci, slot) in face_of_arrival:
                    continue
                face = len(region_boundaries)
                boundary = []
                cur = (ci, slot)
                while cur not in face_of_arrival:
                    face_of_arrival[cur] = face
                    cci, cslot = cur
                    depart_slot = (cslot - 1) % 4
                    edge = self.crossings[cci].edges[depart_slot]
                    forward = out_occ[edge] == (cci, depart_slot)
                    arc = arc_of_edge[edge]
                    boundary.append((arc, +1 if forward else -1))
                    p, q = occ_pairs[edge]
                    cur = q if p == (cci, depart_slot) else p
                region_boundaries.append(tuple(boundary))
        self.n_regions = len(region_boundaries)
        self._region_boundaries = tuple(region_boundaries)

        # Left/right region of every edge, relative to knot orientation.
        self._region_left = {
            e: face_of_arrival[in_occ[e]] for e in self.edges
        }
        self._region_right = {
            e: face_of_arrival[out_occ[e]] for e in self.edges
        }
        # Corner k (between slots k and k+1) belongs to the face of the
        # dart arriving at slot k+1.
        self._corner_region = tuple(
            tuple(face_of_arrival[(ci, (k + 1) % 4)] for k in range(4))
            for ci in range(n)
        )

    # -- queries -----------------------------------------------------------

    def arc_of_edge(self, edge: int) -> int:
        return self._arc_of_edge[edge]

    def region_left(self, edge: int) -> int:
        """Region on the left of the (knot-oriented) edge; its normal side."""
        return self._region_left[edge]

    def region_right(self, edge: int) -> int:
        return self._region_right[edge]

    def signs(self) -> tuple[int, ...]:
        return tuple(cr.sign for cr in self.crossings)

    def crossing_frame(self, crossing: int) -> CrossingFrame:
        """Arcs and source region of one crossing.

        The source region is the corner away from which both the under and
        over normals point: corner 0 (between the incoming under- and the
        outgoing over-edge) at a positive crossing, corner 1 at a negative
        one.
        """
        cr = self.crossings[crossing]
        corner = 0 if cr.sign > 0 else 1
        return CrossingFrame(
            under_in_arc=self._arc_of_edge[cr.under_in],
            under_out_arc=self._arc_of_edge[cr.under_out],
            over_arc=self._arc_of_edge[cr.over_in],
            source_region=self._corner_region[crossing][corner],
            sign=cr.sign,
        )

    def region_steps_from(self, base_region: int):
        """(region, steps) for every region in id order.

        `steps` is a shortest dual-graph path from `base_region` as (arc,
        direction) pairs: direction +1 crosses the arc along its normal
        (right side to left), -1 against it. One BFS from the base region,
        visiting neighbours in sorted order, so the paths are deterministic.
        """
        if not 0 <= base_region < self.n_regions:
            raise ValueError(f"no such region: {base_region}")
        # adjacency: edge e steps right->left with direction +1
        neighbors: dict[int, list[tuple[int, int, int]]] = {
            r: [] for r in range(self.n_regions)
        }
        for e in self.edges:
            arc = self._arc_of_edge[e]
            left, right = self._region_left[e], self._region_right[e]
            neighbors[right].append((left, arc, +1))
            neighbors[left].append((right, arc, -1))
        walks = {base_region: []}
        queue = deque([base_region])
        while queue:
            r = queue.popleft()
            for nxt, arc, direction in sorted(neighbors[r]):
                if nxt not in walks:
                    walks[nxt] = walks[r] + [(arc, direction)]
                    queue.append(nxt)
        return [(r, walks[r]) for r in range(self.n_regions)]

    # -- serialization -----------------------------------------------------

    def to_pd_text(self) -> str:
        return " ".join(
            "X({},{},{},{})".format(*cr.edges) for cr in self.crossings
        )

    def to_json_dict(self) -> dict:
        return {
            "n_crossings": self.n_crossings,
            "crossings": [
                {
                    "id": cr.index,
                    "edges": list(cr.edges),
                    "sign": cr.sign,
                    "over_in": cr.over_in,
                    "over_out": cr.over_out,
                }
                for cr in self.crossings
            ],
            "arcs": {str(i): list(arc) for i, arc in enumerate(self.arcs)},
            "regions": {
                str(i): [[arc, direction] for arc, direction in boundary]
                for i, boundary in enumerate(self._region_boundaries)
            },
        }


def _follows(first: int, second: int, n_edges: int) -> bool:
    return second == first % n_edges + 1


def parse_pd(text: str) -> Diagram:
    """Parse whitespace-separated X(a,b,c,d) terms into a Diagram."""
    stripped = text.strip()
    if not stripped:
        return Diagram([])
    terms = []
    pos = 0
    for m in _TERM_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise MalformedTerm(
                f"cannot parse PD term {stripped[pos:m.start()].strip()!r}"
            )
        terms.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if stripped[pos:].strip() or not terms:
        raise MalformedTerm(f"cannot parse PD term {stripped[pos:].strip()!r}")
    n = len(terms)
    n_edges = 2 * n
    counts: dict[int, int] = {}
    for quad in terms:
        for e in quad:
            counts[e] = counts.get(e, 0) + 1
    if set(counts) != set(range(1, n_edges + 1)) or set(counts.values()) != {2}:
        raise EdgeCountMismatch(
            f"edge labels must cover 1..{n_edges} exactly twice each"
        )
    crossings = []
    for ci, (a, b, c, d) in enumerate(terms):
        if len({a, b, c, d}) != 4:
            raise MalformedTerm(
                f"crossing X({a},{b},{c},{d}) repeats an edge label"
            )
        if _follows(d, b, n_edges):
            over_in, over_out = d, b
        elif _follows(b, d, n_edges):
            over_in, over_out = b, d
        else:
            raise MalformedTerm(
                f"crossing X({a},{b},{c},{d}): neither of {b}, {d} "
                "follows the other along the knot"
            )
        sign = +1 if over_in == d else -1
        crossings.append(
            Crossing(index=ci, edges=(a, b, c, d), over_in=over_in,
                     over_out=over_out, sign=sign)
        )
    return Diagram(crossings)

