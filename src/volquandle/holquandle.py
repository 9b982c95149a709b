"""The knot quandle realized through a holonomy representation.

A representation is the vector v of each generator's parabolic map
+-(I + v v^T J), J = [[0, 1], [-1, 0]] and v unique up to sign; its
fixed point is [v]. This is the parabolic quandle of Inoue-Kabaya
("Quandle homology and complex volume", Geom. Dedicata 171, 2014). The
quandle operation is conjugation, a * b = b^-1 a b, and on vectors it is
a - [b, a] b with [b, a] = b0 a1 - b1 a0: three complex products, with
no matrix and no word. An element is a meridian conjugate g^-1 x g and
the vector that operation folds along g from x's. Identity is +-v
equality under a relative tolerance, found by the fixed point's cell on
the Riemann sphere, never by the words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadMatrix,
    NotParabolic,
    RelationViolated,
    UnknownGenerator,
)
from .hypgeom import MoebiusMap, Vector, is_parabolic, parabolic_vector

Letter = tuple[str, int]
GroupWord = tuple[Letter, ...]

# Relative tolerance of +-v equality: two vectors are one element when
# their difference, or their sum, is shorter than MATRIX_TOL times the
# longer vector (Euclidean norms). Over the fig8 pools at depths 3-5 and
# the arc searches at depths 3-4, both orientations, every match the pool
# accepted differed by at most 9.9e-14 relative, no candidate was
# rejected, and distinct elements differ by at least 4.1e-2.
MATRIX_TOL = 1e-9
# Side of the cells on the unit Riemann sphere that ElementPool keys
# fixed points by. Vectors equal within MATRIX_TOL have fixed points
# within 4 * MATRIX_TOL chordal (the chord of two unit vectors' Hopf
# images is at most twice their distance, and normalizing at most
# doubles a relative distance), and an element is filed under every
# cell within that slack of its fixed point, so `find` meets any equal
# element in the one cell its own fixed point falls in. On the same fig8
# runs equal elements' fixed points differ by at most 2.4e-14 and
# distinct ones by at least 2.5e-3, both chordal: a cell far wider than
# the slack files almost every element once and never holds two. Cells
# are centred on multiples of the side, so fixed points with short
# rational coordinates (common: the fig8 ones lie in Q(sqrt(-3))) sit at
# a cell's centre, not on its border.
FIXED_POINT_CELL = 1e-6
_CELL_SLACK = 4.0 * MATRIX_TOL


def reduce_word(letters) -> GroupWord:
    """Freely reduce: cancel adjacent g g^-1 pairs."""
    out: list[Letter] = []
    for name, exp in letters:
        if out and out[-1][0] == name and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((name, exp))
    return tuple(out)


def invert_word(word: GroupWord) -> GroupWord:
    return tuple((name, -exp) for name, exp in reversed(word))


def word_from_text(text: str, names=None) -> GroupWord:
    """Parse 'z^-1 y z' style words; names may themselves end in '^-1'."""
    letters = []
    for token in text.split():
        if names is not None and token in names:
            letters.append((token, 1))
        elif token.endswith("^-1"):
            letters.append((token[:-3], -1))
        else:
            letters.append((token, 1))
    return reduce_word(letters)


def word_to_text(word: GroupWord) -> str:
    return " ".join(name if exp == 1 else f"{name}^-1" for name, exp in word)


def vectors_equal(u: Vector, v: Vector) -> bool:
    """u = +-v: u - v or u + v is shorter than MATRIX_TOL times the longer."""
    (u0, u1), (v0, v1) = u, v
    plus = abs(u0 - v0) ** 2 + abs(u1 - v1) ** 2
    minus = abs(u0 + v0) ** 2 + abs(u1 + v1) ** 2
    longer = max(abs(u0) ** 2 + abs(u1) ** 2, abs(v0) ** 2 + abs(v1) ** 2)
    return min(plus, minus) < MATRIX_TOL * MATRIX_TOL * longer


@dataclass(frozen=True)
class QuandleElement:
    """A meridian word and the vector v of its parabolic map +-(I + v v^T J)."""

    word: GroupWord
    vector: Vector

    def __repr__(self):
        return f"QuandleElement({word_to_text(self.word)!r})"


class HolonomyRep(NamedTuple):
    """Parabolic generator vectors, validated against a companion diagram."""

    generators: tuple[str, ...]
    vectors: dict[str, Vector]
    orientation: str = "standard"
    volume: float | None = None  # declared, checked by reference_volume
    arc_generators: tuple[str, ...] | None = None  # oriented arc id -> name

    def vector(self, name: str) -> Vector:
        try:
            return self.vectors[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def element(self, word) -> QuandleElement:
        """Build a QuandleElement from a word or word text."""
        if isinstance(word, str):
            word = word_from_text(word, names=self.generators)
        word = reduce_word(word)
        return QuandleElement(word, evaluate(self, word))

    def generator_elements(self) -> list[QuandleElement]:
        return [self.element(((name, 1),)) for name in self.generators]


def evaluate(h: HolonomyRep, word: GroupWord) -> Vector:
    """The vector of a reduced word g^-1 x g, x a generator.

    v_x folded through `crossing_image(v, v_l, e)` for each letter (l, e)
    of g, as `enumerate_conjugates` chains it, so a pool word gives its
    element's vector bit for bit. Any other word raises NotParabolic.
    """
    half = len(word) // 2
    x, g = word[half:half + 1], word[half + 1:]
    if not (x and x[0][1] == 1 and word == invert_word(g) + x + g
            and {exp for _, exp in g} <= {1, -1}):
        raise NotParabolic(f"word {word_to_text(word)!r} is not g^-1 x g")
    v = h.vector(x[0][0])
    for name, exp in g:
        v = crossing_image(v, h.vector(name), exp)
    return v


def crossing_image(under: Vector, over: Vector, sign: int) -> Vector:
    """The crossing rule on vectors: under - sign [over, under] over.

    The outgoing under-arc is `under * over` at a positive crossing and
    `under *^-1 over` at a negative one. With `-sign` the rule runs
    backwards, from the outgoing under-arc to the incoming one; the region
    walk uses the same rule with the step direction as the sign. `sign`
    +1 is b^-1 a b, whose vector is P_b^-1 v_a = a - [b, a] b, and -1 is
    b a b^-1, with vector P_b v_a = a + [b, a] b.
    """
    a0, a1 = under
    b0, b1 = over
    k = sign * (b0 * a1 - b1 * a0)
    return (a0 - k * b0, a1 - k * b1)


def quandle_op(a: QuandleElement, b: QuandleElement) -> QuandleElement:
    """a * b = b^-1 a b: `crossing_image` with sign +1, and its word."""
    word = reduce_word(invert_word(b.word) + a.word + b.word)
    return QuandleElement(word, crossing_image(a.vector, b.vector, +1))


def quandle_op_inv(a: QuandleElement, b: QuandleElement) -> QuandleElement:
    """The unique c with quandle_op(c, b) = a; c = b a b^-1, sign -1."""
    word = reduce_word(b.word + a.word + invert_word(b.word))
    return QuandleElement(word, crossing_image(a.vector, b.vector, -1))


def _sphere_point(v: Vector) -> tuple[float, float, float]:
    """Hopf image of [v] on the unit sphere; infinity (1, 0) is the pole (0, 0, 1)."""
    a, b = v
    aa = a.real * a.real + a.imag * a.imag
    bb = b.real * b.real + b.imag * b.imag
    n = aa + bb
    w = 2.0 * a * b.conjugate()
    return (w.real / n, w.imag / n, (aa - bb) / n)


def _fixed_point_cell(v: Vector) -> tuple[int, int, int]:
    x, y, z = _sphere_point(v)
    return (round(x / FIXED_POINT_CELL), round(y / FIXED_POINT_CELL),
            round(z / FIXED_POINT_CELL))


def _fixed_point_cells(v: Vector) -> set[tuple[int, int, int]]:
    """Every cell that the fixed point of a vector equal to v can fall in."""
    spans = [
        {round((c - _CELL_SLACK) / FIXED_POINT_CELL),
         round((c + _CELL_SLACK) / FIXED_POINT_CELL)}
        for c in _sphere_point(v)
    ]
    return set(itertools.product(*spans))


class ElementPool:
    """Deduplicated, deterministically ordered set of quandle elements."""

    def __init__(self, elements=()):
        self._cells: dict[tuple[int, int, int], list[int]] = {}
        self.elements: list[QuandleElement] = []
        for e in elements:
            self.add(e)

    def add(self, e: QuandleElement) -> bool:
        if self.find(e.vector) is not None:
            return False
        for cell in _fixed_point_cells(e.vector):
            self._cells.setdefault(cell, []).append(len(self.elements))
        self.elements.append(e)
        return True

    def find(self, v: Vector) -> int | None:
        """Index of the element whose vector is +-v, or None.

        Cell lookup, then +-v confirmation.
        """
        for idx in self._cells.get(_fixed_point_cell(v), ()):
            if vectors_equal(self.elements[idx].vector, v):
                return idx
        return None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def enumerate_conjugates(h: HolonomyRep, depth: int) -> list[QuandleElement]:
    """All g^-1 x g with x a generator, |g| <= depth; deduplicated, ordered.

    Each element is listed once, under its first word: words g shortest
    first and, within a length, in lexicographic order of the letters x,
    x^-1, y, y^-1, ... (generator order), the generators in order for
    every g. An element new at length L is the conjugate by a letter l of
    one new at L - 1 (had that one appeared sooner, so would its
    conjugate), and its first word is that one's first g followed by l.
    So each length extends only the elements new at the one before, by g,
    then l, then x: the order of their first words. Vectors are chained as
    `evaluate` folds them: that of (g l)^-1 x (g l), l = (name, e), is
    `crossing_image(v, v_name, e)` of that of g^-1 x g. A candidate's word
    is built only when its vector is new to the pool.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    letters = [(name, e, h.vector(name)) for name in h.generators for e in (1, -1)]

    def extend(fresh):
        """The candidates one letter longer than `fresh`, in word order."""
        for g, group in itertools.groupby(fresh, key=lambda e: e[0]):
            group = list(group)
            for name, e, over in letters:
                if not g or g[-1] != (name, -e):
                    gl = g + ((name, e),)
                    for _, x, v in group:
                        yield gl, x, crossing_image(v, over, e)

    pool = ElementPool()
    candidates = [((), x.word, x.vector) for x in h.generator_elements()]
    for length in range(depth + 1):
        fresh = []  # (g, x, v) of the elements new at this length, in pool order
        for g, x, v in candidates:
            if pool.find(v) is None:
                pool.add(QuandleElement(reduce_word(invert_word(g) + x + g), v))
                if length < depth:
                    fresh.append((g, x, v))
        candidates = extend(fresh)
    return pool.elements


def forcing_schedule(frames, n_arcs: int):
    """Seed arcs for the arc search, and the steps each seed's color forces.

    Returns one `(seed, steps)` pair per branching level. The seed is the
    uncolored arc whose color forces the most other arcs, lowest id on
    ties. A step `(source, over, target, sign, check)` applies
    `crossing_image(source, over, sign)`: it colors `target` or, when
    `check` is set, must give the color `target` already has. Every
    crossing is exactly one step, taken as soon as its over-arc and one
    under-arc are known, lowest crossing first: forward from the incoming
    under-arc if that is known (a check if the outgoing one is too),
    otherwise backwards, with the sign negated.
    """

    def force(known: set, stated: set) -> list:
        steps = []
        while True:
            ready = (
                i for i, f in enumerate(frames)
                if i not in stated and f.over_arc in known
                and (f.under_in_arc in known or f.under_out_arc in known)
            )
            i = next(ready, None)
            if i is None:
                return steps
            f = frames[i]
            stated.add(i)
            if f.under_in_arc in known:
                source, target, sign = f.under_in_arc, f.under_out_arc, f.sign
            else:
                source, target, sign = f.under_out_arc, f.under_in_arc, -f.sign
            steps.append((source, f.over_arc, target, sign, target in known))
            known.add(target)

    known: set[int] = set()
    stated: set[int] = set()

    def reach(arc) -> int:
        trial = known | {arc}
        force(trial, set(stated))
        return len(trial)

    levels = []
    while len(known) < n_arcs:
        seed = max((a for a in range(n_arcs) if a not in known), key=reach)
        known.add(seed)
        levels.append((seed, force(known, stated)))
    return levels


def _seed_colors(vectors, latitudes, color, seed, steps):
    """The pool indices of the seed's colors that can pass `replay`.

    The level's first step reads the seed (a step reading only arcs
    colored before would belong to an earlier level), and
    `ElementPool.find` matches an image only in the cell its fixed point
    falls in. So a color passes when its first image's latitude cell,
    the z component of `_fixed_point_cell`, is in `latitudes`, the set
    some pool element is filed under. The images are computed bit for
    bit as `crossing_image` computes them (folding the sign, +-1, into
    the fixed operand is exact) and their cells by `_sphere_point`'s z
    expression, so every color `find` would accept passes. `color`
    holds the pool index of every arc colored before the seed.
    """
    if not steps or steps[0][0] == steps[0][1]:
        return range(len(vectors))  # a kink's image is the seed's own color
    source, over, _, sign, _ = steps[0]
    if source == seed:  # k = [sign b, a]
        b0, b1 = vectors[color[over]]
        s0, s1 = (b0, b1) if sign > 0 else (-b0, -b1)
        images = [(a0 - k * b0, a1 - k * b1)
                  for a0, a1 in vectors for k in [s0 * a1 - s1 * a0]]
    else:  # k = [b, sign a]
        a0, a1 = vectors[color[source]]
        s0, s1 = (a0, a1) if sign > 0 else (-a0, -a1)
        images = [(a0 - k * b0, a1 - k * b1)
                  for b0, b1 in vectors for k in [b0 * s1 - b1 * s0]]
    cells = [
        round(((aa := c0.real * c0.real + c0.imag * c0.imag)
               - (bb := c1.real * c1.real + c1.imag * c1.imag))
              / (aa + bb) / FIXED_POINT_CELL)
        for c0, c1 in images
    ]
    return [at for at, z in enumerate(cells) if z in latitudes]


def arc_colorings(frames, n_arcs: int, pool):
    """All arc colorings from `pool` satisfying `crossing_image` at every frame.

    Colors are drawn from `ElementPool(pool).elements`, so a duplicate in
    `pool` is one color. The search branches only on the seed arcs of
    `forcing_schedule`, in schedule order and over colors in pool order,
    and replays each level's steps on the pool's vectors and indices,
    building no element and no word; colorings come out in lexicographic
    pool order of their seed colors. Yields dicts arc id -> pool element,
    keyed in schedule order. Each level replays only the seed colors
    that `_seed_colors` lets through.
    """
    index = ElementPool(pool)
    elements = index.elements
    vectors = [e.vector for e in elements]
    latitudes = {cell[2] for cell in index._cells}
    levels = forcing_schedule(frames, n_arcs)
    order = [  # seeds and forced arcs, in the order the search colors them
        a for seed, steps in levels for a in (seed, *(s[2] for s in steps if not s[4]))
    ]
    color = [0] * n_arcs  # pool index of every known arc

    def replay(steps) -> bool:
        for source, over, target, sign, check in steps:
            at = index.find(
                crossing_image(vectors[color[source]], vectors[color[over]], sign)
            )
            if at is None or (check and at != color[target]):
                return False
            color[target] = at
        return True

    def backtrack(level):
        if level == len(levels):
            yield {arc: elements[color[arc]] for arc in order}
            return
        seed, steps = levels[level]
        for at in _seed_colors(vectors, latitudes, color, seed, steps):
            color[seed] = at
            if replay(steps):
                yield from backtrack(level + 1)

    yield from backtrack(0)


def find_arc_assignment(d, h: HolonomyRep) -> tuple[str, ...] | None:
    """Arc coloring words realizing the diagram's Wirtinger generators.

    The first coloring from `arc_colorings` (relation: `crossing_image`)
    whose colors include every generator's vector, so the declared
    matrices really are Wirtinger images. With as many arcs as generators
    the pool is the generators alone; otherwise it is the depth-1
    conjugate pool. Generators with equal vectors are one pool element,
    under the first one's word. `d` is the diagram in the representation's
    own orientation, `oriented_diagram`.
    """
    frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
    n_arcs = len(d.arcs)
    pool = enumerate_conjugates(h, 0 if len(h.generators) == n_arcs else 1)
    generators = [g.vector for g in h.generator_elements()]
    for coloring in arc_colorings(frames, n_arcs, pool):
        colors = [e.vector for e in coloring.values()]
        if all(any(vectors_equal(g, c) for c in colors) for g in generators):
            return tuple(word_to_text(coloring[a].word) for a in range(n_arcs))
    return None


def oriented_diagram(d, h: HolonomyRep):
    """The diagram that `h` is a standard document of: `d`, or `d.reversed()`."""
    return d.reversed() if h.orientation == "reversed" else d


def load_holonomy(doc: dict, d) -> HolonomyRep:
    """Validate a holonomy document against a diagram.

    doc: {"generators": [names], "matrices": {name: 2x2 of [re, im]},
          "orientation": "standard"|"reversed", "volume": optional}
    """
    try:
        names = doc["generators"]
        raw = doc["matrices"]
    except (KeyError, TypeError) as exc:
        raise BadMatrix(f"malformed holonomy document: {exc}") from exc
    if not isinstance(raw, dict):
        raise BadMatrix(f"matrices must be an object, not {raw!r}")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise BadMatrix(f"generators must be a list of distinct names, not {names!r}")
    names = tuple(names)
    orientation = doc.get("orientation", "standard")
    if orientation not in ("standard", "reversed"):
        raise BadMatrix(f"unknown orientation tag {orientation!r}")
    vectors = {}
    for name in names:
        if name not in raw:
            raise BadMatrix(f"no matrix for generator {name!r}")
        m = MoebiusMap.from_json(raw[name])
        if not is_parabolic(m):
            raise NotParabolic(f"generator {name!r} is not parabolic")
        vectors[name] = parabolic_vector(m)
    volume = doc.get("volume")
    finite = type(volume) in (int, float) and 0 < volume < math.inf
    if volume is not None and not finite:
        raise BadMatrix(f"declared volume {volume!r} is not a finite positive number")
    volume = None if volume is None else float(volume)
    rep = HolonomyRep(names, vectors, orientation, volume)
    assignment = find_arc_assignment(oriented_diagram(d, rep), rep)
    if assignment is None:
        raise RelationViolated(
            "no assignment of generators to arcs satisfies the "
            "crossing relations (up to sign, tolerance 1e-9)"
        )
    return rep._replace(arc_generators=assignment)
