import copy
import functools
import hashlib
import itertools
import math
import random
import re
from types import SimpleNamespace

import pytest

from volquandle.diagram import parse_pd
from volquandle.errors import (
    BadMatrix,
    NotParabolic,
    RelationViolated,
    UnknownGenerator,
)
from volquandle.fixtures import FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED
from volquandle.hypgeom import (
    MoebiusMap,
    is_parabolic,
    parabolic_map,
    parabolic_vector,
    unit,
)
from volquandle.holquandle import (
    FIXED_POINT_CELL,
    MATRIX_TOL,
    ElementPool,
    HolonomyRep,
    QuandleElement,
    _fixed_point_cell,
    _seed_colors,
    _sphere_point,
    arc_colorings,
    crossing_image,
    enumerate_conjugates,
    forcing_schedule,
    invert_word,
    load_holonomy,
    quandle_op,
    quandle_op_inv,
    reduce_word,
    vectors_equal,
    word_from_text,
    word_to_text,
)

from points import act, bracket

DOCS = {"rep": FIG8_HOLONOMY, "rep_reversed": FIG8_HOLONOMY_REVERSED}


def word_matrix(doc, word) -> MoebiusMap:
    """The document's generator matrices multiplied along a word.

    The oracle for element vectors: `parabolic_vector` of it is the
    word's vector up to rounding.
    """
    m = MoebiusMap.identity()
    for name, exp in word:
        g = MoebiusMap.from_json(doc["matrices"][name])
        m = m.compose(g if exp == 1 else g.inverse())
    return m


class TestWords:
    def test_reduce_cancels_adjacent_inverses(self):
        w = (("x", 1), ("y", 1), ("y", -1), ("x", 1))
        assert reduce_word(w) == (("x", 1), ("x", 1))

    def test_reduce_cascades(self):
        w = (("x", 1), ("y", 1), ("y", -1), ("x", -1))
        assert reduce_word(w) == ()

    def test_invert(self):
        w = (("x", 1), ("y", -1))
        assert invert_word(w) == (("y", 1), ("x", -1))
        assert reduce_word(w + invert_word(w)) == ()

    def test_text_round_trip(self):
        w = word_from_text("z^-1 y z")
        assert w == (("z", -1), ("y", 1), ("z", 1))
        assert word_to_text(w) == "z^-1 y z"

    def test_text_with_inverse_named_generators(self):
        names = ("x^-1", "y^-1")
        w = word_from_text("x^-1 y^-1", names=names)
        assert w == (("x^-1", 1), ("y^-1", 1))


class TestRepresentation:
    def test_generator_elements_parabolic(self, rep):
        for e in rep.generator_elements():
            assert abs(parabolic_map(e.vector).trace() ** 2 - 4.0) < 1e-9

    def test_unknown_generator(self, rep):
        with pytest.raises(UnknownGenerator):
            rep.vector("q")

    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_pool_vectors_are_the_matrix_products(self, request, which):
        pool = enumerate_conjugates(request.getfixturevalue(which), 3)
        assert len(pool) == 292
        for e in pool:
            oracle = parabolic_vector(word_matrix(DOCS[which], e.word))
            assert vectors_equal(e.vector, oracle), word_to_text(e.word)

    def test_non_parabolic_word_rejected(self, rep):
        # x y is loxodromic in the figure-eight group
        with pytest.raises(NotParabolic):
            rep.element("x y")

    # parabolic matrices, but no conjugate g^-1 x g of a generator x:
    # P_x^2 = P_(sqrt(2) v_x), and x^-1 is P_(i v_x)
    @pytest.mark.parametrize("text", ["x x", "x^-1", "y^-1 x^-1 y"])
    def test_word_that_is_no_conjugate_rejected(self, rep, text):
        assert is_parabolic(word_matrix(FIG8_HOLONOMY, word_from_text(text)))
        with pytest.raises(NotParabolic, match=re.escape(f"word '{text}' is not")):
            rep.element(text)


class TestQuandleAxioms:
    def test_idempotence(self, rep):
        for a in rep.generator_elements():
            assert vectors_equal(quandle_op(a, a).vector, a.vector)

    def test_right_invertibility(self, rep):
        pool = enumerate_conjugates(rep, 1)
        for a in pool[:8]:
            for b in pool[:8]:
                there = quandle_op(a, b)
                assert vectors_equal(quandle_op_inv(there, b).vector, a.vector)
                back = quandle_op_inv(a, b)
                assert vectors_equal(quandle_op(back, b).vector, a.vector)

    def test_self_distributivity(self, rep):
        pool = enumerate_conjugates(rep, 2)
        sample = pool[::9]
        for a in sample:
            for b in sample:
                for c in sample:
                    lhs = quandle_op(quandle_op(a, b), c)
                    rhs = quandle_op(quandle_op(a, c), quandle_op(b, c))
                    assert vectors_equal(lhs.vector, rhs.vector)

    def test_fixed_point_equivariance(self, rep):
        pool = enumerate_conjugates(rep, 2)
        for a in pool[::7]:
            for b in pool[::7]:
                expected = act(parabolic_map(b.vector).inverse(), unit(a.vector))
                assert bracket(unit(quandle_op(a, b).vector), expected) < 1e-8


def coloring_digest(d, pool):
    """Count and sha256 of a diagram's arc colorings as "arc:word" lines."""
    frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
    lines = [
        " ".join(f"{arc}:{word_to_text(e.word)}" for arc, e in c.items())
        for c in arc_colorings(frames, len(d.arcs), pool)
    ]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the fig8_r2 depth-3 arc colorings as "arc:word" lines, in
# search order, taken from the word-based search the vector one replaced
R2_DEPTH_THREE_DIGESTS = {
    "rep": "86814d9b9c8f9409cc4ac21a4b0f3f4c622ebf792e0d61a790066cc2aa687f32",
    "rep_reversed": "9cb48a9d66c623e5b3bbd89433b40e6586d3ddb507522f1d385840006466c1b3",
}
# the same for fig8 at depth 4, taken from the search before it screened
# seed colors by latitude cell
FIG8_DEPTH_FOUR_DIGEST = (
    "afbce2b519635088544f465abe03b8137964bfebecf23a7d5cf0437562ba53b9"
)


class TestVectorOperation:
    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_matrix_of_op_is_the_evaluated_conjugate(self, request, which):
        """P_v of a * b is the matrix of b^-1 a b, and of a *^-1 b, b a b^-1."""
        pool = enumerate_conjugates(request.getfixturevalue(which), 1)
        for a, b in itertools.product(pool, repeat=2):
            conj = invert_word(b.word) + a.word + b.word
            op = parabolic_map(quandle_op(a, b).vector)
            assert op.eq_up_to_sign(word_matrix(DOCS[which], conj))
            conj_inv = b.word + a.word + invert_word(b.word)
            op_inv = parabolic_map(quandle_op_inv(a, b).vector)
            assert op_inv.eq_up_to_sign(word_matrix(DOCS[which], conj_inv))

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_minus_sign_undoes_crossing_image(self, request, which, sign):
        pool = enumerate_conjugates(request.getfixturevalue(which), 1)
        for a, b in itertools.product(pool, repeat=2):
            there = crossing_image(a.vector, b.vector, sign)
            assert vectors_equal(crossing_image(there, b.vector, -sign), a.vector)

    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_r2_depth_three_colorings_are_pinned(self, request, fig8_r2, which):
        pool = enumerate_conjugates(request.getfixturevalue(which), 3)
        assert coloring_digest(fig8_r2, pool) == (1110, R2_DEPTH_THREE_DIGESTS[which])

    def test_fig8_depth_four_colorings_are_pinned(self, fig8, rep):
        pool = enumerate_conjugates(rep, 4)
        assert coloring_digest(fig8, pool) == (4870, FIG8_DEPTH_FOUR_DIGEST)


class TestPools:
    def test_dedup(self, rep):
        gens = rep.generator_elements()
        pool = ElementPool(gens + gens)
        assert len(pool) == 4

    def test_find_matches_up_to_sign(self, rep):
        gens = rep.generator_elements()
        pool = ElementPool(gens)
        again = rep.element("x")
        assert pool.find(again.vector) == 0
        assert pool.find(tuple(-c for c in again.vector)) == 0

    def test_enumerate_sizes_grow(self, rep):
        sizes = [len(enumerate_conjugates(rep, d)) for d in (0, 1, 2)]
        assert sizes[0] == 4
        assert sizes[0] < sizes[1] < sizes[2]

    def test_enumerate_deterministic(self, rep):
        a = [word_to_text(e.word) for e in enumerate_conjugates(rep, 2)]
        b = [word_to_text(e.word) for e in enumerate_conjugates(rep, 2)]
        assert a == b

    def test_enumerate_negative_depth(self, rep):
        with pytest.raises(ValueError):
            enumerate_conjugates(rep, -1)


def word_walk_pool(h, depth):
    """The conjugate pool from every reduced word g, depth first.

    Words g of each length in lexicographic letter order x, x^-1, y, ...,
    the generators in order for each g, vectors chained letter by letter
    with `crossing_image`; a candidate is kept when its vector is new. It
    walks every word, so it does not rest on which elements are new at a
    length.
    """
    base = h.generator_elements()
    letters = [(name, e) for name in h.generators for e in (1, -1)]

    def extend(g, vectors, length):
        if length == 0:
            yield g, vectors
            return
        for name, e in letters:
            if not g or g[-1] != (name, -e):
                moved = [crossing_image(v, h.vector(name), e) for v in vectors]
                yield from extend(g + ((name, e),), moved, length - 1)

    pool = ElementPool()
    for length in range(depth + 1):
        for g, vectors in extend((), [x.vector for x in base], length):
            for x, v in zip(base, vectors):
                if pool.find(v) is None:
                    word = reduce_word(invert_word(g) + x.word + g)
                    pool.add(QuandleElement(word, v))
    return pool.elements


class TestReplay:
    """A pool word names its element's vector, bit for bit."""

    @pytest.mark.parametrize(
        "holonomy", [FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED], ids=["std", "rev"]
    )
    @pytest.mark.parametrize("diagram", ["fig8", "fig8_r2"])
    def test_depth_four_pool_words_replay(self, request, diagram, holonomy):
        h = load_holonomy(holonomy, request.getfixturevalue(diagram))
        pool = enumerate_conjugates(h, 4)
        assert len(pool) == 1256
        # through the word text, as a coloring document reads a witness
        replayed = [h.element(word_to_text(e.word)).vector for e in pool]
        assert replayed == [e.vector for e in pool]


class TestConjugateBuild:
    """`enumerate_conjugates` extends only the elements new at a length."""

    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    @pytest.mark.parametrize("depth", range(5))
    def test_equals_the_word_walk(self, request, which, depth):
        h = request.getfixturevalue(which)
        # the same words and bit-identical vectors, in the same order
        assert [(e.word, e.vector) for e in enumerate_conjugates(h, depth)] == [
            (e.word, e.vector) for e in word_walk_pool(h, depth)
        ]

    @pytest.mark.parametrize("depth", [3, 4, 5])
    def test_lookups_stay_linear_in_the_pool(self, rep, monkeypatch, depth):
        calls = 0
        find = ElementPool.find

        def counted_find(self, v):
            nonlocal calls
            calls += 1
            return find(self, v)

        monkeypatch.setattr(ElementPool, "find", counted_find)
        pool = enumerate_conjugates(rep, depth)
        # a walk over every word makes 7.3x to 17.6x |pool| lookups here
        assert calls < 3 * len(pool)

    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_depth_six_pool(self, request, which):
        # depth 6 is the CLI's --depth maximum
        assert len(enumerate_conjugates(request.getfixturevalue(which), 6)) == 23252


def equal_pairs(elements):
    """Pairs (i, j), i < j, that `vectors_equal` reports equal.

    `vectors_equal` needs u - v or u + v shorter than tol * max(|u|, |v|),
    so the lengths |u| and |v| then differ by less than that; only
    neighbours in order of length are compared in full.
    """
    size = [math.hypot(*map(abs, e.vector)) for e in elements]
    order = sorted(range(len(elements)), key=size.__getitem__)
    pairs = []
    for at, i in enumerate(order):
        for j in order[at + 1:]:
            if size[j] - size[i] > MATRIX_TOL * size[j]:
                break
            if vectors_equal(elements[i].vector, elements[j].vector):
                pairs.append((min(i, j), max(i, j)))
    return pairs


def parabolic_fixing(p: complex):
    """A parabolic element (of a one-generator rep) with fixed point p."""
    v = parabolic_vector(MoebiusMap(1 + p, -p * p, 1.0, 1 - p))
    return HolonomyRep(generators=("g",), vectors={"g": v}).element("g")


def stereographic(z: complex) -> tuple[float, float, float]:
    """Inverse stereographic projection of a finite point."""
    r2 = z.real * z.real + z.imag * z.imag
    return (2.0 * z.real / (1.0 + r2), 2.0 * z.imag / (1.0 + r2),
            (r2 - 1.0) / (1.0 + r2))


class TestSpherePoint:
    def test_hopf_map_is_stereographic(self):
        rng = random.Random(11)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(200):
                z = scale * complex(rng.gauss(0, 1), rng.gauss(0, 1))
                # an unnormalized vector: the Hopf map scales it itself
                hopf = _sphere_point((z, 1.0))
                assert max(abs(a - b) for a, b in zip(hopf, stereographic(z))) < 1e-15

    def test_infinity_is_the_pole(self):
        assert _sphere_point((1.0, 0.0)) == (0.0, 0.0, 1.0)

    def test_pool_cells_match_stereographic_cells(self, rep):
        for e in enumerate_conjugates(rep, 3):
            p0, p1 = unit(e.vector)
            if p1 == 0.0:
                continue
            z = p0 / p1
            old = tuple(round(c / FIXED_POINT_CELL) for c in stereographic(z))
            assert _fixed_point_cell(e.vector) == old


class TestNoSplitDuplicates:
    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_pools_have_no_equal_entries(self, request, which):
        h = request.getfixturevalue(which)
        sizes = [len(enumerate_conjugates(h, d)) for d in range(5)]
        assert sizes == [4, 16, 68, 292, 1256]
        pool = enumerate_conjugates(h, 5)
        assert len(pool) == 5404
        assert equal_pairs(pool) == []

    def test_equal_pair_across_a_cell_boundary_is_one_entry(self):
        def cell(p):
            return _fixed_point_cell(parabolic_fixing(p).vector)

        # bisect towards a cell boundary until the two fixed points are
        # within 1e-13 of each other but still in different cells
        lo, hi = 0.3 + 0.2j, 0.3 + 0.2j + 1e-4 * (1 + 1j)
        assert cell(lo) != cell(hi)
        while abs(hi - lo) > 1e-13:
            mid = (lo + hi) / 2
            if cell(mid) == cell(lo):
                lo = mid
            else:
                hi = mid
        assert cell(lo) != cell(hi)
        a, b = parabolic_fixing(lo), parabolic_fixing(hi)
        assert vectors_equal(a.vector, b.vector)
        assert len(ElementPool([a, b])) == 1
        assert ElementPool([b]).find(a.vector) == 0


# KnotInfo PD codes; in id order 5_1 and 6_2 need three seed arcs
KNOTS = {
    "3_1": "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)",
    "5_1": "X(1,6,2,7) X(3,8,4,9) X(5,10,6,1) X(7,2,8,3) X(9,4,10,5)",
    "6_2": "X(1,8,2,9) X(3,11,4,10) X(5,1,6,12) X(7,2,8,3) X(9,7,10,6) X(11,5,12,4)",
}


def frames_of(d, flip=+1):
    """Crossing frames, with every sign times `flip` as for a reversed rep."""
    frames = map(d.crossing_frame, range(d.n_crossings))
    return [f._replace(sign=flip * f.sign) for f in frames]


def brute_force_colorings(frames, n_arcs, pool):
    """Every assignment of pool indices to arcs obeying `crossing_image`."""

    @functools.cache
    def holds(under, over, sign, out):
        image = crossing_image(pool[under].vector, pool[over].vector, sign)
        return vectors_equal(image, pool[out].vector)

    return {
        colors
        for colors in itertools.product(range(len(pool)), repeat=n_arcs)
        if all(
            holds(colors[f.under_in_arc], colors[f.over_arc], f.sign,
                  colors[f.under_out_arc])
            for f in frames
        )
    }


class TestForcingSchedule:
    @pytest.mark.parametrize("flip", [+1, -1])
    @pytest.mark.parametrize("which", ["fig8", "fig8_r2"])
    def test_one_step_per_crossing_one_color_per_arc(self, request, which, flip):
        d = request.getfixturevalue(which)
        frames = frames_of(d, flip)
        levels = forcing_schedule(frames, len(d.arcs))
        crossings = sorted(
            (f.under_in_arc, f.over_arc, f.under_out_arc, f.sign) for f in frames
        )
        stated, colored = [], []
        for seed, steps in levels:
            colored.append(seed)
            for source, over, target, sign, check in steps:
                # a step only reads arcs colored before it
                assert source in colored and over in colored
                assert (target in colored) == check
                forward = (source, over, target, sign)
                if check or forward in crossings:
                    stated.append(forward)
                else:
                    stated.append((target, over, source, -sign))
                if not check:
                    colored.append(target)
        assert sorted(stated) == crossings
        assert sorted(colored) == list(range(len(d.arcs)))

    def test_fig8_seeds(self, fig8):
        levels = forcing_schedule(frames_of(fig8), len(fig8.arcs))
        assert [seed for seed, _ in levels] == [0, 1]

    @pytest.mark.parametrize("knot", ["5_1", "6_2"])
    def test_two_seeds_where_id_order_needs_three(self, knot):
        d = parse_pd(KNOTS[knot])
        assert len(forcing_schedule(frames_of(d), len(d.arcs))) == 2

    @pytest.mark.parametrize(
        "knot, depth",
        [("fig8", 1), ("fig8_r2", 0), ("3_1", 1), ("3_1", 2), ("5_1", 0), ("6_2", 0)],
    )
    def test_arc_colorings_equal_brute_force(self, request, rep, knot, depth):
        if knot in KNOTS:
            d = parse_pd(KNOTS[knot])
        else:
            d = request.getfixturevalue(knot)
        pool = enumerate_conjugates(rep, depth)
        at = {id(e): i for i, e in enumerate(pool)}
        frames = frames_of(d)
        n_arcs = len(d.arcs)
        found = [
            tuple(at[id(c[a])] for a in range(n_arcs))
            for c in arc_colorings(frames, n_arcs, pool)
        ]
        assert len(found) == len(set(found))
        assert set(found) == brute_force_colorings(frames, n_arcs, pool)


class TestSeedScreen:
    @pytest.mark.parametrize("flip", [+1, -1])
    @pytest.mark.parametrize(  # the seed is the first step's source, its over-arc
        "which, knot", [("rep", "fig8"), ("rep_reversed", "fig8"), ("rep", "3_1")]
    )
    def test_rejects_only_images_find_rejects(self, request, which, knot, flip):
        """Over every depth-3 seed pair, the screen keeps the colors whose
        `crossing_image` has a filed latitude cell, and the image of every
        color it rejects is in no cell."""
        d = parse_pd(KNOTS[knot]) if knot in KNOTS else request.getfixturevalue(knot)
        index = ElementPool(enumerate_conjugates(request.getfixturevalue(which), 3))
        vectors = [e.vector for e in index]
        latitudes = {cell[2] for cell in index._cells}
        levels = forcing_schedule(frames_of(d, flip), len(d.arcs))
        (first, first_steps), (second, steps) = levels
        assert first_steps == []
        source, over, _, sign, _ = steps[0]
        assert (second == over) == (knot == "3_1")
        color = [0] * len(d.arcs)
        rejected = 0
        for at in range(len(vectors)):
            color[first] = at
            passed = set(_seed_colors(vectors, latitudes, color, second, steps))
            for other in range(len(vectors)):
                color[second] = other
                image = crossing_image(
                    vectors[color[source]], vectors[color[over]], sign
                )
                filed = _fixed_point_cell(image)[2] in latitudes
                assert (other in passed) == filed
                if not filed:
                    assert index.find(image) is None
                    rejected += 1
        assert rejected > len(vectors) ** 2 // 2

    def test_kink_passes_every_color(self, rep):
        """A first step whose over-arc is its source gives the seed's own color."""
        frames = [  # an unknot with two R1 kinks, which parse_pd cannot enter
            SimpleNamespace(under_in_arc=0, over_arc=0, under_out_arc=1, sign=+1),
            SimpleNamespace(under_in_arc=1, over_arc=1, under_out_arc=0, sign=-1),
        ]
        (seed, steps), = forcing_schedule(frames, 2)
        assert steps[0][:2] == (seed, seed)
        pool = enumerate_conjugates(rep, 1)
        found = [(c[0], c[1]) for c in arc_colorings(frames, 2, pool)]
        assert found == [(e, e) for e in pool]


class TestArcColorings:
    @pytest.mark.parametrize("order", ["xxyzw", "yzwxx"])
    def test_duplicate_in_pool_is_one_color(self, rep, fig8, order):
        frames = [fig8.crossing_frame(ci) for ci in range(fig8.n_crossings)]
        named = dict(zip("xyzw", rep.generator_elements()))

        def words(names):
            pool = [named[n] for n in names]
            return [
                tuple(word_to_text(c[a].word) for a in range(4))
                for c in arc_colorings(frames, 4, pool)
            ]

        got = words(order)
        # the colorings of the pool without its duplicate, in its order
        assert got == words(dict.fromkeys(order))
        assert len(got) == 6
        assert sorted(got) == sorted(words("xyzw"))


class TestLoadHolonomy:
    def test_fixture_loads_with_assignment(self, rep):
        assert rep.arc_generators == ("y", "z", "w", "x")

    def test_reversed_fixture_loads(self, rep_reversed):
        # a reversed document names the arcs of the reversed diagram
        assert rep_reversed.orientation == "reversed"
        assert rep_reversed.arc_generators == ("x^-1", "w^-1", "z^-1", "y^-1")

    def test_r2_diagram_assignment_uses_conjugates(self, fig8_r2):
        h = load_holonomy(FIG8_HOLONOMY, fig8_r2)
        assert h.arc_generators == ("y", "z", "w", "x", "w", "x")

    def test_r2_diagram_reversed_assignment(self, fig8_r2):
        h = load_holonomy(FIG8_HOLONOMY_REVERSED, fig8_r2)
        assert h.arc_generators == (
            "x^-1", "w^-1", "x^-1", "w^-1", "z^-1", "y^-1"
        )

    def test_generators_with_equal_vectors_load(self, fig8_r2):
        # one generator per arc: e and f repeat the matrices of c and d, so
        # the pool holds four elements and no coloring uses the words e, f
        names = dict(zip("abcdef", ("y", "z", "w", "x", "w", "x")))
        doc = {
            "generators": list(names),
            "matrices": {n: FIG8_HOLONOMY["matrices"][g] for n, g in names.items()},
        }
        h = load_holonomy(doc, fig8_r2)
        assert h.arc_generators == ("a", "b", "c", "d", "c", "d")

    def test_one_generator_on_crossingless_diagram(self):
        doc = {"generators": ["w"], "matrices": {"w": FIG8_HOLONOMY["matrices"]["w"]}}
        assert load_holonomy(doc, parse_pd("")).arc_generators == ("w",)

    def test_two_generators_on_crossingless_diagram_rejected(self):
        # its one arc cannot carry both: no natural coloring, so no volume
        matrices = FIG8_HOLONOMY["matrices"]
        doc = {"generators": ["x", "w"], "matrices": {n: matrices[n] for n in "xw"}}
        with pytest.raises(RelationViolated):
            load_holonomy(doc, parse_pd(""))

    def test_identity_matrix_rejected(self, fig8):
        doc = copy.deepcopy(FIG8_HOLONOMY)
        doc["matrices"]["x"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(NotParabolic):
            load_holonomy(doc, fig8)

    def test_singular_matrix_rejected(self, fig8):
        doc = copy.deepcopy(FIG8_HOLONOMY)
        doc["matrices"]["x"] = [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]
        with pytest.raises(BadMatrix):
            load_holonomy(doc, fig8)

    def test_wrong_matrices_violate_relations(self, fig8):
        doc = copy.deepcopy(FIG8_HOLONOMY)
        # a parabolic unrelated to the others breaks every assignment
        doc["matrices"]["x"] = [[[1, 0], [5, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(RelationViolated):
            load_holonomy(doc, fig8)

    def test_missing_matrix(self, fig8):
        doc = copy.deepcopy(FIG8_HOLONOMY)
        del doc["matrices"]["w"]
        with pytest.raises(BadMatrix):
            load_holonomy(doc, fig8)

    def test_bad_orientation_tag(self, fig8):
        doc = copy.deepcopy(FIG8_HOLONOMY)
        doc["orientation"] = "sideways"
        with pytest.raises(BadMatrix):
            load_holonomy(doc, fig8)
