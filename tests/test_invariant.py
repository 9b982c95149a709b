from itertools import islice, product

import pytest

from volquandle.errors import ColoringInvalid, OutOfLattice
from volquandle.fixtures import FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED, FIG8_VOLUME
from volquandle.holquandle import (
    ElementPool,
    arc_colorings,
    crossing_image,
    enumerate_conjugates,
    load_holonomy,
    quandle_op,
    quandle_op_inv,
    vectors_equal,
    word_to_text,
)
from volquandle import invariant
from volquandle.invariant import (
    CLASSIFICATION_TOL,
    boltzmann_weight,
    cocycle_residuals,
    cocycle_vol,
    coloring_from_doc,
    first_generator,
    iter_colorings,
    natural_coloring,
    phi,
    reference_volume,
    symmetry_report,
    tally_colorings,
    validate_coloring,
)

from volquandle.diagram import parse_pd

# mirror image of the fixture diagram (all crossing signs flipped)
FIG8_MIRROR_PD = "X(1,4,2,5) X(5,8,6,1) X(3,7,4,6) X(7,3,8,2)"


def element_walk(walks, arc_colors, base_color):
    """The region walk on quandle elements, building a word at every step.

    The oracle for `invariant._extend_regions`: `quandle_op` for a +1
    step and `quandle_op_inv` for a -1 step, each the `crossing_image`
    of its sign with the word attached.
    """
    colors = {}
    for region, steps in walks:
        color = base_color
        for arc, direction in steps:
            op = quandle_op if direction > 0 else quandle_op_inv
            color = op(color, arc_colors[arc])
        colors[region] = color
    return colors


@pytest.fixture(scope="module")
def w(rep):
    return rep.element("x")


class TestCocycle:
    def test_condition_i_exact(self, rep, w):
        pool = enumerate_conjugates(rep, 1)
        for z in pool[::3]:
            for x in pool[::3]:
                assert cocycle_vol(w, z.vector, x, x) == 0.0

    def test_condition_ii_residuals(self, rep, w):
        pool = enumerate_conjugates(rep, 2)
        assert cocycle_residuals(w, pool, samples=120) < 1e-9

    @pytest.mark.parametrize("which", ["rep", "rep_reversed"])
    def test_region_color_is_a_point_up_to_scale(self, request, which):
        """[c z] = [z]: scaling the region vector leaves the volume alone."""
        h = request.getfixturevalue(which)
        pool = enumerate_conjugates(h, 1)
        w = pool[0]
        for z, x, y in product(pool, repeat=3):
            vol = cocycle_vol(w, z.vector, x, y)
            for c in (2, 1j, 1e-3):
                scaled = (c * z.vector[0], c * z.vector[1])
                assert abs(cocycle_vol(w, scaled, x, y) - vol) < 1e-12

    def test_values_lie_in_volume_window(self, rep, w):
        # four tetrahedra, each bounded by the regular ideal volume
        pool = enumerate_conjugates(rep, 1)
        for z in pool[::2]:
            for x in pool[::3]:
                for y in pool[::3]:
                    assert abs(cocycle_vol(w, z.vector, x, y)) <= 4 * 1.015


class TestNaturalColoring:
    def test_gives_plus_volume(self, fig8, rep, w):
        s = natural_coloring(fig8, rep)
        result = phi(fig8, s, w, FIG8_VOLUME)
        assert result.k == 1
        assert abs(result.phi - FIG8_VOLUME) < 1e-9

    def test_every_base_choice_is_plus_volume(self, fig8, rep, w):
        arcs = natural_coloring(fig8, rep).arc_colors
        for region in range(fig8.n_regions):
            walks = fig8.region_steps_from(region)
            for gen in rep.generators:
                base = rep.element(gen).vector
                regions = invariant._extend_regions(walks, arcs, base)
                s = invariant.ShadowColoring(arcs, regions)
                assert validate_coloring(fig8, s) == []
                assert phi(fig8, s, w, FIG8_VOLUME).k == 1

    def test_arc_colors_are_distinct_generators(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        assert len(ElementPool(s.arc_colors.values())) == 4

    def test_valid(self, fig8, rep):
        assert validate_coloring(fig8, natural_coloring(fig8, rep)) == []


class TestValidateColoring:
    def test_perturbed_arc_breaks_crossing_rule(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        first = s.arc_colors[0].vector
        other = next(
            g for g in rep.generator_elements() if not vectors_equal(g.vector, first)
        )
        s.arc_colors[0] = other
        assert any("crossing" in v for v in validate_coloring(fig8, s))

    def test_perturbed_region_breaks_region_rule(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        r = s.region_colors[2]
        s.region_colors[2] = next(
            moved for g in rep.generator_elements()
            if (moved := crossing_image(r, g.vector, +1)) != r
        )
        assert any("region" in v for v in validate_coloring(fig8, s))

    def test_missing_color_reported(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        del s.arc_colors[1]
        assert any("arc 1" in v for v in validate_coloring(fig8, s))


class TestColoringDocuments:
    def test_round_trip(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        doc = s.to_json_dict()
        assert list(doc) == ["arcs"]
        again = coloring_from_doc(fig8, rep, doc)
        for i, e in s.arc_colors.items():
            assert vectors_equal(again.arc_colors[i].vector, e.vector)
        # the same walk from the same base: the same vectors, bit for bit
        assert again.region_colors == s.region_colors

    def test_region_words_are_an_unknown_key(self, fig8, rep):
        # the region words the element walk builds, as documents once held them
        s = natural_coloring(fig8, rep)
        walked = element_walk(fig8.region_steps_from(0), s.arc_colors, rep.element("x"))
        doc = dict(s.to_json_dict(), regions={
            str(i): word_to_text(e.word) for i, e in walked.items()
        })
        with pytest.raises(ColoringInvalid, match="unknown key 'regions'"):
            coloring_from_doc(fig8, rep, doc)

    def test_invalid_document_rejected(self, fig8, rep):
        s = natural_coloring(fig8, rep)
        doc = s.to_json_dict()
        doc["arcs"]["0"] = doc["arcs"]["1"]
        with pytest.raises(ColoringInvalid):
            coloring_from_doc(fig8, rep, doc)

    def test_malformed_document_rejected(self, fig8, rep):
        with pytest.raises(ColoringInvalid):
            coloring_from_doc(fig8, rep, {"arcs": {}})

    @pytest.mark.parametrize("diagram", ["fig8", "fig8_r2"])
    def test_symmetry_witnesses_replay_exactly(self, request, diagram):
        """A witness read back from its document is the coloring the tally
        classified: the same arc and region vectors and the same Phi."""
        d = request.getfixturevalue(diagram)
        h_std = load_holonomy(FIG8_HOLONOMY, d)
        h_rev = load_holonomy(FIG8_HOLONOMY_REVERSED, d)
        report = symmetry_report(d, h_std, h_rev, depth=2, cap=10**6)
        replayed = 0
        for h, tally in ((h_std, report.standard), (h_rev, report.reversed_)):
            w = first_generator(h)
            volume = reference_volume(h, d, w)
            for s in tally.first_witness.values():
                again = coloring_from_doc(d, h, s.to_json_dict())
                assert {i: e.vector for i, e in again.arc_colors.items()} == {
                    i: e.vector for i, e in s.arc_colors.items()
                }
                assert again.region_colors == s.region_colors
                assert phi(d, again, w, volume) == phi(d, s, w, volume)
                replayed += 1
        assert replayed == 6  # k = -1, 0, +1 on each orientation


class TestPhi:
    def test_out_of_lattice_for_wrong_volume(self, fig8, rep, w):
        s = natural_coloring(fig8, rep)
        with pytest.raises(OutOfLattice):
            phi(fig8, s, w, FIG8_VOLUME / 2.0)

    def test_rejects_nonpositive_volume(self, fig8, rep, w):
        s = natural_coloring(fig8, rep)
        with pytest.raises(ValueError):
            phi(fig8, s, w, -1.0)

    @pytest.mark.parametrize("volume", [float("inf"), float("nan")])
    def test_rejects_nonfinite_volume(self, fig8, rep, w, volume):
        s = natural_coloring(fig8, rep)
        with pytest.raises(ValueError, match="finite"):
            phi(fig8, s, w, volume)

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_accepts_a_volume_inside_the_tolerance(self, fig8, rep, w, offset):
        s = natural_coloring(fig8, rep)
        total = phi(fig8, s, w, FIG8_VOLUME).phi
        result = phi(fig8, s, w, total + offset * CLASSIFICATION_TOL)
        assert result.k == 1

    @pytest.mark.parametrize("offset", [-2.0, 2.0])
    def test_rejects_a_volume_outside_the_tolerance(self, fig8, rep, w, offset):
        s = natural_coloring(fig8, rep)
        total = phi(fig8, s, w, FIG8_VOLUME).phi
        with pytest.raises(OutOfLattice):
            phi(fig8, s, w, total + offset * CLASSIFICATION_TOL)

    def test_mirror_negates(self, rep, w):
        mirror = parse_pd(FIG8_MIRROR_PD)
        h = load_holonomy(FIG8_HOLONOMY, mirror)
        s = natural_coloring(mirror, h)
        result = phi(mirror, s, h.element("x"), FIG8_VOLUME)
        assert result.k == -1

    def test_reference_volume_prefers_declared(self, fig8, rep, w):
        assert reference_volume(rep, fig8, w) == FIG8_VOLUME


def first_colorings(d, pool, cap=10**5):
    return list(islice(iter_colorings(d, pool), cap))


class TestEnumeration:
    def test_all_emitted_colorings_valid(self, fig8, rep):
        pool = enumerate_conjugates(rep, 1)
        colorings = first_colorings(fig8, pool)
        assert len(colorings) == 736
        for s in colorings[::17]:
            assert validate_coloring(fig8, s) == []

    def test_natural_arc_coloring_appears(self, fig8, rep):
        pool = rep.generator_elements()
        target = natural_coloring(fig8, rep)
        assert any(
            all(
                vectors_equal(s.arc_colors[i].vector, target.arc_colors[i].vector)
                for i in range(4)
            )
            for s in first_colorings(fig8, pool)
        )

    def test_single_element_pool_gives_only_monochromatic(self, fig8, rep, w):
        # idempotence always admits the monochromatic coloring, and a
        # one-element pool admits nothing else; its state sum is 0
        pool = [rep.element("y^-1 x y")]
        colorings = first_colorings(fig8, pool)
        assert len(colorings) == 1
        assert phi(fig8, colorings[0], w, FIG8_VOLUME).k == 0

    def test_duplicate_in_pool_is_one_color(self, fig8, rep):
        x, y, z, w = rep.generator_elements()

        def words(pool):
            return [
                (s.to_json_dict(), s.region_colors) for s in first_colorings(fig8, pool)
            ]

        assert len(words([x, y, z, w])) == 24
        assert words([x, x, y, z, w]) == words([x, y, z, w])

    def test_deterministic(self, fig8, rep):
        pool = enumerate_conjugates(rep, 1)
        a = first_colorings(fig8, pool)
        b = first_colorings(fig8, pool)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert all(
                vectors_equal(s.arc_colors[i].vector, t.arc_colors[i].vector)
                for i in s.arc_colors
            )


class TestTally:
    def test_depth_zero(self, fig8, rep):
        tally = tally_colorings(fig8, rep, depth=0, cap=10**5)
        assert tally.counts.get(1, 0) > 0
        assert tally.max_residual < 1e-6

    def test_depth_one_finds_both_signs(self, fig8, rep):
        tally = tally_colorings(fig8, rep, depth=1, cap=10**5)
        assert tally.counts.get(1, 0) > 0
        assert tally.counts.get(-1, 0) > 0

    def test_witnesses_recorded(self, fig8, rep):
        tally = tally_colorings(fig8, rep, depth=1, cap=10**5)
        for k in tally.counts:
            assert k in tally.first_witness

    def test_distinct_witnesses_compare_unequal(self, fig8, rep):
        tally = tally_colorings(fig8, rep, depth=1, cap=10**5)
        witnesses = [tally.first_witness[k] for k in (-1, 0, 1)]
        for i, a in enumerate(witnesses):
            for j, b in enumerate(witnesses):
                assert (a == b) == (i == j)
        # colorings hold dicts, so a set cannot silently merge them
        with pytest.raises(TypeError):
            set(witnesses)


class TestSymmetryReport:
    def test_partial_mode_without_reversed(self, fig8, rep):
        report = symmetry_report(fig8, rep, None, depth=1, cap=10**5)
        assert report.invertible is None
        assert report.positively_amphicheiral is None
        doc = report.to_json_dict()
        assert doc["invertible"] == "not computed"
        assert "reversed" not in doc

    def test_full_mode(self, fig8, rep, rep_reversed):
        report = symmetry_report(fig8, rep, rep_reversed, depth=1, cap=10**5)
        assert report.negatively_amphicheiral
        assert report.invertible
        assert report.positively_amphicheiral


CAPS = (1, 15, 16, 17, 735, 736, 737)


@pytest.fixture(scope="module", params=["rep", "rep_reversed"])
def depth_one_stream(request, fig8):
    """One side's representation and its depth-1 colorings with their Phi."""
    h = request.getfixturevalue(request.param)
    w = h.element(((h.generators[0], 1),))
    volume = reference_volume(h, fig8, w)
    pool = enumerate_conjugates(h, 1)
    stream = [(s, phi(fig8, s, w, volume)) for s in iter_colorings(fig8, pool)]
    return h, len(ElementPool(pool)), stream


def streaming_tally(stream, cap):
    """The per-shadow-coloring loop: counts, witnesses, total, truncated."""
    counts, witness, total, truncated = {}, {}, 0, False
    for s, result in stream:
        if total >= cap:
            truncated = True
            break
        total += 1
        counts[result.k] = counts.get(result.k, 0) + 1
        witness.setdefault(result.k, s)
    return counts, witness, total, truncated


class TestTallyOracle:
    """`tally_colorings` reports what a Phi for every coloring reports."""

    @pytest.mark.parametrize("cap", CAPS)
    def test_matches_streaming_oracle(self, fig8, depth_one_stream, cap):
        h, pool_size, stream = depth_one_stream
        assert (pool_size, len(stream)) == (16, 736)
        counts, witness, total, truncated = streaming_tally(stream, cap)
        tally = tally_colorings(fig8, h, depth=1, cap=cap)
        assert tally.counts == counts
        assert tally.total == total == min(cap, 736)
        assert tally.truncated is truncated is (cap < 736)
        assert {
            k: (s.to_json_dict(), s.region_colors) for k, s in tally.first_witness.items()
        } == {k: (s.to_json_dict(), s.region_colors) for k, s in witness.items()}
        # the residual is that of the evaluated (base pool[0]) colorings
        evaluated = [r.residual for _, r in stream[:total:pool_size]]
        assert tally.max_residual == max(evaluated)

    def test_one_phi_per_arc_coloring(self, fig8, depth_one_stream, monkeypatch):
        h, _, _ = depth_one_stream
        calls = []

        def counted_phi(*args, **kwargs):
            calls.append(args)
            return phi(*args, **kwargs)

        monkeypatch.setattr(invariant, "phi", counted_phi)
        tally = tally_colorings(fig8, h, depth=1, cap=10**5)
        assert tally.total == 736
        assert len(calls) == 46


class TestBasePointIndependence:
    """Every base-region color gives the k of base color pool[0]."""

    @pytest.mark.parametrize(
        "holonomy", [FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED], ids=["std", "rev"]
    )
    @pytest.mark.parametrize("diagram", ["fig8", "fig8_r2"])
    def test_every_base_color_gives_the_same_k(self, request, diagram, holonomy):
        d = request.getfixturevalue(diagram)
        h = load_holonomy(holonomy, d)
        w = h.element(((h.generators[0], 1),))
        volume = reference_volume(h, d, w)
        pool = ElementPool(enumerate_conjugates(h, 1)).elements
        stream = iter_colorings(d, pool)
        seen = set()
        while block := list(islice(stream, len(pool))):
            # one block per arc coloring, base colors in pool order
            assert len(block) == len(pool)
            assert all(s.arc_colors is block[0].arc_colors for s in block)
            ks = [phi(d, s, w, volume).k for s in block]  # each lattice-checked
            assert ks == [ks[0]] * len(pool)
            seen.add(ks[0])
        assert seen == {-1, 0, 1}

    @pytest.mark.parametrize(
        "holonomy", [FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED], ids=["std", "rev"]
    )
    @pytest.mark.parametrize("diagram", ["fig8", "fig8_r2"])
    def test_every_meridian_gives_the_same_phi(self, request, diagram, holonomy):
        d = request.getfixturevalue(diagram)
        h = load_holonomy(holonomy, d)
        first = first_generator(h)
        volume = reference_volume(h, d, first)
        pool = enumerate_conjugates(h, 1)
        frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
        walks = d.region_steps_from(0)
        seen, pairs = set(), 0
        for arc_colors in arc_colorings(frames, len(d.arcs), pool):
            regions = invariant._extend_regions(walks, arc_colors, first.vector)
            s = invariant.ShadowColoring(arc_colors, regions)
            reference = phi(d, s, first, volume)
            for w in pool:
                result = phi(d, s, w, volume)  # each lattice-checked
                assert result.k == reference.k
                assert abs(result.phi - reference.phi) < 1e-12
                pairs += 1
            seen.add(reference.k)
        assert seen == {-1, 0, 1}
        assert pairs == 46 * len(pool)  # 46 arc colorings: 736 = 46 x |pool|


class TestRegionWalkOracle:
    """Region vectors are the element walk's vectors, bit for bit."""

    @pytest.mark.parametrize(
        "holonomy", [FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED], ids=["std", "rev"]
    )
    @pytest.mark.parametrize("diagram", ["fig8", "fig8_r2"])
    def test_depth_two_region_vectors(self, request, diagram, holonomy):
        d = request.getfixturevalue(diagram)
        h = load_holonomy(holonomy, d)
        pool = enumerate_conjugates(h, 2)
        frames = [d.crossing_frame(ci) for ci in range(d.n_crossings)]
        walks = d.region_steps_from(0)
        bases = pool[: len(h.generators)]  # pool[0], the tally's base, first
        n = 0
        for arc_colors in arc_colorings(frames, len(d.arcs), pool):
            for base in bases:
                oracle = element_walk(walks, arc_colors, base)
                walked = invariant._extend_regions(walks, arc_colors, base.vector)
                assert walked == {r: e.vector for r, e in oracle.items()}
            n += 1
        assert n == 242
