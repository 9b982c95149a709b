import json

import pytest

from volquandle.diagram import Diagram, parse_pd
from volquandle.errors import Disconnected, EdgeCountMismatch, MalformedTerm
from volquandle.fixtures import FIG8_PD, FIG8_PD_R2

TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
UNKNOT_R1_PD = "X(1,2,2,1)"


class TestParse:
    def test_fig8_counts(self, fig8):
        assert fig8.n_crossings == 4
        assert len(fig8.arcs) == 4
        assert fig8.n_regions == 6
        assert sum(fig8.signs()) == 0

    def test_fig8_signs(self, fig8):
        assert fig8.signs() == (1, 1, -1, -1)

    def test_trefoil_counts(self):
        d = parse_pd(TREFOIL_PD)
        assert d.n_crossings == 3
        assert len(d.arcs) == 3
        assert d.n_regions == 5
        assert abs(sum(d.signs())) == 3

    def test_r2_extension_counts(self, fig8_r2):
        assert fig8_r2.n_crossings == 6
        assert len(fig8_r2.arcs) == 6
        assert fig8_r2.n_regions == 8
        assert sum(fig8_r2.signs()) == 0

    def test_zero_crossing_unknot(self):
        d = parse_pd("")
        assert d.n_crossings == 0
        assert len(d.arcs) == 1
        assert d.n_regions == 2

    def test_one_crossing_kink_rejected(self):
        # a reducible kink repeats an edge label at its crossing;
        # such terms are rejected rather than guessed at
        with pytest.raises(MalformedTerm):
            parse_pd(UNKNOT_R1_PD)

    def test_whitespace_tolerant(self):
        d = parse_pd("  X( 4, 2, 5, 1 )\n X(8,6,1,5)  X(6,3,7,4) X(2,7,3,8) ")
        assert d.to_pd_text() == FIG8_PD

    def test_malformed_term(self):
        with pytest.raises(MalformedTerm):
            parse_pd("X(1,2,3)")
        with pytest.raises(MalformedTerm):
            parse_pd("Y(1,2,3,4)")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeCountMismatch):
            parse_pd("X(1,2,3,4) X(1,2,3,5)")

    def test_disconnected_link_rejected(self):
        with pytest.raises(Disconnected):
            parse_pd("X(4,1,3,2) X(2,3,1,4)")


class TestStructure:
    def test_euler_formula(self, fig8, fig8_r2):
        # V - E + F = 2 on the sphere: n - 2n + regions = 2
        for d in (fig8, fig8_r2):
            assert d.n_regions == d.n_crossings + 2

    def test_arcs_partition_edges(self, fig8):
        seen = [e for arc in fig8.arcs for e in arc]
        assert sorted(seen) == list(fig8.edges)

    def test_arc_of_edge_consistent(self, fig8):
        for i, arc in enumerate(fig8.arcs):
            for e in arc:
                assert fig8.arc_of_edge(e) == i

    def test_every_edge_separates_two_regions(self, fig8):
        for e in fig8.edges:
            assert fig8.region_left(e) != fig8.region_right(e)

    def test_corner_regions_are_valid(self, fig8):
        for ci in range(fig8.n_crossings):
            corners = set(fig8._corner_region[ci])
            assert all(0 <= r < fig8.n_regions for r in corners)
            # four corners of a crossing touch four distinct regions
            assert len(corners) == 4

    def test_crossing_frame_arcs(self, fig8):
        for ci in range(fig8.n_crossings):
            f = fig8.crossing_frame(ci)
            cr = fig8.crossings[ci]
            assert f.under_in_arc == fig8.arc_of_edge(cr.under_in)
            assert f.under_out_arc == fig8.arc_of_edge(cr.under_out)
            assert f.over_arc == fig8.arc_of_edge(cr.over_in)
            assert f.sign == cr.sign


class TestRegionWalk:
    def test_trivial_walk(self, fig8):
        assert dict(fig8.region_steps_from(0))[0] == []

    def test_walks_reach_all_regions(self, fig8):
        steps = dict(fig8.region_steps_from(0))
        assert set(steps) == set(range(fig8.n_regions))

    def test_walk_reverse_is_inverse(self, fig8):
        fwd = dict(fig8.region_steps_from(0))[3]
        back = dict(fig8.region_steps_from(3))[0]
        assert len(fwd) == len(back)

    def test_unknown_region(self, fig8):
        with pytest.raises(ValueError):
            fig8.region_steps_from(99)


class TestSerialization:
    def test_pd_round_trip(self, fig8):
        assert parse_pd(fig8.to_pd_text()).to_pd_text() == fig8.to_pd_text()

    def test_json_fields(self, fig8):
        doc = json.loads(json.dumps(fig8.to_json_dict()))
        assert doc["n_crossings"] == 4
        assert len(doc["arcs"]) == 4
        assert len(doc["regions"]) == 6
        assert all(set(c) == {"id", "edges", "sign", "over_in", "over_out"}
                   for c in doc["crossings"])


class TestDeterminism:
    def test_rebuild_identical(self):
        a = parse_pd(FIG8_PD)
        b = parse_pd(FIG8_PD)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert a.region_steps_from(0) == b.region_steps_from(0)
