"""The float pools and arc search against exact fig8 arithmetic over Z[w].

`TestNoSplitDuplicates` checks the float identity against itself, so it
can see two equal elements filed twice (a split) but not two distinct
elements filed once (a merge). Here each decision is compared with the
exact one, which sees both.
"""

import functools
import itertools

import pytest

from exact_fig8 import ExactRep, bracket, fixed_point, to_complex
from exact_fig8 import arc_colorings as exact_arc_colorings
from volquandle.fixtures import FIG8_HOLONOMY, FIG8_HOLONOMY_REVERSED
from volquandle.holquandle import arc_colorings, enumerate_conjugates, word_to_text
from volquandle.hypgeom import parabolic_map

DOCS = {"rep": FIG8_HOLONOMY, "rep_reversed": FIG8_HOLONOMY_REVERSED}
SIZES = [4, 16, 68, 292, 1256, 5404]


@functools.cache
def exact_pools(which):
    return ExactRep(DOCS[which]).pools(len(SIZES) - 1)


def relative_error(vector_map, exact):
    """|P_v -+ M| / |M| over the entries, with the better sign."""
    got = vector_map.entries()
    want = [to_complex(x) for x in exact]
    scale = max(abs(x) for x in want)
    return min(
        max(abs(g - s * w) for g, w in zip(got, want)) for s in (1, -1)
    ) / scale


@pytest.mark.parametrize("which", DOCS)
def test_fixture_entries_are_eisenstein_integers(which):
    # from_complex asserts every rounding residual is below 1e-9
    exact = ExactRep(DOCS[which])
    assert set(exact.matrices) == set(DOCS[which]["generators"])


@pytest.mark.parametrize("depth", range(len(SIZES)))
@pytest.mark.parametrize("which", DOCS)
def test_float_pool_equals_exact_pool(request, which, depth):
    h = request.getfixturevalue(which)
    pool = enumerate_conjugates(h, depth)
    exact = exact_pools(which)[depth]
    assert len(exact) == SIZES[depth]
    assert [word_to_text(e.word) for e in pool] == [word_to_text(w) for w, _ in exact]
    # the vectors chained by `crossing_image` give the exact matrices to
    # rounding: at most 2.1e-11 relative at depth 5 (chained through the
    # generator matrices, 2.3e-11; words evaluated as matrix products,
    # 2.8e-11), far inside the 1e-9 of the identity test
    errors = [relative_error(parabolic_map(e.vector), m) for e, (_, m) in zip(pool, exact)]
    assert max(errors) < 1e-10


@pytest.mark.parametrize("which", DOCS)
def test_exact_pool_fixed_points_are_distinct(which):
    """One pool element per fixed point: the cell key files each once."""
    points = [fixed_point(m) for _, m in exact_pools(which)[3]]
    for p, q in itertools.combinations(points, 2):
        assert bracket(p, q) != (0, 0)


@pytest.mark.parametrize("which", DOCS)
def test_arc_search_equals_exact_search(request, fig8, which):
    h = request.getfixturevalue(which)
    frames = [fig8.crossing_frame(ci) for ci in range(fig8.n_crossings)]
    n_arcs = len(fig8.arcs)
    pool = enumerate_conjugates(h, 3)
    at = {id(e): i for i, e in enumerate(pool)}
    found = [
        tuple(at[id(c[a])] for a in range(n_arcs))
        for c in arc_colorings(frames, n_arcs, pool)
    ]
    exact = exact_arc_colorings(frames, n_arcs, exact_pools(which)[3])
    assert len(found) == 1110
    assert found == exact
