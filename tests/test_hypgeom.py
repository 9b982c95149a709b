import cmath
import itertools
import math
import random

import pytest

from volquandle.dilog import bloch_wigner
from volquandle.errors import BadMatrix, NotParabolic
from volquandle.holquandle import _sphere_point
from volquandle.hypgeom import (
    TOL,
    MoebiusMap,
    ideal_tet_volume,
    is_parabolic,
    parabolic_map,
    parabolic_vector,
    unit,
)

from points import INFINITY, act, bp, bracket

_S = math.sqrt(3.0)


def fixed_point(m):
    return unit(parabolic_vector(m))


def random_map(rng):
    while True:
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) > 0.1:
            return MoebiusMap(*entries)


def random_tetrahedron(rng):
    while True:
        vs = [
            bp(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(4)
        ]
        if all(
            bracket(vs[i], vs[j]) >= 1e-3
            for i in range(4)
            for j in range(i + 1, 4)
        ):
            return tuple(vs)


class TestBoundaryPoint:
    """A boundary point is a vector up to scale; `unit` scales it once."""

    def test_infinity_singleton(self):
        assert unit(INFINITY) == (1.0, 0.0)
        assert bracket(INFINITY, INFINITY) == 0.0
        assert bracket(INFINITY, bp(3 + 4j)) > 0.1

    def test_rejects_non_finite(self):
        for p in [(complex("inf"), 1.0), (0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)]:
            with pytest.raises(ValueError):
                unit(p)

    def test_unit_is_the_scaled_vector(self):
        """u / n and v / n with n = hypot(|u|, |v|), bit for bit."""
        rng = random.Random(13)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(50):
                u, v = (scale * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in "uv")
                n = math.hypot(abs(u), abs(v))
                assert unit((u, v)) == (u / n, v / n)
        assert unit((3, 4j)) == (0.6, 0.8j)
        assert unit((2.0, 0.0)) == (1.0, 0.0)

    def test_distance(self):
        assert bracket(bp(1.0), bp(1.0 + 1e-12)) < TOL
        assert bracket(bp(1.0), INFINITY) > 0.5
        # (z, 1) and (1, 1/z) are one point; scale and phase do not matter
        z = 2 - 3j
        assert bracket(bp(z), unit((1j, 1j / z))) < 1e-15
        # far-out finite points are close to infinity, chordally
        assert bracket(bp(1e8 * (1 + 1j)), INFINITY) < 1e-8

    def test_distance_is_half_chordal(self):
        rng = random.Random(5)
        for _ in range(100):
            p, q = (bp(complex(rng.gauss(0, 3), rng.gauss(0, 3))) for _ in "pq")
            chord = math.dist(_sphere_point(p), _sphere_point(q))
            assert abs(bracket(p, q) - chord / 2.0) < 1e-12


class TestMoebiusMap:
    def test_normalized_to_det_one(self):
        m = MoebiusMap(2.0, 0.0, 0.0, 2.0)
        det = m.a * m.d - m.b * m.c
        assert abs(det - 1.0) < 1e-14

    def test_singular_rejected(self):
        with pytest.raises(BadMatrix):
            MoebiusMap(1.0, 2.0, 2.0, 4.0)

    def test_compose_inverse(self):
        rng = random.Random(3)
        for _ in range(100):
            m = random_map(rng)
            assert m.compose(m.inverse()).is_identity_up_to_sign()

    def test_eq_up_to_sign(self):
        m = MoebiusMap(1.0, 1.0, 0.0, 1.0)
        n = MoebiusMap(-1.0, -1.0, 0.0, -1.0)
        assert m.eq_up_to_sign(n)
        assert not m.eq_up_to_sign(MoebiusMap(1.0, 2.0, 0.0, 1.0))

    def test_json_round_trip(self):
        rng = random.Random(9)
        m = random_map(rng)
        rows = [[[x.real, x.imag] for x in row] for row in ((m.a, m.b), (m.c, m.d))]
        n = MoebiusMap.from_json(rows)
        assert m.eq_up_to_sign(n, 1e-14)

    def test_from_json_malformed(self):
        with pytest.raises(BadMatrix):
            MoebiusMap.from_json([[1, 2], [3]])


class TestParabolic:
    def test_translation_is_parabolic(self):
        assert is_parabolic(MoebiusMap(1.0, 1.0, 0.0, 1.0))

    def test_identity_is_not(self):
        assert not is_parabolic(MoebiusMap.identity())
        assert not is_parabolic(MoebiusMap(-1.0, 0.0, 0.0, -1.0))

    def test_loxodromic_is_not(self):
        assert not is_parabolic(MoebiusMap(2.0, 0.0, 0.0, 0.5))

    @staticmethod
    def _riley(s, t, da):
        """[[1 + st + da, -s^2], [t^2, 1 - st]]: parabolic when da = 0."""
        return MoebiusMap(1 + s * t + da, -s * s, t * t, 1 - s * t)

    def test_large_entries_relative_trace(self):
        """Rounding that grows with the entries does not make a map loxodromic."""
        m = self._riley(50.0 + 5j, 100.0 - 10j, 1e-12)
        assert max(abs(x) for x in m.entries()) > 1e3
        err = abs(m.trace() - 2.0)
        assert 1e-9 < err < 1e-8
        assert abs(m.trace() ** 2 - 4.0) >= TOL  # an absolute test rejects it
        assert is_parabolic(m)
        p = fixed_point(m)
        assert bracket(act(m, p), p) < 1e-8

    def test_large_entries_loxodromic_rejected(self):
        m = self._riley(50.0 + 5j, 100.0 - 10j, 2e-8)
        assert abs(m.trace() - 2.0) > 1e-5
        assert not is_parabolic(m)
        with pytest.raises(NotParabolic):
            parabolic_vector(m)

    def test_fixed_point_upper_triangular(self):
        p = fixed_point(MoebiusMap(1.0, 1.0, 0.0, 1.0))
        assert bracket(p, INFINITY) == 0.0

    def test_fixed_point_generic(self):
        m = MoebiusMap(1.0, 0.0, 1.0, 1.0)
        p = fixed_point(m)
        assert bracket(p, bp(0.0)) < TOL
        assert bracket(act(m, p), p) < TOL

    def test_non_parabolic_raises(self):
        with pytest.raises(NotParabolic):
            parabolic_vector(MoebiusMap(2.0, 0.0, 0.0, 0.5))

    def test_fixed_point_is_fixed_random_conjugates(self):
        rng = random.Random(17)
        base = MoebiusMap(1.0, 1.0, 0.0, 1.0)
        for _ in range(200):
            g = random_map(rng)
            for m in (g.inverse().compose(base).compose(g),
                      g.inverse().compose(base.inverse()).compose(g)):
                v = parabolic_vector(m)
                p = unit(v)
                assert bracket(act(m, p), p) < 1e-8
                # m is +-P_v, whichever sign of trace it carries
                assert parabolic_map(v).eq_up_to_sign(m, 1e-12)


class TestCrossRatio:
    """The cross-ratio has one formula, the bracket ratio in ideal_tet_volume."""

    def test_standard_position(self):
        # (v0, v1, v2, v3) = (0, inf, 1, z) has cross-ratio z
        t = (bp(0.0), INFINITY, bp(1.0), bp(2 + 1j))
        assert abs(ideal_tet_volume(*t) - bloch_wigner(2 + 1j)) < 1e-14

    def test_degenerate_pair_gives_zero(self):
        assert ideal_tet_volume(bp(0.0), bp(1.0), bp(0.0), bp(2.0)) == 0.0

    def test_moebius_invariance(self):
        """Maps that send a vertex exactly to infinity, and infinity to a point."""
        rng = random.Random(29)
        for _ in range(200):
            t = random_tetrahedron(rng)
            vol = ideal_tet_volume(*t)
            for k, (v0, v1) in enumerate(t):
                # unitary; its row (-v1, v0) sends v to exactly 0: infinity
                to_inf = MoebiusMap(v0.conjugate(), v1.conjugate(), -v1, v0)
                moved = [act(to_inf, w) for w in t]
                assert moved[k][1] == 0.0
                assert abs(ideal_tet_volume(*moved) - vol) < 1e-8
                g = random_map(rng)
                back = [act(g, w) for w in moved]
                assert bracket(back[k], act(g, INFINITY)) < 1e-12
                assert abs(ideal_tet_volume(*back) - vol) < 1e-8


class TestIdealTetVolume:
    def test_regular_ideal_tetrahedron(self):
        omega = complex(0.5, _S / 2.0)
        vol = ideal_tet_volume(bp(0.0), INFINITY, bp(1.0), bp(omega))
        assert abs(vol - 1.0149416064096535) < 1e-12

    def test_moebius_invariance(self):
        rng = random.Random(31)
        for _ in range(1000):
            t = random_tetrahedron(rng)
            g = random_map(rng)
            moved = [act(g, v) for v in t]
            assert abs(ideal_tet_volume(*t) - ideal_tet_volume(*moved)) < 1e-8

    def test_permutation_parity(self):
        rng = random.Random(43)
        t = random_tetrahedron(rng)
        vol = ideal_tet_volume(*t)
        assert abs(vol) > 1e-3
        for perm in itertools.permutations(range(4)):
            parity = 1
            p = list(perm)
            for i in range(4):
                while p[i] != i:
                    j = p[i]
                    p[i], p[j] = p[j], p[i]
                    parity = -parity
            permuted = [t[i] for i in perm]
            assert abs(ideal_tet_volume(*permuted) - parity * vol) < 1e-9

    def test_degenerate_inputs_zero(self):
        a, b, c = bp(0.0), bp(1.0), bp(2 + 3j)
        assert ideal_tet_volume(a, a, b, c) == 0.0
        assert ideal_tet_volume(a, b, b, c) == 0.0
        assert ideal_tet_volume(INFINITY, INFINITY, a, b) == 0.0
        # four concyclic (real cross-ratio) points are flat
        assert ideal_tet_volume(bp(0.0), bp(1.0), bp(2.0), bp(5.0)) == 0.0

    def test_nearly_coincident_vertices_zero(self):
        a = bp(1.25 + 0.5j)
        a_noise = bp(1.25 + 1e-12 + 0.5j)
        assert ideal_tet_volume(a, a_noise, bp(3.0), INFINITY) == 0.0

    def test_vertex_near_infinity_is_coincident(self):
        """One metric: a point 1e8 out is within the guard of infinity."""
        far = 1e8 * (1 + 1j)
        assert ideal_tet_volume(bp(far), INFINITY, bp(0.0), bp(1j)) == 0.0
        assert ideal_tet_volume(bp(0.0), bp(1.0), bp(1e8j), INFINITY) == 0.0

    def test_orientation_reversal_negates(self):
        rng = random.Random(47)
        for _ in range(100):
            t = random_tetrahedron(rng)
            v0, v1, v2, v3 = t
            swapped = ideal_tet_volume(v1, v0, v2, v3)
            assert abs(ideal_tet_volume(*t) + swapped) < 1e-9
