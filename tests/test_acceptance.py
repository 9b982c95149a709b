"""Acceptance criteria, one test per criterion.

Each test asserts its pinned tolerances and prints a single PASS line
(visible with `pytest -s`); the pytest verdict per test is the
authoritative pass/fail record.
"""

import itertools
import json
import math
import random

from volquandle.cli import main as cli_main
from volquandle.dilog import bloch_wigner
from volquandle.fixtures import FIG8_HOLONOMY, FIG8_VOLUME
from volquandle.holquandle import enumerate_conjugates, load_holonomy, quandle_op
from volquandle.hypgeom import (
    MoebiusMap,
    ideal_tet_volume,
    parabolic_map,
    parabolic_vector,
    unit,
)
from volquandle.invariant import (
    cocycle_residuals,
    cocycle_vol,
    iter_colorings,
    phi,
    symmetry_report,
    tally_colorings,
)

from points import INFINITY, act, bp, bracket
from test_dilog import OMEGA, oracle_d_unit_circle

_S = math.sqrt(3.0)
V_REF = 2.0298832128193


def fixed_point(m):
    return unit(parabolic_vector(m))


def test_criterion_01_dilogarithm():
    d_max = bloch_wigner(OMEGA)
    assert abs(d_max - 1.0149416064096535) < 1e-10
    assert abs(d_max - oracle_d_unit_circle(math.pi / 3.0)) < 1e-10
    rng = random.Random(101)
    for _ in range(1000):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        d = bloch_wigner(z)
        assert abs(bloch_wigner(z.conjugate()) + d) < 1e-12
        assert abs(bloch_wigner(1.0 / z) + d) < 1e-12
        assert abs(bloch_wigner(1.0 - z) + d) < 1e-12
    print("CRITERION 1: PASS (dilogarithm vs independent oracle, identities)")


def test_criterion_02_example_1():
    up = complex(0.5, _S / 2.0)       # (1 + sqrt(-3))/2
    um = complex(-0.5, _S / 2.0)      # (-1 + sqrt(-3))/2
    total = (
        ideal_tet_volume(bp(0.0), bp(um), INFINITY, bp(up))
        - ideal_tet_volume(bp(0.0), INFINITY, bp(up), bp(1.0))
    )
    assert abs(total - V_REF) < 1e-9
    assert abs(total - 2.0 * bloch_wigner(OMEGA)) < 1e-12
    print("CRITERION 2: PASS (Example 1 state sum = +V)")


def test_criterion_03_examples_2_to_4():
    up = complex(0.5, _S / 2.0)       # (1 + sqrt(-3))/2
    um = complex(-0.5, _S / 2.0)      # (-1 + sqrt(-3))/2
    down = complex(0.5, -_S / 2.0)    # (1 - sqrt(-3))/2
    third = complex(0.0, _S / 3.0)    # sqrt(-3)/3
    ex2 = (
        ideal_tet_volume(bp(0.0), bp(-1.0), bp(um), INFINITY)
        - ideal_tet_volume(bp(0.0), bp(um), INFINITY, bp(up))
    )
    assert abs(ex2 + V_REF) < 1e-9
    ex3 = (
        ideal_tet_volume(bp(0.0), bp(1.0), bp(up), INFINITY)
        - ideal_tet_volume(bp(0.0), bp(down), INFINITY, bp(1.0))
    )
    assert abs(ex3 - V_REF) < 1e-9
    ex4 = (
        ideal_tet_volume(bp(0.0), bp(up), INFINITY, bp(um))
        - ideal_tet_volume(bp(0.0), bp(third), bp(um), bp(up))
    )
    assert abs(ex4 + V_REF) < 1e-9
    print("CRITERION 3: PASS (Examples 2-4 = -V, +V, -V)")


def test_criterion_04_fixed_points(rep):
    up = complex(0.5, _S / 2.0)
    um = complex(-0.5, _S / 2.0)
    w = rep.element("w")
    y = rep.element("y")
    z = rep.element("z")
    x = rep.element("x")
    assert bracket(unit(w.vector), bp(0.0)) < 1e-10
    assert bracket(unit(y.vector), INFINITY) == 0.0
    assert bracket(unit(z.vector), bp(up)) < 1e-10
    assert bracket(unit(x.vector), bp(1.0)) < 1e-10
    assert bracket(unit(quandle_op(y, z).vector), bp(um)) < 1e-10
    print("CRITERION 4: PASS (fixture fixed points match)")


def test_criterion_05_cocycle_conditions(rep):
    w = rep.element("x")
    pool = enumerate_conjugates(rep, 2)
    assert cocycle_residuals(w, pool, samples=120) < 1e-9
    for z in pool[::5]:
        for x in pool[::5]:
            assert abs(cocycle_vol(w, z.vector, x, x)) < 1e-9
    print("CRITERION 5: PASS (cocycle conditions (i) and (ii) < 1e-9)")


def test_criterion_06_natural_coloring_volume(capsys):
    code = cli_main(["volume", "--fixture", "fig8", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 1
    assert abs(doc["phi"] - 2.029883212819) < 1e-6
    print("CRITERION 6: PASS (cmd_volume on fixture gives +V, k = +1)")


def test_criterion_07_lattice_property(fig8, rep):
    w = rep.element("x")
    pool = enumerate_conjugates(rep, 2)
    colorings = list(itertools.islice(iter_colorings(fig8, pool), 10**5))
    assert 0 < len(colorings) < 10**5
    worst = 0.0
    for s in colorings:
        result = phi(fig8, s, w, FIG8_VOLUME)  # raises OutOfLattice on failure
        worst = max(worst, result.residual)
    assert worst < 1e-6
    print(
        f"CRITERION 7: PASS (lattice property, {len(colorings)} colorings, "
        f"max residual {worst:.2e})"
    )


def test_criterion_08_symmetry_detection(fig8, rep, rep_reversed):
    report = symmetry_report(fig8, rep, rep_reversed, depth=2, cap=10**5)
    assert report.negatively_amphicheiral
    assert report.invertible
    assert report.positively_amphicheiral
    print("CRITERION 8: PASS (all three symmetry flags detected at depth 2)")


def test_criterion_09_diagram_independence(fig8, fig8_r2, rep):
    tally_4 = tally_colorings(fig8, rep, depth=2, cap=10**5)
    rep_6 = load_holonomy(FIG8_HOLONOMY, fig8_r2)
    tally_6 = tally_colorings(fig8_r2, rep_6, depth=2, cap=10**5)
    ks_4 = {k for k, n in tally_4.counts.items() if n > 0}
    ks_6 = {k for k, n in tally_6.counts.items() if n > 0}
    assert ks_4 == ks_6
    print(f"CRITERION 9: PASS (attained k-set {sorted(ks_4)} on both diagrams)")


def test_criterion_10_geometry_properties(rep):
    rng = random.Random(202)

    def random_map():
        while True:
            e = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
            if abs(e[0] * e[3] - e[1] * e[2]) > 0.1:
                return MoebiusMap(*e)

    def random_tet():
        while True:
            vs = [bp(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
                  for _ in range(4)]
            if all(bracket(vs[i], vs[j]) >= 1e-3
                   for i in range(4) for j in range(i + 1, 4)):
                return vs

    # Moebius invariance
    for _ in range(1000):
        t = random_tet()
        g = random_map()
        moved = [act(g, v) for v in t]
        assert abs(ideal_tet_volume(*t) - ideal_tet_volume(*moved)) < 1e-8
    # permutation parity on all 24 orderings
    t = random_tet()
    vol = ideal_tet_volume(*t)
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
    # degenerate-input zeroing
    a, b, c = bp(0.0), bp(1.0), bp(2 + 3j)
    assert ideal_tet_volume(a, a, b, c) == 0.0
    assert ideal_tet_volume(bp(0.0), bp(1.0), bp(3.0), bp(7.0)) == 0.0
    # fixed-point equivariance
    base = parabolic_map(rep.element("y").vector)
    for _ in range(200):
        g = random_map()
        conj = g.inverse().compose(base).compose(g)
        p = fixed_point(conj)
        expected = act(g.inverse(), fixed_point(base))
        assert bracket(p, expected) < 1e-8
    print("CRITERION 10: PASS (geometry property suite)")
