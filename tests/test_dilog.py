"""Dilogarithm tests against independent oracles.

The oracle below sums the defining series directly (plus the inversion
formula and, on the unit circle, the Fourier series of the imaginary
part); it shares no code with the production implementation. mpmath
serves as a second, external oracle.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from volquandle.dilog import _BERNOULLI, D_MAX, PI2_6, bloch_wigner, li2

mpmath.mp.dps = 30

OMEGA = complex(0.5, math.sqrt(3.0) / 2.0)  # exp(i*pi/3)


def oracle_li2_series(z: complex, terms: int = 4000) -> complex:
    total = 0j
    power = z
    for n in range(1, terms + 1):
        total += power / (n * n)
        power *= z
    return total


def oracle_li2(z: complex) -> complex:
    if abs(z) <= 0.5:
        return oracle_li2_series(z)
    if abs(z) > 1.0:
        return -oracle_li2(1.0 / z) - PI2_6 - 0.5 * cmath.log(-z) ** 2
    # reflection keeps the series argument small for z near 1
    if abs(1.0 - z) <= 0.5:
        return PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - oracle_li2_series(1.0 - z)
    return oracle_li2_series(z, terms=40000)


def oracle_d_unit_circle(theta: float, terms: int = 2_000_000) -> float:
    """Im(Li2(e^{i theta})) summed term by term; tail is O(1/terms^2)."""
    return sum(math.sin(n * theta) / (n * n) for n in range(1, terms + 1))


def oracle_bernoulli(count: int) -> list[Fraction]:
    """First `count` Bernoulli numbers, exact (B_1 = -1/2 convention)."""
    b = [Fraction(1)]
    for m in range(1, count):
        acc = sum(math.comb(m + 1, k) * b[k] for k in range(m))
        b.append(-acc / (m + 1))
    return b


def test_bernoulli_table_is_the_recurrence():
    # bit for bit, zeros at odd indices included: every term of the
    # log series, and so every Phi, depends on these exact floats
    expected = [float(b).hex() for b in oracle_bernoulli(64)]
    assert [x.hex() for x in _BERNOULLI] == expected


def test_d_max_against_brute_force_oracle():
    assert abs(bloch_wigner(OMEGA) - oracle_d_unit_circle(math.pi / 3.0)) < 1e-10
    assert abs(bloch_wigner(OMEGA) - D_MAX) < 1e-14


def test_li2_against_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(300):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(abs(z) - 1.0) < 0.02:
            continue
        assert abs(li2(z) - oracle_li2(z)) < 1e-10


def test_li2_against_mpmath():
    rng = random.Random(5)
    pts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(500)]
    pts += [1 + 1e-5 * cmath.exp(1j * t) for t in (0.4, 1.7, 3.1, 5.0)]
    pts += [1 + 1e-10 * cmath.exp(1j * t) for t in (0.9, 4.2)]
    for z in pts:
        ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag)))
        assert abs(li2(z) - ref) < 1e-12 * max(1.0, abs(ref))


def test_li2_special_values():
    assert li2(0) == 0
    assert abs(li2(1) - PI2_6) < 1e-15
    assert abs(li2(-1) + PI2_6 / 2.0) < 1e-15
    half = math.pi**2 / 12.0 - 0.5 * math.log(2.0) ** 2
    assert abs(li2(0.5) - half) < 1e-15


def test_bloch_wigner_vanishes_on_real_axis():
    for x in (-7.3, -1.0, 0.0, 0.25, 1.0, 1.5, 100.0):
        assert bloch_wigner(x) == 0.0
    assert bloch_wigner(complex("inf")) == 0.0
    assert bloch_wigner(complex("nan")) == 0.0


def test_bloch_wigner_symmetry_identities():
    rng = random.Random(23)
    for _ in range(1000):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        d = bloch_wigner(z)
        assert abs(bloch_wigner(z.conjugate()) + d) < 1e-12
        assert abs(bloch_wigner(1.0 / z) + d) < 1e-12
        assert abs(bloch_wigner(1.0 - z) + d) < 1e-12


def test_bloch_wigner_bounded_by_maximum():
    rng = random.Random(37)
    for _ in range(2000):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert abs(bloch_wigner(z)) <= D_MAX + 1e-12


def test_bloch_wigner_six_fold_orbit():
    # D is invariant under z -> 1/(1-z) and z -> 1 - 1/z
    rng = random.Random(41)
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
        d = bloch_wigner(z)
        assert abs(bloch_wigner(1.0 / (1.0 - z)) - d) < 1e-12
        assert abs(bloch_wigner(1.0 - 1.0 / z) - d) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.0, math.pi / 3.0, 2.5])
def test_unit_circle_values(theta):
    z = cmath.exp(1j * theta)
    ref = complex(mpmath.polylog(2, mpmath.mpc(z.real, z.imag))).imag
    assert abs(bloch_wigner(z) - ref) < 1e-12
