"""Complex dilogarithm and the Bloch-Wigner function D(z).

D(z) = Im(Li2(z)) + arg(1 - z) * ln|z| is single valued on the Riemann
sphere, vanishes on the real axis (including 0, 1 and infinity), and is
bounded by D(exp(i*pi/3)) = 1.0149416064096535.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

PI2_6 = math.pi * math.pi / 6.0

# Tightest bound of |D|; attained at the primitive sixth root of unity.
D_MAX = 1.0149416064096535


# Bernoulli numbers B_0 .. B_63 (B_1 = -1/2 convention) as floats, one
# term each of `_li2_log_series`. B_n vanishes for odd n > 1, so the table
# lists B_0, B_1 and the even B_2 .. B_62, and a zero follows each even
# one. tests/test_dilog.py checks every entry against the exact recurrence.
_EVEN_BERNOULLI = (
    0.16666666666666666, -0.03333333333333333, 0.023809523809523808,
    -0.03333333333333333, 0.07575757575757576, -0.2531135531135531,
    1.1666666666666667, -7.092156862745098, 54.971177944862156,
    -529.1242424242424, 6192.123188405797, -86580.25311355312,
    1425517.1666666667, -27298231.067816094, 601580873.9006424,
    -15116315767.092157, 429614643061.1667, -13711655205088.332,
    488332318973593.2, -1.9296579341940068e+16, 8.416930475736826e+17,
    -4.0338071854059454e+19, 2.1150748638081993e+21, -1.2086626522296526e+23,
    7.500866746076964e+24, -5.038778101481069e+26, 3.6528776484818122e+28,
    -2.849876930245088e+30, 2.3865427499683627e+32, -2.1399949257225335e+34,
    2.0500975723478097e+36,
)
_BERNOULLI = [1.0, -0.5] + [x for b in _EVEN_BERNOULLI for x in (b, 0.0)]


def _li2_series(z: complex) -> complex:
    """Power series sum z^n / n^2, for |z| <= 1/2."""
    total = 0j
    term = z
    n = 1
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (n * n)
        n += 1
        term *= z
        if n > 200:
            break
    return total


def _li2_log_series(z: complex) -> complex:
    """Expansion in u = -log(1-z); converges for |u| < 2*pi."""
    u = -cmath.log(1.0 - z)
    total = 0j
    upow = u
    factorial = 1.0
    for k, bk in enumerate(_BERNOULLI):
        if k > 0:
            factorial *= k
        term = bk * upow / (factorial * (k + 1))
        total += term
        upow *= u
        # Odd Bernoulli numbers beyond B_1 vanish; only judge convergence
        # on the nonzero terms.
        if bk != 0.0 and k > 2 and abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def li2(z: complex) -> complex:
    """Dilogarithm Li2(z) on the principal branch."""
    z = complex(z)
    if z == 0:
        return 0j
    if z == 1:
        return complex(PI2_6)
    if abs(z) > 1.0:
        # Inversion formula; valid off [0, 1).
        return -li2(1.0 / z) - PI2_6 - 0.5 * cmath.log(-z) ** 2
    if abs(z) <= 0.5:
        return _li2_series(z)
    if abs(1.0 - z) <= 0.5:
        # Reflection; keeps the log-series argument away from z = 1,
        # where |log(1 - z)| would exceed its convergence radius 2*pi.
        return PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _li2_series(1.0 - z)
    return _li2_log_series(z)


# Bounded so a long run holds at most this many entries (about 1 MB); one
# `volquandle symmetry --depth 2` run makes about 3,400 calls, 4 % repeats.
@lru_cache(maxsize=4096)
def bloch_wigner(z: complex) -> float:
    """Bloch-Wigner function D(z); exactly 0 for real z and for 0, 1, inf."""
    z = complex(z)
    if cmath.isinf(z) or cmath.isnan(z):
        return 0.0
    if z.imag == 0.0:
        return 0.0
    return li2(z).imag + cmath.phase(1.0 - z) * math.log(abs(z))
