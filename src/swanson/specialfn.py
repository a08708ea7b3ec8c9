"""Special functions used by the oscillator hierarchy.

Everything here is polynomial or Gamma-based: Gamma, Pochhammer (rising
factorial), associated Laguerre polynomials, and the unit-argument Gauss sum
(Chu-Vandermonde).  Every closed-form state is evaluated through ``laguerre``,
a three-term recurrence; ``kummer``, the terminating series 1F1(-n; g; y), is
kept as a cross-check reference only, since its alternating terms cancel
catastrophically once n passes about 20 (1F1(-n; g; y) = n!/(g)_n
L_n^(g-1)(y), DLMF 13.6.19).
"""

from __future__ import annotations

import math

from .errors import PoleAtNonPositiveInteger, PoleConfiguration
from .jets import Jet

_POLE_TOL = 1e-12


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) < _POLE_TOL


def gamma_fn(x: float) -> float:
    """Gamma function; raises at the poles (non-positive integers)."""
    if _is_nonpositive_integer(x):
        raise PoleAtNonPositiveInteger(f"Gamma pole at x = {x}")
    return math.gamma(x)


def pochhammer(s: float, n: int):
    """Rising factorial (s)_n as a plain product.

    Valid everywhere, including where Gamma(s) has poles; accepts jet-valued
    s for derivative propagation.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    r = 1.0
    for k in range(n):
        r = r * (s + k)
    return r


def kummer(n: int, gamma: float, y):
    """1F1(-n; gamma; y) by the finite sum with a running-term recurrence.

    Works for float or Jet y.
    """
    if n < 0:
        raise ValueError("kummer needs n >= 0")
    if gamma <= 0:
        raise ValueError("kummer needs gamma > 0")
    total = 1.0 + 0.0 * y if not isinstance(y, (int, float)) else 1.0
    term = total
    for k in range(n):
        term = term * ((-n + k) * 1.0) * y / ((gamma + k) * (k + 1))
        total = total + term
    return total


def laguerre(n: int, beta: float, t):
    """Associated Laguerre L_n^beta(t) via the stable three-term recurrence.

    A Jet t is composed through d^m/dt^m L_n^beta = (-1)^m L_(n-m)^(beta+m):
    one float recurrence per Taylor order, then a Horner pass in t - t0.
    """
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    if isinstance(t, Jet):
        u = t - t.value
        top = min(n, t.order)
        out = Jet.const(0.0, t.order)
        for m in range(top, -1, -1):
            c = laguerre(n - m, beta + m, t.value) / math.factorial(m)
            out = out * u + (-c if m % 2 else c)
        return out
    if n == 0:
        return 1.0
    prev, cur = 1.0, beta + 1.0 - t
    for k in range(2, n + 1):
        nxt = ((2 * k - 1 + beta - t) * cur - (k - 1 + beta) * prev) / k
        prev, cur = cur, nxt
    return cur


def gauss2f1_unit(a: float, b: float, c: float) -> float:
    """Gauss sum at unit argument: Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    A pole in a denominator Gamma kills the value (returns 0); a pole in a
    numerator Gamma is a genuine pole configuration and raises.
    """
    if _is_nonpositive_integer(c) or _is_nonpositive_integer(c - a - b):
        raise PoleConfiguration(f"numerator Gamma pole for (a={a}, b={b}, c={c})")
    if _is_nonpositive_integer(c - a) or _is_nonpositive_integer(c - b):
        return 0.0
    return gamma_fn(c) * gamma_fn(c - a - b) / (gamma_fn(c - a) * gamma_fn(c - b))
