"""Special functions used by the oscillator hierarchy.

Everything here is polynomial or Gamma-based: Gamma, Pochhammer (rising
factorial), terminating Kummer polynomials 1F1(-n; g; y), associated Laguerre
polynomials, and the unit-argument Gauss sum (Chu-Vandermonde).  Polynomial
values always come from finite sums / recurrences; Gamma-quotient forms are
kept for cross-checks only.
"""

from __future__ import annotations

import math

from .errors import PoleAtNonPositiveInteger, PoleConfiguration

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

    Works for float or Jet t.
    """
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    if n == 0:
        return 1.0 + 0.0 * t if not isinstance(t, (int, float)) else 1.0
    prev = 1.0 + 0.0 * t if not isinstance(t, (int, float)) else 1.0
    cur = beta + 1.0 - t
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
