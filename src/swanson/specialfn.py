"""Special functions used by the oscillator hierarchy.

Every closed-form state is evaluated through ``laguerre``, the associated
Laguerre polynomial by its three-term recurrence, on a float or a ``Jet``
argument.  ``kummer``, the terminating series 1F1(-n; g; y), is a
cross-check reference for the tests only (its alternating terms cancel
catastrophically once n passes about 20; 1F1(-n; g; y) = n!/(g)_n
L_n^(g-1)(y), DLMF 13.6.19); it stays in the package while
``perfbench/tracing.py`` wraps it by name.  The Gamma ratios of the closed
forms use ``math.lgamma`` directly.
"""

from __future__ import annotations

import math

from .jets import Jet


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

    A float t, or an ndarray of them (the recurrence's + - * / then run on
    every element at once, each bit for bit its float value).

    A Jet t is composed through d^m/dt^m L_n^beta = (-1)^m L_(n-m)^(beta+m):
    one recurrence per Taylor order, then a Horner pass in t - t0.  A jet
    with array coefficients (a grid of points) runs both on all of them.
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

