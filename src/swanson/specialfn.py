"""Special functions used by the oscillator hierarchy.

Every closed-form state is evaluated through ``laguerre``, the associated
Laguerre polynomial by its three-term recurrence, on a float, ndarray or
``Jet`` argument; one recurrence gives every degree of a ladder at once
(n a range), so a state's ladder is one call.  ``kummer``, the terminating
series 1F1(-n; g; y), is a cross-check reference for the tests only (its
alternating terms cancel catastrophically once n passes about 20;
1F1(-n; g; y) = n!/(g)_n L_n^(g-1)(y), DLMF 13.6.19); it stays in the
package while ``perfbench/tracing.py`` wraps it by name.  The Gamma ratios
of the closed forms use ``math.lgamma`` directly.
"""

from __future__ import annotations

import math

import numpy as np

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


def laguerre(n: int | range, beta: float, t):
    """Associated Laguerre L_n^beta(t) via the stable three-term recurrence.

    n is a degree, or a range of degrees: one recurrence then gives the row
    L_k^beta(t) of every k in the range, stacked on a new leading axis (the
    degrees below the range are run and dropped).

    A float t, or an ndarray of them (the recurrence's + - * / then run on
    every element at once, each bit for bit its float value).

    A Jet t is composed through d^m/dt^m L_n^beta = (-1)^m L_(n-m)^(beta+m):
    one recurrence per Taylor order, then one Horner pass in u = t - t0 over
    all the rows.  A row of degree k below the pass's top order takes
    L_(k-m) = 0 for m > k: each such step gives the row 0 u + 0, the zero
    jet its own pass starts from, or NaN in exactly the coefficients where
    that pass's first step 0 u + c is NaN (a u that is not finite), so each
    row is bit for bit its one-degree value (a NaN's sign aside, which no
    output shows).  A jet with array coefficients (a grid of points) runs
    both on all of them.
    """
    stack = isinstance(n, range)
    degrees = n if stack else range(n, n + 1)
    if not degrees or degrees.start < 0 or degrees.step != 1:
        raise ValueError("laguerre needs n >= 0 (or a range of such n)")
    if not isinstance(t, Jet):
        return _recurrence(degrees, beta, t, stack)
    u = t - t.value
    top = min(degrees[-1], t.order)
    out = Jet.const(0.0, t.order)
    for m in range(top, -1, -1):
        # L_(k-m)^(beta+m)(t0) / m! for each degree k, zero where k < m
        lowered = range(degrees.start - m, degrees.stop - m)
        c = _recurrence(lowered, beta + m, t.value, stack) / math.factorial(m)
        out = out * u + (-c if m % 2 else c)
    if stack:
        shape = (len(degrees),) + np.shape(t.value)
        out = Jet(tuple(np.broadcast_to(a, shape) for a in out.coeffs))
    return out


def _recurrence(degrees: range, beta: float, t, stack: bool):
    """L_k^beta(t) for each k of a range of degrees, and 0 for each k < 0,
    from one recurrence: stacked on a leading axis, each row in the shape
    of t, or else the value of the range's one degree."""
    rows, prev, cur = [0.0] * -min(degrees.start, 0), 0.0, 1.0
    for k in range(degrees.stop):
        if k == 1:
            prev, cur = cur, beta + 1.0 - t
        elif k:
            prev, cur = cur, ((2 * k - 1 + beta - t) * cur
                              - (k - 1 + beta) * prev) / k
        if k >= degrees.start:
            rows.append(cur)
    if not stack:
        return cur
    out = np.empty((len(rows),) + np.shape(t))
    for i, row in enumerate(rows):
        out[i] = row
    return out
