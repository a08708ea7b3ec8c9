"""Special functions used by the oscillator hierarchy.

Every closed-form state is evaluated through ``laguerre``, the associated
Laguerre polynomial by its three-term recurrence, on a float, ndarray or
``Jet`` argument, for a range of degrees: one recurrence gives every degree
of a ladder at once, so a state's ladder is one call (one degree k is the
range(k, k + 1)).  ``kummer``, the terminating series 1F1(-n; g; y), is a
cross-check reference for the tests only (its alternating terms cancel
catastrophically once n passes about 20; 1F1(-n; g; y) = n!/(g)_n
L_n^(g-1)(y), DLMF 13.6.19); it stays in the package while
``perfbench/tracing.py`` wraps it by name.  The Gamma ratios of the closed
forms use ``math.lgamma`` directly.
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


def check_degrees(n) -> None:
    """The one call shape of every closed form: n is a nonempty range of
    degrees >= 0 with step 1 (one degree k is range(k, k + 1)); anything
    else, an int degree too, is a ValueError."""
    if not isinstance(n, range) or not n or n.start < 0 or n.step != 1:
        raise ValueError(f"degrees must be a nonempty range n >= 0 with "
                         f"step 1, not {n!r}")


def laguerre(n: range, beta: float, t):
    """Associated Laguerre L_k^beta(t) for each degree k of the range n, via
    the stable three-term recurrence: one recurrence gives every row, stacked
    on a new leading axis (the degrees below the range are run and dropped).

    n is a range of degrees as ``check_degrees`` takes it.

    A float t, or an ndarray of them (the recurrence's + - * / then run on
    every element at once, each bit for bit its float value).

    A Jet t is composed through d^m/dt^m L_k^beta = (-1)^m L_(k-m)^(beta+m):
    one recurrence per Taylor order, then one Horner pass in u = t - t0 over
    all the rows.  A row of degree k below the pass's top order takes
    L_(k-m) = 0 for m > k: each such step gives the row 0 u + 0, the zero
    jet its one-row pass starts from, or NaN in exactly the coefficients
    where that pass's first step 0 u + c is NaN (a u that is not finite), so
    each row is bit for bit its one-row value (a NaN's sign aside, which no
    output shows).  A jet with array coefficients (a grid of points) runs
    both on all of them.
    """
    check_degrees(n)
    if not isinstance(t, Jet):
        return _recurrence(n, beta, t)
    u = t - t.value
    top = min(n[-1], t.order)
    # the zero jet with the ladder's shape, so that every coefficient has it
    out = Jet.const(np.zeros((len(n),) + np.shape(t.value)), t.order)
    for m in range(top, -1, -1):
        # L_(k-m)^(beta+m)(t0) / m! for each degree k, zero where k < m
        lowered = range(n.start - m, n.stop - m)
        c = _recurrence(lowered, beta + m, t.value) / math.factorial(m)
        out = out * u + (-c if m % 2 else c)
    return out


def _recurrence(degrees: range, beta: float, t) -> np.ndarray:
    """L_k^beta(t) for each k of a range of degrees, and 0 for each k < 0,
    from one recurrence, stacked on a leading axis, each row in the shape
    of t."""
    out = np.zeros((len(degrees),) + np.shape(t))
    prev, cur = 0.0, 1.0
    for k in range(degrees.stop):
        if k == 1:
            prev, cur = cur, beta + 1.0 - t
        elif k:
            prev, cur = cur, ((2 * k - 1 + beta - t) * cur
                              - (k - 1 + beta) * prev) / k
        if k >= degrees.start:
            out[k - degrees.start] = cur
    return out
