"""Special functions used by the oscillator hierarchy.

Every closed-form state is evaluated through ``laguerre``, the associated
Laguerre polynomial by its three-term recurrence, on a float or ndarray
argument, for a range of degrees: one recurrence gives every degree of a
ladder at once, so a state's ladder is one call (one degree k is the
range(k, k + 1)), and a column of parameters gives the ladders of several
parameters at once (the states' derivatives read L_(n-j)^(alpha+j), since
d/dt L_n^alpha = -L_(n-1)^(alpha+1)).  ``kummer``, the terminating series 1F1(-n; g; y), is a
cross-check reference for the tests only (its alternating terms cancel
catastrophically once n passes about 20; 1F1(-n; g; y) = n!/(g)_n
L_n^(g-1)(y), DLMF 13.6.19); it stays in the package while
``perfbench/tracing.py`` wraps it by name.  The Gamma ratios of the closed
forms use ``math.lgamma`` directly.
"""

from __future__ import annotations

import numpy as np


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


def laguerre(n: range, beta, t) -> np.ndarray:
    """Associated Laguerre L_k^beta(t) for each degree k of the range n, via
    the stable three-term recurrence: one recurrence gives every row, stacked
    on a new leading axis (the degrees below the range are run and dropped),
    each row in the shape of beta and t broadcast together.

    n is a range of degrees as ``check_degrees`` takes it.  t is a float, or
    an ndarray of them, and beta a float, or an ndarray of parameters that
    broadcasts against t (one recurrence for several parameters): the
    recurrence's + - * / then run on every element at once, each bit for
    bit its float value.
    """
    check_degrees(n)
    out = np.zeros((len(n),) + np.broadcast_shapes(np.shape(beta),
                                                   np.shape(t)))
    prev, cur = 0.0, 1.0
    for k in range(n.stop):
        if k == 1:
            prev, cur = cur, beta + 1.0 - t
        elif k:
            prev, cur = cur, ((2 * k - 1 + beta - t) * cur
                              - (k - 1 + beta) * prev) / k
        if k >= n.start:
            out[k - n.start] = cur
    return out
