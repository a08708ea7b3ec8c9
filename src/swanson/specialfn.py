"""Special functions used by the oscillator hierarchy.

Every closed-form state is evaluated through ``laguerre``, the associated
Laguerre polynomial by its three-term recurrence, on a float or ndarray
argument, for a range of degrees: one recurrence gives every degree of a
ladder at once, so a state's ladder is one call (one degree k is the
range(k, k + 1)), and a column of parameters gives the ladders of several
parameters at once (the states' derivatives read L_(n-j)^(alpha+j), since
d/dt L_n^alpha = -L_(n-1)^(alpha+1)).  The recurrence forms its
per-degree rows 2k - 1 + beta - t and k - 1 + beta once per block of
degrees, in a bounded number of elements, and each value it gives is bit
for bit the one-point value.  ``kummer``, the terminating series
1F1(-n; g; y), is a cross-check reference for the tests only (its
alternating terms cancel catastrophically once n passes about 20;
1F1(-n; g; y) = n!/(g)_n L_n^(g-1)(y), DLMF 13.6.19); it stays in the
package while ``perfbench/tracing.py`` wraps it by name.  The Gamma ratios
of the closed forms use ``math.lgamma`` directly.
"""

from __future__ import annotations

import math

import numpy as np


def kummer(n: int, gamma: float, y):
    """1F1(-n; gamma; y) by the finite sum with a running-term recurrence.

    Works for a float or an ndarray y, or any y with float arithmetic
    (the tests take derivatives through a ``Jet``).
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


# laguerre forms the rows of up to _BLOCK degrees at once, and of fewer where
# a row holds more than _ROW_ELEMENTS / _BLOCK elements, so that a block's
# memory stays bounded on a long grid of points
_BLOCK = 64
_ROW_ELEMENTS = 1 << 16


def laguerre(n: range, beta, t) -> np.ndarray:
    """Associated Laguerre L_k^beta(t) for each degree k of the range n, via
    the stable three-term recurrence: one recurrence gives every row, stacked
    on a new leading axis (the degrees below the range are run and dropped),
    each row in the shape of beta and t broadcast together.

    n is a range of degrees as ``check_degrees`` takes it.  t is a float, or
    an ndarray of them, and beta a float, or an ndarray of parameters that
    broadcasts against t (one recurrence for several parameters).  The
    per-degree rows 2k - 1 + beta - t and k - 1 + beta are formed once per
    block of degrees, so that a step is (row * L_(k-1) - row * L_(k-2)) / k;
    every value is bit for bit the one the recurrence gives at one point,
    since each row runs the same + - * / in the same order.
    """
    check_degrees(n)
    shape = np.broadcast_shapes(np.shape(beta), np.shape(t))
    out = np.zeros((len(n),) + shape)
    prev, cur = 0.0, 1.0
    if n.start == 0:
        out[0] = cur
    if n.stop > 1:
        prev, cur = cur, beta + 1.0 - t
        if n.start <= 1:
            out[1 - n.start] = cur
    column = (-1,) + (1,) * len(shape)
    block = max(1, min(_BLOCK, _ROW_ELEMENTS // max(1, math.prod(shape))))
    for lo in range(2, n.stop, block):
        ks = range(lo, min(lo + block, n.stop))
        a = (np.arange(2 * lo - 1, 2 * ks.stop - 1, 2).reshape(column)
             + beta) - t
        b = np.arange(lo - 1, ks.stop - 1).reshape(column) + beta
        for k, ak, bk in zip(ks, a, b):
            prev, cur = cur, (ak * cur - bk * prev) / k
            if k >= n.start:
                out[k - n.start] = cur
    return out
