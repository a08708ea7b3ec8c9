"""Truncated Taylor-series arithmetic (jets).

A ``Jet`` holds the Taylor coefficients of a smooth function about a point:
``coeffs[k]`` is ``f^(k)(x0) / k!``.  All arithmetic follows the truncated
power-series rules exactly, which makes jets a drop-in substitute for symbolic
differentiation everywhere a derivative of a coefficient function is needed.

Jet arithmetic serves the x-chart operator products (``potentials``' x
chart, ``diffop`` and ``verify``'s factorization and intertwining rows).
The half-line chart z is closed-form: ``potentials.w_of_z_jet`` and the
``spectrum`` states build their coefficients as plain array expressions
and hand them over in a ``Jet``, the container their callers read
(``.value``, ``.derivative``, ``.shift``, ``.truncate``).

A coefficient is a Python float, or an ndarray holding the coefficient at
every point of a grid of any shape: the same arithmetic then evaluates a
formula on the whole grid at once.  numpy's element-wise ``+ - * /`` round
exactly like Python floats, so each element equals the one-point value bit
for bit; a square is written q * q.
Powers, ``exp`` and ``log`` are the exception: Python's ``float ** p`` and
``math.exp``/``math.log`` are libm calls, which numpy's ``**``, ``np.exp``
and ``np.log`` differ from in the last bit for some x, so they reach a grid
through ``elementwise`` (``Jet.exp``, ``Jet.log`` and real powers do so
themselves).  A float coefficient stays a float: the scalar path
calls no numpy function.  numpy warns where Python float arithmetic
overflows to inf in silence, so a caller runs grid arithmetic under
``np.errstate(all="ignore")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# what a jet takes as a constant: a number, or a grid of them
_SCALAR = (int, float, np.ndarray)


def any_zero(v) -> bool:
    """Whether a value, or any element of a grid of values, is zero."""
    if isinstance(v, np.ndarray):
        return bool((v == 0.0).any())
    return v == 0.0


def any_nonpositive(v) -> bool:
    """Whether a value, or any element of a grid of values, is <= 0."""
    if isinstance(v, np.ndarray):
        return bool((v <= 0.0).any())
    return v <= 0.0


def elementwise(fn, v):
    """``fn`` of a float, or of each element of an ndarray of any shape as a
    Python float, in the array's shape.

    A libm function (``math.exp``, ``lambda t: t ** 4``) stays bit for bit
    the one-point value on a grid, and an error it raises (an overflowing
    ``**`` or ``math.exp``) is raised at the first element, in C order, that
    meets it.
    """
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.ravel().tolist()), float,
                           v.size).reshape(v.shape)
    return fn(v)


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients ``(c0, c1, ..., cK)`` of a function at a point,
    or at every point of a grid (array coefficients)."""

    coeffs: tuple

    # numpy defers ``ndarray op Jet`` to the Jet's reflected operator
    __array_ufunc__ = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def variable(x, order: int) -> "Jet":
        """Jet of the identity function at x (a float or a grid)."""
        c = [0.0] * (order + 1)
        c[0] = x if isinstance(x, np.ndarray) else float(x)
        if order >= 1:
            c[1] = 1.0
        return Jet(tuple(c))

    @staticmethod
    def const(v, order: int) -> "Jet":
        """Jet of the constant v (a float or a grid)."""
        c = [0.0] * (order + 1)
        c[0] = v if isinstance(v, np.ndarray) else float(v)
        return Jet(tuple(c))

    # -- accessors -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k: int = 1):
        """k-th derivative of the underlying function at the base point."""
        if k > self.order:
            raise IndexError(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs[k] * math.factorial(k)

    def truncate(self, order: int) -> "Jet":
        """The jet to a lower ``order``: in truncated arithmetic coefficient
        k comes from coefficients <= k alone, so these are the coefficients
        an evaluation to ``order`` gives, bit for bit."""
        return Jet(self.coeffs[:order + 1])

    def shift(self, m: int) -> "Jet":
        """Jet of the m-th derivative (loses m orders of Taylor data)."""
        if m == 0:
            return self
        if m > self.order:
            raise IndexError(f"jet of order {self.order} cannot shift by {m}")
        c = [
            self.coeffs[i + m] * math.factorial(i + m) / math.factorial(i)
            for i in range(len(self.coeffs) - m)
        ]
        return Jet(tuple(c))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            return other
        if isinstance(other, _SCALAR):
            return Jet.const(other, self.order)
        return None

    def __add__(self, other):
        if isinstance(other, _SCALAR):
            return Jet((self.coeffs[0] + other,) + self.coeffs[1:])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return Jet(tuple(self.coeffs[i] + o.coeffs[i] for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, _SCALAR):
            return Jet((self.coeffs[0] - other,) + self.coeffs[1:])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(len(self.coeffs), len(o.coeffs))
        return Jet(tuple(self.coeffs[i] - o.coeffs[i] for i in range(n)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _SCALAR):
            return Jet(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Jet):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = []
        for i in range(min(len(a), len(b))):
            s = a[0] * b[i]
            for j in range(1, i + 1):
                s = s + a[j] * b[i - j]
            out.append(s)
        return Jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALAR):
            return self * (1.0 / other)
        if not isinstance(other, Jet):
            return NotImplemented
        b0 = other.coeffs[0]
        if any_zero(b0):
            raise DomainError("jet division by a jet with zero value")
        n = min(len(self.coeffs), len(other.coeffs))
        out = [0.0] * n
        for i in range(n):
            s = self.coeffs[i]
            for j in range(1, i + 1):
                # not -=: s may be an array coefficient of self
                s = s - other.coeffs[j] * out[i - j]
            out[i] = s / b0
        return Jet(tuple(out))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, p):
        if isinstance(p, int):
            if p == 0:
                return Jet.const(1.0, self.order)
            if p < 0:
                return 1.0 / (self ** (-p))
            r = self
            for _ in range(p - 1):
                r = r * self
            return r
        return self.power(float(p))

    # -- elementary functions --------------------------------------------

    def exp(self) -> "Jet":
        n = len(self.coeffs)
        out = [0.0] * n
        out[0] = elementwise(math.exp, self.coeffs[0])
        # e' = a' e  =>  (k+1) e_{k+1} = sum_{j} (j+1) a_{j+1} e_{k-j}
        for k in range(n - 1):
            s = 0.0
            for j in range(k + 1):
                s += (j + 1) * self.coeffs[j + 1] * out[k - j]
            out[k + 1] = s / (k + 1)
        return Jet(tuple(out))

    def log(self) -> "Jet":
        if any_nonpositive(self.coeffs[0]):
            raise DomainError("jet log of non-positive value")
        n = len(self.coeffs)
        out = [0.0] * n
        out[0] = elementwise(math.log, self.coeffs[0])
        if n > 1:
            q = self.shift(1) / Jet(self.coeffs[:-1])  # a'/a, order n-2
            for k in range(1, n):
                out[k] = q.coeffs[k - 1] / k
        return Jet(tuple(out))

    def power(self, p: float) -> "Jet":
        """Real power; requires a positive value at the base point."""
        if any_nonpositive(self.coeffs[0]):
            raise DomainError("jet real power of non-positive value")
        return (self.log() * p).exp()

    def sqrt(self) -> "Jet":
        return self.power(0.5)
