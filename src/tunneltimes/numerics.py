"""Generic numerical kernels, in Python floats; the module imports no numpy.

The error base of non-convergence, numpy.linspace's points as floats, and
the bracketed root of a scalar function by bisection.
"""

from __future__ import annotations

import math
from typing import Callable


class NumericalError(RuntimeError):
    """A computation did not converge; the CLI exits with status 2."""


def linspace(a: float, b: float, n: int) -> list[float]:
    """numpy.linspace(a, b, n) as a list of floats, bit for bit.

    Point i is a + i * step, step = (b - a) / (n - 1), in numpy's order
    (a + (i / (n - 1)) (b - a) if the step underflows), and the last is b;
    n = 1 gives a + 0 (b - a).
    """
    div = max(n - 1, 1)
    delta = b - a
    step = delta / div
    if step == 0.0:
        points = [a + i / div * delta for i in range(n)]
    else:
        points = [a + i * step for i in range(n)]
    if n > 1:
        points[-1] = b
    return points


def bisect_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
                xtol: float, rtol: float) -> float:
    """Root of f in [a, b] by bisection, given the end values fa and fb.

    An end whose given value is exactly 0 is returned as it is, and ends of
    one sign bit raise ValueError.  Otherwise the bracket is halved, keeping
    ends of opposite sign bits, until it is narrower than xtol + rtol |m| or
    no float lies between its ends, and its midpoint m is returned.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError("f(a) and f(b) must have different signs")
    m = a + (b - a) / 2
    while abs(b - a) >= xtol + rtol * abs(m) and a != m != b:
        if math.copysign(1.0, f(m)) == math.copysign(1.0, fa):
            a = m
        else:
            b = m
        m = a + (b - a) / 2
    return m
