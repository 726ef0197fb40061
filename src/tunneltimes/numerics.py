"""Generic numerical kernels.

The bracketed root of a scalar function by bisection, in Python floats; the
module imports no numpy.
"""

from __future__ import annotations

import math
from typing import Callable


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
