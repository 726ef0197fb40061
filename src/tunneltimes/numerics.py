"""Generic numerical kernels.

Brent's bracketed root of a scalar function, in Python floats; the module
imports no numpy.
"""

from __future__ import annotations

import math
from typing import Callable


# Iterations brent_root may take before it gives up (brentq's maxiter).
BRENT_MAX_ITER = 100


def brent_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float,
               xtol: float, rtol: float) -> float:
    """Root of f in [a, b] by Brent's method, given the end values fa and fb.

    A port of scipy.optimize.brentq (scipy/optimize/Zeros/brentq.c; R. P.
    Brent, Algorithms for Minimization without Derivatives, 1973) with its
    float operations in their order, so the root is bit for bit brentq's.
    An end whose given value is exactly 0 is returned as it is; ends of one
    sign bit raise ValueError, and no convergence to xtol + rtol |x| in
    BRENT_MAX_ITER iterations raises RuntimeError.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAX_ITER} iterations; "
                       f"the last point is {xcur!r}")
