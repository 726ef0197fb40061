"""Generic numerical kernels.

Elementary functions chosen for the input type, composite Gauss-Legendre
panel grids, detection of uniform sample grids, and Brent's bracketed root
of a scalar function.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np


class Elementary(NamedTuple):
    """The elementary functions a closed form is written against."""

    sqrt: Callable
    exp: Callable
    expm1: Callable


# The closed forms that stationary evaluates at one energy and wavepacket
# on its energy nodes: one value runs on Python floats through math, which
# costs a fraction of numpy's per-call dispatch on a scalar; an array runs
# through numpy.  sqrt rounds correctly in both, so only exp and expm1 may
# differ in the last bit between the two.
_SCALAR = Elementary(math.sqrt, math.exp, math.expm1)
_ARRAY = Elementary(np.sqrt, np.exp, np.expm1)


def elementary(x) -> Elementary:
    """numpy's functions for an array x of one or more dimensions (the energy
    nodes of wavepacket), else math's (one energy)."""
    return _ARRAY if isinstance(x, np.ndarray) and x.ndim else _SCALAR


@functools.lru_cache(maxsize=8)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def gauss_legendre_panels(a: float, b: float, n_panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    The interval is split into n_panels equal panels with an order-point
    rule on each; returns (nodes, weights) with nodes strictly inside (a, b).
    """
    if not a < b:
        raise ValueError("need a < b")
    if n_panels < 1 or order < 2:
        raise ValueError("need n_panels >= 1 and order >= 2")
    xs, ws = _legendre_rule(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def uniform_step(times) -> float | None:
    """Step dt of a uniform grid t_m = t_0 + m dt, or None if times is not one.

    A grid is uniform when every sample lies within 8 ulp(max |t|) of
    t_0 + m dt, with dt = (t_last - t_0) / (n - 1) > 0.  Comparing positions
    rather than consecutive differences accepts np.linspace grids whose
    rounded steps differ by far more than 1e-12 relative when the step is
    small against |t|.  Grids of two points or fewer are never uniform.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 3:
        return None
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if not dt > 0.0:
        return None
    deviation = np.max(np.abs(t - (t[0] + np.arange(len(t)) * dt)))
    if deviation <= 8.0 * np.spacing(np.max(np.abs(t))):
        return float(dt)
    return None


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
