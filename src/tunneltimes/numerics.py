"""Generic numerical kernels.

Elementary functions chosen for the input type, composite Gauss-Legendre
panel grids, and detection of uniform sample grids.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, NamedTuple

import numpy as np


class Elementary(NamedTuple):
    """The elementary functions a closed form is written against."""

    sqrt: Callable
    exp: Callable
    expm1: Callable
    tanh: Callable
    cexp: Callable  # complex exponential


# One value runs on Python floats through math and cmath, which cost a
# fraction of numpy's per-call dispatch on a scalar; an array runs through
# numpy.  sqrt rounds correctly in both, so only the transcendental
# functions may differ in the last bit between the two.
_SCALAR = Elementary(math.sqrt, math.exp, math.expm1, math.tanh, cmath.exp)
_ARRAY = Elementary(np.sqrt, np.exp, np.expm1, np.tanh, np.exp)


def elementary(x) -> Elementary:
    """numpy's functions for an array x of one or more dimensions, else math's."""
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
