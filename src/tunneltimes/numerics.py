"""Generic numerical kernels.

Central-difference differentiation with Richardson extrapolation, parabolic
sub-grid peak refinement, composite Gauss-Legendre panel grids, and
detection of uniform sample grids.
"""

from __future__ import annotations

import numpy as np


class StencilError(ValueError):
    """A finite-difference stencil would leave the function's domain."""


class EdgeMaximumError(ValueError):
    """The discrete maximum sits on the grid edge; extend the grid."""


def differentiate(f, x: float, h0: float | None = None,
                  bounds: tuple[float, float] | None = None):
    """First derivative of f at x by central differences + Richardson.

    Three step sizes h0, h0/2, h0/4 are combined to sixth order; returns
    (derivative, error_estimate).  h0 defaults to 1e-3 * max(1, |x|), which
    balances truncation against roundoff in double precision.  If bounds are
    given and x +/- h0 would leave the open interval, raises StencilError.
    """
    if h0 is None:
        h0 = 1e-3 * max(1.0, abs(x))
    if not h0 > 0.0:
        raise ValueError("h0 must be positive")
    if bounds is not None:
        lo, hi = bounds
        if not (lo < x - h0 and x + h0 < hi):
            raise StencilError(
                f"stencil [{x - h0}, {x + h0}] leaves the domain ({lo}, {hi})"
            )
    d = []
    h = h0
    for _ in range(3):
        d.append((f(x + h) - f(x - h)) / (2.0 * h))
        h /= 2.0
    # Richardson: error orders h^2, h^4
    d01 = (4.0 * d[1] - d[0]) / 3.0
    d12 = (4.0 * d[2] - d[1]) / 3.0
    best = (16.0 * d12 - d01) / 15.0
    return best, abs(best - d12) + abs(best) * 1e-14


def refine_max(nodes, values):
    """Sub-grid maximum by parabolic interpolation through the discrete argmax.

    Returns (x_star, v_star).  Requires at least 3 nodes and an interior
    discrete maximum; raises EdgeMaximumError otherwise so the caller can
    extend the grid.
    """
    t = np.asarray(nodes, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 3 or len(t) != len(v):
        raise ValueError("need at least 3 nodes with matching values")
    i = int(np.argmax(v))
    if i == 0 or i == len(t) - 1:
        raise EdgeMaximumError(
            f"maximum at grid edge (index {i}); extend the grid"
        )
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    v0, v1, v2 = v[i - 1], v[i], v[i + 1]
    # vertex of the parabola through the three bracketing samples
    denom = (t1 - t0) * (v1 - v2) - (t1 - t2) * (v1 - v0)
    if denom == 0.0:
        return float(t1), float(v1)
    shift = 0.5 * ((t1 - t0) ** 2 * (v1 - v2) - (t1 - t2) ** 2 * (v1 - v0)) / denom
    x_star = t1 - shift
    x_star = min(max(x_star, t0), t2)
    # evaluate the same parabola at its vertex
    la = (x_star - t1) * (x_star - t2) / ((t0 - t1) * (t0 - t2))
    lb = (x_star - t0) * (x_star - t2) / ((t1 - t0) * (t1 - t2))
    lc = (x_star - t0) * (x_star - t1) / ((t2 - t0) * (t2 - t1))
    return float(x_star), float(la * v0 + lb * v1 + lc * v2)


def gauss_legendre_panels(a: float, b: float, n_panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    The interval is split into n_panels equal panels with an order-point
    rule on each; returns (nodes, weights) with nodes strictly inside (a, b).
    """
    if not a < b:
        raise ValueError("need a < b")
    if n_panels < 1 or order < 2:
        raise ValueError("need n_panels >= 1 and order >= 2")
    xs, ws = np.polynomial.legendre.leggauss(order)
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
