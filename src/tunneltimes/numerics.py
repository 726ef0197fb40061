"""Generic numerical kernels.

Adaptive Simpson quadrature with per-subinterval error control, central-
difference differentiation with Richardson extrapolation, continuous phase
tracking of complex sample sequences, parabolic sub-grid peak refinement,
composite Gauss-Legendre panel grids, and detection of uniform sample grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit its recursion bound without converging."""


class StencilError(ValueError):
    """A finite-difference stencil would leave the function's domain."""


class PhaseJumpError(ValueError):
    """Adjacent samples differ in phase by >= pi; finer sampling is needed."""

    def __init__(self, index: int, step: float):
        self.index = index
        self.step = step
        super().__init__(
            f"phase step {step:.6f} rad at sample {index} is not below pi; "
            "refine the sweep"
        )


class EdgeMaximumError(ValueError):
    """The discrete maximum sits on the grid edge; extend the grid."""


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 50

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class GridFunction:
    """Function samples on an ascending grid, with quadrature weights."""

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) != len(self.values) or len(nodes) != len(self.weights):
            raise ValueError("nodes, values and weights must be 1-d and equal length")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def from_function(cls, f, nodes: np.ndarray, weights: np.ndarray) -> "GridFunction":
        return cls(np.asarray(nodes, float), np.asarray(f(np.asarray(nodes, float))),
                   np.asarray(weights, float))

    def integral(self):
        return np.sum(self.weights * self.values)


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f, a: float, b: float, settings: QuadratureSettings | None = None):
    """Adaptive Simpson integration of f (real or complex) over [a, b].

    Returns (value, error_estimate).  Each subinterval is accepted when the
    two-panel vs one-panel Simpson discrepancy meets the local tolerance; the
    accepted value includes the standard 1/15 extrapolation and the reported
    estimate is a conservative sum of the local discrepancies.  Raises
    QuadratureError if max_depth is reached with an unconverged subinterval.
    """
    if settings is None:
        settings = QuadratureSettings()
    if not a < b:
        raise ValueError("integration requires a < b")
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)

    # first Simpson value sets the scale for the relative tolerance
    scale = max(abs(whole), 1e-300)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or abs(delta) <= 15.0 * settings.rel_tol * scale:
            return left + right + delta / 15.0, abs(delta) / 15.0 + 1e-16 * abs(left + right)
        if depth >= settings.max_depth:
            raise QuadratureError(
                f"no convergence on [{a}, {b}] at depth {depth}: "
                f"local discrepancy {abs(delta):.3e} exceeds tolerance {15.0 * tol:.3e}"
            )
        v1, e1 = recurse(a, fa, lm, flm, m, fm, left, tol / 2.0, depth + 1)
        v2, e2 = recurse(m, fm, rm, frm, b, fb, right, tol / 2.0, depth + 1)
        return v1 + v2, e1 + e2

    value, err = recurse(a, fa, m, fm, b, fb, whole, settings.abs_tol, 0)
    # safety margin keeps the estimate conservative on smooth integrands
    return value, 4.0 * err + abs(value) * 8e-16


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


def continuous_phase(samples) -> np.ndarray:
    """Branch-continuous phase of a sequence of complex samples.

    The output starts at the principal argument of the first sample and each
    consecutive step is the wrapped phase difference, so adjacent outputs
    differ by less than pi and the whole track differs from the principal
    argument only by integer multiples of 2*pi.  Raises PhaseJumpError if a
    step reaches pi (the branch would be ambiguous).
    """
    z = np.asarray(samples, dtype=complex)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError("samples must be a non-empty 1-d sequence")
    if np.any(z == 0):
        raise ValueError("zero sample has undefined phase")
    steps = np.angle(z[1:] * np.conj(z[:-1]))
    too_big = np.abs(steps) >= np.pi * (1.0 - 1e-12)
    if np.any(too_big):
        i = int(np.argmax(too_big))
        raise PhaseJumpError(i + 1, float(steps[i]))
    out = np.empty(len(z))
    out[0] = np.angle(z[0])
    out[1:] = out[0] + np.cumsum(steps)
    return out


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
