"""Stationary-state tunneling time definitions and their free baselines.

All quantities are dimensionless (see model).  With the transmission phase
alpha = -k l + atan(G), G = g tanh(chi l), g = (k^2 - chi^2)/(2 k chi):

    group delay      tau_g  = l/(2 sqrt(eps)) + d(alpha)/d(eps)
    free group time  tau_0  = l/(2 sqrt(eps))
    phase time       t_ph   = alpha/eps + l/sqrt(eps)
    free phase time  t_free = l/sqrt(eps)
    dwell time       tau_d  = (barrier probability) / (reference current),
                     with the incident current 2 k N^2 (saturating variant)
                     or the transmitted current 2 k N^2 |T|^2 (growing one).

The opaque-barrier asymptote of tau_g is 1/(k chi) = 1/sqrt(eps (u0 - eps)),
independent of width.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics, stationary
from .model import BarrierSpec, require_sub_barrier


class CrossCheckError(RuntimeError):
    """Analytic and finite-difference phase derivatives disagree."""


@dataclass(frozen=True)
class TimesReport:
    """All time definitions evaluated at one (eps, l) point."""

    eps: float
    l: float
    tau_g: float
    tau_0: float
    t_ph: float
    t_free: float
    tau_d_in: float
    tau_d_out: float
    hartman_limit: float


def _tanh_minus_theta(theta):
    """tanh(theta) - theta without cancellation for small theta."""
    theta = np.asarray(theta, dtype=float)
    t3 = theta**3
    series = t3 * (-1.0 / 3.0 + theta**2 * (2.0 / 15.0 + theta**2 * (
        -17.0 / 315.0 + theta**2 * (62.0 / 2835.0))))
    direct = np.tanh(theta) - theta
    out = np.where(np.abs(theta) < 0.05, series, direct)
    return out if out.ndim else float(out)


def phase_shift_derivative(barrier: BarrierSpec, eps):
    """d(alpha)/d(eps), analytic and stable over the whole sub-barrier range.

    Writing theta = chi l, the derivative of G = g tanh(theta) is

      dG/deps = [u0^2 (tanh th - th) + th chi^2 (3k^2 + chi^2)
                 + k^2 (k^2 - chi^2) th tanh^2 th] / (4 k^3 chi^3),

    a grouping in which the three numerator terms are individually O(chi^3),
    so nothing is lost to cancellation as eps -> u0.  Then
    d(alpha)/d(eps) = -l/(2k) + (dG/deps)/(1 + G^2).
    """
    eps = np.asarray(eps, dtype=float)
    u0, l = barrier.u0, barrier.l
    require_sub_barrier(u0, eps)
    k = np.sqrt(eps)
    chi = np.sqrt(u0 - eps)
    theta = chi * l
    tanh = np.tanh(theta)
    G = (k * k - chi * chi) / (2.0 * k * chi) * tanh
    num = (
        u0 * u0 * _tanh_minus_theta(theta)
        + theta * chi * chi * (3.0 * k * k + chi * chi)
        + k * k * (k * k - chi * chi) * theta * tanh * tanh
    )
    dG = num / (4.0 * k**3 * chi**3)
    out = -l / (2.0 * k) + dG / (1.0 + G * G)
    return out if out.ndim else float(out)


def free_group_time(eps: float, l: float) -> float:
    """Free flight over distance l at group velocity 2 sqrt(eps)."""
    if not eps > 0.0:
        raise ValueError("energy must be positive")
    return l / (2.0 * math.sqrt(eps))


def free_phase_time(eps: float, l: float) -> float:
    """Wavefront transit over distance l at phase velocity sqrt(eps)."""
    if not eps > 0.0:
        raise ValueError("energy must be positive")
    return l / math.sqrt(eps)


def group_delay(barrier: BarrierSpec, eps: float, verify: bool | None = None,
                check_tol: float = 1e-8) -> float:
    """Group delay tau_g = l/(2 sqrt(eps)) + d(alpha)/d(eps).

    The derivative is evaluated analytically.  When verify is True (or None
    and the finite-difference stencil fits inside (0, u0)), a Richardson
    central difference of the phase cross-checks the analytic value; a
    mismatch beyond check_tol raises CrossCheckError.  Near the barrier top
    the stencil cannot fit and the analytic path is used alone.
    """
    analytic = free_group_time(eps, barrier.l) + phase_shift_derivative(barrier, eps)
    # the phase varies on the scale of chi^2 = u0 - eps near the top, so the
    # stencil must shrink with the distance to the edge
    h0 = min(1e-3 * max(1.0, abs(eps)), 0.1 * (barrier.u0 - eps), 0.25 * eps)
    sensible = h0 >= 1e-7 * max(1.0, eps)
    if verify is None:
        verify = sensible
    if verify:
        if not sensible:
            warnings.warn(
                f"cross-check skipped at eps = {eps}: no usable stencil below "
                f"u0 = {barrier.u0}; analytic value returned unverified",
                RuntimeWarning, stacklevel=2)
            return analytic
        num, _ = numerics.differentiate(
            lambda e: stationary.phase_shift(barrier, e), eps, h0=h0,
            bounds=(0.0, barrier.u0),
        )
        numeric = free_group_time(eps, barrier.l) + num
        if abs(numeric - analytic) > check_tol:
            raise CrossCheckError(
                f"analytic tau_g {analytic!r} vs finite-difference {numeric!r} "
                f"differ by {abs(numeric - analytic):.3e} at eps={eps}, l={barrier.l}"
            )
    return analytic


def phase_time(barrier: BarrierSpec, eps: float) -> float:
    """Phase time t_ph = alpha/eps + l/sqrt(eps) of a fixed wavefront."""
    return stationary.phase_shift(barrier, eps) / eps + free_phase_time(eps, barrier.l)


def dwell_time_incident(barrier: BarrierSpec, eps: float) -> float:
    """Dwell time with the incident current as reference; saturates in l.

    The normalization constant cancels between the barrier probability and
    j_in = 2 k N^2.
    """
    sol = stationary.solve(barrier, eps)
    return stationary.barrier_probability(sol) / stationary.incident_current(sol)


def dwell_time_transmitted(barrier: BarrierSpec, eps: float) -> float:
    """Dwell time with the transmitted (full) current as reference.

    Equals the incident-current dwell time divided by |T|^2 and grows like
    e^{2 chi l} for opaque barriers instead of saturating.
    """
    sol = stationary.solve(barrier, eps)
    return stationary.barrier_probability(sol) / stationary.transmitted_current(sol)


def hartman_limit(u0: float, eps: float) -> float:
    """Opaque-barrier group delay asymptote 1/sqrt(eps (u0 - eps))."""
    if eps == u0:
        raise ValueError("asymptote diverges as eps -> u0")
    require_sub_barrier(u0, eps)
    return 1.0 / math.sqrt(eps * (u0 - eps))


def compute_times(barrier: BarrierSpec, eps: float, verify: bool | None = None) -> TimesReport:
    """Evaluate every time definition at one sub-barrier energy."""
    if barrier.l == 0.0:
        return TimesReport(
            eps=eps, l=0.0, tau_g=0.0, tau_0=0.0, t_ph=0.0, t_free=0.0,
            tau_d_in=0.0, tau_d_out=0.0,
            hartman_limit=hartman_limit(barrier.u0, eps),
        )
    return TimesReport(
        eps=eps,
        l=barrier.l,
        tau_g=group_delay(barrier, eps, verify=verify),
        tau_0=free_group_time(eps, barrier.l),
        t_ph=phase_time(barrier, eps),
        t_free=free_phase_time(eps, barrier.l),
        tau_d_in=dwell_time_incident(barrier, eps),
        tau_d_out=dwell_time_transmitted(barrier, eps),
        hartman_limit=hartman_limit(barrier.u0, eps),
    )


def delay_crossing(u0: float, l: float, eps_lo: float, eps_hi: float,
                   n_scan: int = 400) -> float | None:
    """Energy where tau_g(eps) = tau_0(eps), i.e. d(alpha)/d(eps) = 0.

    Scans [eps_lo, eps_hi] for a sign change and bisects it to high accuracy.
    Returns None when no crossing lies in the range.  For opaque barriers the
    root sits near u0 - 4/l^2, approaching the barrier top as l grows.
    """
    from scipy.optimize import brentq

    barrier = BarrierSpec(u0, l)
    if not (0.0 < eps_lo < eps_hi < u0):
        raise ValueError("need 0 < eps_lo < eps_hi < u0")
    grid = np.linspace(eps_lo, eps_hi, n_scan)
    vals = phase_shift_derivative(barrier, grid)
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        return None
    i = int(sign_change[0])
    f = lambda e: phase_shift_derivative(barrier, e)
    return float(brentq(f, grid[i], grid[i + 1], xtol=1e-13, rtol=1e-14))
