"""Stationary-state tunneling time definitions and their free baselines.

All quantities are dimensionless (see model).  With alpha = stationary.phase_shift,
compute_times writes each time into one TimesReport row:

    group delay      tau_g  = l/(2 sqrt(eps)) + d(alpha)/d(eps)
    free group time  tau_0  = l/(2 sqrt(eps))
    phase time       t_ph   = alpha/eps + l/sqrt(eps) = atan(g tanh(chi l))/eps
    free phase time  t_free = l/sqrt(eps)
    dwell time       tau_d  = (barrier probability) / (reference current),
                     with the incident current 2 k N^2 (saturating variant)
                     or the transmitted current 2 k N^2 |T|^2 (growing one).

group_delay's closed form sums two nonnegative terms; as chi l -> inf it tends to
hartman_limit = 1/(k chi) = 1/sqrt(eps (u0 - eps)), independent of width.
delay_crossing evaluates it alone, through phase_shift_derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import stationary
from .model import BarrierSpec, require_sub_barrier
from .numerics import NumericalError, bisect_root, linspace


class CrossCheckError(NumericalError):
    """The group delay and the dwell time break Winful's identity."""


# Relative tolerance of the Winful check in compute_times.
WINFUL_TOL = 1e-10


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


def group_delay(barrier: BarrierSpec, eps: float) -> float:
    """Group delay tau_g = l/(2 sqrt(eps)) + d(alpha)/d(eps), in closed form.

    With theta = chi l, q = e^{-2 theta}, 1 - q = -expm1(-2 theta), Q(theta) of
    stationary._q_theta and |denom|^2 = (1 + q)^2 + g^2 (1 - q)^2 (_barrier_kernel),

        tau_g = [u0^2 Q + 4 q theta chi^2 (3k^2 + chi^2)] / (4 k^3 chi^3 |denom|^2):

    two nonnegative terms, which cancel at no theta or eps.  The
    eps-derivative of alpha = -k l + atan(G) (stationary.phase_shift) takes this form by
    1 + G^2 = |denom|^2/(1 + q)^2, 1/cosh^2 theta = 4q/(1 + q)^2 and
    k^2 (k^2 - chi^2) - u0^2 = -chi^2 (3k^2 + chi^2).  As theta -> inf it
    tends to u0^2 / (4 k^3 chi^3 (1 + g^2)) = 1/(k chi), the Hartman plateau.
    """
    require_sub_barrier(barrier.u0, eps)
    k, chi, g = stationary._wavenumbers(barrier.u0, eps, math)
    theta = chi * barrier.l
    if math.isinf(theta):
        raise stationary._theta_overflow(barrier.l, eps)
    return _group_delay(barrier.u0, k, chi, g, theta, stationary._q_theta(theta))


def _group_delay(u0: float, k: float, chi: float, g: float, theta: float, Q: float) -> float:
    """The closed form of group_delay on its k, chi, g, theta and Q(theta)."""
    q = math.exp(-2.0 * theta)
    denom2 = (1.0 + q) ** 2 + (g * math.expm1(-2.0 * theta)) ** 2
    num = u0 * u0 * Q + 4.0 * q * theta * chi * chi * (3.0 * k * k + chi * chi)
    return num / (4.0 * k**3 * chi**3 * denom2)


def phase_shift_derivative(barrier: BarrierSpec, eps: float) -> float:
    """d(alpha)/d(eps) = tau_g - l/(2 sqrt(eps)), from group_delay."""
    return group_delay(barrier, eps) - barrier.l / (2.0 * math.sqrt(eps))


def compute_times(barrier: BarrierSpec, eps: float) -> TimesReport:
    """Evaluate every time definition at one sub-barrier energy.

    One sub-barrier state (stationary._state), N^2, theta and Q(theta) serve
    the row, by the forms of the module docstring and group_delay; no
    ScatteringSolution is built.  Both dwell times divide the one barrier
    probability by the incident and the transmitted current.  The row is
    checked against Winful's identity tau_g = tau_d_in - Im(R)/(2 eps)
    (H. G. Winful, PRL 91, 260401 (2003)): a mismatch beyond WINFUL_TOL of
    |tau_d_in| + |Im(R)/(2 eps)|, floored at the least normal float for
    subnormal widths, raises CrossCheckError.  tau_d_out grows like
    e^{2 chi l} / chi^3; where it overflows, ValueError is raised: from
    chi l ~ 357 at u0 = 8, eps = 4, and from 335 at u0 = 0.1,
    eps = 0.1 (1 - 1e-12), where |T|^2 is still a normal float.
    At l = 0 every time is +0.
    """
    u0, l = barrier.u0, barrier.l
    k, chi, g, T, R, _, D = stationary._state(u0, l, eps)
    N2 = stationary.normalization(eps, math) ** 2
    theta = chi * l
    Q = stationary._q_theta(theta)
    prob = stationary._probability(N2, T, D, chi, l, Q)
    tau_g = _group_delay(u0, k, chi, g, theta, Q)
    tau_d_in = prob / (2.0 * k * N2)
    self_interference = R.imag / (2.0 * eps)
    residual = abs(tau_g - (tau_d_in - self_interference))
    scale = max(abs(tau_d_in) + abs(self_interference), sys.float_info.min)
    if not residual <= WINFUL_TOL * scale:
        raise CrossCheckError(
            f"tau_g {tau_g!r} vs tau_d_in - Im(R)/(2 eps) "
            f"{tau_d_in - self_interference!r} differ by {residual:.3e} "
            f"at eps={eps}, l={l}")
    j_out = 2.0 * k * N2 * abs(T) ** 2
    if not (j_out > 0.0 and math.isfinite(prob / j_out)):
        raise ValueError(
            f"tau_d_out is not finite at l = {l}, eps = {eps}: the barrier "
            f"probability {prob:.6g} over the transmitted current {j_out:.6g} "
            f"overflows at chi l = {theta:.6g}")
    # + 0.0 keeps t_ph = +0 at l = 0, where g < 0 gives -0
    return TimesReport(
        eps=eps, l=l, tau_g=tau_g, tau_0=l / (2.0 * k),
        t_ph=math.atan(g * math.tanh(theta)) / eps + 0.0, t_free=l / k,
        tau_d_in=tau_d_in, tau_d_out=prob / j_out,
        hartman_limit=1.0 / math.sqrt(eps * (u0 - eps)))


# Energies at which delay_crossing samples d(alpha)/d(eps) for a sign change.
CROSSING_SCAN = 400


def _sign(x: float) -> float:
    """numpy.sign of a float: -1, 0 or 1, and NaN for NaN."""
    return (x > 0.0) - (x < 0.0) if x == x else x


def delay_crossing(u0: float, l: float, eps_lo: float, eps_hi: float) -> float | None:
    """Energy where tau_g(eps) = tau_0(eps), i.e. d(alpha)/d(eps) = 0.

    Scans [eps_lo, eps_hi] at CROSSING_SCAN energies, numerics.linspace's
    points, for the first change of sign, in which 0 counts as a sign of its
    own, and bisects that bracket (numerics.bisect_root) to xtol = 1e-13 and
    rtol = 1e-14, from the scanned values at its ends: a grid point whose
    value is exactly 0 is returned as it is.
    Returns None when no crossing lies in the range.  For opaque barriers the
    root sits near u0 - 4/l^2, approaching the barrier top as l grows.
    """
    barrier = BarrierSpec(u0, l)
    if not (0.0 < eps_lo < eps_hi < u0):
        raise ValueError("need 0 < eps_lo < eps_hi < u0")
    grid = linspace(eps_lo, eps_hi, CROSSING_SCAN)
    a, fa = eps_lo, phase_shift_derivative(barrier, eps_lo)
    for b in grid[1:]:
        fb = phase_shift_derivative(barrier, b)
        if _sign(fb) != _sign(fa):
            return bisect_root(lambda e: phase_shift_derivative(barrier, e),
                               a, b, fa, fb, xtol=1e-13, rtol=1e-14)
        a, fa = b, fb
    return None
