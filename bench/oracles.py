"""Independent correctness checks for every output row.

The oracles rebuild each quantity from textbook forms, not from the
package's own formulas:

- amplitudes from the cosh/sinh transfer form (the package uses a scaled
  form that never exponentiates +chi*l);
- Winful's identity tau_g = tau_d_in - Im(R)/(2 eps) (H. G. Winful, Phys.
  Rev. Lett. 91, 260401 (2003)), which ties the phase-derivative code to the
  barrier-probability code;
- packet overlaps f(eps) by scipy.integrate.quad of the overlap integral,
  and the closed form of the envelope transform rewritten as three
  exponential integrals;
- psi(x, t) by a direct sum of exp(-i eps t) over the energy grid, not a
  running phase, for the arrival maximum and the first moment;
- the spectrum's Parseval error against the k-window truncation it must
  equal, estimated from the textbook boundary values.

Each check keeps its worst residual, its tolerance and how many rows it
failed, so the margin is printed next to the verdict.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TOL = {
    "winful": 1e-10,          # relative to |tau_d_in| + |Im R / (2 eps)|
    "flux": 1e-12,            # | |T|^2 + |R|^2 - 1 |
    "amplitudes": 1e-10,      # |T - T_ref| + |R - R_ref|
    "free_times": 1e-13,      # tau_0, t_free, hartman_limit, relative
    "dwell_ratio": 1e-10,     # tau_d_out |T|^2 = tau_d_in, relative
    "crossing": 1e-6,         # |d alpha / d eps| / tau_0 at the crossing
    "spectrum_parseval": 1e-3,  # Parseval error not explained by truncation
    "spectrum_ratio": 1.0,    # W_minus / W_plus; right-movers dominate
    "spectrum_flag": 0.0,     # flag set iff the truncated share exceeds 1 %
    "t_in": 1e-6,             # free arrival vs direct-sum maximum
    "t_arr": 1e-6,            # arrival vs direct-sum maximum
    "peak_density": 1e-6,     # relative
    "f_closed": 1e-9,         # |f - f_ref| / max |f_ref| over the grid
    "f_quad": 1e-9,           # same, at seeded nodes, f_ref by quad
    "captured_weight": 1e-9,  # relative
    "t_mean": 1e-9,           # relative to the direct-sum first moment
    "cli_vs_library": 1e-11,  # CSV value vs in-process value, relative
    "rerun_identical": 0.0,   # CSV bytes differ between reruns
}


class Checks:
    """Worst residual and failure count per check."""

    def __init__(self):
        self.worst: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.failed: dict[str, int] = {}

    def record(self, name: str, residual: float) -> bool:
        residual = float(residual)
        ok = residual <= TOL[name]  # NaN fails
        prev = self.worst.get(name)
        if prev is None or not residual <= prev:
            self.worst[name] = residual
        self.counts[name] = self.counts.get(name, 0) + 1
        self.failed[name] = self.failed.get(name, 0) + (not ok)
        return ok

    def summary(self) -> dict:
        return {name: {"worst": self.worst[name], "tol": TOL[name],
                       "rows": self.counts[name], "failed": self.failed[name]}
                for name in sorted(self.worst)}


def rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def textbook_amplitudes(u0: float, l: float, eps):
    """(T, R) from the transfer-matrix form with cosh and sinh."""
    eps = np.asarray(eps, dtype=float)
    k = np.sqrt(eps)
    chi = np.sqrt(u0 - eps)
    denom = np.cosh(chi * l) + 1j * (chi**2 - k**2) / (2 * k * chi) * np.sinh(chi * l)
    T = np.exp(-1j * k * l) / denom
    R = -1j * (k**2 + chi**2) / (2 * k * chi) * np.sinh(chi * l) / denom
    return T, R


def _phase_plus_kl(u0: float, l: float, eps: float) -> float:
    """alpha + k l = -arg(denom); Re(denom) = cosh > 0, so no branch cuts."""
    k, chi = math.sqrt(eps), math.sqrt(u0 - eps)
    denom = complex(math.cosh(chi * l), (chi**2 - k**2) / (2 * k * chi) * math.sinh(chi * l))
    return -cmath.phase(denom)


# ---------------------------------------------------------------------------
# stationary rows


def check_times_row(checks: Checks, op: dict, row, solve_fn) -> bool:
    """Winful's identity, flux, amplitudes and the closed-form free times.

    solve_fn(u0, l, eps) returns the package's (T, R) for the flux check.
    """
    u0, l, eps = op["u0"], op["l"], op["eps"]
    tau_g, tau_0, t_ph, t_free, tau_d_in, tau_d_out, hartman = row
    T_ref, R_ref = (complex(v) for v in textbook_amplitudes(u0, l, eps))
    T, R = solve_fn(u0, l, eps)
    ok = checks.record("flux", abs(abs(T) ** 2 + abs(R) ** 2 - 1.0))
    ok &= checks.record("amplitudes", abs(T - T_ref) + abs(R - R_ref))
    term = R_ref.imag / (2.0 * eps)
    scale = abs(tau_d_in) + abs(term)
    winful = abs(tau_g - (tau_d_in - term)) / scale if scale > 0 else abs(tau_g)
    ok &= checks.record("winful", winful)
    k = math.sqrt(eps)
    free = max(rel(tau_0, l / (2 * k)), rel(t_free, l / k),
               rel(hartman, 1.0 / math.sqrt(eps * (u0 - eps))))
    ok &= checks.record("free_times", free)
    ok &= checks.record("dwell_ratio", rel(tau_d_out * abs(T_ref) ** 2, tau_d_in))
    return ok


def _dalpha(u0: float, l: float, eps: float) -> float:
    """d(alpha)/d(eps) by a central difference of the textbook phase."""
    h = 1e-5 * min(u0 - eps, eps)
    d = (_phase_plus_kl(u0, l, eps + h) - _phase_plus_kl(u0, l, eps - h)) / (2 * h)
    return d - l / (2.0 * math.sqrt(eps))


def check_crossing_row(checks: Checks, op: dict, row) -> bool:
    """The crossing energy zeroes d(alpha)/d(eps); None only if nothing does."""
    (eps_c,) = row
    u0, l, lo, hi = op["u0"], op["l"], op["eps_lo"], op["eps_hi"]
    if eps_c is None:
        signs = {math.copysign(1.0, _dalpha(u0, l, e)) for e in np.linspace(lo, hi, 400)}
        return checks.record("crossing", 0.0 if len(signs) == 1 else math.inf)
    if not lo <= eps_c <= hi:
        return checks.record("crossing", math.inf)
    return checks.record("crossing", abs(_dalpha(u0, l, eps_c)) * 2.0 * math.sqrt(eps_c) / l)


def check_spectrum_row(checks: Checks, op: dict, row) -> bool:
    """Right-movers dominate; the Parseval error is the k-window truncation.

    Beyond k_max the interior transform decays like 1/k^2 with mean square
    (|psi(0)|^2 + |psi(l)|^2)/k^2, so the truncated share of the windowed
    mass is 2 (|psi(0)|^2 + |psi(l)|^2) / k_max / W.  The Parseval error must
    equal that share to within the tolerance, and the row must be flagged
    exactly when the share exceeds 1 % (the package's documented threshold).
    """
    w_plus, w_minus, ratio, parseval, flagged, _ = row
    u0, l, eps, k_max = op["u0"], op["l"], op["eps"], op["k_max"]
    T, R = (complex(v) for v in textbook_amplitudes(u0, l, eps))
    norm2 = 1.0 / (4.0 * math.pi * math.sqrt(eps))
    boundary = norm2 * (abs(1.0 + R) ** 2 + abs(T) ** 2)
    share = 2.0 * boundary / k_max / (w_plus + w_minus)
    ok = checks.record("spectrum_parseval", abs(parseval - share))
    ok &= checks.record("spectrum_flag", float(bool(flagged) != (share > 0.01)))
    consistent = ratio == w_minus / w_plus and w_minus < w_plus
    ok &= checks.record("spectrum_ratio", ratio if consistent else math.inf)
    return ok


# ---------------------------------------------------------------------------
# packet rows


def envelope_transform(q, b: float):
    """I(q) = int_{-pi b}^0 (1 - cos(2x/b)) e^{iqx} dx as three exponentials.

    With E(a) = int_{-L}^0 e^{iax} dx = L e^{-iaL/2} sinc(aL/2), L = pi b,
    I(q) = E(q) - E(q + c)/2 - E(q - c)/2, c = 2/b.
    """
    q = np.asarray(q, dtype=float)
    L, c = math.pi * b, 2.0 / b

    def E(a):
        return L * np.exp(-0.5j * a * L) * np.sinc(a * L / (2.0 * math.pi))

    return E(q) - 0.5 * E(q + c) - 0.5 * E(q - c)


def overlap_closed(eps, p: float, b: float, u0: float | None, l: float | None):
    """f(eps) = N A [I(p - k) + conj(R) I(p + k)]; R = 0 for the free basis."""
    eps = np.asarray(eps, dtype=float)
    k = np.sqrt(eps)
    amp = math.sqrt(2.0 / (3.0 * math.pi * b))
    norm = 1.0 / np.sqrt(4.0 * math.pi * k)
    f = envelope_transform(p - k, b)
    if u0 is not None:
        _, R = textbook_amplitudes(u0, l, eps)
        f = f + np.conj(R) * envelope_transform(p + k, b)
    return norm * amp * f


def overlap_quad(eps: float, p: float, b: float, u0: float, l: float) -> complex:
    """f(eps) as the overlap integral of the state with the packet, by quad."""
    from scipy.integrate import quad

    k = math.sqrt(eps)
    _, R = textbook_amplitudes(u0, l, eps)
    R = complex(R)
    amp = math.sqrt(2.0 / (3.0 * math.pi * b))

    def integrand(x):
        env = amp * (1.0 - math.cos(2.0 * x / b))
        # conj(psi_eps(x)) psi_0(x) for x < 0
        return env * (cmath.exp(1j * (p - k) * x) + R.conjugate() * cmath.exp(1j * (p + k) * x))

    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=400)
    re = quad(lambda x: integrand(x).real, -math.pi * b, 0.0, **opts)[0]
    im = quad(lambda x: integrand(x).imag, -math.pi * b, 0.0, **opts)[0]
    return complex(re, im) / math.sqrt(4.0 * math.pi * k)


def _gl_grid(eps_max: float, horizon: float, order: int = 8):
    """Composite Gauss-Legendre grid, panels a quarter period of e^{-i eps t}."""
    width = math.pi / (2.0 * max(horizon, 1.0))
    n_panels = max(64, math.ceil(eps_max / width))
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, eps_max, n_panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * xs).ravel(),
            (half[:, None] * ws).ravel())


def _density(coeff: np.ndarray, grid: np.ndarray, t: float) -> float:
    return abs(np.dot(coeff, np.exp(-1j * grid * t))) ** 2


def direct_maximum(coeff, grid, t_guess: float, half_width: float = 0.1):
    """(t, density) of the direct-sum density maximum near t_guess."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: -_density(coeff, grid, t),
                          bounds=(t_guess - half_width, t_guess + half_width),
                          method="bounded", options={"xatol": 1e-11})
    return float(res.x), -float(res.fun)


def direct_mean(coeff, grid, t_cut: float, dt: float) -> float:
    """First moment of the direct-sum density on the mean_crossing_time grid."""
    n = max(int(round(t_cut / dt)), 64) + 1
    ts = np.linspace(0.0, t_cut, n)
    dens = np.empty(n)
    for i in range(0, n, 128):
        block = ts[i:i + 128]
        dens[i:i + 128] = np.abs(np.exp(-1j * np.outer(block, grid)) @ coeff) ** 2
    return float(np.trapezoid(ts * dens, ts) / np.trapezoid(dens, ts))


def barrier_exit_coeff(famp, u0: float, l: float):
    """Quadrature weight x f(eps) x psi_eps(l), with psi_eps(l) = N T e^{ikl}."""
    T, _ = textbook_amplitudes(u0, l, famp.grid)
    norm = 1.0 / np.sqrt(4.0 * math.pi * np.sqrt(famp.grid))
    return famp.weights * famp.values * norm * T * np.exp(1j * np.sqrt(famp.grid) * l)


def check_free_arrival(checks: Checks, t_in: float, p: float, b: float,
                       u0: float, t_max: float) -> bool:
    grid, weights = _gl_grid(u0, t_max)
    f = overlap_closed(grid, p, b, None, None)
    coeff = weights * f / np.sqrt(4.0 * math.pi * np.sqrt(grid))  # psi_eps(0) = N
    t_ref, _ = direct_maximum(coeff, grid, t_in)
    return checks.record("t_in", abs(t_in - t_ref))


def check_packet_row(checks: Checks, row, famp, p: float, b: float, u0: float,
                     l: float, quad_nodes: list[int]) -> bool:
    """Overlaps, captured weight and the arrival of the density maximum."""
    t_arr, _, peak, captured, n_nodes = row
    f_ref = overlap_closed(famp.grid, p, b, u0, l)
    scale = float(np.max(np.abs(f_ref)))
    ok = n_nodes == len(famp.grid)
    ok &= checks.record("f_closed", float(np.max(np.abs(famp.values - f_ref))) / scale)
    for i in quad_nodes:
        f_q = overlap_quad(float(famp.grid[i]), p, b, u0, l)
        ok &= checks.record("f_quad", abs(famp.values[i] - f_q) / scale)
    ok &= checks.record("captured_weight",
                        rel(captured, float(np.sum(famp.weights * np.abs(f_ref) ** 2))))
    coeff = barrier_exit_coeff(famp, u0, l)
    t_ref, peak_ref = direct_maximum(coeff, famp.grid, t_arr)
    ok &= checks.record("t_arr", abs(t_arr - t_ref))
    ok &= checks.record("peak_density", rel(peak, peak_ref))
    return ok


def check_mean(checks: Checks, t_mean: float, famp, u0: float, l: float,
               t_cut: float, dt: float) -> bool:
    coeff = barrier_exit_coeff(famp, u0, l)
    return checks.record("t_mean", rel(t_mean, direct_mean(coeff, famp.grid, t_cut, dt)))
