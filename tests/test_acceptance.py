"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 2 checks that the group delay has saturated on the
Hartman plateau 1/sqrt(eps (u0 - eps)).  At l = 10 the remaining gap is
pinned to the exact approach law (leading order in e^{-2 chi l}, with its
sign and the term linear in l) to within 1e-3 relative, about 1.3e-6
absolute; the literal budgets, 1e-3 to the asymptote and 1e-6 between
widths l and 2l, are applied at l = 20 and l = 40.  They cannot hold at
l = 10, where the exact gap is 1.297e-3 (a 60-digit derivative of the
closed-form phase agrees with the program to 1e-15 there); they first hold
together at l = 19.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import find_plateau, transfer_matrix_solution
from tunneltimes import numerics, spectral, stationary, times, wavepacket
from tunneltimes.model import BarrierSpec, PacketSpec
from tunneltimes.wavepacket import EnergyGridSpec

U0, EPS = 12.0, 11.8
PACKET = PacketSpec(p=3.6, b=2.0)
PKT_U0 = 31.4


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_flux_conservation():
    eps_grid = np.linspace(0.05 * U0, 0.999 * U0, 100)
    widths = (0.1, 1.0, 10.0)
    worst = 0.0
    for l in widths:
        T, R, _, _ = stationary.amplitudes(U0, l, eps_grid)
        worst = max(worst, float(np.max(np.abs(np.abs(T) ** 2 + np.abs(R) ** 2 - 1.0))))
    report(1, "flux conservation over 300-point grid", worst < 1e-12,
           f"max |R|^2+|T|^2 deviation {worst:.2e}")


def test_criterion_2_hartman_plateau_literal():
    asymptote = times.hartman_limit(U0, EPS)
    k, chi = math.sqrt(EPS), math.sqrt(U0 - EPS)
    d = k**2 - chi**2

    def approach_law(l):
        # tau_g(l) - 1/(k chi) to leading order in e^{-2 chi l}, from the
        # eps-derivative of atan[(k^2-chi^2)/(2 k chi) tanh(chi l)]
        return (math.exp(-2.0 * chi * l) / (k * chi)
                * (4.0 * d**2 / U0**2 - 2.0 - 4.0 * l * k**2 * chi * d / U0**2))

    tg10, tg20, tg40 = (times.group_delay(BarrierSpec(U0, l), EPS)
                        for l in (10.0, 20.0, 40.0))
    law_err = abs((tg10 - asymptote) / approach_law(10.0) - 1.0)
    ok = (law_err < 1e-3
          and abs(tg20 - asymptote) < 1e-3 and abs(tg40 - tg20) < 1e-6)
    report(2, "group delay saturated on the Hartman plateau", ok,
           f"tau_g(10) - {asymptote:.6f} = {tg10 - asymptote:.5e} vs law "
           f"{approach_law(10.0):.5e} (rel {law_err:.1e}), "
           f"|tau_g(20) - {asymptote:.6f}| = {abs(tg20 - asymptote):.3e}, "
           f"|tau_g(40) - tau_g(20)| = {abs(tg40 - tg20):.3e}")


def test_criterion_3_thin_barrier_slowdown():
    slower = all(
        times.group_delay(BarrierSpec(U0, float(l)), EPS)
        > times.free_group_time(EPS, float(l))
        for l in np.linspace(0.005, 0.1, 20))
    l = 0.005
    expansion = l * (2.0 * EPS + U0) / (4.0 * EPS**1.5)
    tg = times.group_delay(BarrierSpec(U0, l), EPS)
    ok = slower and abs(tg - expansion) / expansion < 0.01
    report(3, "thin barriers slow the packet down", ok,
           f"tau_g(0.005) = {tg:.6e} vs expansion {expansion:.6e}")


def test_criterion_4_phase_time_saturation():
    t30 = times.phase_time(BarrierSpec(U0, 30.0), EPS)
    ok = abs(t30 - 0.11119) < 1e-4
    zeros = [abs(times.phase_time(BarrierSpec(U0, l), U0 / 2.0)) for l in (0.5, 5.0, 50.0)]
    ok = ok and max(zeros) < 1e-12
    report(4, "phase time saturates; vanishes at half height", ok,
           f"t_ph(30) = {t30:.6f}, max |t_ph(u0/2)| = {max(zeros):.2e}")


def test_criterion_5_energy_sweep_crossing():
    roots = [times.delay_crossing(8.0, l, 4.0, 8.0 * (1.0 - 1e-9))
             for l in (5.0, 6.32, 10.0, 20.0)]
    root632 = roots[1]
    ok = (root632 is not None and 7.7 < root632 < 8.0
          and all(r is not None for r in roots)
          and all(b > a for a, b in zip(roots, roots[1:])))
    report(5, "delay/free crossing just below the barrier top", ok,
           f"eps*(6.32) = {root632:.5f}, roots {[f'{r:.4f}' for r in roots]}")


def test_criterion_6_dwell_time_dichotomy():
    t20 = times.dwell_time_incident(BarrierSpec(U0, 20.0), EPS)
    t30 = times.dwell_time_incident(BarrierSpec(U0, 30.0), EPS)
    saturates = abs(t20 - t30) / t30 < 1e-4
    chi = math.sqrt(U0 - EPS)
    growth = all(
        abs(times.dwell_time_transmitted(BarrierSpec(U0, l + 1.0), EPS)
            / times.dwell_time_transmitted(BarrierSpec(U0, l), EPS)
            / math.exp(2.0 * chi) - 1.0) < 0.01
        for l in (15.0, 18.0, 22.0))
    report(6, "incident dwell saturates, transmitted dwell grows",
           saturates and growth,
           f"rel change {abs(t20 - t30) / t30:.2e}; growth ratio ~ e^(2 chi)")


def test_criterion_7_packet_plateau_finite(arrival_sweep):
    t_in, rows = arrival_sweep
    ls = [l for l, _, _ in rows]
    vals = [arr.t_arr for _, arr, _ in rows]
    captured_ok = all(c >= 0.95 for _, _, c in rows)
    window = find_plateau(vals, rel_tol=0.05, min_len=3)
    ok = captured_ok and window is not None
    detail = f"captured >= 0.95 {captured_ok}"
    if window is not None:
        i, j = window
        tail = vals[j:]
        rising = all(b > a for a, b in zip(tail, tail[1:]))
        accelerating = all(d > 0.0 for d in np.diff(tail, 2))
        ok = ok and rising and accelerating
        detail = (f"plateau l in [{ls[i]:g}, {ls[j]:g}], then strictly rising "
                  f"with positive curvature: {rising and accelerating}")
    report(7, "packet peak arrival: plateau of finite length, then acceleration",
           ok, detail)


def test_criterion_8_mean_time_grows_faster(arrival_sweep, mean_sweep):
    ls = [l for l, _ in mean_sweep]
    means = [m for _, m in mean_sweep]
    window = find_plateau(means, rel_tol=0.05, min_len=3)
    ok = window is not None
    detail = "no plateau"
    if window is not None:
        i, j = window
        tail = means[j:]
        growing = all(b > a for a, b in zip(tail, tail[1:]))
        # compare post-plateau average slopes over the shared width range
        _, arr_rows = arrival_sweep
        arr = {l: a.t_arr for l, a, _ in arr_rows}
        mean_slope = (means[-1] - means[j]) / (ls[-1] - ls[j])
        arr_slope = (arr[3.0] - arr[2.0]) / 1.0
        ok = growing and mean_slope > arr_slope
        detail = (f"plateau l in [{ls[i]:g}, {ls[j]:g}], post-plateau slope "
                  f"{mean_slope:.3f} vs peak-arrival slope {arr_slope:.3f}")
    report(8, "mean crossing time: plateau, then faster growth than the peak",
           ok, detail)


def test_criterion_9_directional_spectrum(arrival_sweep):
    dominate = True
    for eps in np.linspace(0.1 * U0, 0.97 * U0, 5):
        for l in (0.5, 2.0, 8.0):
            sol = stationary.solve(BarrierSpec(U0, l), float(eps))
            spec = spectral.barrier_k_spectrum(sol, k_max=90.0, n_k=4001)
            dominate = dominate and spec.w_plus > spec.w_minus
    ratios = [spectral.barrier_k_spectrum(stationary.solve(BarrierSpec(U0, l), EPS),
                                          k_max=80.0, n_k=4001).ratio
              for l in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0)]
    nondecreasing = all(b >= a for a, b in zip(ratios, ratios[1:]))
    saturated = abs(ratios[-2] - ratios[-1]) < 1e-3
    chi = math.sqrt(U0 - EPS)
    k = np.linspace(0.0, 60.0, 3001)
    c_l = 0.5 * math.exp(chi * 2.0)  # C = D = 1/2: the real field cosh(chi x)
    phi_p = spectral.interior_window_transform(c_l, 0.5, chi, 2.0, k)
    phi_m = spectral.interior_window_transform(c_l, 0.5, chi, 2.0, -k)
    wp_ = np.trapezoid(np.abs(phi_p) ** 2, k)
    wm_ = np.trapezoid(np.abs(phi_m) ** 2, k)
    symmetric = abs(wp_ - wm_) <= 1e-12 * wp_
    ok = dominate and nondecreasing and saturated and symmetric
    report(9, "right-movers dominate; reflected share grows then saturates", ok,
           f"|ratio(16)-ratio(24)| = {abs(ratios[-2] - ratios[-1]):.2e}, "
           f"real-field symmetry {symmetric}")


def test_criterion_10_numerics_cross_validation(arrival_sweep):
    # analytic vs finite-difference phase derivative
    fd_ok = True
    try:
        for l in (0.1, 1.0, 10.0):
            barrier = BarrierSpec(U0, l)
            for eps in np.linspace(0.05 * U0, 0.999 * U0, 25):
                times.group_delay(barrier, float(eps), verify=True, check_tol=1e-8)
    except times.CrossCheckError:
        fd_ok = False

    # closed-form overlap f(eps) vs adaptive quadrature
    barrier = BarrierSpec(PKT_U0, 4.0)
    famp = wavepacket.spectral_amplitude(PACKET, barrier, EnergyGridSpec(48))
    rng = np.random.default_rng(101)
    overlap_worst = 0.0
    for i in rng.choice(len(famp.grid), size=8, replace=False):
        eps = float(famp.grid[i])
        sol = stationary.solve(barrier, eps)
        re, _ = quad(lambda x: (np.conj(stationary.wavefunction_at(sol, x))
                                * PACKET.initial_wavefunction(x)).real,
                     -math.pi * PACKET.b, 0.0, epsabs=1e-13, limit=300)
        im, _ = quad(lambda x: (np.conj(stationary.wavefunction_at(sol, x))
                                * PACKET.initial_wavefunction(x)).imag,
                     -math.pi * PACKET.b, 0.0, epsabs=1e-13, limit=300)
        overlap_worst = max(overlap_worst, abs(famp.values[i] - (re + 1j * im)))

    # closed-form window transform vs adaptive quadrature
    sol = stationary.solve(BarrierSpec(U0, 3.0), EPS)
    spec_worst = 0.0
    for k in rng.uniform(-25.0, 25.0, 8):
        re, _ = quad(lambda x: (stationary.wavefunction_at(sol, x)
                                * np.exp(-1j * k * x)).real, 0.0, 3.0,
                     epsabs=1e-13, limit=300)
        im, _ = quad(lambda x: (stationary.wavefunction_at(sol, x)
                                * np.exp(-1j * k * x)).imag, 0.0, 3.0,
                     epsabs=1e-13, limit=300)
        direct = sol.N * spectral.interior_window_transform(
            sol.C_l, sol.D, sol.chi, 3.0, float(k))
        spec_worst = max(spec_worst, abs(direct - (re + 1j * im)))

    # packet observables stable under grid halving
    g1 = EnergyGridSpec.for_horizon(PKT_U0, 30.0)
    g2 = EnergyGridSpec(2 * g1.n_panels, g1.order)
    f1 = wavepacket.spectral_amplitude(PACKET, BarrierSpec(PKT_U0, 2.0), g1)
    f2 = wavepacket.spectral_amplitude(PACKET, BarrierSpec(PKT_U0, 2.0), g2)
    a1 = wavepacket.arrival_time_of_max(f1, 30.0, coarse_dt=0.05)
    a2 = wavepacket.arrival_time_of_max(f2, 30.0, coarse_dt=0.025)
    gm1 = EnergyGridSpec.for_horizon(PKT_U0, 60.0)
    gm2 = EnergyGridSpec(2 * gm1.n_panels, gm1.order)
    m1 = wavepacket.mean_crossing_time(
        wavepacket.spectral_amplitude(PACKET, BarrierSpec(PKT_U0, 2.0), gm1),
        2.0, 60.0, dt=0.02)
    m2 = wavepacket.mean_crossing_time(
        wavepacket.spectral_amplitude(PACKET, BarrierSpec(PKT_U0, 2.0), gm2),
        2.0, 60.0, dt=0.01)
    stable = (abs(a1.t_arr - a2.t_arr) < 1e-3 and abs(m1.t_mean - m2.t_mean) < 1e-3)

    ok = fd_ok and overlap_worst < 1e-9 and spec_worst < 1e-9 and stable
    report(10, "analytic, finite-difference and quadrature routes agree", ok,
           f"overlap diff {overlap_worst:.1e}, transform diff {spec_worst:.1e}, "
           f"halving shifts {abs(a1.t_arr - a2.t_arr):.1e}/{abs(m1.t_mean - m2.t_mean):.1e}")
