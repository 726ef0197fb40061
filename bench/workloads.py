"""Seeded inputs and the operations of each benchmark workload.

A workload is a fixed list of operations (a "pass") built from the seed
alone; the timed loop repeats that pass.  The seed only generates inputs:
every value drawn here is a parameter the program receives, never a switch
that changes what the benchmark does.

Operations are plain dicts so that the child process that runs them can
rebuild them from (workload, seed) without any data passing between
processes.  At module level this imports only the standard library; numpy
and the package are imported by the functions that need them, inside the
child, after its set-up timing has started.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("packet-opaque", "stationary-sweep", "cli-cold")

# packet-opaque: the README packet, u0 = 31.4, p = 3.6, b = 2, t_max = 30.
PACKET = {"u0": 31.4, "p": 3.6, "b": 2.0, "t_max": 30.0}

# Width strata around l = 8..12.  scan_arrival doubles its window 1, 1, 2,
# 3 and 4 times in these intervals; the boundaries measured at this commit
# are 7.966, 9.151, 10.360 and 11.765, so each interval keeps a margin of
# at least 0.08 to the nearest one and jitter never changes a stratum's
# window-doubling count (and with it the energy-grid size).
PACKET_STRATA = ((8.05, 8.45), (8.65, 9.05), (9.8, 10.2), (10.8, 11.2),
                 (12.0, 12.4))

# stationary-sweep: README ranges.  The README uses u0 = 8 and u0 = 12,
# eps/u0 from 0.5 (4/8) to 0.99875 (7.99/8), widths up to 10 and the
# spectrum widths 0.5..8 at k_max = 400, n_k = 12001.
U0_RANGE = (8.0, 12.0)
EPS_RATIO_RANGE = (0.5, 0.99875)
SWEEP_STEPS = 201
SPECTRUM_WIDTHS = (0.5, 8.0)
SPECTRUM_K = {"k_max": 400.0, "n_k": 12001}

# The tail percentile of each workload: the highest of p50, p75, p90, p95,
# p99, p99.9 that has at least ten samples beyond it at the sample count a
# run guarantees (min_ops below), except on stationary-sweep.  There the
# slow rows, the spectra, are 1.2 % of the operations, and their time is
# mostly minor page faults (about 700 per row, from large temporaries the
# allocator maps and unmaps), whose cost on a shared virtual machine swings
# by a third between runs: p99 and p99.9, which fall inside the spectra,
# spread 28-29 % over ten runs.  p95 is the highest step below them.  The
# percentile is fixed per workload so that the metric keeps its meaning
# when the program gets faster or slower.
TAIL_PERCENTILE = {"packet-opaque": 75.0, "stationary-sweep": 95.0,
                   "cli-cold": 75.0}


def min_ops(workload: str) -> int:
    """Operations a timed loop must complete: ten beyond the tail percentile."""
    return math.ceil(round(10.0 / (1.0 - TAIL_PERCENTILE[workload] / 100.0), 6))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _linspace(a: float, b: float, n: int) -> list[float]:
    # the same points numpy.linspace gives, which is what the CLI sweeps use
    import numpy as np

    return [float(v) for v in np.linspace(a, b, n)]


def packet_pass(seed: int) -> list[dict]:
    rng = random.Random(f"packet-opaque:{seed}")
    ops = [{"kind": "free_arrival"}]
    for lo, hi in PACKET_STRATA:
        ops.append({"kind": "scan_arrival", "l": _uniform(rng, lo, hi)})
    return ops


def stationary_pass(seed: int) -> list[dict]:
    rng = random.Random(f"stationary-sweep:{seed}")
    ops = []
    # times vs width at fixed energy
    u0 = _uniform(rng, *U0_RANGE)
    eps = u0 * _uniform(rng, *EPS_RATIO_RANGE)
    l_max = _uniform(rng, 6.32, 10.0)
    for l in _linspace(0.0, l_max, SWEEP_STEPS):
        ops.append({"kind": "times", "u0": u0, "eps": eps, "l": l})
    # times vs energy at fixed width, then the tau_g = tau_0 crossing; the
    # crossing sits near u0 - 4/l^2 (at least 0.04 below u0 for l <= 10),
    # inside every range drawn here
    u0 = _uniform(rng, *U0_RANGE)
    l = _uniform(rng, 6.32, 10.0)
    eps_lo = u0 * _uniform(rng, 0.5, 0.9)
    eps_hi = u0 - _uniform(rng, 0.005, 0.02)  # README: 8 - 7.99
    for e in _linspace(eps_lo, eps_hi, SWEEP_STEPS):
        ops.append({"kind": "times", "u0": u0, "eps": e, "l": l})
    ops.append({"kind": "crossing", "u0": u0, "l": l, "eps_lo": eps_lo,
                "eps_hi": eps_hi})
    # directional spectrum at five widths, log-uniform over the README span
    u0 = _uniform(rng, *U0_RANGE)
    eps = u0 * _uniform(rng, *EPS_RATIO_RANGE)
    lo, hi = (math.log(w) for w in SPECTRUM_WIDTHS)
    for _ in range(5):
        ops.append({"kind": "spectrum", "u0": u0, "eps": eps,
                    "l": math.exp(_uniform(rng, lo, hi)), **SPECTRUM_K})
    return ops


def cli_pass(seed: int) -> list[dict]:
    """The four README commands with continuous parameters perturbed.

    Only values that leave every grid size and window-doubling count as in
    the README are perturbed.  The packet command keeps the README packet
    (u0 = 31.4, p = 3.6, b = 2) and t_max = 60, which fix its energy grid;
    only its width range moves, inside 0.9..3.1, where no window is doubled
    and the mean-time tail criterion holds (its tail share stays below 0.39 %
    against the 0.5 % limit up to l = 3.3).  The criterion is not robust to
    the packet itself: at p = 3.58 it already fails for l >= 1.72, so p and b
    are not perturbed.
    """
    rng = random.Random(f"cli-cold:{seed}")
    u = lambda lo, hi: repr(_uniform(rng, lo, hi))
    u0 = _uniform(rng, 11.5, 12.5)
    width = ["times-width", "--u0", repr(u0), "--eps",
             repr(u0 - _uniform(rng, 0.15, 0.25)), "--l-min", "0",
             "--l-max", u(9.5, 10.5), "--steps", "201"]
    u0 = _uniform(rng, 7.8, 8.2)
    energy = ["times-energy", "--u0", repr(u0), "--l", u(6.2, 6.45),
              "--eps-min", u(3.9, 4.1), "--eps-max",
              repr(u0 - _uniform(rng, 0.005, 0.015)), "--steps", "201"]
    packet = ["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
              "--l-min", u(0.9, 1.1), "--l-max", u(2.9, 3.1), "--steps", "5",
              "--t-max", "60"]
    u0 = _uniform(rng, 11.5, 12.5)
    widths = ",".join(repr(w * _uniform(rng, 0.95, 1.05))
                      for w in (0.5, 1.0, 2.0, 4.0, 8.0))
    spectrum = ["spectrum", "--u0", repr(u0), "--eps",
                repr(u0 - _uniform(rng, 0.15, 0.25)), "--l", widths,
                "--k-max", "400", "--n-k", "12001"]
    return [{"kind": "cli", "argv": argv}
            for argv in (width, energy, packet, spectrum)]


def make_pass(workload: str, seed: int) -> list[dict]:
    if workload == "packet-opaque":
        return packet_pass(seed)
    if workload == "stationary-sweep":
        return stationary_pass(seed)
    if workload == "cli-cold":
        return cli_pass(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup_ops(workload: str, ops: list[dict]) -> list[dict]:
    """One operation of each kind, on the workload's smallest input.

    Set-up is import plus these, so lazy imports (scipy.optimize in
    delay_crossing) and first-call costs land in set-up, not in the loop.
    """
    if workload == "packet-opaque":
        return ops[:2]  # the free reference and the narrowest width
    if workload == "stationary-sweep":
        seen, first = set(), []
        for op in ops:
            if op["kind"] not in seen:
                seen.add(op["kind"])
                first.append(op)
        return first
    return [{"kind": "cli", "argv": argv} for argv in (
        ["times-width", "--u0", "12", "--eps", "11.8", "--l-max", "1",
         "--steps", "3"],
        ["times-energy", "--u0", "8", "--l", "6.32", "--eps-min", "7.5",
         "--eps-max", "7.99", "--steps", "3"],
        ["packet", "--u0", "31.4", "--p", "3.6", "--l-min", "1",
         "--l-max", "1", "--steps", "1", "--t-max", "60"],
        ["spectrum", "--u0", "12", "--eps", "11.8", "--l", "1",
         "--k-max", "400", "--n-k", "101"],
    )]


# ---------------------------------------------------------------------------
# running operations in-process (the package is imported by the caller)


class PassState:
    """Values one operation of a pass hands to a later one (t_in)."""

    def __init__(self):
        self.t_in = None


def run_op(op: dict, state: PassState, keep: bool = False):
    """Run one in-process operation; return (row, artifact).

    row is a tuple of plain numbers, the operation's output; artifact is the
    spectral amplitude of a packet row, returned only when keep is set (the
    oracle needs its energy grid).  Every package call goes through a module
    attribute so the tracer's wrappers see it.
    """
    from tunneltimes import spectral, stationary, times, wavepacket
    from tunneltimes.model import BarrierSpec, PacketSpec

    kind = op["kind"]
    if kind == "times":
        r = times.compute_times(BarrierSpec(op["u0"], op["l"]), op["eps"])
        return (r.tau_g, r.tau_0, r.t_ph, r.t_free, r.tau_d_in, r.tau_d_out,
                r.hartman_limit), None
    if kind == "crossing":
        c = times.delay_crossing(op["u0"], op["l"], op["eps_lo"], op["eps_hi"])
        return (c,), None
    if kind == "spectrum":
        sol = stationary.solve(BarrierSpec(op["u0"], op["l"]), op["eps"])
        s = spectral.barrier_k_spectrum(sol, op["k_max"], op["n_k"])
        return (s.w_plus, s.w_minus, s.ratio, s.parseval_rel_err,
                s.k_max_too_small, len(s.k)), None
    packet = PacketSpec(p=PACKET["p"], b=PACKET["b"])
    if kind == "free_arrival":
        state.t_in = wavepacket.free_arrival_time(packet, PACKET["u0"],
                                                  t_max=PACKET["t_max"])
        return (state.t_in,), None
    if kind == "scan_arrival":
        arr, famp = wavepacket.scan_arrival(
            packet, BarrierSpec(PACKET["u0"], op["l"]), t_max=PACKET["t_max"],
            t_in=state.t_in)
        row = (arr.t_arr, arr.t_offset, arr.peak_density,
               famp.captured_weight, len(famp.grid))
        return row, (famp if keep else None)
    raise ValueError(f"unknown operation kind {kind!r}")
