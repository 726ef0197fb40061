"""Layered benchmark of tunneltimes.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-test

Run from the root of a checkout; the package is imported from ./src.  Each
run is a closed loop with a single caller: the next operation starts when
the previous one has returned.  Every process the run needs is a fresh child
(only one at a time), with BLAS/OpenMP threads capped at the number of CPUs
this process may use.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (see bench/README.md).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (sample counts, tail percentile, set-up samples, worst oracle
residuals).  Spans of the first traced pass go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 8       # set-up samples per run; setup_s is their median
DEADLINE_S = 175.0       # a run must end within 180 s


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


class ChildError(RuntimeError):
    pass


def _child_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(mode: str, workload: str, seed: int, seconds: float, ctx: dict) -> dict:
    """Run one child to completion (or kill its process group at the deadline)."""
    timeout = ctx["deadline"] - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting a child")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
           str(seed), repr(float(seconds)), ctx["out_dir"]]
    proc = subprocess.Popen(cmd, cwd=ctx["root"], env=ctx["env"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{mode} child of {workload} overran the run's deadline")
    if proc.returncode != 0 or not out.strip():
        raise ChildError(f"{mode} child of {workload} exited {proc.returncode}: {err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics.  Latencies here cluster by
    operation kind with gaps between the clusters; where a percentile falls
    on such a gap a single order statistic jumps between clusters from run
    to run, while this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    q = p / 100.0
    cdf = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, ctx: dict):
    # set-up samples on both sides of the loop, so a slow spell of a shared
    # machine does not decide their median
    half = SETUP_CHILDREN // 2
    setups = [run_child("setup", workload, seed, 0, ctx)["setup_s"] for _ in range(half)]
    loop = run_child("loop", workload, seed, seconds, ctx)
    setups += [run_child("setup", workload, seed, 0, ctx)["setup_s"]
               for _ in range(SETUP_CHILDREN - half)]
    lat = loop["latencies"]
    p_tail = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "ops_per_s": _metric(loop["ops_per_pass"] / statistics.median(loop["pass_s"]), "1/s"),
        "op_p50_s": _metric(percentile(lat, 50.0), "s"),
        "op_tail_s": _metric(percentile(lat, p_tail), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(loop["peak_rss_mb"], "MB"),
    }
    details = {"samples": len(lat), "passes": len(loop["pass_s"]),
               "ops_per_pass": loop["ops_per_pass"], "tail_percentile": p_tail,
               "setup_samples": setups, "error_rate": loop["failed"] / len(lat),
               "oracles": loop["oracles"]}
    if "per_command" in loop:
        details["per_command_p50_s"] = {name: percentile(v, 50.0)
                                        for name, v in loop["per_command"].items()}
        details["errors"] = loop["errors"]
    return metrics, len(lat), loop["failed"], details


# per-function metrics of the traced run: counts per pass and self-time shares
FUNCTION_METRICS = {
    "wavepacket.synthesize_amplitude": ("calls", "samples", "node_samples", "self_share"),
    "wavepacket.scan_arrival": ("calls",),
    "wavepacket.spectral_amplitude": ("calls", "nodes", "self_share"),
    "wavepacket.arrival_time_of_max": ("self_share",),
    "wavepacket.mean_crossing_time": ("calls", "self_share"),
    "numerics.refine_max": ("calls",),
    "stationary.amplitudes": ("calls", "nodes", "self_share"),
    "stationary.solve": ("calls", "self_share"),
    "stationary.phase_shift": ("calls",),
    "stationary.barrier_probability": ("self_share",),
    "times.compute_times": ("calls", "self_share"),
    "times.group_delay": ("calls", "self_share"),
    "times.phase_shift_derivative": ("calls", "self_share"),
    "times.delay_crossing": ("calls", "self_share"),
    "numerics.differentiate": ("calls", "self_share"),
    "spectral.barrier_k_spectrum": ("calls", "k_samples", "self_share"),
    "cli.main": ("calls", "self_share"),
}


def per_layer(workload: str, seed: int, seconds: float, ctx: dict):
    res = run_child("trace", workload, seed, seconds, ctx)
    reduced = res["reduced"]
    n = len(reduced)
    repeat = all(layertrace.counts_of(r) == layertrace.counts_of(reduced[0]) for r in reduced)
    total = layertrace.combine(reduced)
    fns = total["functions"]
    op_s = sum(res["traced_op_s"])  # time inside operations, all traced passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, fields in FUNCTION_METRICS.items():
        s = fns.get(name, {})
        for field in fields:
            if field == "self_share":
                m[f"{name}.self_share"] = _metric(s.get("self_ns", 0) / 1e9 / op_s, "frac")
            else:
                m[f"{name}.{field}"] = _metric(s.get(field, 0) // n, "count")
    synth = fns.get("wavepacket.synthesize_amplitude", {})
    synth_s = synth.get("self_ns", 0) / 1e9
    scan_calls = fns.get("wavepacket.scan_arrival", {}).get("calls", 0)
    m.update({
        "wavepacket.synthesize_amplitude.node_samples_per_s":
            _metric(ratio(synth.get("node_samples", 0), synth_s), "1/s"),
        "wavepacket.scan_arrival.attempts": _metric(total["scan_attempts"] // n, "count"),
        "wavepacket.scan_arrival.accepted_ratio":
            _metric(ratio(scan_calls, total["scan_attempts"]), "frac"),
        "wavepacket.scan_arrival.wasted_synth_frac":
            _metric(ratio(total["wasted_synth_ns"] / 1e9, synth_s), "frac"),
        "spectral.barrier_k_spectrum.parseval_rel_err_max": _metric(
            fns.get("spectral.barrier_k_spectrum", {}).get("parseval_max", 0.0), "frac"),
        "cli.csv_bytes": _metric(res["csv_bytes"], "bytes"),
    })
    for layer in layertrace.LAYERS:
        ns = sum(s["self_ns"] for name, s in fns.items() if name.startswith(layer + "."))
        m[f"layer.{layer}.self_share"] = _metric(ns / 1e9 / op_s, "frac")
    # rates of the median pass, as ops_per_s of the untraced run
    plain_rate = res["ops_per_pass"] / statistics.median(res["plain_pass_s"])
    traced_rate = res["ops_per_pass"] / statistics.median(res["traced_op_s"])
    m.update({
        "trace.layer_self_share": _metric(total["root_ns"] / 1e9 / op_s, "frac"),
        "trace.pass_s": _metric(op_s / n, "s"),
        "trace.overhead_frac": _metric(plain_rate / traced_rate - 1.0, "frac"),
        "import_s": _metric(res["import_s"], "s"),
        # whole process, untraced passes: allocation churn the layers share
        "proc.minor_faults": _metric(int(statistics.median(res["plain_faults"])), "count"),
    })
    details = {"traced_passes": n, "counts_repeat": repeat, "oracles": res["oracles"],
               "untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate}
    return m, res["attempted"], res["failed"], details, repeat


def self_test(ctx: dict) -> int:
    """Inputs follow the seed; work counters repeat exactly for one seed."""
    ok = True
    for workload in workloads.WORKLOADS:
        same = workloads.make_pass(workload, 1) == workloads.make_pass(workload, 1)
        differ = workloads.make_pass(workload, 1) != workloads.make_pass(workload, 2)
        runs = [run_child("trace", workload, 1, 0, ctx) for _ in range(2)]
        counts = [[layertrace.counts_of(r) for r in run["reduced"]] for run in runs]
        repeat = counts[0][0] == counts[1][0] and all(c == counts[0][0] for c in counts[0] + counts[1])
        repeat &= runs[0]["csv_bytes"] == runs[1]["csv_bytes"]
        clean = all(run["failed"] == 0 for run in runs)
        line_ok = same and differ and repeat and clean
        ok &= line_ok
        print(f"{'ok  ' if line_ok else 'FAIL'} {workload}: inputs repeat={same} "
              f"seed changes inputs={differ} counters repeat={repeat} no failures={clean}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tunneltimes", "__init__.py")):
        return _fail(f"no tunneltimes sources under {os.path.join(root, 'src')}; "
                     "run from the root of a checkout")
    threads = len(os.sched_getaffinity(0))
    ctx = {"root": root, "out_dir": os.path.join(root, ".bench_out"),
           "env": _child_env(root, threads), "deadline": time.monotonic() + DEADLINE_S}
    try:
        if args.self_test:
            ctx["deadline"] = time.monotonic() + 900.0
            return self_test(ctx)
        if args.workload is None:
            return _fail("--workload is required")
        if args.trace:
            metrics, attempted, failed, details, repeat = per_layer(
                args.workload, args.seed, args.seconds, ctx)
        else:
            metrics, attempted, failed, details = end_to_end(
                args.workload, args.seed, args.seconds, ctx)
            repeat = True
    except ChildError as exc:
        return _fail(str(exc))
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   threads=threads, load="closed loop, one caller")
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
