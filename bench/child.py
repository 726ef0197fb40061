"""One benchmark process: set-up, a timed loop, or a traced loop.

Run by run.py, one at a time, as

    python3 bench/child.py <mode> <workload> <seed> <seconds> <out_dir>

with PYTHONPATH pointing at the checkout's src/.  Modes:

    setup      import the package and run the warm-up operations; report
               the elapsed time (one set-up sample)
    loop       set-up, then repeat whole passes of the workload for at least
               <seconds> and at least workloads.min_ops operations; check
               every row; report per-operation latencies and peak RSS
    trace      set-up, an untraced loop for half of <seconds>, then a traced
               loop for the other half; check every row; report per-layer
               counts and self times
    cli-trace  (used by the cli-cold trace loop) run one CLI command in this
               process under the tracer; <workload> is the JSON argv and
               <seed> the command's index in the pass

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

t_process = time.perf_counter()

import layertrace  # noqa: E402  (stdlib only, like workloads: numpy and
import workloads  # noqa: E402  the package are first imported inside the timing)


def _import_package() -> float:
    t0 = time.perf_counter()
    import tunneltimes  # noqa: F401
    from tunneltimes import cli, numerics, spectral, stationary, times, wavepacket  # noqa: F401
    return time.perf_counter() - t0


class Loop:
    """Whole passes of one workload until both limits are met.

    Keeps the first pass's rows (the ones the oracles check) and, for every
    later pass, only how many of its rows differ from them, so the loop's
    own memory does not grow with its length.  `reference` replaces the
    first pass as the rows to compare against.
    """

    def __init__(self, ops, reference=None):
        self.first = reference
        self.latencies: list[float] = []
        self.pass_s: list[float] = []
        self.differ = [0] * len(ops)
        self.reduced: list[dict] = []
        self.first_spans = None
        self.rss_kb = 0
        self.faults: list[int] = []

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    def run(self, run_pass, seconds: float, min_ops: int, tracer=None,
            who=resource.RUSAGE_SELF) -> "Loop":
        """`who` is whose minor page faults a pass counts: this process, or
        the command processes it waits for."""
        start = time.perf_counter()
        while True:
            faults = resource.getrusage(who).ru_minflt
            rows, lat = run_pass(keep=not self.pass_s)
            self.faults.append(resource.getrusage(who).ru_minflt - faults)
            if self.first is None:
                self.first = rows
            else:
                for i, (row, ref) in enumerate(zip(rows, self.first)):
                    self.differ[i] += row != ref
            self.latencies.extend(lat)
            self.pass_s.append(sum(lat))
            if self.passes == 1:
                # the program's peak, before the loop's own record of later
                # passes grows with their number
                self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                spans = tracer.take()
                self.reduced.append(layertrace.reduce_spans(spans))
                if self.first_spans is None:
                    self.first_spans = layertrace.span_records(spans)
            if (time.perf_counter() - start >= seconds
                    and len(self.latencies) >= min_ops):
                return self

    def failures(self, first_ok: list[bool]) -> int:
        """A row fails where its first-pass row failed or it differs from it."""
        return sum(self.passes if not ok else differ
                   for ok, differ in zip(first_ok, self.differ))


def _write_spans(out_dir: str, workload: str, seed: int, records: list) -> None:
    """The spans of the first traced pass, for reading a run afterwards."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(records, fh)


def _traced_result(plain: Loop, traced: Loop, ops, import_s, csv_bytes, first_ok,
                   residuals) -> dict:
    return {"import_s": import_s,
            "plain_pass_s": plain.pass_s, "plain_faults": plain.faults,
            "traced_op_s": traced.pass_s, "ops_per_pass": len(ops),
            "reduced": traced.reduced, "csv_bytes": csv_bytes,
            "failed": plain.failures(first_ok) + traced.failures(first_ok),
            "attempted": len(plain.latencies) + len(traced.latencies),
            "oracles": residuals}


# ---------------------------------------------------------------------------
# in-process workloads


def _in_process_pass(ops, tracer=None):
    def run_pass(keep: bool):
        """One pass; a failed operation is counted, not fatal."""
        state = workloads.PassState()
        rows, artifacts, lat = [], [], []
        clock = time.perf_counter
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                row, artifact = workloads.run_op(op, state, keep)
            except Exception as exc:
                row, artifact = ("error", type(exc).__name__, str(exc)), None
            lat.append(clock() - t0)
            rows.append(row)
            artifacts.append(artifact)
        if keep:
            run_pass.artifacts = artifacts
        return rows, lat

    return run_pass


def _verify_in_process(workload: str, seed: int, ops, rows, artifacts):
    """Oracle verdict per operation of the first pass, plus worst residuals."""
    import random

    import oracles
    from tunneltimes import stationary
    from tunneltimes.model import BarrierSpec

    checks = oracles.Checks()

    def solve_fn(u0, l, eps):
        sol = stationary.solve(BarrierSpec(u0, l), eps)
        return sol.T, sol.R

    rng = random.Random(f"oracle:{workload}:{seed}")
    p, b, u0, t_max = (workloads.PACKET[k] for k in ("p", "b", "u0", "t_max"))
    ok = []
    for op, row, famp in zip(ops, rows, artifacts):
        kind = op["kind"]
        if row[0] == "error":
            ok.append(False)
        elif kind == "times":
            ok.append(oracles.check_times_row(checks, op, row, solve_fn))
        elif kind == "crossing":
            ok.append(oracles.check_crossing_row(checks, op, row))
        elif kind == "spectrum":
            ok.append(oracles.check_spectrum_row(checks, op, row))
        elif kind == "free_arrival":
            ok.append(oracles.check_free_arrival(checks, row[0], p, b, u0, t_max))
        else:
            nodes = sorted(rng.sample(range(len(famp.grid)), 3))
            ok.append(oracles.check_packet_row(checks, row, famp, p, b, u0,
                                               op["l"], nodes))
    return ok, checks.summary()


def in_process(mode: str, workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    import_s = _import_package()
    ops = workloads.make_pass(workload, seed)
    state = workloads.PassState()
    for op in workloads.warmup_ops(workload, ops):
        workloads.run_op(op, state)
    setup_s = time.perf_counter() - t_process
    if mode == "setup":
        return {"setup_s": setup_s, "import_s": import_s}

    plain_pass = _in_process_pass(ops)
    if mode == "loop":
        loop = Loop(ops).run(plain_pass, seconds, workloads.min_ops(workload))
        rss_kb = loop.rss_kb
        first_ok, residuals = _verify_in_process(workload, seed, ops, loop.first,
                                                 plain_pass.artifacts)
        return {"latencies": loop.latencies, "pass_s": loop.pass_s,
                "ops_per_pass": len(ops), "peak_rss_mb": rss_kb / 1024.0,
                "failed": loop.failures(first_ok), "oracles": residuals}

    # trace: untraced half, then traced half; tracing must not change a row
    plain = Loop(ops).run(plain_pass, seconds / 2, 1)
    tracer = layertrace.Tracer()
    tracer.install()
    traced = Loop(ops, plain.first).run(_in_process_pass(ops, tracer), seconds / 2, 1,
                                        tracer)
    first_ok, residuals = _verify_in_process(workload, seed, ops, plain.first,
                                             plain_pass.artifacts)
    _write_spans(out_dir, workload, seed, traced.first_spans)
    return _traced_result(plain, traced, ops, import_s, 0, first_ok, residuals)


# ---------------------------------------------------------------------------
# cli-cold


def _out_base(work_dir: str, index: int, argv) -> str:
    folder = os.path.join(work_dir, f"op{index}")
    os.makedirs(folder, exist_ok=True)
    return os.path.join(folder, "pkt" if argv[0] == "packet" else "out.csv")


def _cli_pass(ops, work_dir: str, command, records: list | None = None):
    """Run the commands as fresh processes, one after another.

    A row is (exit code, {file name: bytes}); the CSV files a command wrote
    are its output.  `records` collects the stdout of each process.
    """
    def run_pass(keep: bool):
        rows, lat = [], []
        outs = []
        for i, op in enumerate(ops):
            out = _out_base(work_dir, i, op["argv"])
            folder = os.path.dirname(out)
            for name in os.listdir(folder):
                os.remove(os.path.join(folder, name))
            t0 = time.perf_counter()
            proc = subprocess.run(command(i, op["argv"] + ["--out", out]),
                                  capture_output=True, text=True, timeout=120)
            lat.append(time.perf_counter() - t0)
            files = {}
            for name in sorted(os.listdir(folder)):
                with open(os.path.join(folder, name), "rb") as fh:
                    files[name] = fh.read()
            rows.append((proc.returncode, files))
            outs.append(proc.stdout)
            if proc.returncode != 0:
                run_pass.errors.append(proc.stderr[-2000:])
        if records is not None:
            records.append(outs)
        return rows, lat

    run_pass.errors = []
    return run_pass


def _parse_csv(data: bytes):
    meta, header, rows, footer = {}, None, [], {}
    for line in data.decode("ascii").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            (footer if header is not None else meta)[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows, footer


def _verify_cli(ops, rows, seed: int):
    """Compare each CSV with the library result, then check the library rows."""
    import random

    import numpy as np

    import oracles
    from tunneltimes import spectral, stationary, times, wavepacket
    from tunneltimes.model import BarrierSpec, PacketSpec

    checks = oracles.Checks()
    rng = random.Random(f"oracle:cli-cold:{seed}")

    def close(csv_value: str, value) -> bool:
        if value is None or isinstance(value, str):
            expected = "none" if value is None else value
            return checks.record("cli_vs_library", float(csv_value != expected))
        return checks.record("cli_vs_library", oracles.rel(float(csv_value), float(value)))

    def solve_fn(u0, l, eps):
        sol = stationary.solve(BarrierSpec(u0, l), eps)
        return sol.T, sol.R

    verdicts = []
    for op, (rc, files) in zip(ops, rows):
        argv = op["argv"]
        opts = {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(1, len(argv), 2)}
        f = lambda key: float(opts[key])
        if rc != 0:
            verdicts.append(False)
            continue
        ok = True
        name = argv[0]
        if name in ("times-width", "times-energy"):
            (data,) = files.values()
            _, _, csv_rows, footer = _parse_csv(data)
            if name == "times-width":
                points = [{"u0": f("u0"), "eps": f("eps"), "l": float(l)} for l in
                          np.linspace(f("l_min"), f("l_max"), int(opts["steps"]))]
            else:
                points = [{"u0": f("u0"), "eps": float(e), "l": f("l")} for e in
                          np.linspace(f("eps_min"), f("eps_max"), int(opts["steps"]))]
            ok &= len(csv_rows) == len(points)
            for point, csv_row in zip(points, csv_rows):
                r = times.compute_times(BarrierSpec(point["u0"], point["l"]), point["eps"])
                lib = (r.tau_g, r.tau_0, r.t_ph, r.t_free, r.tau_d_in, r.tau_d_out,
                       r.hartman_limit)
                for csv_value, value in zip(csv_row[1:], lib):
                    ok &= close(csv_value, value)
                ok &= oracles.check_times_row(checks, point, lib, solve_fn)
            if name == "times-energy":
                c = times.delay_crossing(f("u0"), f("l"), f("eps_min"), f("eps_max"))
                ok &= close(footer.get("crossing_eps", ""), c)
                ok &= oracles.check_crossing_row(
                    checks, {"u0": f("u0"), "l": f("l"), "eps_lo": f("eps_min"),
                             "eps_hi": f("eps_max")}, (c,))
        elif name == "spectrum":
            (data,) = files.values()
            csv_rows = _parse_csv(data)[2]
            widths = [float(w) for w in opts["l"].split(",")]
            ok &= len(csv_rows) == len(widths)
            for l, csv_row in zip(widths, csv_rows):
                sol = stationary.solve(BarrierSpec(f("u0"), l), f("eps"))
                s = spectral.barrier_k_spectrum(sol, f("k_max"), int(opts["n_k"]))
                flags = "k_max_too_small" if s.k_max_too_small else ""
                for csv_value, value in zip(csv_row, (l, s.w_plus, s.w_minus, s.ratio,
                                                      s.parseval_rel_err, flags)):
                    ok &= close(csv_value, value)
                ok &= oracles.check_spectrum_row(
                    checks, {"u0": f("u0"), "eps": f("eps"), "l": l, "k_max": f("k_max")},
                    (s.w_plus, s.w_minus, s.ratio, s.parseval_rel_err,
                     s.k_max_too_small, len(s.k)))
        else:  # packet
            arrival = _parse_csv(files["pkt_arrival.csv"])[2]
            means = _parse_csv(files["pkt_mean.csv"])[2]
            p, b, u0, t_max = f("p"), f("b"), f("u0"), f("t_max")
            dt = float(opts.get("dt", 0.05))
            packet = PacketSpec(p=p, b=b)
            t_in = wavepacket.free_arrival_time(packet, u0, t_max=t_max)
            ok &= oracles.check_free_arrival(checks, t_in, p, b, u0, t_max)
            widths = np.linspace(f("l_min"), f("l_max"), int(opts["steps"]))
            ok &= len(arrival) == len(means) == len(widths)
            for l, a_row, m_row in zip(widths, arrival, means):
                l = float(l)
                arr, famp = wavepacket.scan_arrival(packet, BarrierSpec(u0, l),
                                                    t_max=t_max, coarse_dt=dt, t_in=t_in)
                mean = wavepacket.mean_crossing_time(famp, l, t_max, dt=dt)
                for csv_value, value in zip(a_row + m_row[1:],
                                            (l, arr.t_arr, arr.t_offset,
                                             famp.captured_weight, mean.t_mean)):
                    ok &= close(csv_value, value)
                row = (arr.t_arr, arr.t_offset, arr.peak_density,
                       famp.captured_weight, len(famp.grid))
                nodes = sorted(rng.sample(range(len(famp.grid)), 3))
                ok &= oracles.check_packet_row(checks, row, famp, p, b, u0, l, nodes)
                ok &= oracles.check_mean(checks, mean.t_mean, famp, u0, l, t_max, dt)
        verdicts.append(bool(ok))
    return verdicts, checks


def cli_cold(mode: str, workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    ops = workloads.make_pass(workload, seed)
    work_dir = os.path.join(out_dir, f"cli-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _cli_cold(mode, workload, seed, seconds, out_dir, ops, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _cli_cold(mode, workload, seed, seconds, out_dir, ops, work_dir) -> dict:
    if mode == "setup":
        import_s = _import_package()
        from tunneltimes import cli
        for i, op in enumerate(workloads.warmup_ops(workload, ops)):
            if cli.main(op["argv"] + ["--out", _out_base(work_dir, i, op["argv"])]) != 0:
                raise RuntimeError(f"warm-up command failed: {op['argv']}")
        return {"setup_s": time.perf_counter() - t_process, "import_s": import_s}

    cold = _cli_pass(ops, work_dir, lambda i, argv: [sys.executable, "-m", "tunneltimes.cli", *argv])
    if mode == "loop":
        loop = Loop(ops).run(cold, seconds, workloads.min_ops(workload),
                             who=resource.RUSAGE_CHILDREN)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        first_ok, checks = _verify_cli(ops, loop.first, seed)
        checks.record("rerun_identical", float(sum(loop.differ)))
        per_command = {op["argv"][0]: loop.latencies[i::len(ops)] for i, op in enumerate(ops)}
        return {"latencies": loop.latencies, "pass_s": loop.pass_s,
                "ops_per_pass": len(ops), "peak_rss_mb": rss_kb / 1024.0,
                "failed": loop.failures(first_ok), "per_command": per_command,
                "oracles": checks.summary(), "errors": cold.errors[:4]}

    # trace: cold untraced half, then each command in a child under the tracer
    plain = Loop(ops).run(cold, seconds / 2, 1, who=resource.RUSAGE_CHILDREN)
    here = os.path.abspath(__file__)
    outs: list = []
    traced_pass = _cli_pass(ops, work_dir, lambda i, argv: [
        sys.executable, here, "cli-trace", json.dumps(argv), str(i), "0", out_dir], outs)
    traced = Loop(ops, plain.first).run(traced_pass, seconds / 2, 1,
                                        who=resource.RUSAGE_CHILDREN)
    first_ok, checks = _verify_cli(ops, plain.first, seed)
    import_s = []
    for pass_outs in outs:
        # a failed command prints no record; Loop.failures counts it
        results = [json.loads(out.splitlines()[-1]) for out in pass_outs if out.strip()]
        traced.reduced.append(layertrace.combine([r["reduced"] for r in results]))
        import_s.extend(r["import_s"] for r in results)
        if traced.first_spans is None:
            traced.first_spans = []
            for r in results:  # parent indices are per command: shift them
                shift = len(traced.first_spans)
                traced.first_spans.extend(
                    dict(span, parent=span["parent"] + shift) if span["parent"] >= 0 else span
                    for span in r["spans"])
    csv_bytes = sum(len(data) for _, files in plain.first for data in files.values())
    _write_spans(out_dir, workload, seed, traced.first_spans)
    return _traced_result(plain, traced, ops, sorted(import_s)[len(import_s) // 2],
                          csv_bytes, first_ok, checks.summary())


def cli_trace(argv_json: str, op_index: int) -> dict:
    """One CLI command in this process, under the tracer."""
    argv = json.loads(argv_json)
    import_s = _import_package()
    from tunneltimes import cli
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.op = op_index
    rc = cli.main(argv)
    spans = tracer.take()
    if rc != 0:
        raise SystemExit(rc)
    return {"import_s": import_s, "reduced": layertrace.reduce_spans(spans),
            "spans": layertrace.span_records(spans)}


def main(argv) -> int:
    mode, workload, seed, seconds, out_dir = argv
    if mode == "cli-trace":
        result = cli_trace(workload, int(seed))
    elif workload == "cli-cold":
        result = cli_cold(mode, workload, int(seed), float(seconds), out_dir)
    else:
        result = in_process(mode, workload, int(seed), float(seconds), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
