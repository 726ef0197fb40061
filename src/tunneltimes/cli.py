"""Command-line front end producing plot-ready CSV datasets.

Subcommands:

    times-width    time definitions vs barrier width at fixed energy
    times-energy   time definitions vs energy at fixed width (+ crossing)
    packet         wave-packet arrival and mean crossing times vs width
    spectrum       directional wavenumber weights vs width

Every file starts with a commented metadata block (# key=value) holding all
parameters and the tool version, so a figure can be rebuilt from the file
alone.  Reruns with the same configuration are byte-identical.  Exit status:
0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, spectral, stationary, times, wavepacket
from .model import BarrierSpec, PacketSpec
from .numerics import EdgeMaximumError, StencilError
from .wavepacket import (
    EnergyGridSpec,
    SynthesisResolutionError,
    TailMassError,
    WindowError,
)

_NUMERICAL_ERRORS = (
    EdgeMaximumError, StencilError,
    SynthesisResolutionError, TailMassError, WindowError,
    times.CrossCheckError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; usage problems are validation errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: str, meta: dict, header: list[str], rows: list[list],
               footer: list[str] | None = None) -> None:
    """Assemble the whole file in memory, then write once (no partial files)."""
    lines = [f"# {key}={_fmt(val)}" for key, val in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if footer:
        lines.extend(footer)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _meta(command: str, **params) -> dict:
    meta = {"command": command}
    meta.update(sorted(params.items()))
    meta["version"] = __version__
    return meta


TIMES_HEADER = ["l", "tau_g", "tau_0", "t_ph", "t_free", "tau_d_in",
                "tau_d_out", "hartman_limit"]


def _times_row(report: times.TimesReport, key: float) -> list[float]:
    return [key, report.tau_g, report.tau_0, report.t_ph, report.t_free,
            report.tau_d_in, report.tau_d_out, report.hartman_limit]


def cmd_times_width(args) -> int:
    if not 0.0 < args.eps < args.u0:
        raise ValueError(f"need 0 < eps < u0, got eps={args.eps}, u0={args.u0}")
    if args.l_min < 0.0 or args.l_max < args.l_min:
        raise ValueError("need 0 <= l-min <= l-max")
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    ls = np.linspace(args.l_min, args.l_max, args.steps)
    rows = []
    for l in ls:
        report = times.compute_times(BarrierSpec(args.u0, float(l)), args.eps)
        rows.append(_times_row(report, float(l)))
    meta = _meta("times-width", u0=args.u0, eps=args.eps, l_min=args.l_min,
                 l_max=args.l_max, steps=args.steps)
    _write_csv(args.out, meta, TIMES_HEADER, rows)
    return 0


def cmd_times_energy(args) -> int:
    if not 0.0 < args.eps_min < args.eps_max < args.u0:
        raise ValueError(
            f"need 0 < eps-min < eps-max < u0, got [{args.eps_min}, {args.eps_max}]"
        )
    if args.l < 0.0:
        raise ValueError("width l must be >= 0")
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    eps_grid = np.linspace(args.eps_min, args.eps_max, args.steps)
    rows = []
    for eps in eps_grid:
        report = times.compute_times(BarrierSpec(args.u0, args.l), float(eps))
        rows.append(_times_row(report, float(eps)))
    header = ["eps"] + TIMES_HEADER[1:]
    crossing = None
    if args.l > 0.0:
        crossing = times.delay_crossing(args.u0, args.l, args.eps_min, args.eps_max)
    footer_val = "none" if crossing is None else _fmt(crossing)
    meta = _meta("times-energy", u0=args.u0, l=args.l, eps_min=args.eps_min,
                 eps_max=args.eps_max, steps=args.steps)
    _write_csv(args.out, meta, header, rows,
               footer=[f"# crossing_eps={footer_val}"])
    return 0


def cmd_packet(args) -> int:
    if args.p**2 >= args.u0:
        raise ValueError(f"need p^2 < u0, got p^2 = {args.p**2}, u0 = {args.u0}")
    if args.l_min <= 0.0 or args.l_max < args.l_min:
        raise ValueError("need 0 < l-min <= l-max")
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    packet = PacketSpec(p=args.p, b=args.b)
    ls = np.linspace(args.l_min, args.l_max, args.steps)
    t_in = wavepacket.free_arrival_time(packet, args.u0, t_max=args.t_max)

    arrival_rows, mean_rows = [], []
    series_dumps = []
    for l in ls:
        barrier = BarrierSpec(args.u0, float(l))
        try:
            arr, famp = wavepacket.scan_arrival(
                packet, barrier, t_max=args.t_max, coarse_dt=args.dt, t_in=t_in)
        except WindowError as exc:
            raise WindowError(f"l = {l:g}: {exc}") from exc
        arrival_rows.append([float(l), arr.t_arr, arr.t_offset,
                             famp.captured_weight])
        try:
            mean = wavepacket.mean_crossing_time(famp, barrier.l, args.t_max,
                                                 dt=args.dt)
        except TailMassError as exc:
            raise TailMassError(f"l = {l:g}: {exc}") from exc
        mean_rows.append([float(l), mean.t_mean])
        if args.dump_series:
            n = int(round(args.t_max / args.dt)) + 1
            ts = np.linspace(0.0, args.t_max, n)
            series = wavepacket.synthesize(famp, barrier.l, ts)
            series_dumps.append((float(l), ts, series.density))

    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    meta_common = dict(u0=args.u0, p=args.p, b=args.b, l_min=args.l_min,
                       l_max=args.l_max, steps=args.steps, t_max=args.t_max,
                       dt=args.dt, t_in=t_in)
    _write_csv(base + "_arrival.csv", _meta("packet", **meta_common),
               ["l", "t_arr", "t_arr_minus_tin", "captured_weight"],
               arrival_rows)
    _write_csv(base + "_mean.csv", _meta("packet", **meta_common),
               ["l", "t_mean"], mean_rows)
    for l, ts, dens in series_dumps:
        rows = [[float(t), float(d)] for t, d in zip(ts, dens)]
        _write_csv(f"{base}_series_l{_fmt(l)}.csv",
                   _meta("packet-series", l=l, **meta_common),
                   ["t", "density"], rows)
    return 0


def cmd_spectrum(args) -> int:
    if not 0.0 < args.eps < args.u0:
        raise ValueError(f"need 0 < eps < u0, got eps={args.eps}, u0={args.u0}")
    l_values = [float(s) for s in args.l.split(",")]
    if not l_values or any(l <= 0.0 for l in l_values):
        raise ValueError("spectrum needs a comma-separated list of widths > 0")
    if args.k_max <= 0.0 or args.n_k < 3:
        raise ValueError("need k-max > 0 and n-k >= 3")
    rows = []
    for l in l_values:
        sol = stationary.solve(BarrierSpec(args.u0, l), args.eps)
        spec = spectral.barrier_k_spectrum(sol, args.k_max, args.n_k)
        flags = "k_max_too_small" if spec.k_max_too_small else ""
        rows.append([l, spec.w_plus, spec.w_minus, spec.ratio,
                     spec.parseval_rel_err, flags])
    meta = _meta("spectrum", u0=args.u0, eps=args.eps, l=args.l,
                 k_max=args.k_max, n_k=args.n_k)
    _write_csv(args.out, meta,
               ["l", "W_plus", "W_minus", "ratio", "parseval_rel_err", "flags"],
               rows)
    return 0


def _add_common(sub, *names):
    specs = {
        "u0": dict(type=float, help="barrier height (recoil units)"),
        "eps": dict(type=float, help="stationary energy (recoil units)"),
        "l": dict(type=str, help="barrier width (comma list for spectrum)"),
        "l_min": dict(type=float, help="smallest width in the sweep"),
        "l_max": dict(type=float, help="largest width in the sweep"),
        "eps_min": dict(type=float, help="smallest energy in the sweep"),
        "eps_max": dict(type=float, help="largest energy in the sweep"),
        "steps": dict(type=int, help="number of sweep points"),
        "p": dict(type=float, help="packet mean momentum"),
        "b": dict(type=float, help="packet half-width parameter"),
        "t_max": dict(type=float, help="initial time window length"),
        "dt": dict(type=float, help="coarse time step"),
        "k_max": dict(type=float, help="wavenumber window half-width"),
        "n_k": dict(type=int, help="wavenumber samples per half-axis"),
        "out": dict(type=str, help="output CSV path (base path for packet)"),
    }
    for name in names:
        flag = "--" + name.replace("_", "-")
        sub.add_argument(flag, dest=name, default=None, **specs[name])
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with defaults; explicit flags win")


_DEFAULTS = {
    "times-width": {"steps": 201, "l_min": 0.0},
    "times-energy": {"steps": 201},
    "packet": {"steps": 12, "t_max": 30.0, "dt": 0.05, "b": 2.0},
    "spectrum": {"k_max": 80.0, "n_k": 4001},
}

_REQUIRED = {
    "times-width": ["u0", "eps", "l_max", "out"],
    "times-energy": ["u0", "l", "eps_min", "eps_max", "out"],
    "packet": ["u0", "p", "l_min", "l_max", "out"],
    "spectrum": ["u0", "eps", "l", "out"],
}


def _merge_config(args) -> None:
    """Fill unset options from the JSON config file, then from defaults."""
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    defaults = _DEFAULTS.get(args.command, {})
    for key in vars(args):
        if key in ("command", "config", "func", "dump_series"):
            continue
        if getattr(args, key) is None:
            if key in config:
                setattr(args, key, config[key])
            elif key in defaults:
                setattr(args, key, defaults[key])
    if args.command == "times-energy" and isinstance(args.l, str):
        args.l = float(args.l)
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k) is None]
    if missing:
        raise ValueError(
            f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tunneltimes",
                     description="Tunneling-time datasets for a rectangular barrier")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("times-width", help="times vs barrier width")
    _add_common(p, "u0", "eps", "l_min", "l_max", "steps", "out")
    p.set_defaults(func=cmd_times_width)

    p = sub.add_parser("times-energy", help="times vs energy, with crossing")
    _add_common(p, "u0", "l", "eps_min", "eps_max", "steps", "out")
    p.set_defaults(func=cmd_times_energy)

    p = sub.add_parser("packet", help="wave-packet arrival and mean times")
    _add_common(p, "u0", "p", "b", "l_min", "l_max", "steps", "t_max", "dt", "out")
    p.add_argument("--dump-series", action="store_true",
                   help="write a density time series per width")
    p.set_defaults(func=cmd_packet)

    p = sub.add_parser("spectrum", help="directional wavenumber weights")
    _add_common(p, "u0", "eps", "l", "k_max", "n_k", "out")
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _merge_config(args)
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"tunneltimes: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"tunneltimes: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
