"""Command-line front end producing plot-ready CSV datasets.

Subcommands:

    times-width    time definitions vs barrier width at fixed energy
    times-energy   time definitions vs energy at fixed width (+ crossing)
    packet         wave-packet arrival and mean crossing times vs width
    spectrum       directional wavenumber weights vs width

Each command is declared once, in _COMMANDS: its function, its help and its
options with their defaults.  build_parser, _merge_config and _meta read that
table, and _validate converts flag text and config values by one path.
Every file starts with a commented metadata block (# key=value) holding all
parameters and the tool version, so a figure can be rebuilt from the file
alone.  Reruns with the same configuration are byte-identical.  Exit status:
0 success, 1 validation error, 2 numerical non-convergence (NumericalError).
times-width and times-energy load no numpy: only packet and spectrum import
wavepacket and spectral, which need it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, stationary, times
from .model import BarrierSpec, PacketSpec
from .numerics import NumericalError, linspace


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


def _meta(command: str, args, **extra) -> dict:
    """The metadata block: the options of args.command but --out, and extra."""
    params = {n: getattr(args, n) for n in _COMMANDS[args.command][2] if n != "out"}
    return {"command": command, **dict(sorted({**params, **extra}.items())),
            "version": __version__}


# The times columns: the swept value, then the TimesReport fields so named.
TIMES_HEADER = ["l", "tau_g", "tau_0", "t_ph", "t_free", "tau_d_in",
                "tau_d_out", "hartman_limit"]


def cmd_times_width(args) -> int:
    if not 0.0 <= args.l_min <= args.l_max:
        raise ValueError(f"need 0 <= l-min <= l-max, got [{args.l_min}, {args.l_max}]")
    rows = []
    for l in linspace(args.l_min, args.l_max, args.steps):
        report = times.compute_times(BarrierSpec(args.u0, l), args.eps)
        rows.append([l] + [getattr(report, name) for name in TIMES_HEADER[1:]])
    _write_csv(args.out, _meta("times-width", args), TIMES_HEADER, rows)
    return 0


def cmd_times_energy(args) -> int:
    if not 0.0 < args.eps_min < args.eps_max < args.u0:
        raise ValueError(
            f"need 0 < eps-min < eps-max < u0, got [{args.eps_min}, {args.eps_max}]"
        )
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    rows = []
    for eps in linspace(args.eps_min, args.eps_max, args.steps):
        report = times.compute_times(BarrierSpec(args.u0, args.l), eps)
        rows.append([eps] + [getattr(report, name) for name in TIMES_HEADER[1:]])
    header = ["eps"] + TIMES_HEADER[1:]
    crossing = None
    if args.l > 0.0:
        crossing = times.delay_crossing(args.u0, args.l, args.eps_min, args.eps_max)
    footer_val = "none" if crossing is None else _fmt(crossing)
    _write_csv(args.out, _meta("times-energy", args), header, rows,
               footer=[f"# crossing_eps={footer_val}"])
    return 0


def cmd_packet(args) -> int:
    from . import wavepacket

    if args.l_min <= 0.0 or args.l_max < args.l_min:
        raise ValueError("need 0 < l-min <= l-max")
    packet = PacketSpec(p=args.p, b=args.b)
    try:
        t_in = wavepacket.free_arrival_time(packet, args.u0, t_max=args.t_max)
    except wavepacket.WindowError as exc:
        # the free density at x = 0 rises from ~0 at t = 0, the edge of the
        # packet's support, so its maximum sits at t = 0 only in a window
        # too short to resolve that rise: bad input, not a numerical failure
        if exc.extendable:
            raise NumericalError(f"free reference t_in: {exc}") from exc
        raise ValueError(f"free reference t_in: {exc}: --t-max {args.t_max:g} is too "
                         "short to resolve the free packet's rise") from exc

    arrival_rows, mean_rows = [], []
    series_dumps = []
    for l in linspace(args.l_min, args.l_max, args.steps):
        barrier = BarrierSpec(args.u0, l)
        try:
            arr, famp = wavepacket.scan_arrival(
                packet, barrier, t_max=args.t_max, coarse_dt=args.dt, t_in=t_in)
            mean = wavepacket.mean_crossing_time(famp, barrier.l, args.t_max,
                                                 dt=args.dt)
        except NumericalError as exc:
            raise NumericalError(f"l = {l:g}: {exc}") from exc
        arrival_rows.append([l, arr.t_arr, arr.t_offset,
                             famp.captured_weight])
        mean_rows.append([l, mean.t_mean, mean.endpoint_share])
        if args.dump_series:
            n = int(round(args.t_max / args.dt)) + 1
            ts = linspace(0.0, args.t_max, n)
            series_dumps.append((l, ts, wavepacket.synthesize(famp, barrier.l, ts)))

    base = args.out[:-4] if args.out.endswith(".csv") else args.out
    meta = _meta("packet", args, t_in=t_in)
    _write_csv(base + "_arrival.csv", meta,
               ["l", "t_arr", "t_arr_minus_tin", "captured_weight"],
               arrival_rows)
    _write_csv(base + "_mean.csv", meta,
               ["l", "t_mean", "endpoint_share"], mean_rows)
    for l, ts, dens in series_dumps:
        rows = [[t, float(d)] for t, d in zip(ts, dens)]
        _write_csv(f"{base}_series_l{_fmt(l)}.csv",
                   _meta("packet-series", args, l=l, t_in=t_in),
                   ["t", "density"], rows)
    return 0


def cmd_spectrum(args) -> int:
    from . import spectral

    l_values = [float(s) for s in args.l.split(",")]
    if any(l <= 0.0 for l in l_values):
        raise ValueError("spectrum needs a comma-separated list of widths > 0")
    if args.n_k < 3:
        raise ValueError(f"--n-k must be >= 3, got {args.n_k}")
    rows = []
    for l in l_values:
        sol = stationary.solve(BarrierSpec(args.u0, l), args.eps)
        spec = spectral.barrier_k_spectrum(sol, args.k_max, args.n_k)
        flags = "k_max_too_small" if spec.k_max_too_small else ""
        rows.append([l, spec.w_plus, spec.w_minus, spec.ratio,
                     spec.parseval_rel_err, flags])
    _write_csv(args.out, _meta("spectrum", args),
               ["l", "W_plus", "W_minus", "ratio", "parseval_rel_err", "flags"],
               rows)
    return 0


_OPTIONS = {
    "u0": "barrier height (recoil units)",
    "eps": "stationary energy (recoil units)",
    "l": "barrier width (comma list for spectrum)",
    "l_min": "smallest width in the sweep",
    "l_max": "largest width in the sweep",
    "eps_min": "smallest energy in the sweep",
    "eps_max": "largest energy in the sweep",
    "steps": "number of sweep points",
    "p": "packet mean momentum",
    "b": "packet half-width parameter",
    "t_max": "initial time window length",
    "dt": "coarse time step",
    "k_max": "wavenumber window half-width",
    "n_k": "wavenumber samples per half-axis",
    "out": "output CSV path (base path for packet)",
}

# Options that size a sweep, a step or a window: they must be positive.
_SIZES = ("steps", "n_k", "t_max", "dt", "k_max")
# Options that count: they must be whole numbers.
_COUNTS = ("steps", "n_k")

# Each command: its function, its help, and its options in --help order with
# their defaults; None marks an option without one, which must be given.
_COMMANDS = {
    "times-width": (cmd_times_width, "times vs barrier width", dict(
        u0=None, eps=None, l_min=0.0, l_max=None, steps=201, out=None)),
    "times-energy": (cmd_times_energy, "times vs energy, with crossing", dict(
        u0=None, l=None, eps_min=None, eps_max=None, steps=201, out=None)),
    "packet": (cmd_packet, "wave-packet arrival and mean times", dict(
        u0=None, p=None, b=2.0, l_min=None, l_max=None, steps=12, t_max=30.0,
        dt=0.05, out=None)),
    "spectrum": (cmd_spectrum, "directional wavenumber weights", dict(
        u0=None, eps=None, l=None, k_max=80.0, n_k=4001, out=None)),
}


def _merge_config(args) -> None:
    """Fill unset options from the JSON config file, then from _COMMANDS.

    A config key names an option of the command (l_max for --l-max); any
    other key is rejected by name, dump_series too: that is a flag only.
    Values are taken as they are, flag text or JSON; _validate converts both.
    """
    config = {}
    if args.config:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    options = _COMMANDS[args.command][2]
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"config key(s) naming no option of {args.command}: "
                         f"{', '.join(unknown)}")
    for key, default in options.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, default))
    missing = [k for k in options if getattr(args, k) is None]
    if missing:
        raise ValueError(
            f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}"
        )


def _validate(args) -> None:
    """Convert each numeric option to a finite number, or reject it, naming it.

    The one conversion of every value, flag text and config value alike, so
    --steps 3.0 and {"steps": 3.0} both give 3.  Sizes (_SIZES) must also be
    positive, counts (_COUNTS) whole numbers, and a JSON boolean is no number;
    spectrum's --l stays comma text, each width checked.  --out must be a
    string.  Relations between options, such as l-min <= l-max, are checked by
    the command that needs them, and eps < u0 by the model.
    """
    if not isinstance(args.out, str):
        raise ValueError(f"--out must be a path string, got {args.out!r}")
    for name in _COMMANDS[args.command][2]:
        if name == "out":
            continue
        value = getattr(args, name)
        flag = "--" + name.replace("_", "-")
        listed = name == "l" and args.command == "spectrum"
        items = str(value).split(",") if listed else [value]
        for item in items:
            if isinstance(item, bool):
                raise ValueError(f"{flag} must be a number, got {json.dumps(item)}")
            try:
                number = float(item)
            except (TypeError, ValueError):
                raise ValueError(f"{flag} must be a number, got {item!r}") from None
            if not math.isfinite(number):
                raise ValueError(f"{flag} must be finite, got {item}")
            if name in _SIZES and not number > 0.0:
                raise ValueError(f"{flag} must be positive, got {item}")
            if name in _COUNTS:
                if number != int(number):
                    raise ValueError(f"{flag} must be a whole number, got {item}")
                number = int(number)
        setattr(args, name, str(value) if listed else number)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry; its options take text, unconverted."""
    parser = _Parser(prog="tunneltimes",
                     description="Tunneling-time datasets for a rectangular barrier")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in options:
            p.add_argument("--" + name.replace("_", "-"), help=_OPTIONS[name])
        p.add_argument("--config", help="JSON file with defaults; explicit flags win")
        if command == "packet":
            p.add_argument("--dump-series", action="store_true",
                           help="write a density time series per width")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _merge_config(args)
        _validate(args)
        return _COMMANDS[args.command][0](args)
    except NumericalError as exc:
        print(f"tunneltimes: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"tunneltimes: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
