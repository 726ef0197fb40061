import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tunneltimes import cli, stationary, times
from tunneltimes.model import BarrierSpec


def read_csv(path):
    """(comments, header, rows); comments collects every # key=value line."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestTimesWidth:
    def test_sweep_columns_and_values(self, tmp_path):
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "11.8",
                         "--l-min", "0", "--l-max", "10", "--steps", "201",
                         "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["l", "tau_g", "tau_0", "t_ph", "t_free", "tau_d_in",
                          "tau_d_out", "hartman_limit"]
        assert len(rows) == 201
        assert meta["version"]
        # l = 0 row: all zeros except the asymptote
        first = [float(v) for v in rows[0]]
        assert first[:7] == [0.0] * 7
        assert first[7] == pytest.approx(0.650944554904, abs=1e-9)
        # the tau_g column approaches the asymptote and matches the engine
        last = [float(v) for v in rows[-1]]
        assert last[1] == pytest.approx(
            times.group_delay(BarrierSpec(12.0, 10.0), 11.8), rel=1e-10)
        assert abs(last[1] - last[7]) < 0.01
        # tau_0 is linear in l
        mid = [float(v) for v in rows[100]]
        assert mid[2] == pytest.approx(last[2] / 2.0, rel=1e-9)

    @pytest.mark.parametrize("eps", ["3", "11.8"])
    def test_zero_width_row_prints_plus_zero(self, tmp_path, eps):
        # at eps < u0/2 the transmission phase's g is negative, yet no
        # time of the l = 0 row is written as -0
        out = tmp_path / "width.csv"
        assert cli.main(["times-width", "--u0", "12", "--eps", eps, "--l-max", "2",
                         "--steps", "5", "--out", str(out)]) == 0
        assert read_csv(out)[2][0][:7] == ["0"] * 7

    def test_deterministic_rerun(self, tmp_path):
        args = ["times-width", "--u0", "12", "--eps", "11.8",
                "--l-min", "0", "--l-max", "3", "--steps", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_failure_leaves_no_file(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "13",
                         "--l-max", "10", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_infinite_width_rejected(self, tmp_path, capsys):
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "11.8",
                         "--l-max", "inf", "--steps", "3", "--out", str(out)])
        assert code == 1
        assert "l-max" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_validation_error(self, tmp_path):
        assert cli.main(["times-width", "--nope", "1"]) == 1

    def test_opaque_width_exits_one(self, tmp_path, capsys):
        # |T|^2 underflows at u0 = 8, eps = 4 beyond l ~ 178
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "8", "--eps", "4", "--l-min", "176",
                         "--l-max", "185", "--steps", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "tau_d_out is not finite" in err and "chi l" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_phase_exits_one(self, tmp_path, capsys):
        # k l = sqrt(11.8) 1e308 overflows: the phase e^{-ikl} of T is undefined
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "11.8", "--l-min", "1e308",
                         "--l-max", "1e308", "--steps", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "k l overflows at l = 1e+308, eps = 11.8" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_decay_exits_one(self, tmp_path, capsys):
        # chi l = sqrt(11) 1e308 overflows while k l = 1e308 does not; the
        # row was a NaN tau_g that failed the Winful check (exit 2)
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "1", "--l-min", "1e308",
                         "--l-max", "1e308", "--steps", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "chi l overflows at l = 1e+308, eps = 1.0" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestTimesEnergy:
    def test_crossing_footer_and_monotone_free_time(self, tmp_path):
        out = tmp_path / "energy.csv"
        code = cli.main(["times-energy", "--u0", "8", "--l", "6.32",
                         "--eps-min", "4", "--eps-max", "7.99",
                         "--steps", "101", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header[0] == "eps"
        tau0 = [float(r[2]) for r in rows]
        assert all(b < a for a, b in zip(tau0, tau0[1:]))
        crossing = float(read_csv(out)[0]["crossing_eps"])
        assert 7.7 < crossing < 8.0

    def test_no_crossing_reported_as_none(self, tmp_path):
        out = tmp_path / "energy.csv"
        code = cli.main(["times-energy", "--u0", "8", "--l", "6.32",
                         "--eps-min", "4", "--eps-max", "6",
                         "--steps", "41", "--out", str(out)])
        assert code == 0
        assert read_csv(out)[0]["crossing_eps"] == "none"


class TestPacket:
    def test_sweep_files(self, tmp_path):
        base = tmp_path / "pkt"
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                         "--l-min", "1", "--l-max", "3", "--steps", "3",
                         "--t-max", "60", "--dt", "0.05",
                         "--out", str(base)])
        assert code == 0
        _, header_a, rows_a = read_csv(tmp_path / "pkt_arrival.csv")
        assert header_a == ["l", "t_arr", "t_arr_minus_tin", "captured_weight"]
        assert len(rows_a) == 3
        for row in rows_a:
            vals = [float(v) for v in row]
            assert vals[3] >= 0.95
            assert vals[1] == pytest.approx(vals[2] + float(read_csv(
                tmp_path / "pkt_arrival.csv")[0]["t_in"]), abs=1e-9)
        _, header_m, rows_m = read_csv(tmp_path / "pkt_mean.csv")
        assert header_m == ["l", "t_mean", "endpoint_share"]
        assert len(rows_m) == 3

    def test_momentum_above_the_barrier_exits_one(self, tmp_path, capsys):
        code = cli.main(["packet", "--u0", "31.4", "--p", "6", "--l-min", "1",
                         "--l-max", "3", "--out", str(tmp_path / "pkt")])
        assert code == 1
        assert ("invalid configuration: need p^2 < u0, got p^2 = 36.0, u0 = 31.4"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_mean_reported_below_the_edge(self, tmp_path):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                         "--l-min", "3.5", "--l-max", "3.5", "--steps", "1",
                         "--t-max", "60", "--out", str(tmp_path / "pkt")])
        assert code == 0
        _, _, rows = read_csv(tmp_path / "pkt_mean.csv")
        assert float(rows[0][2]) * math.log(2.0) < 0.005 * float(rows[0][1])

    def test_endpoint_share_too_large_exits_two(self, tmp_path, capsys):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                         "--l-min", "5", "--l-max", "5", "--steps", "1",
                         "--t-max", "60", "--out", str(tmp_path / "pkt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "l = 5:" in err and "S = " in err

    def test_dump_series_sidecars(self, tmp_path):
        base = tmp_path / "pkt"
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6",
                         "--l-min", "2", "--l-max", "2", "--steps", "1",
                         "--t-max", "40", "--dt", "0.1", "--dump-series",
                         "--out", str(base)])
        assert code == 0
        sidecar = tmp_path / "pkt_series_l2.csv"
        assert sidecar.exists()
        _, header, rows = read_csv(sidecar)
        assert header == ["t", "density"]
        assert len(rows) == 401

    def test_heavy_tail_width_exits_two(self, tmp_path):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6",
                         "--l-min", "8", "--l-max", "8", "--steps", "1",
                         "--t-max", "60", "--out", str(tmp_path / "pkt")])
        assert code == 2

    def test_maximum_at_the_start_exits_two(self, tmp_path, capsys):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.58",
                         "--l-min", "5.5", "--l-max", "5.5", "--steps", "1",
                         "--out", str(tmp_path / "pkt")])
        assert code == 2
        assert "(t = 0)" in capsys.readouterr().err

    def test_tiny_window_names_the_free_reference(self, tmp_path, capsys):
        # every window up to 16e-300 holds D(0) at every sample: the free
        # density's rise is not resolved, which is bad input; the end density
        # at T = 1e-300 no longer overflows with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                             "--l-min", "1", "--l-max", "1", "--steps", "1",
                             "--t-max", "1e-300", "--out", str(tmp_path / "pkt")])
        err = capsys.readouterr().err
        assert code == 1
        assert ("invalid configuration: free reference t_in: density maximum at the "
                "window edge (t = 0): --t-max 1e-300 is too short") in err
        assert "Traceback" not in err and "Warning" not in err
        assert list(tmp_path.iterdir()) == []

    def test_short_free_window_exits_two_named(self, tmp_path, capsys):
        # the free pulse reaches the far edge of every window up to 0.016
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                         "--l-min", "1", "--l-max", "1", "--steps", "1",
                         "--t-max", "1e-3", "--out", str(tmp_path / "pkt")])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure: free reference t_in: no valid window up to t = 0.016" in err
        assert list(tmp_path.iterdir()) == []

    def test_oversampled_window_exits_one(self, tmp_path, capsys):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--b", "2",
                         "--l-min", "1", "--l-max", "1", "--steps", "1",
                         "--dt", "1e-300", "--out", str(tmp_path / "pkt")])
        err = capsys.readouterr().err
        assert code == 1
        assert ("invalid configuration: coarse_dt = 1e-300 asks for 3e+301 samples "
                "of the window [0, 30], more than the 1,048,576 allowed") in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_weight_above_the_norm_exits_two(self, tmp_path, capsys):
        # quadrature error, not bad input: a finer grid converges below 1
        code = cli.main(["packet", "--u0", "24.399", "--p", "1.088", "--b", "1.971",
                         "--l-min", "9.785", "--l-max", "9.785", "--steps", "1",
                         "--out", str(tmp_path / "pkt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "l = 9.785:" in err and "captured weight 1.00001" in err
        assert list(tmp_path.iterdir()) == []

    def test_above_barrier_momentum_rejected(self, tmp_path):
        code = cli.main(["packet", "--u0", "10", "--p", "3.6",
                         "--l-min", "1", "--l-max", "2", "--steps", "2",
                         "--out", str(tmp_path / "pkt")])
        assert code == 1

    @pytest.mark.parametrize("option,value", [
        ("--dt", "0"), ("--dt", "nan"), ("--t-max", "-5"), ("--t-max", "inf"),
    ])
    def test_bad_time_grid_rejected(self, tmp_path, capsys, option, value):
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6",
                         "--l-min", "1", "--l-max", "1", "--steps", "1",
                         option, value, "--out", str(tmp_path / "pkt")])
        assert code == 1
        assert option in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSpectrum:
    def test_sweep(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8",
                         "--l", "0.5,1,2,4", "--k-max", "400", "--n-k", "12001",
                         "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["l", "W_plus", "W_minus", "ratio",
                          "parseval_rel_err", "flags"]
        ratios = [float(r[3]) for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        for row in rows:
            assert float(row[1]) > float(row[2])
            assert float(row[4]) < 0.005
            assert row[5] == ""

    def test_narrow_window_sets_flag(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8",
                         "--l", "3", "--k-max", "2", "--n-k", "401",
                         "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        assert rows[0][5] == "k_max_too_small"

    def test_overflowing_phase_exits_one(self, tmp_path, capsys):
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8", "--l", "1e308",
                         "--out", str(tmp_path / "spec.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "k l overflows at l = 1e+308, eps = 11.8" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_decay_exits_one(self, tmp_path, capsys):
        # chi l overflows while k l does not: the row was NaN, with exit 0
        code = cli.main(["spectrum", "--u0", "12", "--eps", "1", "--l", "1e308",
                         "--out", str(tmp_path / "spec.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "chi l overflows at l = 1e+308, eps = 1.0" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_vanishing_weight_exits_one(self, tmp_path, capsys):
        # W_+ rounds to 0 at l = 1e-300: the ratio was a ZeroDivisionError
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8", "--l", "1e-300",
                         "--out", str(tmp_path / "spec.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "W_+ = 0 at l = 1e-300, eps = 11.8" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_oversize_k_grid_rejected(self, tmp_path, capsys, monkeypatch):
        # 1e9 wavenumbers per half-axis would take ~40 GB; the grid is
        # refused before any array is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("an array was allocated")
        monkeypatch.setattr(np, "empty", refuse)
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8", "--l", "1",
                         "--n-k", "1e9", "--out", str(tmp_path / "spec.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "n_k = 1,000,000,000 wavenumbers per half-axis is more than the 1,048,576 allowed" \
            in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_nan_width_rejected(self, tmp_path):
        code = cli.main(["spectrum", "--u0", "12", "--eps", "11.8",
                         "--l", "1,nan", "--out", str(tmp_path / "spec.csv")])
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class TestOptionValidation:
    """One validator: non-finite values and non-positive sizes exit 1."""

    BASE = {
        "times-width": ["--u0", "12", "--eps", "11.8", "--l-max", "2",
                        "--steps", "3"],
        "times-energy": ["--u0", "8", "--l", "6.32", "--eps-min", "4",
                         "--eps-max", "7.99", "--steps", "3"],
        "packet": ["--u0", "31.4", "--p", "3.6", "--l-min", "1",
                   "--l-max", "1", "--steps", "1", "--t-max", "60"],
        "spectrum": ["--u0", "12", "--eps", "11.8", "--l", "1",
                     "--k-max", "40", "--n-k", "101"],
    }

    @pytest.mark.parametrize("command,option,value", [
        ("packet", "--l-max", "inf"),
        ("packet", "--u0", "nan"),
        ("packet", "--p", "-inf"),
        ("packet", "--steps", "0"),
        ("times-width", "--eps", "nan"),
        ("times-width", "--steps", "-2"),
        ("times-energy", "--l", "inf"),
        ("times-energy", "--eps-max", "nan"),
        ("spectrum", "--k-max", "0"),
        ("spectrum", "--k-max", "inf"),
        ("spectrum", "--l", "1,inf"),
        ("spectrum", "--n-k", "-5"),
        ("spectrum", "--n-k", "1"),
        ("times-energy", "--steps", "1"),
        ("times-energy", "--l", "1,2"),
    ])
    def test_rejected_with_option_named(self, tmp_path, capsys, command,
                                        option, value):
        argv = [command] + self.BASE[command] + [option, value,
                                                 "--out", str(tmp_path / "x")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert option in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_config_out_must_be_a_string(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": 5}))
        code = cli.main(["times-width", "--config", str(config)]
                        + self.BASE["times-width"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--out" in err and "Traceback" not in err

    def test_panel_count_overflow_rejected(self, tmp_path, capsys):
        code = cli.main(["packet", "--u0", "1e308", "--p", "3.6", "--l-min", "1",
                         "--l-max", "1", "--steps", "1", "--out", str(tmp_path / "pkt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "not finite" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_oversize_grid_rejected(self, tmp_path, capsys):
        # t_max = 1e9 would need ~1.6e11 energy nodes; for_horizon refuses
        # the grid before it is allocated
        code = cli.main(["packet", "--u0", "31.4", "--p", "3.6", "--l-min", "1",
                         "--l-max", "1", "--steps", "1", "--t-max", "1e9",
                         "--out", str(tmp_path / "pkt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "t_max = 2e+09 needs" in err and "Traceback" not in err
        assert "the free reference up to t_max = 1e+09 " in err
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_flag_rejected(self, tmp_path, capsys):
        # flag text takes the one conversion that config values take
        code = cli.main(["times-width", *self.BASE["times-width"], "--u0", "abc",
                         "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "--u0 must be a number, got 'abc'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["u0", "steps"])
    def test_config_boolean_rejected(self, tmp_path, capsys, option):
        # JSON true is not the number 1
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: True}))
        flags = dict(zip(self.BASE["times-width"][::2], self.BASE["times-width"][1::2]))
        del flags["--" + option]
        code = cli.main(["times-width", "--config", str(config),
                         *[s for pair in flags.items() for s in pair],
                         "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"--{option} must be a number, got true" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_config_count_must_be_whole(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 2.5}))
        code = cli.main(["times-width", "--config", str(config)]
                        + self.BASE["times-width"][:6]
                        + ["--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestCrossCheck:
    def test_winful_mismatch_exits_two(self, tmp_path, monkeypatch):
        inner = stationary._probability
        monkeypatch.setattr(stationary, "_probability",
                            lambda *args: inner(*args) * (1.0 + 1e-8))
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "11.8",
                         "--l-max", "2", "--steps", "3", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_subnormal_widths_pass(self, tmp_path):
        # the check's tolerance is floored at the least normal float: at
        # subnormal widths, where every time is ~0, it no longer underflows
        out = tmp_path / "width.csv"
        code = cli.main(["times-width", "--u0", "12", "--eps", "11.8", "--l-min", "0",
                         "--l-max", "1e-321", "--steps", "1001", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out)[2]) == 1001


# A fresh interpreter runs one command and names every numpy and scipy
# module loaded.
COLD_RUN = """
import sys
from tunneltimes import cli
code = cli.main(sys.argv[1:])
loaded = [m.partition(".")[0] for m in sys.modules]
print(code, sorted(set(loaded) & {"numpy", "scipy"}))
"""


@pytest.mark.parametrize("argv", [
    ["times-width", "--u0", "12", "--eps", "11.8", "--l-max", "10", "--steps", "201"],
    ["times-energy", "--u0", "8", "--l", "6.32", "--eps-min", "4", "--eps-max", "7.99",
     "--steps", "201"],
    ["packet", "--u0", "31.4", "--p", "3.6", "--b", "2", "--l-min", "1", "--l-max", "2",
     "--steps", "2", "--t-max", "30", "--dt", "0.05"],
    ["spectrum", "--u0", "12", "--eps", "11.8", "--l", "1,2", "--k-max", "400",
     "--n-k", "1201"],
], ids=lambda argv: argv[0])
def test_cold_command_loads_only_the_libraries_it_needs(tmp_path, argv):
    # a fresh process running one command ends without any scipy module
    # loaded, and the stationary sweeps, computed in Python floats, without
    # any numpy module either
    libraries = [] if argv[0].startswith("times-") else ["numpy"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", COLD_RUN, *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip().split(maxsplit=1) == ["0", repr(libraries)]


README_RUNS = [
    ["times-width", "--u0", "12", "--eps", "11.8", "--l-min", "0", "--l-max", "10",
     "--steps", "201"],
    ["times-energy", "--u0", "8", "--l", "6.32", "--eps-min", "4", "--eps-max", "7.99",
     "--steps", "201"],
    ["packet", "--u0", "31.4", "--p", "3.6", "--b", "2", "--l-min", "1", "--l-max", "3",
     "--steps", "5", "--t-max", "60"],
    ["spectrum", "--u0", "12", "--eps", "11.8", "--l", "0.5,1,2,4,8", "--k-max", "400",
     "--n-k", "12001"],
]


@pytest.mark.parametrize("argv", README_RUNS[:3], ids=lambda argv: argv[0])
def test_readme_csvs_as_from_the_numpy_grid(tmp_path, monkeypatch, argv):
    # the sweeps take numerics.linspace's points; the README files equal,
    # byte for byte, those written from numpy.linspace's grid
    assert cli.main(argv + ["--out", str(tmp_path / "py")]) == 0
    numpy_grid = lambda a, b, n: [float(x) for x in np.linspace(a, b, n)]
    monkeypatch.setattr(cli, "linspace", numpy_grid)
    monkeypatch.setattr(times, "linspace", numpy_grid)
    assert cli.main(argv + ["--out", str(tmp_path / "np")]) == 0
    written = sorted(tmp_path.glob("py*"))
    assert len(written) == (2 if argv[0] == "packet" else 1)
    for path in written:
        twin = tmp_path / path.name.replace("py", "np", 1)
        assert twin.read_bytes() == path.read_bytes(), path.name


# sha256 of each file the README commands write: a change to a closed form
# that flips one printed digit, or to a metadata block, fails here
README_DIGESTS = {
    "times-width": {
        "out.csv": "be34fb2cfe0d7427d0698b9d94ebae884aa873f78f983a90488367b5281d959f"},
    "times-energy": {
        "out.csv": "8925ab6325ac37bbfe36f6bce9863ba35c7a1ac05683f2efe9cb8213bb379086"},
    "packet": {
        "out_arrival.csv": "97cb834198168146e0eeee743499cf2df480ac396cac704059295286fce5d9e8",
        "out_mean.csv": "8fed4a0c76cab8da6efbfc119906e00614f6090dabcac10eb32c1b14639c9e89"},
    "spectrum": {
        "out.csv": "8e6e573a0d468d5a7ae4850c42a824890fd41b1ece9ad4b0d2cd6ba2bb305567"},
}


@pytest.mark.parametrize("argv", README_RUNS, ids=lambda argv: argv[0])
def test_readme_csv_digest(tmp_path, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == README_DIGESTS[argv[0]]


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "u0": 12.0, "eps": 11.8, "l_min": 0.0, "l_max": 2.0,
            "steps": 9, "out": str(tmp_path / "from_config.csv"),
        }))
        code = cli.main(["times-width", "--config", str(config),
                         "--steps", "5"])
        assert code == 0
        _, _, rows = read_csv(tmp_path / "from_config.csv")
        assert len(rows) == 5  # flag wins over config

    @pytest.mark.parametrize("command,config", [
        ("times-width", {"stepz": 9, "l_maxx": 3}),
        ("times-energy", {"l-max": 3}),
        ("packet", {"dump_series": True}),
        ("spectrum", {"steps": 5}),
    ], ids=["typos", "dashed-key", "dump-series", "other-command-option"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, config):
        # a key that names no option of the command, such as a typo, is not
        # ignored in favour of the default
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path)] + TestOptionValidation.BASE[command]
                        + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"naming no option of {command}: {', '.join(sorted(config))}" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [path]

    def test_missing_required_option(self, tmp_path):
        assert cli.main(["times-width", "--u0", "12", "--eps", "11.8"]) == 1

    @pytest.mark.parametrize("command,option,value", [
        ("times-width", "u0", "12"),
        ("packet", "p", "3.6"),
        ("spectrum", "l", 1.5),
        ("times-width", "steps", 3.0),
    ])
    def test_config_value_converted_as_its_flag(self, tmp_path, command, option, value):
        # a config file's number text, a number where the flag takes a comma
        # list, or a whole float for a count writes the file the flag writes
        flags = dict(zip(TestOptionValidation.BASE[command][::2],
                         TestOptionValidation.BASE[command][1::2]))
        flags["--" + option] = str(value)
        argv = [s for pair in flags.items() for s in pair]
        assert cli.main([command, *argv, "--out", str(tmp_path / "flag.csv")]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: value}))
        argv = [s for pair in flags.items() if pair[0] != "--" + option for s in pair]
        assert cli.main([command, "--config", str(config), *argv,
                         "--out", str(tmp_path / "config.csv")]) == 0
        written = sorted(tmp_path.glob("flag*.csv"))
        assert written
        for path in written:
            twin = tmp_path / path.name.replace("flag", "config")
            assert twin.read_bytes() == path.read_bytes()
