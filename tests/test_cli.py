"""Command-line contract tests: output formats and stable exit codes."""

import codecs
import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abps_toolkit import cli, coverage
from abps_toolkit.abps import reference_model_path
from abps_toolkit.packetsim import derive_seeds

M = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_walk(path, length_m, step_s=1.0):
    rows = ["t,lat,lon"]
    for i in range(int(length_m / step_s) + 1):
        rows.append(f"{i * step_s},0.0,{i * step_s * M:.12f}")
    path.write_text("\n".join(rows) + "\n")


def write_corridor_catalog(path):
    rows = ["essid,lat,lon,radius_m,group,open"]
    for i, x in enumerate((40, 120, 200, 280)):
        rows.append(f"campus-{i + 1},0.0,{x * M:.12f},60,campusnet,true")
    rows.append(f"cafe,0.0,{150 * M:.12f},30,,true")
    path.write_text("\n".join(rows) + "\n")


def write_endpoints_catalog(path):
    rows = ["essid,lat,lon,radius_m,group,open",
            f"park-wifi,0.0,{30 * M:.12f},50,,true",
            f"corner-shop,0.0,{470 * M:.12f},50,,true"]
    path.write_text("\n".join(rows) + "\n")


class TestSolve:
    def test_builtin_plain(self, capsys):
        code, out, _ = run(capsys, "solve", "plain")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("availability")
        assert lines[1].startswith("power_W")
        assert lines[2].startswith("throughput_Mbps")
        availability = float(lines[0].split()[1])
        assert 0.0 <= availability <= 1.0

    def test_listing_file_matches_builtin_in_compat_mode(self, capsys):
        code, from_file, _ = run(
            capsys, "solve", str(reference_model_path("oracle")),
            "--params", "T_W_minus=20", "--params", "T_W_plus=80",
        )
        assert code == 0
        code, from_builtin, _ = run(capsys, "solve", "oracle", "--mode", "appendix")
        assert code == 0
        assert from_file == from_builtin

    def test_missing_binding_names_constant(self, capsys):
        code, _, err = run(
            capsys, "solve", str(reference_model_path("oracle")),
            "--params", "T_W_minus=20",
        )
        assert code == 2
        assert "T_W_plus" in err

    def test_division_by_zero_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "solve", str(reference_model_path("oracle")),
            "--params", "T_W_minus=0", "--params", "T_W_plus=80",
        )
        assert (code, out) == (2, "")
        assert "division by zero" in err and "T_W_minus" in err

    @pytest.mark.parametrize("line, message", [
        ("x : [0..1e400] init 0;", "line 3, column 11: expected an integer"),
        ("x : [0..2²] init 0;", "line 3, column 12: unexpected character '²'"),
        ("x : [0..1] init 0; [] x -> (x'=1);", "expected a boolean, got a number in x"),
    ])
    def test_malformed_listing_exit_2(self, capsys, tmp_path, line, message):
        listing = tmp_path / "bad.sm"
        listing.write_text(f"ctmc\nmodule m\n  {line}\nendmodule\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", str(listing))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_formula_forward_reference_exit_2(self, capsys, tmp_path):
        listing = tmp_path / "forward.sm"
        listing.write_text("ctmc\nformula a = b + 1;\nformula b = 1;\nmodule m\n"
                           "  x : [0..1] init 0; [] x=0 -> a:(x'=1);\nendmodule\n",
                           encoding="utf-8")
        code, out, err = run(capsys, "solve", str(listing))
        assert (code, out) == (2, "")
        assert err == ("error: line 2, column 1: formula 'a' refers to formula 'b',"
                       " which is declared after it\n")

    def test_listing_that_is_not_utf8_exit_2(self, capsys, tmp_path):
        listing = tmp_path / "binary.sm"
        listing.write_bytes(b"ctmc\n\x89PNG\r\n")
        code, out, err = run(capsys, "solve", str(listing))
        assert (code, out, err) == (2, "", f"error: {listing}:2: byte 0x89 is not UTF-8\n")

    def test_unknown_parameter(self, capsys):
        code, _, err = run(capsys, "solve", "plain", "--params", "warp_speed=9")
        assert code == 2
        assert "warp_speed" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-model.sm")
        assert code == 2
        assert err

    def test_params_file(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("gamma_U = 0.002\n")
        code, out, _ = run(capsys, "solve", "plain", "--params-file", str(cfg))
        assert code == 0
        # the file's entries and then --params over them, checked once, give
        # what every entry given with --params gives: a pin in the file
        # holds, a window in the file meets the other window from a flag,
        # and a flag overrides the file
        for in_file, flag in (("lambda_UW_U=0.5", "T_W_minus=10"),
                              ("T_W_minus=100", "T_W_plus=200"),
                              ("gamma_U=0.002", "gamma_U=0.003")):
            cfg.write_text(in_file.replace("=", " = ") + "\n")
            merged = run(capsys, "solve", "plain", "--params-file", str(cfg), "--params", flag)
            flags = run(capsys, "solve", "plain", "--params", in_file, "--params", flag)
            assert merged == flags and merged[0] == 0, (in_file, flag, merged)

    def test_params_file_that_is_not_utf8_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(b"gamma_U = 0.002 # caf\xe9\n")
        code, out, err = run(capsys, "solve", "plain", "--params-file", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:1: byte 0xe9 is not UTF-8\n")

    @pytest.mark.parametrize("flag, line, same_as, message", [
        ("gamma_U=0.002 # note", "gamma_U = 0.002 # note", ("--params", "gamma_U=0.002"), None),
        ("# only a note", "# only a note", (), None),
        ("gamma_U=abc", "gamma_U = abc", None, "non-numeric value for 'gamma_U': 'abc'"),
        ("gamma_U", "gamma_U", None, "expected key=value, got 'gamma_U'"),
    ])
    def test_flag_and_file_line_read_alike(self, capsys, tmp_path, flag, line, same_as, message):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        from_flag = run(capsys, "solve", "plain", "--params", flag)
        from_file = run(capsys, "solve", "plain", "--params-file", str(cfg))
        if message is None:
            assert from_flag == from_file == run(capsys, "solve", "plain", *same_as)
            assert from_flag[0] == 0
        else:
            assert from_flag == (2, "", f"error: {message}\n")
            assert from_file == (2, "", f"error: {cfg}:1: {message}\n")

    def test_params_file_with_listing_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("T_W_minus = 5\nT_W_plus = 120\n")
        code, out, err = run(
            capsys, "solve", str(reference_model_path("oracle")),
            "--params", "T_W_minus=20", "--params", "T_W_plus=80",
            "--params-file", str(cfg),
        )
        assert (code, out) == (2, "")
        assert "--params-file" in err and "--params K=V" in err

    @pytest.mark.parametrize("mode", ["text", "appendix"])
    def test_mode_with_listing_rejected(self, capsys, mode):
        windows = ("--params", "T_W_minus=20", "--params", "T_W_plus=80")
        code, out, err = run(capsys, "solve", str(reference_model_path("plain")),
                             *windows, "--mode", mode)
        assert (code, out) == (2, "")
        assert "--mode" in err and "listing fixes its own rule" in err
        # without --mode the listing solves; the built-in routes take either mode
        assert run(capsys, "solve", str(reference_model_path("plain")), *windows)[0] == 0
        assert run(capsys, "solve", "plain", *windows, "--mode", mode)[0] == 0


class TestSweep:
    def test_default_grid_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "variant,T_W_minus,T_W_plus,availability,power_W,throughput_Mbps"
        assert len(lines) == 1 + 24

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "sweep", "--out", str(a))[0] == 0
        assert run(capsys, "sweep", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_orderings_hold_in_emitted_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--out", str(out_file), "--mode", "appendix")
        rows = {}
        for line in out_file.read_text().strip().split("\n")[1:]:
            variant, tm, tp, avail, power, tput = line.split(",")
            rows[(variant, tm, tp)] = (float(avail), float(power), float(tput))
        for (variant, tm, tp), (avail, power, tput) in rows.items():
            assert 0.0 <= avail <= 1.0
            if variant == "oracle":
                p_avail, p_power, p_tput = rows[("plain", tm, tp)]
                assert p_avail >= avail
                assert power < p_power
                assert tput <= p_tput

    def test_custom_grid_to_stdout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "tmin:10", "tplus:80",
                           "--variant", "plain")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("plain,10,80,")
        # a pinned oracle rate holds in a sweep as in a solve
        pin = ("--params", "lambda_UW_U=0.5")
        code, out, _ = run(capsys, "sweep", "--grid", "tmin:20", "tplus:80",
                           "--variant", "oracle", *pin)
        assert code == 0
        availability = float(out.strip().split("\n")[1].split(",")[3])
        assert availability != 0.902269514164  # the unpinned point
        assert run(capsys, "solve", "oracle", *pin)[1].startswith(
            f"availability     {availability:.6g}\n")

    def test_singular_solve_rows_carry_an_error(self, capsys):
        # rates this far apart round a stationary system to singular at
        # some grid points; which ones may vary with the LAPACK build
        code, out, _ = run(capsys, "sweep", "--params", "beta_U=1e-300",
                           "--params", "mu_U=1e-310")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 24
        for row in rows:
            metrics, error = row[3:6], row[6:]
            assert (all(metrics) and not any(error)) or (error[0] and not any(metrics))

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--grid", "tmin:5", "tmax:40")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("grid, message", [
        (("tmin5", "tplus:40"), "grid spec needs name:v1,v2,..., got 'tmin5'"),
        (("tmin:5", "tplus:x"), "non-numeric grid value in 'tplus:x'"),
        (("tmin:5", "tmin:10"), "grid needs both axes, e.g. --grid tmin:5,10 tplus:40,80"),
    ])
    def test_malformed_grid_exit_2(self, capsys, grid, message):
        assert run(capsys, "sweep", "--grid", *grid) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("token", ["tmin:5,,10", "tmin:5,10,", "tmin:,5", "tmin:"])
    def test_empty_grid_entry_rejected(self, capsys, token):
        # an empty entry used to drop a grid point silently
        code, out, err = run(capsys, "sweep", "--grid", token, "tplus:40,80")
        assert (code, out) == (2, "")
        assert f"empty grid entry in {token!r}" in err


class TestSimulate:
    def test_single_run_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--variant", "plain",
                           "--duration", "2000", "--seed", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("variant,rep,seed,availability")
        assert len(lines) == 2

    def test_replication_seeds(self, capsys):
        def seeds(reps):
            code, out, _ = run(capsys, "simulate", "--variant", "plain",
                               "--duration", "200", "--seed", "7", "--reps", reps)
            assert code == 0
            return [int(line.split(",")[2]) for line in out.strip().split("\n")[1:]]

        assert seeds("1") == [7]
        assert seeds("3") == derive_seeds(7, 3)

    def test_out_writes_the_csv_stdout_would_get(self, capsys, tmp_path):
        argv = ("simulate", "--variant", "both", "--duration", "200", "--seed", "3",
                "--reps", "2")
        path = tmp_path / "sim.csv"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (0, f"wrote 4 rows to {path}\n", "")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert path.read_bytes() == stdout.encode("utf-8")

    def test_trace_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "simulate", "--variant", "oracle",
                         "--duration", "1000", "--data-rate", "5",
                         "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines
        first = lines[0].split(",")
        assert len(first) >= 4
        float(first[0])  # leading field is the timestamp

    def test_non_finite_ack_timing_exit_2(self, capsys):
        for flag, value in (("--ack-delay", "inf"), ("--ack-delay", "nan"),
                            ("--ack-timeout", "inf")):
            code, out, err = run(capsys, "simulate", "--variant", "oracle",
                                 "--duration", "100", "--data-rate", "5", flag, value)
            assert (code, out) == (2, "")
            assert "finite" in err and value in err

    @pytest.mark.parametrize("flags, field", [
        (("--data-rate", "1", "--ack-timeout", "1e-320"), "ack_timeout"),
        (("--data-rate", "1e308"), "data_rate"),
    ])
    def test_step_below_clock_resolution_exit_2(self, capsys, flags, field):
        # such a step cannot advance the clock, so the run never ended
        code, out, err = run(capsys, "simulate", "--variant", "plain",
                             "--duration", "10", *flags)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must ") and "math.ulp(duration)" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--variant", "plain", "--duration", "2000"),
        ("sweep",),
        ("solve", "plain"),
    ])
    def test_non_finite_amount_exit_2(self, capsys, argv):
        # a NaN energy printed power_W nan, and an infinite one made every
        # sweep row an error, each with exit 0
        for key, value in (("e.UMTS.connected", "nan"), ("tput_W", "nan"),
                           ("oracle_baseline_power", "inf")):
            assert run(capsys, *argv, "--params", f"{key}={value}") == (
                2, "", f"error: {key} must be nonnegative and finite, got {value}\n")

    @pytest.mark.parametrize("argv", [
        ("simulate", "--variant", "plain", "--duration", "2000"),
        ("sweep",),
        ("solve", "plain"),
    ])
    def test_overflowing_state_power_exit_2(self, capsys, argv):
        # each entry is finite, but the setup-connected state draws 2e308 W
        flags = ("--params", "e.UMTS.connected=1e308", "--params", "e.WiFi.connected=1e308",
                 "--params", "e.UMTS.setup=1e308")
        assert run(capsys, *argv, *flags) == (
            2, "", "error: state power oracle_baseline_power + e.UMTS.setup + e.WiFi.connected"
                   " = 0.1 + 1e+308 + 1e+308 is not finite\n")

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--duration", "100", "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed must be a nonnegative integer, got -1" in err

    def test_no_replications_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--duration", "100", "--reps", "0")
        assert (code, out) == (2, "")
        assert "replications must be a positive integer, got 0" in err


class TestCompare:
    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(capsys, "compare", "--reps", "2", "--duration", "100",
                             "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed must be a nonnegative integer, got -1" in err

    def test_degenerate_single_replication(self, capsys):
        # one replication has no standard error, so no verdict can be reached
        code, out, err = run(capsys, "compare", "--reps", "1", "--duration", "100",
                             "--seed", "3")
        assert (code, out) == (2, "")
        assert "needs at least 2 replications" in err and "got 1" in err

    def test_unseedable_replication_count_exit_2(self, capsys):
        # no seed array this long can exist; it was a numpy traceback, exit 1
        code, out, err = run(capsys, "compare", "--reps", str(10**20), "--duration", "1")
        assert (code, out) == (2, "")
        assert f"replications must be at most {np.iinfo(np.intp).max}," in err
        assert err.endswith(f"got {10**20}\n")

    def test_fixed_seed_reports_identical(self, capsys):
        args = ("compare", "--variant", "plain", "--reps", "3",
                "--duration", "5000", "--seed", "11")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert (code_a, out_a) == (code_b, out_b)

    def test_moderate_run_passes(self, capsys):
        code, out, _ = run(capsys, "compare", "--variant", "oracle", "--reps", "6",
                           "--duration", "20000", "--seed", "17")
        assert code == 0
        assert "FAIL" not in out


class TestOracle:
    def test_corridor_long_event_umts_off(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_walk(walk, 360)
        write_corridor_catalog(catalog)
        code, out, _ = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 0
        long_lines = [l for l in out.split("\n") if "EV_LONG_WIFI" in l]
        assert len(long_lines) == 1
        assert "umts=off" in long_lines[0]
        assert "campus-1" in long_lines[0]

    def test_endpoints_middle_keeps_umts(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_walk(walk, 500)
        write_endpoints_catalog(catalog)
        code, out, _ = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 0
        no_wifi = [l for l in out.split("\n") if "EV_NO_WIFI" in l]
        assert no_wifi and "umts=on" in no_wifi[0] and "wifi=off" in no_wifi[0]

    def test_skipped_catalog_records_warn_on_stderr(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_walk(walk, 500)
        write_endpoints_catalog(catalog)
        code, clean, _ = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 0
        with catalog.open("a") as fh:
            fh.write("broken,north,0.0,50,,true\nmaybe,0.0,0.0,50,,perhaps\n")
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 0
        assert err == "warning: skipped 2 malformed catalog records\n"
        assert out == clean

    def test_empty_trajectory_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        walk.write_text("t,lat,lon\n")
        write_corridor_catalog(catalog)
        code, _, err = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 2
        assert "2 samples" in err

    def test_malformed_trajectory_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        walk.write_text("t,lat,lon\n0,0.0,zero\n1,0.0,0.0001\n")
        write_corridor_catalog(catalog)
        code, _, err = run(capsys, "oracle", str(walk), str(catalog))
        assert code == 2
        assert "walk.csv:2" in err

    def test_malformed_speed_cell_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        walk.write_text("t,lat,lon,speed\n0,45.07,7.68,1.2\n2,45.07,7.68,abc\n")
        write_corridor_catalog(catalog)
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out) == (2, "")
        assert err == (f"error: {walk}:3: malformed trajectory row"
                       " ['2', '45.07', '7.68', 'abc']\n")

    def test_typo_in_first_row_of_headerless_walk_exit_2(self, capsys, tmp_path):
        # "7.O" ends in the letter O; t and lat are numbers, so no header
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        walk.write_text("0,45.0,7.O\n1,45.0,7.0\n2,45.0,7.0001\n")
        write_corridor_catalog(catalog)
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out) == (2, "")
        assert err == f"error: {walk}:1: malformed trajectory row ['0', '45.0', '7.O']\n"
        for header in ("t,lat,lon", "time,latitude,longitude,speed", "t"):
            walk.write_text(f"{header}\n0,45.0,7.0\n1,45.0,7.0001\n")
            code, out, _ = run(capsys, "oracle", str(walk), str(catalog))
            assert code == 0 and out.startswith("t=0.0 ")

    def test_invalid_coordinates_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_corridor_catalog(catalog)
        for bad in ("999.0", "nan"):
            walk.write_text(f"t,lat,lon\n0,0.0,0.0\n1,{bad},0.0001\n2,0.0,0.0002\n")
            code, out, err = run(capsys, "oracle", str(walk), str(catalog))
            assert (code, out) == (2, "")
            assert "sample 1" in err and bad in err

    def test_files_that_are_not_utf8_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        walk.write_bytes(b"\x89PNG\r\n\x1a\n")
        catalog.write_bytes(b"\x89PNG\r\n\x1a\n")
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out, err) == (2, "", f"error: {walk}:1: byte 0x89 is not UTF-8\n")
        write_walk(walk, 100)
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out, err) == (2, "", f"error: {catalog}:1: byte 0x89 is not UTF-8\n")

    def test_non_finite_timestamp_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_corridor_catalog(catalog)
        walk.write_text(f"t,lat,lon\n0,0.0,0.0\ninf,0.0,{100 * M:.12f}\n")
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out) == (2, "")
        assert "sample 1" in err and "timestamp" in err


# The inputs of `abps oracle` that the mutants below start from: a walk with
# a header and a speed column, and the corridor catalog.
ORACLE_INPUTS = {
    "walk": "t,lat,lon,speed\n" + "".join(f"{i},0.0,{i * 5 * M:.12f},5\n" for i in range(61)),
    "catalog": "essid,lat,lon,radius_m,group,open\n" + "".join(
        f"campus-{i + 1},0.0,{x * M:.12f},60,campusnet,true\n"
        for i, x in enumerate((40, 120, 200, 280))) + f"cafe,0.0,{150 * M:.12f},30,,true\n",
}


@st.composite
def csv_mutants(draw, text, sep=b","):
    """``text`` with one to three edits: a row deleted or repeated, a cell
    (cells end at ``sep``) set to '', nan, inf or 1e999, a cell added, or a
    byte that is not UTF-8 put in."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        rows = data.split(b"\n")
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "cell", "column", "byte"]))
        if edit == "delete":
            del rows[i]
        elif edit == "repeat":
            rows.insert(i, rows[i])
        elif edit == "cell":
            cells = rows[i].split(sep)
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from([b"", b"nan", b"inf", b"1e999"]))
            rows[i] = sep.join(cells)
        elif edit == "column":
            rows[i] += sep + draw(st.sampled_from([b"", b"1.5", b"x"]))
        else:
            k = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:k] + draw(st.sampled_from([b"\x80", b"\xc3", b"\xff"])) + rows[i][k:]
        data = b"\n".join(rows)
    return data


class TestOracleInputMutants:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(ORACLE_INPUTS)), st.data())
    def test_mutants_exit_0_or_2_and_a_bad_walk_row_names_its_line(
            self, tmp_path_factory, target, data):
        paths = {name: tmp_path_factory.getbasetemp() / f"{name}.csv" for name in ORACLE_INPUTS}
        for name, path in paths.items():
            path.write_text(ORACLE_INPUTS[name])
        paths[target].write_bytes(data.draw(csv_mutants(ORACLE_INPUTS[target])))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["oracle", str(paths["walk"]), str(paths["catalog"])])
        assert code in (0, 2)
        if code == 2 and target == "walk" and "needs at least 2 samples" not in err.getvalue():
            assert re.match(rf"error: {re.escape(str(paths['walk']))}:\d+: ", err.getvalue())


# The parameter inputs of `abps sweep` that the mutants below start from, one
# line per file line, --params entry or --grid token, each with the byte
# that ends its cells.
PARAMS_INPUTS = {
    "file": ("# overrides\ngamma_U = 0.002\nT_W_minus=10\ne.UMTS.connected = 0.7\n", b"="),
    "params": ("mu_U=0.01\ne.WiFi.connected=0.4", b"="),
    "grid": ("tmin:5,10\ntplus:40,80", b","),
}


class TestParamsInputMutants:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PARAMS_INPUTS)), st.data())
    def test_mutants_exit_0_or_2_and_a_bad_file_line_names_its_line(
            self, tmp_path_factory, target, data):
        lines = {name: text.encode() for name, (text, _) in PARAMS_INPUTS.items()}
        text, sep = PARAMS_INPUTS[target]
        lines[target] = data.draw(csv_mutants(text, sep))
        path = tmp_path_factory.getbasetemp() / "p.cfg"
        path.write_bytes(lines["file"])
        # a command line holds what the system decodes from its bytes
        argv = {name: lines[name].decode("utf-8", "surrogateescape").split("\n")
                for name in ("params", "grid")}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["sweep", "--variant", "plain", "--params-file", str(path),
                                 *(f"--params={entry}" for entry in argv["params"]),
                                 "--grid", *argv["grid"]])
            except SystemExit as stop:  # argparse: --grid takes two tokens
                code = stop.code
        assert code in (0, 2)
        if code == 2 and str(path) in err.getvalue():
            assert re.match(rf"error: {re.escape(str(path))}:\d+: ", err.getvalue())


class TestByteOrderMark:
    """Each input file may start with a UTF-8 byte-order mark."""

    @staticmethod
    def route(name, tmp_path):
        """The command that reads the named kind of file, and that file."""
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_walk(walk, 300)
        write_corridor_catalog(catalog)
        path = {"params": tmp_path / "p.cfg", "listing": tmp_path / "oracle.sm",
                "trajectory": walk, "catalog": catalog}[name]
        argv = {"params": ["solve", "oracle", "--params-file", str(path)],
                "listing": ["solve", str(path), "--params", "T_W_minus=20",
                            "--params", "T_W_plus=80"],
                "trajectory": ["oracle", str(walk), str(catalog)],
                "catalog": ["oracle", str(walk), str(catalog)]}[name]
        if name == "params":
            path.write_text("gamma_U = 0.002\nT_W_minus = 10\n")
        elif name == "trajectory":
            # no header: a first row that does not parse would be taken for one
            walk.write_text(walk.read_text().split("\n", 1)[1])
        elif name == "listing":
            path.write_bytes(reference_model_path("oracle").read_bytes())
        return argv, path

    @pytest.mark.parametrize("name", ["params", "listing", "trajectory", "catalog"])
    def test_mark_is_dropped(self, capsys, tmp_path, name):
        argv, path = self.route(name, tmp_path)
        plain = run(capsys, *argv)
        assert plain[0] == 0 and plain[1]
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert run(capsys, *argv) == plain

    @pytest.mark.parametrize("name", ["params", "listing", "trajectory", "catalog"])
    def test_byte_that_is_not_utf8_after_the_mark_names_its_line(self, capsys, tmp_path, name):
        argv, path = self.route(name, tmp_path)
        path.write_bytes(codecs.BOM_UTF8 + b"caf\xc3\xa9\r\ncaf\xe9\r\n")
        assert run(capsys, *argv) == (2, "", f"error: {path}:2: byte 0xe9 is not UTF-8\n")


class TestEntryPoint:
    def test_module_run_exits_2_on_bad_input(self):
        # the exit code through a real process, not only main()'s return value
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        argv = ["solve", "plain", "--params", "gamma_U=abc"]
        done = subprocess.run([sys.executable, "-m", "abps_toolkit.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "error: non-numeric value for 'gamma_U': 'abc'\n")


class TestParserReuse:
    """One parser serves every ``cli.main`` call in a process, and no call
    leaves state behind for the next."""

    def test_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "solve", "plain")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_out_path_not_carried_over(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--out", str(path))
        assert code == 0 and out.startswith("wrote 24 rows")
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        assert out == path.read_text(encoding="utf-8")

    def test_repeated_params_do_not_accumulate(self, capsys):
        default = run(capsys, "solve", "plain")
        narrow = ("solve", "plain", "--params", "T_W_minus=5", "--params", "T_W_plus=50")
        first = run(capsys, *narrow)
        assert first[0] == 0 and first != default
        assert run(capsys, *narrow) == first
        assert run(capsys, "solve", "plain", "--params", "nope=1")[0] == 2
        assert run(capsys, "solve", "plain") == default


class TestSweepGolden:
    """``abps sweep`` prints the bytes recorded with the earlier composer,
    which walked the whole chain again at every grid point."""

    GRIDS = {
        "default": (),
        "grid2": ("--grid", "tmin:3,7.5,13,55", "tplus:60,61,300"),
        "errors": ("--grid", "tmin:0,20,90", "tplus:10,80"),  # bad-window rows
    }

    @pytest.mark.parametrize("mode", ["text", "appendix"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_sweep_csv_unchanged(self, capsys, grid, mode):
        expected = (GOLDEN / f"sweep_{grid}_{mode}.csv").read_text(encoding="utf-8")
        for _ in range(2):  # the second run replays the remembered walks
            code, out, _ = run(capsys, "sweep", "--mode", mode, *self.GRIDS[grid])
            assert code == 0
            assert out == expected


class TestSimulatorGolden:
    """``abps compare`` and ``abps simulate`` reproduce their recorded
    outputs. These move with the random stream: the order in which the
    simulator reads its exponentials and uniforms from the generator. They
    were recorded when both came from 256-draw blocks. The CSV floats are
    compared to a relative 1e-11, so a change to how the loop sums its time
    integrals may move them by a few ulps without a re-recording."""

    @pytest.mark.parametrize("mode", ["text", "appendix"])
    def test_compare_report_unchanged(self, capsys, mode):
        expected = (GOLDEN / f"compare_{mode}.txt").read_text(encoding="utf-8")
        code, out, _ = run(capsys, "compare", "--reps", "4", "--duration", "5000",
                           "--seed", "3", "--mode", mode)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("name, argv", [
        ("idle", ("--variant", "both", "--reps", "3", "--duration", "20000")),
        ("traffic", ("--variant", "oracle", "--duration", "300", "--data-rate", "20",
                     "--ack-delay", "2", "--ack-timeout", "0.5")),
        ("traffic_acked", ("--variant", "oracle", "--reps", "8", "--duration", "50",
                           "--data-rate", "50", "--ack-delay", "0.2", "--ack-timeout", "1")),
    ])
    def test_simulate_csv_unchanged(self, capsys, name, argv):
        expected = (GOLDEN / f"simulate_{name}.csv").read_text(encoding="utf-8")
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        got_rows = [line.split(",") for line in out.splitlines()]
        want_rows = [line.split(",") for line in expected.splitlines()]
        assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
        for got, want in zip(got_rows[1:], want_rows[1:]):
            assert got[:3] == want[:3]          # variant, rep, seed
            assert got[7:] == want[7:]          # duplicates, retransmissions
            assert [float(x) for x in got[3:7]] == pytest.approx(
                [float(x) for x in want[3:7]], rel=1e-11, abs=0.0)
