"""Command-line contract tests: output formats and stable exit codes."""

import math
from pathlib import Path

import pytest

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

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--grid", "tmin:5", "tmax:40")
        assert code == 2
        assert "grid" in err


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


class TestCompare:
    def test_degenerate_single_replication(self, capsys):
        # one replication has no standard error, so no verdict can be reached
        code, _, err = run(capsys, "compare", "--reps", "1", "--duration", "100",
                           "--seed", "3")
        assert code == 2
        assert "needs at least 2 replications" in err and "got 1" in err

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

    def test_invalid_coordinates_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_corridor_catalog(catalog)
        for bad in ("999.0", "nan"):
            walk.write_text(f"t,lat,lon\n0,0.0,0.0\n1,{bad},0.0001\n2,0.0,0.0002\n")
            code, out, err = run(capsys, "oracle", str(walk), str(catalog))
            assert (code, out) == (2, "")
            assert "sample 1" in err and bad in err

    def test_non_finite_timestamp_exit_2(self, capsys, tmp_path):
        walk, catalog = tmp_path / "walk.csv", tmp_path / "aps.csv"
        write_corridor_catalog(catalog)
        walk.write_text(f"t,lat,lon\n0,0.0,0.0\ninf,0.0,{100 * M:.12f}\n")
        code, out, err = run(capsys, "oracle", str(walk), str(catalog))
        assert (code, out) == (2, "")
        assert "sample 1" in err and "timestamp" in err


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
        for _ in range(2):  # the second run reuses the compiled chains
            code, out, _ = run(capsys, "sweep", "--mode", mode, *self.GRIDS[grid])
            assert code == 0
            assert out == expected
