"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

Every workload runs at smoke size, the same seed must give the same inputs,
and each correctness check must be able to fail: a corrupted output has to
count as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from abps_toolkit import packetsim  # noqa: E402

SEED = 3


def smoke(name: str, tmp_path: Path):
    workload = workloads.WORKLOADS[name](SEED, tmp_path, small=True)
    workload.setup()
    return workload


def run_rounds(workload, rounds: int = 2) -> workloads.Recorder:
    rec = workloads.Recorder()
    for index in range(rounds):
        workload.round(index, rec)
    workload.finish(rec)
    return rec


# -- inputs ------------------------------------------------------------------


def test_same_seed_same_inputs():
    assert inputs.sweep_grid(SEED, 4) == inputs.sweep_grid(SEED, 4)
    assert inputs.sweep_grid(SEED, 4) != inputs.sweep_grid(SEED + 1, 4)
    assert inputs.compare_seed(SEED, 2) == inputs.compare_seed(SEED, 2)
    assert inputs.traffic_seed(SEED, 2) == inputs.traffic_seed(SEED, 2)
    a, b = inputs.city(SEED), inputs.city(SEED)
    assert a.catalog_csv() == b.catalog_csv()
    assert [a.walk_csv(i) for i in range(len(a.walks))] == \
        [b.walk_csv(i) for i in range(len(b.walks))]
    assert a.catalog_csv() != inputs.city(SEED + 1).catalog_csv()


def test_sweep_grid_is_valid_and_default_sized():
    grid = inputs.sweep_grid(SEED, 0)
    assert (len(grid.t_minus), len(grid.t_plus)) == (4, 3)
    assert max(grid.t_minus) <= min(grid.t_plus)


def test_city_shape():
    spec = inputs.FULL_CITY
    city = inputs.city(SEED)
    assert len(city.catalog_rows) == spec.n_aps
    assert len({(essid, lat, lon) for essid, lat, lon, *_ in city.catalog_rows}) == spec.n_aps
    assert len(city.walk_sets) == spec.walk_sets
    for walk_set in city.walk_sets:
        routes = [tuple(p[1:] for p in city.walks[i]) for i in walk_set]
        assert len(set(routes)) == spec.walks_per_set - spec.repeats_per_set
    assert all(len(w) == spec.samples for w in city.walks)


# -- workloads at smoke size -------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_clean_at_smoke_size(name, tmp_path):
    workload = smoke(name, tmp_path)
    rec = run_rounds(workload)
    assert rec.failures == []
    assert rec.seconds[workload.main_kind] and rec.seconds[workload.side_kind]
    assert rec.attempted > 0


def test_traced_round_gives_layer_metrics(tmp_path):
    workload = smoke("sweep-grid", tmp_path)
    rec = workloads.Recorder()
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        rec.tracer = spans
        workload.round(0, rec)
    finally:
        uninstall()
    assert rec.failures == []
    values = tracer.layer_metrics(spans.spans, 1, rec.counts, 0.0)
    assert set(values) == {m[0] for m in tracer.LAYER_METRICS}
    assert values["modlang.compose.per_point"] == 1.0
    assert values["cli.main.calls"] == 4        # two sweeps, two listing solves
    assert values["abps.sweep.points"] == 4     # 2 x 1 grid, both variants
    assert values["ctmc.steady_state.self_ms"] <= values["ctmc.steady_state.ms"]
    # the wrappers are gone again
    from abps_toolkit import abps, modlang
    assert abps.compose is modlang.compose and not hasattr(modlang.compose, "__wrapped__")


# -- each check can fail -----------------------------------------------------


def corrupt_cli(monkeypatch, matches, change):
    """Make ``run_cli`` rewrite the stdout of calls whose argv ``matches``."""
    real = workloads.run_cli

    def fake(argv):
        code, text = real(argv)
        return (code, change(text)) if matches(argv) else (code, text)
    monkeypatch.setattr(workloads, "run_cli", fake)


def assert_failed(rec, kind):
    """The corruption counts as a failed operation of ``kind``."""
    assert any(f.startswith(kind) for f in rec.failures), rec.failures
    assert len(rec.failures) / rec.attempted > 0


def _perturb_first_row(text, column, value=None):
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = value if value is not None else repr(float(cells[column]) * (1 + 1e-6))
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_perturbed_appendix_row_fails(monkeypatch, tmp_path):
    workload = smoke("sweep-grid", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[:3] == ["sweep", "--mode", "appendix"],
                lambda text: _perturb_first_row(text, 4))
    assert_failed(run_rounds(workload, 1), "sweep")


def test_out_of_range_text_row_fails(monkeypatch, tmp_path):
    workload = smoke("sweep-grid", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[:3] == ["sweep", "--mode", "text"],
                lambda text: _perturb_first_row(text, 3, "1.5"))
    assert_failed(run_rounds(workload, 1), "sweep")


def test_changed_listing_solve_fails(monkeypatch, tmp_path):
    workload = smoke("sweep-grid", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "solve",
                lambda text: text.replace("availability     0.", "availability     1."))
    assert_failed(run_rounds(workload, 1), "listing_solve")


def test_unrepeatable_sweep_fails(monkeypatch, tmp_path):
    workload = smoke("sweep-grid", tmp_path)
    rec = workloads.Recorder()
    workload.round(0, rec)
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "sweep", lambda text: text + "\n")
    workload.finish(rec)
    assert_failed(rec, "repeat")


def test_large_z_fails(monkeypatch, tmp_path):
    workload = smoke("crossval", tmp_path)

    def z_to_six(text):
        lines = text.splitlines()
        cells = lines[1].rsplit(None, 2)
        lines[1] = f"{cells[0]}   6.00  pass"
        return "\n".join(lines) + "\n"
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "compare", z_to_six)
    assert_failed(run_rounds(workload, 1), "compare")


def test_compare_exit_2_fails(monkeypatch, tmp_path):
    workload = smoke("crossval", tmp_path)
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (2, ""))
    assert_failed(run_rounds(workload, 1), "compare")


def test_impossible_traffic_counters_fail(monkeypatch, tmp_path):
    workload = smoke("crossval", tmp_path)
    real = packetsim.simulate
    monkeypatch.setattr(packetsim, "simulate", lambda *a, **k: dataclasses.replace(
        real(*a, **k), acked=real(*a, **k).generated + 1))
    assert_failed(run_rounds(workload, 1), "traffic_sim")


def test_unrepeatable_traffic_run_fails(monkeypatch, tmp_path):
    workload = smoke("crossval", tmp_path)
    rec = workloads.Recorder()
    workload.round(0, rec)
    real = packetsim.simulate
    monkeypatch.setattr(packetsim, "simulate", lambda *a, **k: dataclasses.replace(
        real(*a, **k), duplicates=real(*a, **k).duplicates + 1))
    workload.finish(rec)
    assert_failed(rec, "repeat")


def _shift_last_time(text):
    lines = text.splitlines()
    t = float(lines[-1].split()[0][2:])
    lines[-1] = lines[-1].replace(f"t={t:.1f}", f"t={t + 1.0:.1f}", 1)
    return "\n".join(lines) + "\n"


def test_shifted_oracle_time_fails(monkeypatch, tmp_path):
    workload = smoke("coverage-city", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "oracle", _shift_last_time)
    assert_failed(run_rounds(workload, 1), "query_route")


def test_changed_oracle_policy_fails(monkeypatch, tmp_path):
    workload = smoke("coverage-city", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "oracle",
                lambda text: text.replace("umts=on", "umts=off"))
    assert_failed(run_rounds(workload, 1), "oracle")


def test_query_route_with_other_essids_fails(monkeypatch, tmp_path):
    workload = smoke("coverage-city", tmp_path)
    corrupt_cli(monkeypatch, lambda argv: argv[0] == "oracle",
                lambda text: text.replace("aps=", "aps=ghost,"))
    assert_failed(run_rounds(workload, 1), "query_route")


# -- the command and BENCHMARK.json ------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracer.LAYER_METRICS]


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_its_metrics(trace):
    proc = run_py(ROOT, "--workload", "sweep-grid", "--seed", "2", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_command_fails_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_py(tmp_path, "--workload", "crossval", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
