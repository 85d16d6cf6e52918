"""Benchmark of abps-toolkit: one workload per run, or every workload.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One workload run prints a JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``).
``--all`` runs every workload both ways in child processes and prints each
metric under its per-workload name. See README.md in this directory.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3          # this process plus two fresh ones
WORKLOAD_NAMES = ("sweep-grid", "crossval", "coverage-city")

# End-to-end metrics every workload reports, with units. They are the steady
# ones: on a host whose contention comes and goes, a call's median and mean
# swing with the share of uncontended time, while its 90th percentile stays
# at the contended latency (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_p90_ms", "ms"),
    ("side_p90_ms", "ms"),
)

# Every timing a run measures, by slot: its name on each workload, the unit
# and the factor from the measured value. Runs print them all.
NAMED = {
    "sweep-grid": {
        "main_p50_ms": ("sweep_call_p50_ms", "ms", 1.0),
        "main_p90_ms": ("sweep_call_p90_ms", "ms", 1.0),
        "main_rate_per_s": ("sweep_points_per_s", "1/s", 1.0),
        "side_p50_ms": ("listing_solve_p50_ms", "ms", 1.0),
        "side_p90_ms": ("listing_solve_p90_ms", "ms", 1.0),
        "side_rate_per_s": ("listing_points_per_s", "1/s", 1.0),
    },
    "crossval": {
        "main_p50_ms": ("traffic_sim_p50_ms", "ms", 1.0),
        "main_p90_ms": ("traffic_sim_p90_ms", "ms", 1.0),
        "main_rate_per_s": ("traffic_datagrams_per_s", "1/s", 1.0),
        "side_p50_ms": ("compare_s", "s", 1e-3),
        "side_p90_ms": ("compare_p90_s", "s", 1e-3),
        "side_rate_per_s": ("compare_sim_s_per_s", "1/s", 1.0),
    },
    "coverage-city": {
        "main_p50_ms": ("oracle_call_p50_ms", "ms", 1.0),
        "main_p90_ms": ("oracle_call_p90_ms", "ms", 1.0),
        "main_rate_per_s": ("oracle_samples_per_s", "1/s", 1.0),
        "side_p50_ms": ("query_route_call_p50_ms", "ms", 1.0),
        "side_p90_ms": ("query_route_call_p90_ms", "ms", 1.0),
        "side_rate_per_s": ("query_route_samples_per_s", "1/s", 1.0),
    },
}


def load_toolkit() -> None:
    """Put the checkout's ``src`` first on the path; the toolkit is never
    taken from anywhere else."""
    if not (SRC / "abps_toolkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no toolkit sources at {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int, workdir: Path):
    """Import the toolkit, generate the inputs and warm up."""
    load_toolkit()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    return workload


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up time measured by a fresh interpreter, imports included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def measure(workload, seconds: float, traced: bool):
    """Run rounds until ``seconds`` have passed, then the closing checks.

    A traced run alternates untraced and traced rounds (an even number of
    them) and installs the tracing wrappers for the traced ones only.
    Returns the recorder, the tracer (or None), the traced round count and
    the summed operation time of each kind of round.
    """
    from tracer import Tracer, install
    from workloads import Recorder

    rec = Recorder()
    tracer = Tracer() if traced else None
    round_seconds = {False: [], True: []}
    start = perf_counter()
    index = 0
    # Start a round only if it should end within half a round of the limit.
    while index < (2 if traced else 1) or (traced and index % 2) \
            or (perf_counter() - start) * (1 + 0.5 / index) < seconds:
        on = traced and index % 2 == 1
        uninstall = install(tracer) if on else None
        rec.tracer = tracer if on else None
        before = rec.op_seconds()
        try:
            workload.round(index, rec)
        finally:
            rec.tracer = None
            if uninstall is not None:
                uninstall()
        round_seconds[on].append(rec.op_seconds() - before)
        index += 1
    workload.finish(rec)
    return rec, tracer, round_seconds


def timings(workload, rec) -> dict[str, float | None]:
    """Median, 90th percentile and rate of the main and the side call."""
    values = {}
    for slot, kind in (("main", workload.main_kind), ("side", workload.side_kind)):
        done = bool(rec.seconds[kind])
        values[f"{slot}_p50_ms"] = rec.p50_ms(kind) if done else None
        values[f"{slot}_p90_ms"] = rec.p90_ms(kind) if done else None
        values[f"{slot}_rate_per_s"] = rec.rate(kind) if done else None
    return values


def per_layer(workload, rec, tracer, round_seconds, seed: int) -> dict:
    """Per-layer metrics of a traced run; writes its spans and prints the
    ROADMAP baseline rows it covers."""
    from tracer import LAYER_METRICS, baseline_rows, layer_metrics

    untraced, traced = round_seconds[False], round_seconds[True]
    overhead = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
    values = layer_metrics(tracer.spans, len(traced), rec.counts, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    print(f"{workload.name}: {len(tracer.spans)} spans written to {spans_path}")
    for label, value, unit in baseline_rows(tracer.spans):
        print(f"  baseline row: {label:48} {value:.4g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in LAYER_METRICS}


def run_workload(args) -> int:
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = set_up(args.workload, args.seed, workdir)
        own_setup = perf_counter() - START
        if args.setup_only:
            print(repr(own_setup))
            return 0
        setups = [own_setup]
        if not args.trace:
            setups += [fresh_setup_seconds(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS - 1)]
        rec, tracer, round_seconds = measure(workload, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, rec, tracer, round_seconds, args.seed)
        else:
            values = timings(workload, rec)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(round_seconds[False]) + len(round_seconds[True])
    counts = ", ".join(f"{len(v)} {k}" for k, v in rec.seconds.items())
    print(f"{workload.name} seed {args.seed}: {rounds} rounds ({counts}); "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; "
          f"{len(rec.failures)} of {rec.attempted} operations failed")
    if not args.trace:
        for slot, (label, unit, factor) in NAMED[workload.name].items():
            value = "n/a" if values[slot] is None else f"{values[slot] * factor:.6g}"
            print(f"  {label:28} {value} {unit}")
        print("timings " + json.dumps(values))
    for failure in rec.failures[:10]:
        print(f"  FAILED {failure}")
    verdict_flips = getattr(workload, "verdict_flips", 0)
    if verdict_flips:
        print(f"  {verdict_flips} compare call(s) exited 1 (a 3-SE verdict failed by chance)")
    correct = not rec.failures and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": len(rec.failures), "metrics": metrics}))
    return 0


# -- every workload ---------------------------------------------------------


def machine_info() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh process; its result, plus its timings."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]
                             if not line.startswith("timings ")))
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("timings "):
            result["timings"] = json.loads(line[len("timings "):])
    return result


def run_all(args) -> int:
    load_toolkit()
    from tracer import LAYER_METRICS

    report = {"machine": machine_info(), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    for name in WORKLOAD_NAMES:
        untraced = child_run(name, args.seed, args.seconds, 0)
        traced = child_run(name, args.seed, args.seconds, 1)
        report["workloads"][name] = {"end_to_end": untraced, "per_layer": traced}

    print(f"\nmachine: {json.dumps(report['machine'])}")
    ok = True
    for name, runs in report["workloads"].items():
        e2e = runs["end_to_end"]
        ok = ok and e2e["correct"] and runs["per_layer"]["correct"]
        print(f"\n[{name}] end to end ({e2e['attempted']} operations)")
        print(f"  {'error_rate':32} {e2e['failed'] / e2e['attempted']:.6g}")
        for metric in ("setup_s", "peak_rss_mb"):
            entry = e2e["metrics"][metric]
            print(f"  {metric:32} {entry['value']:.6g} {entry['unit']}")
        for slot, (label, unit, factor) in NAMED[name].items():
            value = e2e["timings"][slot]
            value = "n/a" if value is None else f"{value * factor:.6g}"
            gated = "   (BENCHMARK.json: " + slot + ")" if slot in e2e["metrics"] else ""
            print(f"  {label:32} {value} {unit}{gated}")
        print(f"[{name}] per layer (traced run)")
        layer = runs["per_layer"]["metrics"]
        for metric, unit, _, moves, workload in LAYER_METRICS:
            if layer[metric]["value"] or workload in (name, "all"):
                print(f"  {metric:44} {layer[metric]['value']:.6g} {unit}   -> {moves} ({workload})")
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
