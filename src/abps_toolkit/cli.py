"""Command-line front end: solve models, sweep, simulate, compare, classify.

Exit codes are a stable contract: 0 on success, 1 when a cross-validation
comparison fails, 2 on input errors (bad flags, unreadable files, unbound
model parameters, malformed records).
"""

from __future__ import annotations

import argparse
import functools
import sys

from abps_toolkit import abps, coverage, modlang, packetsim
from abps_toolkit.ctmc import StructureError, ValidationError


def _flag_entries(pairs) -> dict[str, float]:
    """The entries of the ``--params`` flags, one :func:`abps.parse_entry` each."""
    return {key: value for pair in pairs or () for key, value in abps.parse_entry(pair).items()}


def _assemble_params(args) -> abps.AbpsParams:
    """The file's entries, then ``--params`` over them, as one checked set."""
    entries = abps.read_entries(args.params_file) if args.params_file else {}
    entries.update(_flag_entries(args.params))
    return abps.params_from_mapping(entries)


def _parse_grid(tokens) -> tuple[list[float], list[float]]:
    if tokens is None:
        return list(abps.DEFAULT_T_MINUS_GRID), list(abps.DEFAULT_T_PLUS_GRID)
    grid = {}
    for token in tokens:
        if ":" not in token:
            raise ValidationError(f"grid spec needs name:v1,v2,..., got {token!r}")
        name, values = token.split(":", 1)
        if name not in ("tmin", "tplus"):
            raise ValidationError(f"grid axis must be tmin or tplus, got {name!r}")
        if "" in values.split(","):
            raise ValidationError(f"empty grid entry in {token!r}")
        try:
            grid[name] = [float(v) for v in values.split(",")]
        except ValueError:
            raise ValidationError(f"non-numeric grid value in {token!r}")
    if set(grid) != {"tmin", "tplus"} or not all(grid.values()):
        raise ValidationError("grid needs both axes, e.g. --grid tmin:5,10 tplus:40,80")
    return grid["tmin"], grid["tplus"]


def _variants(choice: str) -> tuple[str, ...]:
    return ("plain", "oracle") if choice == "both" else (choice,)


def _print_metrics(result: abps.MetricsResult) -> None:
    print(f"availability     {result.availability:.6g}")
    print(f"power_W          {result.power_w:.6g}")
    print(f"throughput_Mbps  {result.throughput_mbps:.6g}")


# -- subcommands -------------------------------------------------------------


def cmd_solve(args) -> int:
    if args.model in abps.VARIANTS:
        model = abps.build(args.model, _assemble_params(args), args.mode or "text")
        _print_metrics(abps.evaluate(model))
        return 0
    if args.params_file:
        raise ValidationError(
            "--params-file names built-in variant parameters; "
            "bind a listing's constants with --params K=V"
        )
    if args.mode is not None:
        raise ValidationError(
            "--mode picks a built-in variant's energy rule; "
            "a listing fixes its own rule in its rates and rewards"
        )
    spec = modlang.parse_file(args.model)
    chain = modlang.compose(spec, _flag_entries(args.params))
    _print_metrics(abps.evaluate_chain(chain))
    return 0


def cmd_sweep(args) -> int:
    t_minus, t_plus = _parse_grid(args.grid)
    table = abps.sweep(
        _assemble_params(args), t_minus, t_plus, _variants(args.variant), args.mode
    )
    if args.out:
        table.write_csv(args.out)
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _sim_config(args) -> packetsim.SimConfig:
    return packetsim.SimConfig(
        duration=args.duration,
        seed=args.seed,
        data_rate=args.data_rate,
        ack_timeout=args.ack_timeout,
        ack_delay=args.ack_delay,
        replications=args.reps,
    )


def cmd_simulate(args) -> int:
    params = _assemble_params(args)
    config = _sim_config(args)
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    trace = None
    if trace_fh is not None:
        trace = lambda t, entity, event, detail: trace_fh.write(
            f"{t:.6f},{entity},{event},{detail}\n"
        )
    try:
        rows = [
            (variant, i, r)
            for variant in _variants(args.variant)
            for i, r in enumerate(
                packetsim.run_replications(params, config, variant, args.mode, trace)
            )
        ]
    finally:
        if trace_fh is not None:
            trace_fh.close()

    lines = ["variant,rep,seed,availability,power_W,throughput_Mbps,goodput_Mbps,"
             "duplicates,retransmissions"]
    for variant, i, r in rows:
        lines.append(
            f"{variant},{i},{r.seed},{r.availability:.12g},{r.power_w:.12g},"
            f"{r.throughput_mbps:.12g},{r.goodput_mbps:.12g},"
            f"{r.duplicates},{r.retransmissions}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    params = _assemble_params(args)
    config = _sim_config(args)
    variants = _variants(args.variant)
    packetsim.check_replications(config.replications)  # before the table starts
    failed = False
    print(f"{'variant':8} {'metric':16} {'analytic':>12} {'simulated':>24} "
          f"{'z':>6}  verdict")
    for variant in variants:
        analytic = abps.evaluate(abps.build(variant, params, args.mode))
        references = {
            "availability": analytic.availability,
            "power_w": analytic.power_w,
            "throughput_mbps": analytic.throughput_mbps,
        }
        result = packetsim.replicate(params, config, variant, args.mode)
        # one false-fail chance, packetsim.ALPHA, for every metric of the run
        bound = packetsim.verdict_bound(result.n, len(references) * len(variants))
        for metric, reference in references.items():
            s = result.stats[metric]
            ok = result.within(metric, reference, bound)
            z = result.z(metric, reference)
            failed = failed or not ok
            print(
                f"{variant:8} {metric:16} {reference:12.6f} "
                f"{s.mean:12.6f} +- {s.se:8.2g} {z:6.2f}  {'pass' if ok else 'FAIL'}"
            )
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    trajectory = coverage.load_trajectory(args.trajectory)
    catalog = coverage.LocalCatalog(args.catalog)
    if catalog.skipped_records:
        print(f"warning: skipped {catalog.skipped_records} malformed catalog records",
              file=sys.stderr)
    timeline = coverage.predict_coverage(trajectory, catalog.access_points)
    for event in coverage.classify(timeline, args.threshold):
        active = coverage.apply_policy(event)
        parts = [f"t={event.timestamp:.1f}", event.kind.value]
        if event.duration is not None:
            parts.append(f"duration={event.duration:.1f}s")
        parts.append(f"wifi={'on' if active.active_wifi else 'off'}")
        parts.append(f"umts={'on' if active.active_umts else 'off'}")
        if event.essids:
            parts.append("aps=" + ",".join(event.essids))
        print(" ".join(parts))
    return 0


# -- parser ------------------------------------------------------------------


def _add_params_flags(sub) -> None:
    sub.add_argument("--params", metavar="K=V", action="append",
                     help="parameter override, repeatable")
    sub.add_argument("--params-file", metavar="PATH",
                     help="flat key=value parameter file")
    sub.add_argument("--mode", choices=abps.MODES, default="text",
                     help="energy/compatibility rule (default: text)")


def _add_sim_flags(sub, default_reps: int) -> None:
    sub.add_argument("--seed", type=int, default=1, help="root RNG seed")
    sub.add_argument("--reps", type=int, default=default_reps,
                     help="independent replications")
    sub.add_argument("--duration", type=float, default=1e5,
                     help="simulated seconds per replication")
    sub.add_argument("--data-rate", type=float, default=0.0,
                     help="datagrams per second (0 = state processes only; "
                          "traffic affects goodput/duplicate counters, not the "
                          "state-based metrics)")
    sub.add_argument("--ack-timeout", type=float, default=1.0)
    sub.add_argument("--ack-delay", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abps",
        description="Analytic and simulated performance models of multi-NIC "
                    "always-best-packet-switching with a coverage oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a built-in variant or a model file")
    p.add_argument("model", help="'plain', 'oracle', or a model source path")
    _add_params_flags(p)
    # no default mode, so that a listing solve can tell an explicit --mode
    p.set_defaults(handler=cmd_solve, mode=None)

    p = sub.add_parser("sweep", help="metrics over a WiFi-window grid, as CSV")
    p.add_argument("--grid", nargs=2, metavar=("tmin:LIST", "tplus:LIST"),
                   help="e.g. --grid tmin:5,10,20,40 tplus:40,80,120")
    p.add_argument("--variant", choices=("plain", "oracle", "both"), default="both")
    p.add_argument("--out", metavar="PATH", help="CSV output path (default: stdout)")
    _add_params_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("simulate", help="packet-level simulation runs, as CSV")
    p.add_argument("--variant", choices=("plain", "oracle", "both"), default="both")
    p.add_argument("--out", metavar="PATH", help="CSV output path (default: stdout)")
    p.add_argument("--trace", metavar="PATH",
                   help="write an event trace (time,entity,event,detail lines)")
    _add_params_flags(p)
    _add_sim_flags(p, default_reps=1)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="cross-validate analytic vs simulated metrics")
    p.add_argument("--variant", choices=("plain", "oracle", "both"), default="both")
    _add_params_flags(p)
    _add_sim_flags(p, default_reps=30)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("oracle", help="classify WiFi coverage along a trajectory")
    p.add_argument("trajectory", help="CSV trajectory: t,lat,lon[,speed]")
    p.add_argument("catalog", help="access-point catalog fixture (CSV)")
    p.add_argument("--threshold", type=float, default=coverage.DEFAULT_LONG_THRESHOLD_S,
                   help="short/long coverage boundary in seconds (default: 40)")
    p.set_defaults(handler=cmd_oracle)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Building it costs about 20 times
    as much as parsing a command line: argparse makes a help formatter, which
    reads the terminal size, for every argument it adds."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, StructureError, modlang.ModelError,
            coverage.CatalogUnavailable, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
