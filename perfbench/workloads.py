"""The benchmark workloads: timed operations and the checks on their outputs.

Each workload drives the toolkit from this one process and thread, through
``cli.main(argv)`` with stdout captured and through the public library
calls. A round is a fixed, seeded batch of operations; a run repeats rounds
until its time is up. Every operation's output is checked after its timer
stops, and an operation fails when it raises, exits 2 or fails its check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from abps_toolkit import abps, cli, coverage, modlang, packetsim

import inputs


class CheckFailed(Exception):
    """An operation's output is wrong."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``abps <argv>`` in-process: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:      # argparse rejects bad flags this way
            code = exit_.code
    return code, out.getvalue()


def _expect_exit(code: int, allowed=(0,)) -> None:
    if code not in allowed:
        raise CheckFailed(f"exit code {code}")


def _close(actual: float, expected: float, rel: float, what: str) -> None:
    if not (abs(actual - expected) <= rel * abs(expected)):
        raise CheckFailed(f"{what}: {actual!r} vs reference {expected!r}")


class Recorder:
    """Times operations and counts the ones that fail.

    While ``tracer`` is set, each operation is opened and closed on it, so
    spans are recorded for operations only.
    """

    def __init__(self) -> None:
        self.tracer = None
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, kind: str, call, check):
        """Time ``call()``; then ``check(result)`` returns its work units.

        Returns the call's result, or None when the operation failed.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.open()
        try:
            start = perf_counter()
            result = call()
            elapsed = perf_counter() - start
        except Exception as err:     # the program raised: a failed operation
            self.failures.append(f"{kind}: raised {type(err).__name__}: {err}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.close()
        try:
            units = check(result)
        except CheckFailed as err:
            self.failures.append(f"{kind}: {err}")
            return None
        self.seconds[kind].append(elapsed)
        self.units[kind] += units
        return result

    def op_seconds(self) -> float:
        return sum(sum(v) for v in self.seconds.values())

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self.seconds[kind]) * 1e3

    def p90_ms(self, kind: str) -> float:
        return float(np.percentile(self.seconds[kind], 90)) * 1e3

    def rate(self, kind: str) -> float:
        return self.units[kind] / sum(self.seconds[kind])


# -- sweep-grid ----------------------------------------------------------------

SWEEP_HEADER = ["variant", "T_W_minus", "T_W_plus", "availability", "power_W",
                "throughput_Mbps"]


class SweepGridWorkload:
    """``abps sweep`` over seeded 4 x 3 window grids, alternating text and
    appendix mode, each followed by ``abps solve`` of a bundled listing at
    one of the sweep's points."""

    name = "sweep-grid"
    main_kind, side_kind = "sweep", "listing_solve"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.first_outputs: dict[str, tuple[list[str], str]] = {}

    def setup(self) -> None:
        self.listing_path = {v: str(abps.reference_model_path(v)) for v in abps.VARIANTS}
        self.listing = {v: modlang.parse_file(p) for v, p in self.listing_path.items()}
        run_cli(["sweep"])
        run_cli(["solve", self.listing_path["oracle"], "--params", "T_W_minus=20",
                 "--params", "T_W_plus=80"])

    def reference(self, variant: str, t_minus: float, t_plus: float) -> abps.MetricsResult:
        """The bundled listing solved through parse -> compose -> evaluate."""
        chain = modlang.compose(self.listing[variant],
                                {"T_W_minus": t_minus, "T_W_plus": t_plus})
        return abps.evaluate_chain(chain)

    def round(self, index: int, rec: Recorder) -> None:
        if self.small:
            grid = inputs.sweep_grid(self.seed, index, n_minus=2, n_plus=1)
        else:
            grid = inputs.sweep_grid(self.seed, index)
        for k, mode in enumerate(abps.MODES):
            argv = ["sweep", "--mode", mode, *grid.argv()]
            result = rec.op(self.main_kind, lambda: run_cli(argv),
                            lambda res: self.check_sweep(res, grid, mode))
            if result is not None and mode not in self.first_outputs:
                self.first_outputs[mode] = (argv, result[1])

            variant = abps.VARIANTS[(index + k) % 2]
            t_minus, t_plus = inputs.grid_point(self.seed, 2 * index + k, grid)
            argv = ["solve", self.listing_path[variant],
                    "--params", f"T_W_minus={t_minus!r}", "--params", f"T_W_plus={t_plus!r}"]
            rec.op(self.side_kind, lambda: run_cli(argv),
                   lambda res: self.check_listing(res, variant, t_minus, t_plus))

    def check_sweep(self, result, grid: inputs.SweepGrid, mode: str) -> float:
        code, text = result
        _expect_exit(code)
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != SWEEP_HEADER:
            raise CheckFailed(f"sweep header {rows[:1]}")
        expected = [(v, tm, tp) for v in abps.VARIANTS for tm in grid.t_minus for tp in grid.t_plus]
        body = rows[1:]
        if len(body) != len(expected):
            raise CheckFailed(f"{len(body)} sweep rows, expected {len(expected)}")
        for row, (variant, t_minus, t_plus) in zip(body, expected):
            try:
                key = (row[0], float(row[1]), float(row[2]))
                availability, power, throughput = (float(x) for x in row[3:6])
            except (IndexError, ValueError):
                raise CheckFailed(f"malformed sweep row {row}")
            if key != (variant, t_minus, t_plus) or len(row) != 6:
                raise CheckFailed(f"sweep row {row} where {variant},{t_minus},{t_plus} was due")
            if mode == "text":
                if not (0.0 <= availability <= 1.0 and power > 0.0
                        and math.isfinite(power) and throughput >= 0.0):
                    raise CheckFailed(f"text-mode row out of range: {row}")
            else:
                ref = self.reference(variant, t_minus, t_plus)
                _close(availability, ref.availability, 1e-9, f"availability {row}")
                _close(power, ref.power_w, 1e-9, f"power {row}")
                _close(throughput, ref.throughput_mbps, 1e-9, f"throughput {row}")
        return len(body)

    def check_listing(self, result, variant: str, t_minus: float, t_plus: float) -> float:
        code, text = result
        _expect_exit(code)
        try:
            values = {name: float(value) for name, _, value in
                      (line.partition(" ") for line in text.splitlines())}
        except ValueError:
            raise CheckFailed(f"listing solve printed {text!r}")
        if set(values) != {"availability", "power_W", "throughput_Mbps"}:
            raise CheckFailed(f"listing solve printed {text!r}")
        ref = self.reference(variant, t_minus, t_plus)
        # the CLI prints 6 significant digits
        _close(values["availability"], ref.availability, 1e-5, "listing availability")
        _close(values["power_W"], ref.power_w, 1e-5, "listing power")
        _close(values["throughput_Mbps"], ref.throughput_mbps, 1e-5, "listing throughput")
        return 1.0

    def finish(self, rec: Recorder) -> None:
        """A repeated sweep must print byte-identical CSV."""
        for argv, text in self.first_outputs.values():
            def same(result, text=text):
                if result != (0, text):
                    raise CheckFailed("repeated sweep printed different CSV")
                return 0.0
            rec.op("repeat", lambda: run_cli(argv), same)


# -- crossval ------------------------------------------------------------------

COMPARE_METRICS = {(v, m) for v in abps.VARIANTS
                   for m in ("availability", "power_w", "throughput_mbps")}
TRAFFIC_PER_ROUND = 40
MAX_Z = 5.0


class CrossvalWorkload:
    """``abps compare`` at its defaults beside ``packetsim.simulate`` runs of
    the oracle variant carrying datagram traffic."""

    name = "crossval"
    main_kind, side_kind = "traffic_sim", "compare"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        # Smoke size shortens compare; the full size is `abps compare` as is.
        self.compare_flags = ["--reps", "10", "--duration", "5000"] if small else []
        self.reps, self.duration = (10, 5000.0) if small else (30, 1e5)
        self.traffic_per_round = 2 if small else TRAFFIC_PER_ROUND
        self.params = abps.default_params()
        self.first_traffic = None
        self.verdict_flips = 0

    def traffic_config(self, index: int) -> packetsim.SimConfig:
        """50 datagrams/s for 50 s; ACKs arrive 0.2 s after a send, inside
        the 1 s ACK timeout."""
        return packetsim.SimConfig(duration=50.0, seed=inputs.traffic_seed(self.seed, index),
                                   data_rate=50.0, ack_timeout=1.0, ack_delay=0.2,
                                   replications=1)

    def setup(self) -> None:
        run_cli(["compare", "--reps", "2", "--duration", "200"])
        packetsim.simulate(self.params, self.traffic_config(0), "oracle")

    def round(self, index: int, rec: Recorder) -> None:
        argv = ["compare", "--seed", str(inputs.compare_seed(self.seed, index)),
                *self.compare_flags]
        rec.op(self.side_kind, lambda: run_cli(argv), self.check_compare)
        for j in range(self.traffic_per_round):
            config = self.traffic_config(index * self.traffic_per_round + j)
            run = rec.op(self.main_kind,
                         lambda: packetsim.simulate(self.params, config, "oracle"),
                         self.check_traffic)
            if self.first_traffic is None and run is not None:
                self.first_traffic = (config, run)

    def check_compare(self, result) -> float:
        code, text = result
        _expect_exit(code, allowed=(0, 1))      # 1: a 3-SE verdict failed by chance
        lines = text.splitlines()[1:]
        seen, failed = set(), False
        for line in lines:
            cells = line.split()
            try:
                variant, metric, z, verdict = cells[0], cells[1], float(cells[-2]), cells[-1]
            except (IndexError, ValueError):
                raise CheckFailed(f"malformed compare line {line!r}")
            if not abs(z) <= MAX_Z:
                raise CheckFailed(f"|z| = {abs(z)} > {MAX_Z} for {variant} {metric}")
            seen.add((variant, metric))
            failed = failed or verdict == "FAIL"
        if seen != COMPARE_METRICS or len(lines) != len(COMPARE_METRICS):
            raise CheckFailed(f"compare printed {sorted(seen)}")
        if failed != (code == 1):
            raise CheckFailed(f"exit code {code} disagrees with the printed verdicts")
        self.verdict_flips += code == 1
        return len(abps.VARIANTS) * self.reps * self.duration

    def check_traffic(self, run: packetsim.SimMetrics) -> float:
        if not (0 < run.generated and run.acked <= run.generated
                and run.delivered_in_order <= run.generated):
            raise CheckFailed(f"traffic counters generated={run.generated} acked={run.acked} "
                              f"delivered_in_order={run.delivered_in_order}")
        return run.generated

    def finish(self, rec: Recorder) -> None:
        """The same seed must give an identical SimMetrics."""
        if self.first_traffic is None:
            return
        config, first = self.first_traffic

        def same(run):
            if run != first:
                raise CheckFailed("repeated traffic run differs")
            return 0.0
        rec.op("repeat", lambda: packetsim.simulate(self.params, config, "oracle"), same)


# -- coverage-city -------------------------------------------------------------

_POLICY = {"EV_NO_WIFI": ("off", "on"), "EV_SHORT_WIFI": ("on", "on"),
           "EV_LONG_WIFI": ("on", "off")}
_PRINT_RESOLUTION_S = 0.05     # `abps oracle` prints times to 0.1 s


def parse_oracle(text: str) -> list[tuple]:
    """``abps oracle`` lines as (t, kind, duration or None, wifi, umts, essids)."""
    events = []
    for line in text.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        kinds = [part for part in line.split() if "=" not in part]
        try:
            events.append((
                float(fields["t"]), kinds[0],
                float(fields["duration"][:-1]) if "duration" in fields else None,
                fields["wifi"], fields["umts"],
                tuple(fields["aps"].split(",")) if "aps" in fields else (),
            ))
        except (KeyError, IndexError, ValueError):
            raise CheckFailed(f"malformed oracle line {line!r}")
    return events


class CoverageCityWorkload:
    """Seeded walks through a seeded city, each classified by ``abps oracle``
    over the whole catalog and by ``classify_trajectory`` through a TTL
    cache in front of the catalog (the query route)."""

    name = "coverage-city"
    main_kind, side_kind = "oracle", "query_route"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = (inputs.CitySpec(blocks=4, n_aps=30, n_networks=2, walk_sets=2,
                                     walks_per_set=3, repeats_per_set=1, samples=60)
                     if small else inputs.FULL_CITY)

    def setup(self) -> None:
        self.city = inputs.city(self.seed, self.spec)
        catalog, walks = self.city.write(self.workdir / "city")
        self.catalog_path, self.walk_paths = str(catalog), [str(w) for w in walks]
        self.aps = coverage.LocalCatalog(self.catalog_path).access_points
        self.walks = [coverage.load_trajectory(p) for p in self.walk_paths]
        run_cli(["oracle", self.walk_paths[0], self.catalog_path])
        coverage.classify_trajectory(self.walks[0],
                                     coverage.TtlCache(coverage.LocalCatalog(self.aps)))

    def round(self, index: int, rec: Recorder) -> None:
        cache = coverage.TtlCache(coverage.LocalCatalog(self.aps))
        for i in self.city.walk_sets[index % len(self.city.walk_sets)]:
            walk, path = self.walks[i], self.walk_paths[i]
            argv = ["oracle", path, self.catalog_path]
            printed = rec.op(self.main_kind, lambda: run_cli(argv),
                             lambda res: self.check_oracle(res, walk))
            rec.op(self.side_kind, lambda: coverage.classify_trajectory(walk, cache),
                   lambda events: self.check_query_route(events, walk, printed))
        rec.counts["cache_hits"] += cache.hits
        rec.counts["cache_misses"] += cache.misses

    def check_oracle(self, result, walk) -> float:
        code, text = result
        _expect_exit(code)
        events = parse_oracle(text)
        if not events or abs(events[0][0] - walk[0].t) > _PRINT_RESOLUTION_S + 1e-6:
            raise CheckFailed("oracle timeline does not start at the walk's start")
        for t, kind, duration, wifi, umts, _ in events:
            if _POLICY.get(kind) != (wifi, umts):
                raise CheckFailed(f"{kind} printed wifi={wifi} umts={umts}")
            if (duration is None) != (kind == "EV_NO_WIFI"):
                raise CheckFailed(f"{kind} printed duration {duration}")
        return len(walk)

    def check_query_route(self, events, walk, printed) -> float:
        """Same event kinds and ESSIDs as `abps oracle`, times within 1e-6 s
        of the printed ones (which are rounded to 0.1 s)."""
        if printed is None:
            raise CheckFailed("no `abps oracle` output to compare with")
        expected = parse_oracle(printed[1])
        if len(events) != len(expected):
            raise CheckFailed(f"{len(events)} events, `abps oracle` printed {len(expected)}")
        tolerance = _PRINT_RESOLUTION_S + 1e-6
        for event, (t, kind, duration, _, _, essids) in zip(events, expected):
            if event.kind.value != kind or event.essids != essids:
                raise CheckFailed(f"{event} where `abps oracle` printed {kind} {essids}")
            if abs(event.timestamp - t) > tolerance or (
                    (event.duration is None) != (duration is None)
                    or (duration is not None and abs(event.duration - duration) > tolerance)):
                raise CheckFailed(f"{event} where `abps oracle` printed t={t} "
                                  f"duration={duration}")
        return len(walk)

    def finish(self, rec: Recorder) -> None:
        pass


WORKLOADS = {w.name: w for w in (SweepGridWorkload, CrossvalWorkload, CoverageCityWorkload)}
