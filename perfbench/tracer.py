"""In-memory spans around the calls each toolkit layer makes into the next.

Nothing under ``src/`` is touched: :func:`install` swaps each traced public
function for a wrapper in every loaded ``abps_toolkit`` module that holds a
reference to it (``from x import f`` copies included), and the returned undo
callable puts the originals back. A wrapper records a span only while the
benchmark has an operation open, so warm-up and output checks stay out of
the trace.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

from abps_toolkit import abps, cli, coverage, ctmc, modlang, packetsim

# (span name, module, attribute). abps.evaluate wraps evaluate_chain, which
# both the builder route (abps.evaluate) and the listing route go through;
# coverage.catalog_load wraps the LocalCatalog constructor.
TRACED = (
    ("cli.main", cli, "main"),
    ("abps.sweep", abps, "sweep"),
    ("abps.evaluate", abps, "evaluate_chain"),
    ("modlang.parse", modlang, "parse"),
    ("modlang.compose", modlang, "compose"),
    ("ctmc.steady_state", ctmc, "steady_state"),
    ("ctmc.reachable_states", ctmc, "reachable_states"),
    ("ctmc.build_generator", ctmc, "build_generator"),
    ("packetsim.replicate", packetsim, "replicate"),
    ("packetsim.simulate", packetsim, "simulate"),
    ("coverage.load_trajectory", coverage, "load_trajectory"),
    ("coverage.catalog_load", coverage, "LocalCatalog"),
    ("coverage.predict_coverage", coverage, "predict_coverage"),
    ("coverage.classify", coverage, "classify"),
    ("coverage.query_aps", coverage, "query_aps"),
)


def _work(name: str, args: tuple, kwargs: dict, result) -> tuple:
    """Work done by one call, recorded beside its span."""
    if name == "modlang.compose":
        return (result.n_states, len(result.generator.entries))
    if name == "abps.sweep":
        return (len(result.rows),)
    if name == "ctmc.steady_state":
        return (args[0].n_states,)
    if name == "packetsim.simulate":
        return (result.variant, result.duration, result.generated, result.acked,
                result.retransmissions, result.lost_sends)
    if name == "coverage.predict_coverage":
        return (len(args[0]) * len(args[1]),)
    return ()


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int          # index of the enclosing span, -1 at an operation's root
    op: int              # benchmark operation the span belongs to
    work: tuple

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans between :meth:`open` and :meth:`close` of an operation."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0

    def open(self) -> None:
        self._op = self._ops
        self._ops += 1

    def close(self) -> None:
        self._op = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op,
                                     _work(name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_ns", "end_ns", "parent", "op", "work"))
            for i, s in enumerate(self.spans):
                if s is not None:
                    out.writerow((i, s.name, s.start_ns, s.end_ns, s.parent, s.op,
                                  " ".join(str(w) for w in s.work)))


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every traced function through ``tracer``; returns the undo."""
    modules = [m for name, m in sys.modules.items()
               if name == "abps_toolkit" or name.startswith("abps_toolkit.")]
    undo = []
    for name, module, attr in TRACED:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for mod, key, original in undo:
            setattr(mod, key, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------------

# name, unit, better, the end-to-end metric it should move, on which workload.
# End-to-end names are the ones run.py reports per workload (see README.md).
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower", "sweep_call_p50_ms", "sweep-grid"),
    ("cli.main.self_ms", "ms", "lower", "sweep_call_p50_ms", "sweep-grid"),
    ("abps.sweep.ms", "ms", "lower", "sweep_points_per_s", "sweep-grid"),
    ("abps.sweep.points", "count", "higher", "sweep_points_per_s", "sweep-grid"),
    ("abps.evaluate.calls", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("abps.evaluate.self_ms", "ms", "lower", "sweep_points_per_s", "sweep-grid"),
    ("modlang.compose.calls", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("modlang.compose.ms", "ms", "lower", "sweep_call_p50_ms", "sweep-grid"),
    ("modlang.compose.per_point", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("modlang.compose.states", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("modlang.compose.edges", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("modlang.parse.ms", "ms", "lower", "listing_solve_p50_ms", "sweep-grid"),
    ("ctmc.steady_state.calls", "count", "lower", "sweep_points_per_s", "sweep-grid"),
    ("ctmc.steady_state.ms", "ms", "lower", "sweep_points_per_s", "sweep-grid"),
    ("ctmc.steady_state.self_ms", "ms", "lower", "listing_solve_p50_ms", "sweep-grid"),
    ("ctmc.reachable_states.ms", "ms", "lower", "sweep_points_per_s", "sweep-grid"),
    ("ctmc.build_generator.ms", "ms", "lower", "sweep_points_per_s", "sweep-grid"),
    ("packetsim.simulate.calls", "count", "lower", "compare_s", "crossval"),
    ("packetsim.simulate.idle.us_per_sim_s", "us/s", "lower", "compare_s", "crossval"),
    ("packetsim.simulate.traffic.us_per_datagram", "us", "lower",
     "traffic_datagrams_per_s", "crossval"),
    ("packetsim.replicate.ms", "ms", "lower", "compare_s", "crossval"),
    ("packetsim.replicate.self_ms", "ms", "lower", "compare_s", "crossval"),
    ("packetsim.acked_per_generated", "ratio", "higher", "none (fixed under a pure speed change)",
     "crossval"),
    ("packetsim.retransmissions_per_generated", "ratio", "lower",
     "none (fixed under a pure speed change)", "crossval"),
    ("packetsim.lost_sends_per_generated", "ratio", "lower",
     "none (fixed under a pure speed change)", "crossval"),
    ("coverage.predict_coverage.calls", "count", "lower", "oracle_samples_per_s", "coverage-city"),
    ("coverage.predict_coverage.ms", "ms", "lower", "oracle_call_p50_ms", "coverage-city"),
    ("coverage.predict_coverage.ns_per_sample_ap", "ns", "lower", "oracle_samples_per_s",
     "coverage-city"),
    ("coverage.load_trajectory.ms", "ms", "lower", "oracle_call_p50_ms", "coverage-city"),
    ("coverage.catalog_load.ms", "ms", "lower", "oracle_call_p50_ms", "coverage-city"),
    ("coverage.classify.ms", "ms", "lower", "oracle_call_p50_ms", "coverage-city"),
    ("coverage.query_aps.calls", "count", "lower", "query_route_samples_per_s", "coverage-city"),
    ("coverage.query_aps.ms", "ms", "lower", "query_route_samples_per_s", "coverage-city"),
    ("coverage.cache_hit_ratio", "ratio", "higher", "query_route_samples_per_s", "coverage-city"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost, traced vs untraced rounds)",
     "all"),
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span | None], rounds: int, counts: dict[str, float],
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from :attr:`Tracer.spans` (``None`` marks a call that
    raised).

    ``*.calls`` are calls per traced round and ``*.ms`` means per call. A
    layer's self time is its span's duration minus the time its direct
    children cover; children of one span run one after another on the one
    benchmark thread, so that is the sum of their durations. A layer a
    workload does not reach reads 0.
    """
    children_ns = [0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for k, s in enumerate(spans):
        if s is not None:
            by_name[s.name].append(k)
            if s.parent >= 0:
                children_ns[s.parent] += s.ns

    def calls(name: str) -> float:
        return len(by_name[name]) / rounds if rounds else 0.0

    def ms(name: str) -> float:
        return _mean(spans[k].ns for k in by_name[name]) / 1e6

    def self_ms(name: str) -> float:
        return _mean(spans[k].ns - children_ns[k] for k in by_name[name]) / 1e6

    def under(k: int, ancestor: str) -> bool:
        k = spans[k].parent
        while k >= 0:
            if spans[k] is not None and spans[k].name == ancestor:
                return True
            k = spans[k].parent if spans[k] is not None else -1
        return False

    sweep_points = sum(spans[k].work[0] for k in by_name["abps.sweep"])
    compose = by_name["modlang.compose"]
    sweep_composes = sum(1 for k in compose if under(k, "abps.sweep"))
    sims = [spans[k] for k in by_name["packetsim.simulate"]]
    idle = [s for s in sims if not s.work[2]]
    traffic = [s for s in sims if s.work[2]]
    generated = sum(s.work[2] for s in traffic)
    predict = [spans[k] for k in by_name["coverage.predict_coverage"]]
    pairs = sum(s.work[0] for s in predict)
    queries = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)

    def per(total: float, base: float) -> float:
        return total / base if base else 0.0

    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms": self_ms("cli.main"),
        "abps.sweep.ms": ms("abps.sweep"),
        "abps.sweep.points": per(sweep_points, len(by_name["abps.sweep"])),
        "abps.evaluate.calls": calls("abps.evaluate"),
        "abps.evaluate.self_ms": self_ms("abps.evaluate"),
        "modlang.compose.calls": calls("modlang.compose"),
        "modlang.compose.ms": ms("modlang.compose"),
        "modlang.compose.per_point": per(sweep_composes, sweep_points),
        "modlang.compose.states": _mean(spans[k].work[0] for k in compose),
        "modlang.compose.edges": _mean(spans[k].work[1] for k in compose),
        "modlang.parse.ms": ms("modlang.parse"),
        "ctmc.steady_state.calls": calls("ctmc.steady_state"),
        "ctmc.steady_state.ms": ms("ctmc.steady_state"),
        "ctmc.steady_state.self_ms": self_ms("ctmc.steady_state"),
        "ctmc.reachable_states.ms": ms("ctmc.reachable_states"),
        "ctmc.build_generator.ms": ms("ctmc.build_generator"),
        "packetsim.simulate.calls": calls("packetsim.simulate"),
        "packetsim.simulate.idle.us_per_sim_s":
            per(sum(s.ns for s in idle) / 1e3, sum(s.work[1] for s in idle)),
        "packetsim.simulate.traffic.us_per_datagram":
            per(sum(s.ns for s in traffic) / 1e3, generated),
        "packetsim.replicate.ms": ms("packetsim.replicate"),
        "packetsim.replicate.self_ms": self_ms("packetsim.replicate"),
        "packetsim.acked_per_generated": per(sum(s.work[3] for s in traffic), generated),
        "packetsim.retransmissions_per_generated":
            per(sum(s.work[4] for s in traffic), generated),
        "packetsim.lost_sends_per_generated": per(sum(s.work[5] for s in traffic), generated),
        "coverage.predict_coverage.calls": calls("coverage.predict_coverage"),
        "coverage.predict_coverage.ms": ms("coverage.predict_coverage"),
        "coverage.predict_coverage.ns_per_sample_ap": per(sum(s.ns for s in predict), pairs),
        "coverage.load_trajectory.ms": ms("coverage.load_trajectory"),
        "coverage.catalog_load.ms": ms("coverage.catalog_load"),
        "coverage.classify.ms": ms("coverage.classify"),
        "coverage.query_aps.calls": calls("coverage.query_aps"),
        "coverage.query_aps.ms": ms("coverage.query_aps"),
        "coverage.cache_hit_ratio": per(counts.get("cache_hits", 0), queries),
        "trace.overhead_frac": overhead_frac,
    }


def baseline_rows(spans: list[Span | None]) -> list[tuple[str, float, str]]:
    """The rows of the ROADMAP baseline table, read off the spans; rows whose
    calls the workload does not make are left out."""
    done = [s for s in spans if s is not None]

    def mean_ms(name, keep=lambda s: True):
        picked = [s.ns for s in done if s.name == name and keep(s)]
        return sum(picked) / len(picked) / 1e6 if picked else None

    def per(name, numerator, denominator, keep):
        picked = [s for s in done if s.name == name and keep(s)]
        base = sum(denominator(s) for s in picked)
        return sum(numerator(s) for s in picked) / base if base else None

    rows = [
        ("compose of the 24-state oracle chain",
         mean_ms("modlang.compose", lambda s: s.work[0] == 24), "ms"),
        ("steady_state on a 24-state chain",
         mean_ms("ctmc.steady_state", lambda s: s.work[0] == 24), "ms"),
        ("abps.sweep call", mean_ms("abps.sweep"), "ms"),
        ("simulate oracle, 1e4 s, no traffic",
         per("packetsim.simulate", lambda s: s.ns / 1e6, lambda s: s.work[1] / 1e4,
             lambda s: s.work[0] == "oracle" and not s.work[2]), "ms"),
        ("simulate oracle, 50 datagrams/s, per datagram",
         per("packetsim.simulate", lambda s: s.ns / 1e3, lambda s: s.work[2],
             lambda s: s.work[0] == "oracle" and s.work[2]), "us"),
        ("replicate 30 x 1e5 s, no traffic", mean_ms("packetsim.replicate"), "ms"),
        ("predict_coverage 2000 samples x 500 APs",
         per("coverage.predict_coverage", lambda s: s.ns / 1e9, lambda s: s.work[0] / 1e6,
             lambda s: True), "s"),
    ]
    return [row for row in rows if row[1] is not None]
