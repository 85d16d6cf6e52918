"""Packet-level discrete-event simulation of the multi-NIC switching node.

Independent of the analytic chains in every respect except two shared
definitions: the parameter set (with its resolved rates) and the per-state
metric functions ``abps.state_available``/``state_power``/``state_throughput``,
which the chain builders and metrics also read. Interface lifecycles and the
coverage oracle advance through exponential sojourns drawn event by event,
datagrams carry sequence numbers and are acknowledged end to end, timeouts
retransmit over an alternative interface, and the receiving side
restores order and discards duplicates. Simulated time integrals of the
shared state functions provide the empirical metrics the analytic model is
checked against.

Mechanics worth knowing:

- The node never learns of a connection failure until detection fires, so
  datagrams sent while an interface sits in its failed phase are lost.
- The WiFi connection-holding rate depends on the oracle state; when the
  oracle moves while WiFi is connected the pending failure is redrawn at
  the new rate, which is exact for exponential holding times.
- The relay and the acknowledgment channel are reliable; ACKs arrive after
  a configurable fixed delay (0 = instantaneous). With a delay larger than
  the ACK timeout every datagram is retransmitted at least once, which is
  the easiest way to exercise duplicate suppression.
- Ties in the event queue break by event class (state machines before
  traffic), then by scheduling order, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from abps_toolkit.abps import (
    AbpsParams,
    MODES,
    NIC_PHASES,
    ORACLE_U,
    ORACLE_UW,
    ORACLE_W,
    PHASE_CONNECTED,
    PHASE_DISCONNECTED,
    PHASE_FAILED,
    PHASE_OFF,
    PHASE_SETUP,
    VARIANTS,
    resolved_rates,
    state_available,
    state_power,
    state_throughput,
)
from abps_toolkit.ctmc import ValidationError

ORACLE_STATE_NAMES = {ORACLE_U: "O_U", ORACLE_UW: "O_UW", ORACLE_W: "O_W"}

# Event classes in tie-breaking order.
_EV_ORACLE, _EV_NIC, _EV_DATA, _EV_ACK, _EV_TIMEOUT = range(5)

TraceFn = Callable[[float, str, str, str], None]


@dataclass(frozen=True)
class SimConfig:
    """Run length, load and reliability knobs of one simulation."""

    duration: float = 1e5
    seed: int = 1
    data_rate: float = 50.0       # datagrams per second; 0 disables traffic
    datagram_bytes: int = 1250
    ack_timeout: float = 1.0
    ack_delay: float = 0.0
    replications: int = 30

    def __post_init__(self) -> None:
        if not (0.0 < self.duration < math.inf):
            raise ValidationError(f"duration must be positive and finite, got {self.duration}")
        if not (0.0 <= self.data_rate < math.inf):
            raise ValidationError(
                f"data_rate must be 0 (no traffic) or positive and finite, got {self.data_rate}"
            )
        if not (0.0 < self.ack_timeout < math.inf):
            raise ValidationError(
                f"ack_timeout must be positive and finite, got {self.ack_timeout}"
            )
        if not (0.0 <= self.ack_delay < math.inf):
            raise ValidationError(f"ack_delay must be nonnegative and finite, got {self.ack_delay}")
        if self.datagram_bytes <= 0:
            raise ValidationError("datagram_bytes must be positive")
        if self.replications < 1:
            raise ValidationError("replications must be at least 1")


@dataclass
class Datagram:
    """One application datagram; sequence numbers are unique per flow."""

    seq: int
    created: float
    size_bits: int
    nic: str | None = None
    attempts: int = 0


@dataclass
class NicState:
    technology: str
    phase: int = PHASE_DISCONNECTED
    active: bool = True
    generation: int = 0   # bumping it cancels the scheduled transition
    entered: float = 0.0


@dataclass(frozen=True)
class SimMetrics:
    """Empirical counterparts of the analytic metrics plus traffic counters."""

    variant: str
    mode: str
    duration: float
    seed: int
    availability: float
    power_w: float
    throughput_mbps: float        # state-based, comparable to the chains
    goodput_mbps: float           # distinct acknowledged datagrams
    generated: int
    acked: int
    delivered_in_order: int
    duplicates: int
    retransmissions: int
    lost_sends: int
    parked_at_end: int
    oracle_sojourn_mean: Mapping[str, float]
    oracle_sojourn_count: Mapping[str, int]
    nic_phase_fraction: Mapping[str, Mapping[str, float]]
    occupancy: Mapping[tuple[int, int, int], float]


class _Simulation:
    def __init__(self, params: AbpsParams, config: SimConfig, variant: str,
                 mode: str, trace: TraceFn | None):
        self.params = params
        self.config = config
        self.variant = variant
        self.mode = mode
        self.trace = trace
        self.rates = resolved_rates(params, mode)
        self.rng = np.random.default_rng(config.seed)

        self.now = 0.0
        self.last_accrual = 0.0
        self.serial = itertools.count()
        self.heap: list[tuple] = []

        self.nics = {"UMTS": NicState("UMTS"), "WiFi": NicState("WiFi")}
        self.available: set[str] = set()
        self.oracle_state = ORACLE_UW
        self.oracle_gen = 0
        self.oracle_entered = 0.0

        # Per-state tables keep the hot accrual path cheap.
        self._available = [[state_available(u, w) for w in range(5)] for u in range(5)]
        self._power = [
            [state_power(u, w, params, mode, variant) for w in range(5)]
            for u in range(5)
        ]
        self._tput = [
            [state_throughput(u, w, params) for w in range(5)] for u in range(5)
        ]

        self.acc_avail = 0.0
        self.acc_power = 0.0
        self.acc_tput = 0.0
        self.occupancy: dict[tuple[int, int, int], float] = {}
        self.oracle_sojourn_sum = {ORACLE_U: 0.0, ORACLE_UW: 0.0, ORACLE_W: 0.0}
        self.oracle_sojourn_cnt = {ORACLE_U: 0, ORACLE_UW: 0, ORACLE_W: 0}
        self.phase_time: dict[str, list[float]] = {
            "UMTS": [0.0] * 5, "WiFi": [0.0] * 5
        }

        self.next_seq = 0
        self.pending: dict[int, Datagram] = {}
        self.parked: deque[Datagram] = deque()
        self.generated = 0
        self.acked = 0
        self.delivered = 0
        self.duplicates = 0
        self.retransmissions = 0
        self.lost_sends = 0
        self.next_expected = 0
        self.reorder: set[int] = set()

    # -- scheduling ---------------------------------------------------------

    def _push(self, when: float, kind: int, *payload) -> None:
        heapq.heappush(self.heap, (when, kind, next(self.serial), *payload))

    def _exp(self, rate: float) -> float:
        return float(self.rng.exponential(1.0 / rate))

    def _wifi_gamma(self) -> float:
        if self.oracle_state == ORACLE_W:
            return self.rates["gamma_W_plus"]
        return self.rates["gamma_W_minus"]

    def _phase_rate(self, nic: NicState) -> float:
        r = self.rates
        if nic.technology == "UMTS":
            table = {
                PHASE_DISCONNECTED: r["alpha_U"],
                PHASE_SETUP: r["umts_setup_success"] + r["umts_setup_fail"],
                PHASE_CONNECTED: r["gamma_U"],
                PHASE_FAILED: r["mu_U"],
            }
        else:
            table = {
                PHASE_DISCONNECTED: r["alpha_W"],
                PHASE_SETUP: r["wifi_setup_success"] + r["wifi_setup_fail"],
                PHASE_CONNECTED: self._wifi_gamma(),
                PHASE_FAILED: r["mu_W"],
            }
        return table.get(nic.phase, 0.0)

    def _schedule_nic(self, nic: NicState) -> None:
        rate = self._phase_rate(nic)
        if rate > 0.0:
            self._push(self.now + self._exp(rate), _EV_NIC, nic.technology, nic.generation)

    def _schedule_oracle(self) -> None:
        r = self.rates
        rate = {
            ORACLE_U: r["lambda_U_UW"],
            ORACLE_UW: r["lambda_UW_U"] + r["lambda_UW_W"],
            ORACLE_W: r["lambda_W_UW"],
        }[self.oracle_state]
        self._push(self.now + self._exp(rate), _EV_ORACLE, self.oracle_gen)

    # -- bookkeeping --------------------------------------------------------

    def _accrue(self) -> None:
        dt = self.now - self.last_accrual
        if dt <= 0.0:
            return
        u = self.nics["UMTS"].phase
        w = self.nics["WiFi"].phase
        if self._available[u][w]:
            self.acc_avail += dt
        self.acc_power += dt * self._power[u][w]
        self.acc_tput += dt * self._tput[u][w]
        key = (u, w, self.oracle_state)
        self.occupancy[key] = self.occupancy.get(key, 0.0) + dt
        self.phase_time["UMTS"][u] += dt
        self.phase_time["WiFi"][w] += dt
        self.last_accrual = self.now

    def _emit(self, entity: str, event: str, detail: str) -> None:
        if self.trace is not None:
            self.trace(self.now, entity, event, detail)

    # -- interface state machine --------------------------------------------

    def _set_phase(self, nic: NicState, phase: int) -> None:
        nic.phase = phase
        nic.entered = self.now
        nic.generation += 1
        self._schedule_nic(nic)

    def _nic_fire(self, tech: str, generation: int) -> None:
        nic = self.nics[tech]
        if generation != nic.generation:
            return
        self._accrue()
        r = self.rates
        phase = nic.phase
        if phase == PHASE_DISCONNECTED:
            new = PHASE_SETUP
        elif phase == PHASE_SETUP:
            if tech == "UMTS":
                p_ok = r["umts_setup_success"] / (
                    r["umts_setup_success"] + r["umts_setup_fail"]
                )
            else:
                p_ok = r["wifi_setup_success"] / (
                    r["wifi_setup_success"] + r["wifi_setup_fail"]
                )
            new = PHASE_CONNECTED if self.rng.random() < p_ok else PHASE_DISCONNECTED
        elif phase == PHASE_CONNECTED:
            new = PHASE_FAILED
        elif phase == PHASE_FAILED:
            new = PHASE_DISCONNECTED
        else:
            return
        self._emit(f"nic:{tech}", "phase", f"{NIC_PHASES[phase]}->{NIC_PHASES[new]}")
        self._set_phase(nic, new)
        if new == PHASE_CONNECTED:
            self.available.add(tech)
            self._flush_parked()
        elif phase == PHASE_FAILED and new == PHASE_DISCONNECTED:
            # only now does the proxy learn the connection dropped
            self.available.discard(tech)

    def _force_off(self, tech: str) -> None:
        nic = self.nics[tech]
        nic.active = False
        self.available.discard(tech)
        if nic.phase == PHASE_OFF:
            return
        self._emit(f"nic:{tech}", "phase", f"{NIC_PHASES[nic.phase]}->off (forced)")
        nic.phase = PHASE_OFF
        nic.entered = self.now
        nic.generation += 1  # cancels any scheduled transition

    def _force_on(self, tech: str) -> None:
        nic = self.nics[tech]
        nic.active = True
        if nic.phase != PHASE_OFF:
            return
        self._emit(f"nic:{tech}", "phase", "off->disconnected (forced)")
        self._set_phase(nic, PHASE_DISCONNECTED)

    # -- oracle process -------------------------------------------------------

    def _oracle_fire(self, generation: int) -> None:
        if generation != self.oracle_gen:
            return
        self._accrue()
        state = self.oracle_state
        r = self.rates
        if state == ORACLE_U:
            target, event, on, off = ORACLE_UW, "EV_SHORT_WIFI", "WiFi", None
        elif state == ORACLE_W:
            target, event, on, off = ORACLE_UW, "EV_SHORT_WIFI", "UMTS", None
        else:
            lam_u, lam_w = r["lambda_UW_U"], r["lambda_UW_W"]
            if self.rng.random() * (lam_u + lam_w) < lam_u:
                target, event, on, off = ORACLE_U, "EV_NO_WIFI", None, "WiFi"
            else:
                target, event, on, off = ORACLE_W, "EV_LONG_WIFI", None, "UMTS"
        self.oracle_sojourn_sum[state] += self.now - self.oracle_entered
        self.oracle_sojourn_cnt[state] += 1
        self.oracle_state = target
        self.oracle_entered = self.now
        self.oracle_gen += 1
        self._emit("oracle", event,
                   f"{ORACLE_STATE_NAMES[state]}->{ORACLE_STATE_NAMES[target]}")
        if self.variant == "oracle":
            if on is not None:
                self._force_on(on)
            if off is not None:
                self._force_off(off)
        wifi = self.nics["WiFi"]
        if wifi.phase == PHASE_CONNECTED:
            # holding rate changed with the oracle state; redraw (memoryless)
            wifi.generation += 1
            self._schedule_nic(wifi)
        self._schedule_oracle()

    # -- traffic ---------------------------------------------------------------

    def _preferred(self, exclude: str | None = None) -> str | None:
        for tech in ("WiFi", "UMTS"):
            if tech in self.available and tech != exclude:
                return tech
        return None

    def _generate(self) -> None:
        seq = self.next_seq
        self.next_seq += 1
        self.generated += 1
        datagram = Datagram(seq, self.now, self.config.datagram_bytes * 8)
        self.pending[seq] = datagram
        self._send(datagram)
        self._push(self.now + 1.0 / self.config.data_rate, _EV_DATA, 0)

    def _send(self, datagram: Datagram) -> None:
        tech = self._preferred()
        if tech is None:
            self.parked.append(datagram)
            self._emit("proxy", "park", f"seq={datagram.seq}")
            return
        self._transmit(datagram, tech)

    def _transmit(self, datagram: Datagram, tech: str) -> None:
        nic = self.nics[tech]
        datagram.nic = tech
        datagram.attempts += 1
        if datagram.attempts > 1:
            self.retransmissions += 1
        self._emit(f"nic:{tech}", "send",
                   f"seq={datagram.seq} attempt={datagram.attempts} active={nic.active}")
        if nic.phase == PHASE_CONNECTED:
            self._receive(datagram)
            if self.config.ack_delay <= 0.0:
                self._ack(datagram.seq)
            else:
                self._push(self.now + self.config.ack_delay, _EV_ACK, datagram.seq)
                self._push(self.now + self.config.ack_timeout, _EV_TIMEOUT, datagram.seq)
        else:
            # failed but not yet detected: the datagram is lost in transit
            self.lost_sends += 1
            self._push(self.now + self.config.ack_timeout, _EV_TIMEOUT, datagram.seq)

    def _receive(self, datagram: Datagram) -> None:
        seq = datagram.seq
        if seq < self.next_expected or seq in self.reorder:
            self.duplicates += 1
            self._emit("relay", "duplicate", f"seq={seq}")
            return
        self.reorder.add(seq)
        while self.next_expected in self.reorder:
            self.reorder.remove(self.next_expected)
            self.delivered += 1
            self._emit("app", "deliver", f"seq={self.next_expected}")
            self.next_expected += 1

    def _ack(self, seq: int) -> None:
        if self.pending.pop(seq, None) is not None:
            self.acked += 1

    def _timeout(self, seq: int) -> None:
        datagram = self.pending.get(seq)
        if datagram is None:
            return  # acknowledged in the meantime
        self._emit("proxy", "timeout", f"seq={seq}")
        alternative = self._preferred(exclude=datagram.nic)
        if alternative is None and datagram.nic in self.available:
            alternative = datagram.nic  # sole usable interface: retry there
        if alternative is None:
            self.parked.append(datagram)
            self._emit("proxy", "park", f"seq={seq}")
        else:
            self._transmit(datagram, alternative)

    def _flush_parked(self) -> None:
        while self.parked:
            if self.parked[0].seq not in self.pending:
                self.parked.popleft()  # acknowledged while parked
                continue
            tech = self._preferred()
            if tech is None:
                return
            self._transmit(self.parked.popleft(), tech)

    # -- main loop --------------------------------------------------------------

    def run(self) -> SimMetrics:
        cfg = self.config
        self._schedule_nic(self.nics["UMTS"])
        self._schedule_nic(self.nics["WiFi"])
        self._schedule_oracle()
        if cfg.data_rate > 0.0:
            self._push(1.0 / cfg.data_rate, _EV_DATA, 0)

        heap = self.heap
        while heap:
            entry = heapq.heappop(heap)
            when = entry[0]
            if when > cfg.duration:
                break
            self.now = when
            kind = entry[1]
            if kind == _EV_NIC:
                self._nic_fire(entry[3], entry[4])
            elif kind == _EV_ORACLE:
                self._oracle_fire(entry[3])
            elif kind == _EV_DATA:
                self._generate()
            elif kind == _EV_ACK:
                self._ack(entry[3])
            elif kind == _EV_TIMEOUT:
                self._timeout(entry[3])
        self.now = cfg.duration
        self._accrue()

        duration = cfg.duration
        sojourn_mean = {
            ORACLE_STATE_NAMES[s]: self.oracle_sojourn_sum[s] / c
            for s, c in self.oracle_sojourn_cnt.items()
            if c > 0
        }
        sojourn_count = {
            ORACLE_STATE_NAMES[s]: c
            for s, c in self.oracle_sojourn_cnt.items()
            if c > 0
        }
        return SimMetrics(
            variant=self.variant,
            mode=self.mode,
            duration=duration,
            seed=cfg.seed,
            availability=self.acc_avail / duration,
            power_w=self.acc_power / duration,
            throughput_mbps=self.acc_tput / duration,
            goodput_mbps=self.acked * cfg.datagram_bytes * 8 / duration / 1e6,
            generated=self.generated,
            acked=self.acked,
            delivered_in_order=self.delivered,
            duplicates=self.duplicates,
            retransmissions=self.retransmissions,
            lost_sends=self.lost_sends,
            parked_at_end=len(self.parked),
            oracle_sojourn_mean=sojourn_mean,
            oracle_sojourn_count=sojourn_count,
            nic_phase_fraction={
                tech: {
                    NIC_PHASES[p]: t / duration
                    for p, t in enumerate(times)
                    if t > 0.0
                }
                for tech, times in self.phase_time.items()
            },
            occupancy={k: v / duration for k, v in sorted(self.occupancy.items())},
        )


def simulate(
    params: AbpsParams,
    config: SimConfig,
    variant: str = "plain",
    mode: str = "text",
    trace: TraceFn | None = None,
) -> SimMetrics:
    """Run one replication; identical inputs give bit-identical metrics."""
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return _Simulation(params, config, variant, mode, trace).run()


@dataclass(frozen=True)
class MetricStats:
    mean: float
    se: float


@dataclass(frozen=True)
class ReplicationResult:
    """Sample mean and standard error per metric over independent runs."""

    n: int
    stats: Mapping[str, MetricStats]
    runs: tuple[SimMetrics, ...]

    def within(self, metric: str, reference: float, k: float = 3.0) -> bool:
        s = self.stats[metric]
        return abs(s.mean - reference) <= k * s.se


def derive_seeds(root_seed: int, n: int) -> list[int]:
    """Deterministic, well-separated per-replication seeds from one root."""
    return [int(x) for x in np.random.SeedSequence(root_seed).generate_state(n, dtype=np.uint64)]


def run_replications(
    params: AbpsParams,
    config: SimConfig,
    variant: str = "plain",
    mode: str = "text",
    trace: TraceFn | None = None,
    seeds: list[int] | None = None,
) -> tuple[SimMetrics, ...]:
    """Run one simulation per seed, sharing ``trace`` across all of them.

    Without explicit seeds a single replication runs at ``config.seed``
    itself and ``config.replications`` > 1 run at
    ``derive_seeds(config.seed, config.replications)``.
    """
    if seeds is None:
        n = config.replications
        seeds = [config.seed] if n == 1 else derive_seeds(config.seed, n)
    return tuple(
        simulate(params, replace(config, seed=s), variant, mode, trace) for s in seeds
    )


def replicate(
    params: AbpsParams,
    config: SimConfig,
    variant: str = "plain",
    mode: str = "text",
    seeds: list[int] | None = None,
) -> ReplicationResult:
    """Run ``config.replications`` independent simulations and aggregate.

    Seeds come from :func:`run_replications` unless given explicitly.
    Needs at least two replications for a standard error.
    """
    n = config.replications if seeds is None else len(seeds)
    if n < 2:
        raise ValidationError(
            f"replicate needs at least 2 replications for a standard error, got {n}"
        )
    runs = run_replications(params, config, variant, mode, seeds=seeds)

    samples: dict[str, list[float]] = {
        "availability": [r.availability for r in runs],
        "power_w": [r.power_w for r in runs],
        "throughput_mbps": [r.throughput_mbps for r in runs],
        "goodput_mbps": [r.goodput_mbps for r in runs],
    }
    for name in ("O_U", "O_UW", "O_W"):
        if all(name in r.oracle_sojourn_mean for r in runs):
            samples[f"sojourn_{name}"] = [r.oracle_sojourn_mean[name] for r in runs]

    stats = {}
    for name, values in samples.items():
        arr = np.asarray(values)
        stats[name] = MetricStats(
            mean=float(arr.mean()),
            se=float(arr.std(ddof=1) / math.sqrt(n)),
        )
    return ReplicationResult(n=n, stats=stats, runs=runs)
