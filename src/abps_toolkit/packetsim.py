"""Packet-level discrete-event simulation of the multi-NIC switching node.

Independent of the analytic chains in every respect except two shared
definitions: the parameter set (with its resolved rates) and the per-state
metric functions ``abps.state_available``/``state_power``/``state_throughput``,
tabulated over the phase pairs once per parameter set, mode and variant
(``abps._phase_table``), the table the chain builders also read. Interface
lifecycles and the coverage oracle advance through exponential sojourns,
datagrams carry sequence numbers and are acknowledged end to end, timeouts
retransmit over an alternative interface, and the receiving side restores
order and discards duplicates. Simulated time integrals of the shared state
functions provide the empirical metrics the analytic model is checked
against.

Mechanics worth knowing:

- The node never learns of a connection failure until detection fires, so
  an interface is usable while it is connected, or has failed and the
  failure is not yet detected (``_USABLE``, the one place this rule is
  written). That is why a datagram sent in the failed phase is lost.
- The WiFi connection-holding rate depends on the oracle state; when the
  oracle moves while WiFi is connected the pending failure is redrawn at
  the new rate, which is exact for exponential holding times.
- The relay and the acknowledgment channel are reliable; ACKs arrive after
  a configurable fixed delay (0 = instantaneous). With a delay larger than
  the ACK timeout every datagram is retransmitted at least once, which is
  the easiest way to exercise duplicate suppression. With a delay no larger
  than the timeout, the ACK of a connected send wins over its timeout (a
  tie goes to the ACK), so the send is settled: the datagram counts as
  acknowledged if the ACK falls due within the run, and it is never sent
  or received again.
- Each interface and the oracle hold at most one pending transition, so
  each has a clock: the time it next moves, ``inf`` when it has none. A
  transition is cancelled or redrawn by overwriting its clock. Traffic
  comes from three other sources: the time of the next datagram, which
  advances by the fixed period, and two FIFOs: the ACKs of connected sends
  and the timeouts of every send. Each FIFO entry lies a fixed delay after
  its send and simulated time never runs backwards, so each FIFO is already
  in time and scheduling order. Only a state event moves a clock, so the
  loop finds the earliest clock once per state event and serves the traffic
  due strictly before it. Ties break by event class (oracle, interface,
  datagram, ACK, timeout); two interfaces due at the same time fire in the
  order their clocks were set, so runs are reproducible bit for bit.
- Every state event, an interface's transition or an oracle move with the
  forced transition it causes, is handled in the loop of ``run`` itself.
  The loop keeps in locals the oracle's state, clock and entry time, the
  time of the last state event and the interface whose clock was set last.
  Interface phases and clocks stay on the ``NicState`` objects, which the
  traffic code reads. Of the rest, traffic code reads only ``now``, so the
  loop sets it before it flushes parked datagrams (``_serve`` sets its
  own). The oracle state, the last state event's time and the
  last-scheduled interface are written back when the run ends.
- Only a state event moves the preferred interface, its phase or the set of
  usable interfaces. So between two state events every fresh datagram
  meets one fate (settled over a connected interface, lost over a failed
  one, or parked), and so does every timeout of a datagram last sent over
  the same interface (settled, parked, or lost again). With an ACK delay no
  larger than the timeout every connected send is settled, so the counters
  depend only on which sends, losses and parks happen, not on their order.
  An untraced such run (``_Stretches``) queues no ACK and serves the
  traffic due before each state event in one step: its Python steps
  grow with the state events and binades, not with the datagrams, and a
  lost datagram costs one list element, not a loop event:

  (a) Send times in closed form (``_SendTimes``). Within t's binade
      [2^(e-1), 2^e) every float is a multiple of one ulp u, so ``t +
      period`` is ``t + step`` with one step for the whole binade; the
      exception is a tie binade, where period / u ends in exactly one half
      and the sum rounds to even (0.02 s in [1/32, 1/16), 0.1 s in [0.25,
      0.5), 1/3 s in [0.5, 1)). There one step lands on an even multiple of
      u, and from there on the step is constant too. So each binade is one
      or two segments, and each send time is the same float that adding
      the period again and again gives. An ACK falls due within the run for
      a prefix of a stretch, found by bisection.
  (b) Lost stretches. While the preferred interface sits in its failed
      phase the stretch is counted as lost sends, and their timeouts queue
      as one list of times ``t_k + ack_timeout``, with no ``Datagram``.
  (c) Timeouts of one fate. All the timeouts due before the state event
      are served as one cut of each such list: settled, parked as a run of
      sequence numbers, or, when the other interface has failed too or
      none is left, lost again as a new list one timeout later, served
      again if still due. A connect settles the parked runs in one step,
      and the relay delivers in order up to the first datagram still lost
      or parked.

  A traced run writes a record per datagram, and an ACK delay above the
  timeout queues ACKs whose order matters, so both go one datagram at a
  time. That path queues every ACK and timeout and takes no shortcut: it
  is the reference the stretches are tested against.
- What a run reads and what it builds. Its rate constants (each interface's
  sojourn scales and setup odds, WiFi's holding scale and the oracle's
  sojourn scale by oracle state) and each occupancy cell's availability,
  power and throughput are tables kept on the parameter set, built on first
  use (``abps._derived``): ``_rates`` per mode, ``_cells`` per mode and
  variant. The send times of a (period, duration) pair are kept for the
  process (``_send_times``). A run builds its random generator, copies the
  scale lists and maps it may change, and keeps its own clocks, counters
  and occupancy. So the replications of ``abps compare`` and ``--reps N``
  build the tables once, not once per run.
- Random numbers come from one generator per run, seeded by the run's seed,
  in blocks of ``BLOCK_SIZE``: one block stream of unit exponentials (each
  sojourn is one of them times its mean) and one of uniforms (the setup
  outcome and the oracle's branch). Each block is one numpy call, and each
  stream is read in order, so a run is a function of its seed alone.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping

import numpy as np

from abps_toolkit.abps import (
    AbpsParams,
    NIC_PHASES,
    ORACLE_U,
    ORACLE_UW,
    ORACLE_W,
    PHASE_CONNECTED,
    PHASE_DISCONNECTED,
    PHASE_FAILED,
    PHASE_OFF,
    PHASE_SETUP,
    _check_variant_mode,
    _derived,
    _phase_table,
    resolved_rates,
)
from abps_toolkit.ctmc import ValidationError

ORACLE_STATE_NAMES = {ORACLE_U: "O_U", ORACLE_UW: "O_UW", ORACLE_W: "O_W"}
# Trace event of an oracle move, by the state it enters.
_ORACLE_EVENTS = {ORACLE_U: "EV_NO_WIFI", ORACLE_UW: "EV_SHORT_WIFI", ORACLE_W: "EV_LONG_WIFI"}

# The phase an interface's transition enters; a failed setup returns to
# disconnected, and an off interface has no clock.
_NEXT_PHASE = (PHASE_OFF, PHASE_SETUP, PHASE_CONNECTED, PHASE_FAILED, PHASE_DISCONNECTED)
# Whether a send may go out over an interface, by phase: while it is
# connected, or has failed and the proxy has not yet detected the failure.
_USABLE = tuple(phase in (PHASE_CONNECTED, PHASE_FAILED) for phase in range(len(NIC_PHASES)))

TraceFn = Callable[[float, str, str, str], None]

# Draws per numpy call: one call per block replaces one call per draw.
BLOCK_SIZE = 256


def _blocks(fill: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of ``fill(BLOCK_SIZE)``, ``fill(BLOCK_SIZE)``, ... one
    Python float at a time."""
    while True:
        yield from fill(BLOCK_SIZE).tolist()


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
        # a step below the spacing of floats at the end of the run cannot
        # advance the clock there, so the run would never end
        resolution = math.ulp(self.duration)
        if self.ack_timeout < resolution:
            raise ValidationError(
                f"ack_timeout must be at least math.ulp(duration) = {resolution:g} to "
                f"advance the clock, got {self.ack_timeout}"
            )
        if self.data_rate > 0.0 and 1.0 / self.data_rate < resolution:
            raise ValidationError(
                f"data_rate must give a datagram period 1/data_rate of at least "
                f"math.ulp(duration) = {resolution:g} to advance the clock, got {self.data_rate}"
            )
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("datagram_bytes", "replications"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        most = int(np.iinfo(np.intp).max)  # the longest array numpy can index
        if self.replications > most:
            raise ValidationError(f"replications must be at most {most}, one seed each, "
                                  f"got {self.replications}")


@dataclass(slots=True)
class Datagram:
    """One application datagram; sequence numbers are unique per flow."""

    seq: int
    nic: NicState | None = None  # the interface of the last send
    attempts: int = 0


@dataclass(slots=True)
class NicState:
    technology: str
    scales: list[float]   # mean sojourn 1/rate per phase; 0 = the phase never ends (off)
    p_setup_ok: float     # chance that a finished setup connects
    phase: int = PHASE_DISCONNECTED
    due: float = math.inf  # time of the pending transition; inf = none


@dataclass(frozen=True)
class _Rates:
    """The rate constants a run reads of its parameter set and mode."""

    umts_scales: tuple[float, ...]  # NicState.scales, by phase
    umts_setup_ok: float
    wifi_scales: tuple[float, ...]
    wifi_setup_ok: float
    hold_scale: Mapping[int, float]    # WiFi's connected sojourn, by oracle state
    oracle_scale: Mapping[int, float]  # the oracle's sojourn, by oracle state
    lambda_uw_u: float
    lambda_uw: float                   # the rate of leaving UW


def _rates(params: AbpsParams, mode: str) -> _Rates:
    """The run constants of ``params`` in ``mode``; read them through
    ``_derived``, which builds them once."""
    r = resolved_rates(params, mode)

    def nic(alpha: float, success: float, fail: float, gamma: float, mu: float):
        setup = success + fail
        return (0.0, 1.0 / alpha, 1.0 / setup, 1.0 / gamma, 1.0 / mu), success / setup

    lambda_uw = r["lambda_UW_U"] + r["lambda_UW_W"]
    return _Rates(
        *nic(r["alpha_U"], r["umts_setup_success"], r["umts_setup_fail"], r["gamma_U"],
             r["mu_U"]),
        *nic(r["alpha_W"], r["wifi_setup_success"], r["wifi_setup_fail"], r["gamma_W_minus"],
             r["mu_W"]),
        hold_scale={ORACLE_U: 1.0 / r["gamma_W_minus"], ORACLE_UW: 1.0 / r["gamma_W_minus"],
                    ORACLE_W: 1.0 / r["gamma_W_plus"]},
        oracle_scale={ORACLE_U: 1.0 / r["lambda_U_UW"], ORACLE_UW: 1.0 / lambda_uw,
                      ORACLE_W: 1.0 / r["lambda_W_UW"]},
        lambda_uw_u=r["lambda_UW_U"],
        lambda_uw=lambda_uw,
    )


def _cells(params: AbpsParams, mode: str, variant: str) -> tuple:
    """Per occupancy cell, in the order a run adds them: its (UMTS phase,
    WiFi phase, oracle state), its index and the availability, power and
    throughput of its phases from ``abps._phase_table``; read it through
    ``_derived``, which builds it once."""
    available, power, throughput = _derived(params, _phase_table, mode, variant).tolist()
    return tuple(((u, w, o), (u * 5 + w) * 4 + o, available[u][w], power[u][w], throughput[u][w])
                 for u in range(5) for w in range(5) for o in ORACLE_STATE_NAMES)


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
    occupancy: Mapping[tuple[int, int, int], float]


class _Simulation:
    def __init__(self, params: AbpsParams, config: SimConfig, variant: str,
                 mode: str, trace: TraceFn | None):
        self.params = params
        self.config = config
        self.variant = variant
        self.mode = mode
        self.trace = trace
        rng = np.random.default_rng(config.seed)
        # unit exponentials (times a scale they give a sojourn) and branch
        # uniforms, each read in order from its own block stream
        self.draw = _blocks(rng.standard_exponential).__next__
        self.uniform = _blocks(rng.random).__next__

        self.now = 0.0
        self.last_accrual = 0.0   # time of the last state event
        # (when, seq) of pending ACKs and timeouts, each in time order
        self.acks: deque[tuple[float, int]] = deque()
        self.timeouts: deque[tuple[float, int]] = deque()
        self.ack_delay = config.ack_delay
        self.ack_timeout = config.ack_timeout

        # the constants come from the parameter set's tables; a run copies
        # what it may change
        rates = _derived(params, _rates, mode)
        self.umts = NicState("UMTS", list(rates.umts_scales), rates.umts_setup_ok)
        self.wifi = NicState("WiFi", list(rates.wifi_scales), rates.wifi_setup_ok)
        self.oracle_state = ORACLE_UW
        # the interface whose clock was set last fires second on a tie;
        # run() sets UMTS's clock first, then WiFi's
        self.last_scheduled = self.wifi
        # WiFi's connected sojourn ends at a rate set by the oracle state
        self.wifi_hold_scale = dict(rates.hold_scale)
        self.lambda_uw_u = rates.lambda_uw_u
        self.lambda_uw = rates.lambda_uw
        self.oracle_scale = dict(rates.oracle_scale)

        # time spent per (UMTS phase, WiFi phase, oracle state), at cell
        # (u * 5 + w) * 4 + o; every time-based metric is derived from it
        self.occupancy = [0.0] * 100
        self.oracle_sojourn_sum = {ORACLE_U: 0.0, ORACLE_UW: 0.0, ORACLE_W: 0.0}
        self.oracle_sojourn_cnt = {ORACLE_U: 0, ORACLE_UW: 0, ORACLE_W: 0}

        # datagrams fall due at period, period + period, ..., each time the
        # float sum of the one before and the period
        self.period = 1.0 / config.data_rate if config.data_rate > 0.0 else math.inf
        self.next_data = self.period
        self.next_seq = 0  # also the count of datagrams generated
        self.pending: dict[int, Datagram] = {}
        self.parked: deque[Datagram] = deque()
        self.acked = 0
        self.delivered = 0
        self.duplicates = 0
        self.retransmissions = 0
        self.lost_sends = 0
        self.next_expected = 0
        self.reorder: set[int] = set()

    # -- traffic ---------------------------------------------------------------

    def _preferred(self, exclude: NicState | None = None) -> NicState | None:
        """The usable interface a send goes out on: WiFi, else UMTS,
        skipping ``exclude``."""
        wifi = self.wifi
        if wifi is not exclude and _USABLE[wifi.phase]:
            return wifi
        umts = self.umts
        if umts is not exclude and _USABLE[umts.phase]:
            return umts
        return None

    def _generate(self) -> None:
        seq = self.next_seq
        self.next_seq = seq + 1
        datagram = self.pending[seq] = Datagram(seq)
        nic = self._preferred()
        if nic is None:
            self.parked.append(datagram)
            if self.trace is not None:
                self.trace(self.now, "proxy", "park", f"seq={seq}")
        else:
            self._transmit(datagram, nic)

    def _transmit(self, datagram: Datagram, nic: NicState) -> None:
        datagram.nic = nic
        datagram.attempts += 1
        if datagram.attempts > 1:
            self.retransmissions += 1
        if self.trace is not None:
            self.trace(self.now, f"nic:{nic.technology}", "send",
                       f"seq={datagram.seq} attempt={datagram.attempts} "
                       f"active={nic.phase != PHASE_OFF}")
        seq, now = datagram.seq, self.now
        if nic.phase == PHASE_CONNECTED:
            self._receive(seq)
            self.acks.append((now + self.ack_delay, seq))
        else:
            # failed but not yet detected: the datagram is lost in transit
            self.lost_sends += 1
        self.timeouts.append((now + self.ack_timeout, seq))

    def _receive(self, seq: int) -> None:
        if seq != self.next_expected:
            if seq < self.next_expected or seq in self.reorder:
                self.duplicates += 1
                if self.trace is not None:
                    self.trace(self.now, "relay", "duplicate", f"seq={seq}")
            else:
                self.reorder.add(seq)
            return
        # in order: deliver it and every held datagram it releases
        while True:
            self.delivered += 1
            if self.trace is not None:
                self.trace(self.now, "app", "deliver", f"seq={seq}")
            seq += 1
            if seq not in self.reorder:
                break
            self.reorder.remove(seq)
        self.next_expected = seq

    def _timeout(self, seq: int) -> None:
        datagram = self.pending.get(seq)
        if datagram is None:
            return  # acknowledged in the meantime
        if self.trace is not None:
            self.trace(self.now, "proxy", "timeout", f"seq={seq}")
        # another usable interface, else retry on the same one if usable
        alternative = self._preferred(exclude=datagram.nic) or self._preferred()
        if alternative is None:
            self.parked.append(datagram)
            if self.trace is not None:
                self.trace(self.now, "proxy", "park", f"seq={seq}")
        else:
            self._transmit(datagram, alternative)

    def _flush_parked(self) -> None:
        # an interface has just connected, and no send moves a phase
        nic = self._preferred()
        for datagram in self.parked:
            if datagram.seq in self.pending:  # else acknowledged while parked
                self._transmit(datagram, nic)
        self.parked.clear()

    def _serve(self, stop: float) -> None:
        """Serve the traffic due before ``stop`` one event at a time. Each
        source goes first only when strictly earlier than the ones before
        it: the next datagram, then ACKs, then timeouts."""
        acks, timeouts, pending = self.acks, self.timeouts, self.pending
        while True:
            t, source = self.next_data, None
            if acks and acks[0][0] < t:
                t, source = acks[0][0], acks
            if timeouts and timeouts[0][0] < t:
                t, source = timeouts[0][0], timeouts
            if t >= stop:
                return
            self.now = t
            if source is None:
                self.next_data = t + self.period
                self._generate()
            elif source is acks:
                if pending.pop(acks.popleft()[1], None) is not None:
                    self.acked += 1
            else:
                self._timeout(timeouts.popleft()[1])

    def _delivery(self) -> tuple[int, int]:
        """The datagrams delivered in order and those parked at the end."""
        return self.delivered, len(self.parked)

    # -- main loop --------------------------------------------------------------

    def run(self) -> SimMetrics:
        cfg = self.config
        umts, wifi, trace = self.umts, self.wifi, self.trace
        draw, uniform = self.draw, self.uniform
        oracle_scale, hold_scale = self.oracle_scale, self.wifi_hold_scale
        lambda_uw, lambda_uw_u = self.lambda_uw, self.lambda_uw_u
        cells, forcing = self.occupancy, self.variant == "oracle"
        sojourn_sum, sojourn_cnt = self.oracle_sojourn_sum, self.oracle_sojourn_cnt
        state, last, last_set = self.oracle_state, self.last_accrual, self.last_scheduled
        umts.due = umts.scales[umts.phase] * draw()
        wifi.due = wifi.scales[wifi.phase] * draw()
        oracle_due, entered = oracle_scale[state] * draw(), 0.0

        duration = cfg.duration
        past_end = math.nextafter(duration, math.inf)  # t < past_end: t <= duration
        serve = self._serve if cfg.data_rate > 0.0 else None
        while True:
            # the next state event: the oracle wins a tie, then the
            # interface whose clock was set first
            nic, when = umts, umts.due
            wifi_due = wifi.due
            if wifi_due < when or (wifi_due == when and last_set is umts):
                nic, when = wifi, wifi_due
            if oracle_due <= when:
                nic, when = None, oracle_due
            if serve is not None:
                # traffic goes first only when strictly earlier
                serve(when if when < past_end else past_end)
            if when > duration:
                break
            cells[(umts.phase * 5 + wifi.phase) * 4 + state] += when - last
            last = when
            if nic is not None:
                phase = nic.phase
                new = _NEXT_PHASE[phase]
                if phase == PHASE_SETUP and not uniform() < nic.p_setup_ok:
                    new = PHASE_DISCONNECTED
                if trace is not None:
                    trace(when, f"nic:{nic.technology}", "phase",
                          f"{NIC_PHASES[phase]}->{NIC_PHASES[new]}")
                nic.phase = new
                nic.due = when + nic.scales[new] * draw()
                last_set = nic
                if new == PHASE_CONNECTED and self.parked:
                    self.now = when
                    self._flush_parked()
                continue
            # the oracle moves
            if state != ORACLE_UW:
                target = ORACLE_UW
            elif uniform() * lambda_uw < lambda_uw_u:
                target = ORACLE_U
            else:
                target = ORACLE_W
            sojourn_sum[state] += when - entered
            sojourn_cnt[state] += 1
            entered = when
            if trace is not None:
                trace(when, "oracle", _ORACLE_EVENTS[target],
                      f"{ORACLE_STATE_NAMES[state]}->{ORACLE_STATE_NAMES[target]}")
            if forcing:
                # U rules WiFi out and W rules UMTS out; back in UW both are
                # on. U and W are entered only from UW, so each force moves a
                # phase, and a forced-off interface's clock is cancelled
                if target == ORACLE_UW:
                    nic = wifi if state == ORACLE_U else umts
                    if trace is not None:
                        trace(when, f"nic:{nic.technology}", "phase",
                              "off->disconnected (forced)")
                    nic.phase = PHASE_DISCONNECTED
                    nic.due = when + nic.scales[PHASE_DISCONNECTED] * draw()
                    last_set = nic
                else:
                    nic = wifi if target == ORACLE_U else umts
                    if trace is not None:
                        trace(when, f"nic:{nic.technology}", "phase",
                              f"{NIC_PHASES[nic.phase]}->off (forced)")
                    nic.phase = PHASE_OFF
                    nic.due = math.inf
            state = target
            wifi.scales[PHASE_CONNECTED] = hold = hold_scale[target]
            if wifi.phase == PHASE_CONNECTED:
                # holding rate changed with the oracle state; redraw (memoryless)
                wifi.due = when + hold * draw()
                last_set = wifi
            oracle_due = when + oracle_scale[target] * draw()
        cells[(umts.phase * 5 + wifi.phase) * 4 + state] += duration - last
        self.oracle_state, self.last_accrual, self.last_scheduled = state, last, last_set

        occupancy = {}
        available = power = throughput = 0.0
        for key, cell, cell_available, cell_power, cell_throughput in _derived(
                self.params, _cells, self.mode, self.variant):
            t = cells[cell]
            if t > 0.0:
                occupancy[key] = t / duration
                available += t * cell_available
                power += t * cell_power
                throughput += t * cell_throughput
        delivered, parked = self._delivery()
        return SimMetrics(
            variant=self.variant,
            mode=self.mode,
            duration=duration,
            seed=cfg.seed,
            availability=available / duration,
            power_w=power / duration,
            throughput_mbps=throughput / duration,
            goodput_mbps=self.acked * cfg.datagram_bytes * 8 / duration / 1e6,
            generated=self.next_seq,
            acked=self.acked,
            delivered_in_order=delivered,
            duplicates=self.duplicates,
            retransmissions=self.retransmissions,
            lost_sends=self.lost_sends,
            parked_at_end=parked,
            oracle_sojourn_mean={ORACLE_STATE_NAMES[s]: sojourn_sum[s] / c
                                 for s, c in sojourn_cnt.items() if c > 0},
            oracle_sojourn_count={ORACLE_STATE_NAMES[s]: c
                                  for s, c in sojourn_cnt.items() if c > 0},
            occupancy=occupancy,
        )


class _SendTimes:
    """The send times ``t_0 = start`` and ``t_(k+1) = t_k + period``, each
    the float sum, up to the first one past ``end``, in closed form.

    Within a binade [2^(e-1), 2^e) every float is a multiple of one ulp u,
    so ``t + period`` rounds to ``t + step`` with one step, a multiple of u,
    as long as that sum stays at or below 2^e. A tie binade, where period / u
    ends in exactly one half, is the exception: the sum rounds to the even
    multiple of u, so the step from an odd multiple is one u off, but it
    lands on an even one, and from there on every step is the same. Two
    equal steps in a row from ``t`` so fix the step for the rest of its
    binade. Segment i holds the sends ``starts[i] <= k < starts[i + 1]`` at
    ``times[i] + (k - starts[i]) * steps[i]``, where each product and sum is
    exact: the same float that adding the period k times gives. A binade
    takes one segment, plus one of a single send where a tie or the step
    into the next binade breaks the rule.
    """

    def __init__(self, start: float, period: float, end: float):
        starts, times, steps = [], [], []
        k, t = 0, start
        while t <= end:
            starts.append(k)
            times.append(t)
            later = t + period
            after = later + period
            top = math.ulp(t) * 2.0**53  # t's binade is [top / 2, top)
            step = later - t
            if after <= top < math.inf and after - later == step:
                n = math.floor((top - t) / step)  # the sends from t up to top
                steps.append(step)
                k += n
                t += n * step
            else:
                steps.append(0.0)
                k += 1
                t = later
        starts.append(k)  # the first send past end
        times.append(t)
        steps.append(0.0)
        self.starts, self.times, self.steps = starts, times, steps
        self.end = end
        self._in_time: dict[float, int] = {}

    def in_time(self, delay: float) -> int:
        """The number of sends ``k`` with ``at(k) + delay <= end``: a prefix,
        as the sum never falls when ``at(k)`` grows. Kept per delay."""
        count = self._in_time.get(delay)
        if count is None:
            count = self._in_time[delay] = bisect.bisect_right(
                range(self.starts[-1]), self.end, key=lambda k: self.at(k) + delay)
        return count

    def at(self, k: int) -> float:
        """The time of send ``k``."""
        i = bisect.bisect_right(self.starts, k) - 1
        return self.times[i] + (k - self.starts[i]) * self.steps[i]

    def between(self, first: int, end: int, delay: float = 0.0) -> list[float]:
        """The times of sends ``first``, ..., ``end - 1``, each the float sum
        of the time and ``delay``."""
        starts, times, steps = self.starts, self.times, self.steps
        out: list[float] = []
        i = bisect.bisect_right(starts, first) - 1
        while first < end:
            start, t, step = starts[i], times[i], steps[i]
            last = min(end, starts[i + 1])
            out += [t + (k - start) * step + delay for k in range(first, last)]
            first, i = last, i + 1
        return out

    def count_before(self, stop: float) -> int:
        """The number of sends before ``stop``, which lies at or before the
        first send past the end."""
        i = bisect.bisect_left(self.times, stop) - 1  # the last segment starting before stop
        if i < 0:
            return 0
        start, t, step = self.starts[i], self.times[i], self.steps[i]
        n = self.starts[i + 1] - start
        if t + (n - 1) * step < stop:
            return start + n
        # stop lies in the segment's binade, so the difference is exact
        return start + math.ceil((stop - t) / step)


@functools.lru_cache(maxsize=16)
def _send_times(period: float, duration: float) -> _SendTimes:
    """A run's send times, ``period``, ``period + period``, ..., built once
    per (period, duration)."""
    return _SendTimes(period, period, duration)


class _Stretches(_Simulation):
    """An untraced run with an ACK delay no larger than the timeout, served
    one state event at a time instead of one datagram at a time.

    Between two state events every fresh datagram meets one fate: settled
    over a connected interface (see the module docstring), lost over a
    failed one or parked, and so does every timeout of a datagram last sent
    over the same interface. So no ACK is queued, and the counters depend
    only on which sends, losses and parks happen, not on their order.
    So the fresh datagrams due before the next state event are one step,
    and lost ones wait for their timeouts in runs of sequence numbers:
    ``(first, times, nic)`` holds the datagrams ``first``, ``first + 1``,
    ..., last sent over ``nic``, whose timeouts fall due at ``times``, in
    time order. A parked run is ``(first, end, resent)``. The relay delivers
    in order up to the first datagram still lost or parked.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.sends = _send_times(self.period, self.config.duration)
        # the sends before this one have their ACK fall due within the run
        self.in_time = self.sends.in_time(self.ack_delay)
        self.lost: list[tuple[int, list[float], NicState]] = []
        self.parked: list[tuple[int, int, bool]] = []

    def _serve(self, stop: float) -> None:
        """Serve the fresh datagrams due before ``stop`` in one step, then
        every timeout due before it."""
        first, end = self.next_seq, self.sends.count_before(stop)
        if end > first:
            self.next_seq = end
            nic = self._preferred()
            if nic is None:
                self.parked.append((first, end, False))
            elif nic.phase == PHASE_CONNECTED:
                self.acked += max(0, min(end, self.in_time) - first)
            else:
                self.lost_sends += end - first
                self.lost.append((first, self.sends.between(first, end, self.ack_timeout), nic))
        if not self.lost:
            return
        preferred, timeout = self._preferred, self.ack_timeout
        # serve every timeout due before stop; a resend lost again is due
        # one more timeout later, maybe still before stop
        work, waiting = self.lost, []
        while work:
            run = work.pop()
            first, times, last = run
            due = bisect.bisect_left(times, stop)
            if due == 0:
                waiting.append(run)
                continue
            if due < len(times):
                waiting.append((first + due, times[due:], last))
            # another usable interface, else retry on the same one if usable
            nic = preferred(exclude=last) or preferred()
            if nic is None:
                self.parked.append((first, first + due, True))
                continue
            self.retransmissions += due
            if nic.phase == PHASE_CONNECTED:
                # each resend is before stop, so its ACK is no later than one
                # sent at stop
                delay, duration = self.ack_delay, self.config.duration
                self.acked += due if stop + delay <= duration else bisect.bisect_right(
                    times, duration, 0, due, key=lambda t: t + delay)
            else:
                self.lost_sends += due
                work.append((first, [t + timeout for t in times[:due]], nic))
        self.lost = waiting

    def _flush_parked(self) -> None:
        # an interface has just connected, and none was usable while
        # datagrams parked, so each goes out over it and is settled
        acked = self.now + self.ack_delay <= self.config.duration
        for first, end, resent in self.parked:
            if acked:
                self.acked += end - first
            if resent:
                self.retransmissions += end - first
        self.parked.clear()

    def _delivery(self) -> tuple[int, int]:
        held = [run[0] for run in self.lost] + [run[0] for run in self.parked]
        return min(held, default=self.next_seq), sum(end - first for first, end, _ in self.parked)


def simulate(
    params: AbpsParams,
    config: SimConfig,
    variant: str = "plain",
    mode: str = "text",
    trace: TraceFn | None = None,
) -> SimMetrics:
    """Run one replication; identical inputs give bit-identical metrics."""
    _check_variant_mode(variant, mode)
    # a traced run records every datagram, and ACKs slower than the timeout
    # queue in an order that matters: both go one datagram at a time
    settles = trace is None and config.data_rate > 0.0 and config.ack_delay <= config.ack_timeout
    return (_Stretches if settles else _Simulation)(params, config, variant, mode, trace).run()


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

    def z(self, metric: str, reference: float) -> float:
        """Distance of the sample mean from ``reference`` in standard errors.

        With a zero standard error the distance is 0 when the mean equals
        the reference exactly and infinite otherwise.
        """
        s = self.stats[metric]
        distance = abs(s.mean - reference)
        if s.se > 0:
            return distance / s.se
        return math.inf if s.mean != reference else 0.0

    def within(self, metric: str, reference: float, k: float) -> bool:
        return self.z(metric, reference) <= k


#: Chance that one verdict fails a correct simulator: the family-wise rate
#: over all the metrics the verdict compares.
ALPHA = 0.01


def verdict_bound(n: int, m: int, alpha: float = ALPHA) -> float:
    """The bound on |z| for a verdict over ``m`` metrics, each a mean of
    ``n`` replications, that fails a correct simulator with chance
    ``alpha``. Each metric gets the two-sided Sidak level
    ``1 - (1 - alpha) ** (1 / m)`` of Student's t with ``n - 1`` degrees of
    freedom: 5.24 for n = 6 and m = 3, 3.46 for n = 30 and m = 6.
    """
    return student_t_quantile((1.0 - alpha) ** (1.0 / m), n - 1)


def student_t_quantile(coverage: float, df: int) -> float:
    """The t with P(|T| <= t) = ``coverage`` for Student's T with integer
    ``df`` >= 1 degrees of freedom, by bisection on theta = arctan(t /
    sqrt(df)) of the finite sums of Abramowitz and Stegun, *Handbook of
    Mathematical Functions*, 26.7.3 (odd df) and 26.7.4 (even df)."""
    if not (isinstance(df, int) and df >= 1 and 0.0 < coverage < 1.0):
        raise ValidationError(f"need integer df >= 1 and coverage in (0, 1), got {df!r}, "
                              f"{coverage!r}")
    odd = df % 2
    coefficients = [1.0]  # of the sum in powers of cos(theta)^2
    for k in range(1, df // 2):
        coefficients.append(coefficients[-1] * (2 * k - 1 + odd) / (2 * k + odd))
    coefficients = coefficients[: df // 2][::-1]  # highest power first

    def covered(theta: float) -> float:
        cos2, total = math.cos(theta) ** 2, 0.0
        for c in coefficients:  # Horner's rule
            total = total * cos2 + c
        if odd:
            return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
        return math.sin(theta) * total

    low, high = 0.0, math.pi / 2
    while low < (mid := 0.5 * (low + high)) < high:
        if covered(mid) < coverage:
            low = mid
        else:
            high = mid
    return math.sqrt(df) * math.tan(mid)


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


def check_replications(n: int) -> None:
    """Raise unless ``n`` replications are enough for a standard error."""
    if n < 2:
        raise ValidationError(f"a standard error needs at least 2 replications, got {n}")


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
    check_replications(n)
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
