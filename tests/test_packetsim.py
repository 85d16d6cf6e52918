"""Event-simulator tests: determinism, delivery integrity, convergence."""

import copy
import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abps_toolkit import abps, packetsim
from abps_toolkit.abps import default_params
from abps_toolkit.ctmc import ValidationError
from abps_toolkit.packetsim import SimConfig, derive_seeds, replicate, simulate


class Trace:
    def __init__(self):
        self.records = []

    def __call__(self, t, entity, event, detail):
        self.records.append((t, entity, event, detail))


def quiet(duration=2000.0, seed=7, **kw):
    kw.setdefault("data_rate", 0.0)
    return SimConfig(duration=duration, seed=seed, **kw)


@st.composite
def traffic_runs(draw):
    """(params, config, variant, mode) of a traffic run: an ACK delay below,
    equal to or above the timeout, and a run that ends between sends, on a
    send, one ulp before a send or on the instant an ACK falls due."""
    rate = draw(st.sampled_from([0.5, 3.0, 10.0, 50.0, 200.0]) | st.floats(0.5, 200.0))
    timeout = draw(st.floats(0.05, 2.0))
    delay = draw(st.sampled_from([0.0, timeout]) | st.floats(0.0, 3.0 * timeout))
    period = 1.0 / rate
    send = period  # the k-th send time, summed as the simulator sums it
    for _ in range(draw(st.integers(0, int(20.0 * rate)))):
        send += period
    duration = draw(st.sampled_from([send, math.nextafter(send, 0.0), send + delay])
                    | st.floats(1.0, 60.0))
    params = default_params(T_W_minus=draw(st.sampled_from([2.0, 5.0, 10.0])),
                            T_W_plus=draw(st.sampled_from([20.0, 40.0])))
    cfg = SimConfig(duration=duration, seed=draw(st.integers(0, 2**32)), data_rate=rate,
                    ack_timeout=timeout, ack_delay=delay)
    return params, cfg, draw(st.sampled_from(abps.VARIANTS)), draw(st.sampled_from(abps.MODES))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(duration=0.0)
        with pytest.raises(ValidationError):
            SimConfig(ack_timeout=0.0)
        with pytest.raises(ValidationError):
            SimConfig(data_rate=-1.0)
        with pytest.raises(ValidationError):
            SimConfig(replications=0)
        for seed in (-1, 1.5, "7", None):
            with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
                SimConfig(seed=seed)
        assert SimConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("field", ["datagram_bytes", "replications"])
    def test_sizes_are_positive_integers(self, field):
        # a non-integer size would give a nan goodput or a numpy TypeError
        # deep in derive_seeds
        for value in (float("nan"), float("inf"), 0.5, 2.5, 0, -1, "7", None):
            with pytest.raises(ValidationError, match=f"{field} must be a positive integer"):
                SimConfig(**{field: value})
        assert getattr(SimConfig(**{field: np.int64(3)}), field) == 3

    def test_replications_fit_a_seed_array(self):
        # derive_seeds raised numpy's "Maximum allowed dimension exceeded";
        # these counts are refused before anything is allocated
        most = np.iinfo(np.intp).max
        for count in (most + 1, 10**20):
            with pytest.raises(ValidationError,
                               match=f"replications must be at most {most}, .* got {count}$"):
                SimConfig(replications=count)

    def test_rejects_non_finite_duration_and_rate(self):
        # an infinite run never ends; an infinite rate makes every datagram due at once
        with pytest.raises(ValidationError, match="duration must be positive and finite"):
            SimConfig(duration=float("inf"))
        for rate in (float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="data_rate .* positive and finite"):
                SimConfig(duration=10.0, data_rate=rate)
        # an endless ACK delay or timeout turns every datagram into a duplicate
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="ack_delay must be nonnegative and finite"):
                SimConfig(duration=10.0, ack_delay=value)
            with pytest.raises(ValidationError, match="ack_timeout must be positive and finite"):
                SimConfig(duration=10.0, ack_timeout=value)

    def test_rejects_steps_that_cannot_advance_the_clock(self):
        # 6.0 + 1e-320 == 6.0: a lost send's timeout fell due at the instant
        # of its send, again and again, and the run never ended
        resolution = math.ulp(10.0)
        with pytest.raises(ValidationError, match="ack_timeout must be at least math.ulp"):
            SimConfig(duration=10.0, ack_timeout=1e-320)
        with pytest.raises(ValidationError, match="ack_timeout must be at least math.ulp"):
            SimConfig(duration=10.0, ack_timeout=math.nextafter(resolution, 0.0))
        for rate in (1e308, math.nextafter(1.0 / resolution, math.inf)):
            with pytest.raises(ValidationError, match="data_rate must give a datagram period"):
                SimConfig(duration=10.0, data_rate=rate)
        # one ulp of the run's end still moves every instant of the run
        assert SimConfig(duration=10.0, ack_timeout=resolution).ack_timeout == resolution
        assert SimConfig(duration=10.0, data_rate=1.0 / resolution).data_rate == 1.0 / resolution

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            simulate(default_params(), quiet(), variant="mesh")


class TestDeterminism:
    def test_bit_identical_repeat(self):
        params = default_params()
        cfg = SimConfig(duration=5000.0, seed=123, data_rate=20.0,
                        ack_timeout=0.5, ack_delay=0.1)
        for variant in ("plain", "oracle"):
            assert simulate(params, cfg, variant) == simulate(params, cfg, variant)

    def test_seed_changes_outcome(self):
        params = default_params()
        a = simulate(params, quiet(seed=1), "oracle")
        b = simulate(params, quiet(seed=2), "oracle")
        assert a != b

    def test_derive_seeds_deterministic_and_distinct(self):
        s1 = derive_seeds(99, 10)
        assert s1 == derive_seeds(99, 10)
        assert len(set(s1)) == 10


class TestStateDynamics:
    def test_plain_availability_near_one_when_connections_never_drop(self):
        params = default_params(
            T_W_minus=1e9, T_W_plus=1e9, gamma_U=1e-9,
            lambda_UW_U=0.025, lambda_UW_W=0.025, lambda_W_UW=1 / 80,
        )
        m = simulate(params, quiet(duration=1e4), "plain")
        assert m.availability >= 0.99

    def test_oracle_variant_respects_impossible_configurations(self):
        m = simulate(default_params(), quiet(duration=5e4), "oracle")
        for (u, w, o), frac in m.occupancy.items():
            if o == 3:
                assert u == 0, (u, w, o)
            if o == 1:
                assert w == 0, (u, w, o)
            assert frac >= 0.0

    def test_plain_variant_never_switches_off(self):
        m = simulate(default_params(), quiet(duration=5e4), "plain")
        assert all(u != 0 and w != 0 for (u, w, _) in m.occupancy)

    @pytest.mark.parametrize("variant", abps.VARIANTS)
    @pytest.mark.parametrize("data_rate", [0.0, 10.0])
    def test_phase_records_chain(self, variant, data_rate):
        # each interface's phase records chain from disconnected, and none
        # stays in its phase: the oracle forces an interface off only while
        # it is on, and on only while it is off
        params = default_params(T_W_minus=5.0, T_W_plus=40.0)
        forced = 0
        for seed in range(4):
            trace = Trace()
            cfg = SimConfig(duration=1500.0, seed=seed, data_rate=data_rate, ack_timeout=0.5)
            simulate(params, cfg, variant, trace=trace)
            phase = {"nic:UMTS": "disconnected", "nic:WiFi": "disconnected"}
            for _, entity, event, detail in trace.records:
                if event == "phase":
                    before, after = detail.removesuffix(" (forced)").split("->")
                    assert before == phase[entity] != after, (seed, entity, detail)
                    phase[entity] = after
                    forced += detail.endswith("(forced)")
        assert (forced > 0) == (variant == "oracle")

    def test_occupancy_fractions_partition_time(self):
        m = simulate(default_params(), quiet(duration=2e4), "oracle")
        assert sum(m.occupancy.values()) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_sojourns_match_exponential_means(self):
        # the verdict bound fails a correct simulator with chance ALPHA = 1%
        # over the three means (measured: 2 of root seeds 1-100, 8 of
        # 1-300); each mean moved by 15% fails in all of seeds 1-300
        params = default_params()
        rep = replicate(params, quiet(duration=5e4, seed=5, replications=10), "oracle")
        bound = packetsim.verdict_bound(rep.n, 3)
        for name, want in (("sojourn_O_UW", 20.0), ("sojourn_O_W", 80.0), ("sojourn_O_U", 30.0)):
            assert rep.within(name, want, bound), (name, rep.stats[name])
            for moved in (want * 0.85, want * 1.15):
                assert not rep.within(name, moved, bound), (name, moved, rep.stats[name])

    def test_occupancy_close_to_analytic(self):
        # a light version of the distribution check, full size in acceptance
        params = default_params()
        model = abps.build_oracle(params)
        rep = replicate(params, quiet(duration=2e4, seed=11, replications=8), "oracle")
        pooled = {}
        for run in rep.runs:
            for key, frac in run.occupancy.items():
                pooled[key] = pooled.get(key, 0.0) + frac / len(rep.runs)
        analytic = {
            tuple(model.chain.states[i]): p
            for i, p in enumerate(abps.evaluate(model).distribution.probabilities)
        }
        tv = 0.5 * sum(
            abs(pooled.get(k, 0.0) - analytic.get(k, 0.0))
            for k in set(pooled) | set(analytic)
        )
        assert tv < 0.05


class TestTraffic:
    def test_everything_delivered_on_stable_links(self):
        params = default_params(
            T_W_minus=1e9, T_W_plus=1e9, gamma_U=1e-9,
            lambda_UW_U=0.025, lambda_UW_W=0.025, lambda_W_UW=1 / 80,
        )
        m = simulate(params, SimConfig(duration=2000.0, seed=3, data_rate=10.0), "plain")
        assert m.generated > 0
        assert m.acked == m.generated
        assert m.delivered_in_order == m.generated
        assert m.duplicates == 0
        assert m.goodput_mbps == pytest.approx(
            m.generated * 1250 * 8 / 2000.0 / 1e6
        )

    def test_ack_beats_timeout_due_at_the_same_instant(self):
        # with the ACK delay equal to the timeout both fall due at the same
        # float time; the ACK goes first, so nothing is ever resent
        params = default_params(
            T_W_minus=1e9, T_W_plus=1e9, gamma_U=1e-9,
            lambda_UW_U=0.025, lambda_UW_W=0.025, lambda_W_UW=1 / 80,
        )
        cfg = SimConfig(duration=2000.0, seed=3, data_rate=10.0,
                        ack_delay=0.5, ack_timeout=0.5)
        m = simulate(params, cfg, "plain")
        assert m.generated == 20000
        assert m.lost_sends == 0
        assert m.retransmissions == 0
        assert m.duplicates == 0

    def test_duplicates_suppressed_under_aggressive_timeout(self):
        # ACK slower than the timeout: every delivered datagram is resent at
        # least once, so the relay must discard heavily
        params = default_params()
        cfg = SimConfig(duration=1000.0, seed=21, data_rate=20.0,
                        ack_timeout=0.1, ack_delay=0.25)
        m = simulate(params, cfg, "plain")
        assert m.duplicates > 0
        assert m.retransmissions > 0
        # each sequence number is delivered to the application at most once,
        # and every duplicate receipt is a resend
        assert m.delivered_in_order <= m.generated
        assert m.duplicates <= m.retransmissions

    def test_exactly_once_delivery_with_losses(self):
        params = default_params(T_W_minus=5.0, T_W_plus=40.0)
        cfg = SimConfig(duration=3000.0, seed=17, data_rate=10.0,
                        ack_timeout=0.5, ack_delay=0.6)
        trace = Trace()
        m = simulate(params, cfg, "oracle", trace=trace)
        assert m.lost_sends > 0
        assert m.duplicates > 0
        assert m.delivered_in_order <= m.generated
        assert m.acked <= m.generated
        # everything acknowledged was delivered exactly once, in order
        delivered = [r[3] for r in trace.records if r[2] == "deliver"]
        assert delivered == [f"seq={seq}" for seq in range(m.delivered_in_order)]
        assert m.delivered_in_order >= m.acked

    def test_no_send_on_inactive_nic(self):
        trace = Trace()
        params = default_params(T_W_minus=5.0, T_W_plus=40.0)
        cfg = SimConfig(duration=3000.0, seed=9, data_rate=5.0, ack_timeout=0.3)
        simulate(params, cfg, "oracle", trace=trace)
        sends = [r for r in trace.records if r[2] == "send"]
        assert sends, "expected traffic in the trace"
        assert all("active=True" in r[3] for r in sends)

    def test_datagrams_park_until_first_connection(self):
        trace = Trace()
        params = default_params()
        cfg = SimConfig(duration=500.0, seed=13, data_rate=10.0)
        m = simulate(params, cfg, "plain", trace=trace)
        parks = [r for r in trace.records if r[2] == "park"]
        assert parks, "early datagrams should park while both NICs set up"
        assert m.delivered_in_order > 0

    @settings(max_examples=60, deadline=None)
    @given(traffic_runs())
    @example((default_params(T_W_minus=5.0, T_W_plus=40.0),
              SimConfig(duration=1000.0, seed=17, data_rate=10.0, ack_timeout=0.5,
                        ack_delay=0.6), "oracle", "text"))
    # WiFi connects at 29.53 s, less than one ACK delay before the end, and
    # flushes fresh datagrams parked since 25.4 s and two parked resends
    @example((default_params(T_W_minus=5.0, T_W_plus=40.0),
              SimConfig(duration=30.0, seed=1, data_rate=10.0, ack_timeout=2.0,
                        ack_delay=2.0), "plain", "text"))
    # 150,000 sends at 50/s cross the binades of 1024 and 2048 s, where the
    # step of t + 0.02 changes, and 1,663 lost sends wait for timeouts
    @example((default_params(),
              SimConfig(duration=3000.0, seed=2, data_rate=50.0, ack_timeout=1.0,
                        ack_delay=0.2), "oracle", "text"))
    # UMTS fails every 10 s on average: 21 resends go out while both
    # interfaces sit in their failed phase, so each is lost again and waits
    # one more timeout
    @example((default_params(T_W_minus=5.0, T_W_plus=40.0, gamma_U=0.1),
              SimConfig(duration=60.0, seed=4, data_rate=10.0, ack_timeout=0.5,
                        ack_delay=0.2), "plain", "text"))
    # 20 timeouts fall due with no interface usable and park until the
    # next connect, which resends them
    @example((default_params(T_W_minus=5.0, T_W_plus=40.0),
              SimConfig(duration=60.0, seed=1, data_rate=10.0, ack_timeout=1.0,
                        ack_delay=0.2), "oracle", "text"))
    # links that never fail: the last stretch of 900 sends runs from 10.1 s
    # to the end, and the ACKs of its last 3, sent after 99.7 s, fall due
    # past the end
    @example((default_params(T_W_minus=1e9, T_W_plus=1e9, gamma_U=1e-9),
              SimConfig(duration=100.0, seed=0, data_rate=10.0, ack_timeout=1.0,
                        ack_delay=0.3), "plain", "text"))
    def test_tracing_leaves_results_unchanged(self, run):
        # a traced run goes one datagram at a time, an untraced one with an
        # ACK delay no larger than the timeout one state event at a time
        params, cfg, variant, mode = run
        traced = simulate(params, cfg, variant, mode, trace=Trace())
        assert traced == simulate(params, cfg, variant, mode)

    def test_trace_reaches_every_record_kind(self):
        # ACKs slower than the timeout, so every trace point is reached
        params = default_params(T_W_minus=5.0, T_W_plus=40.0)
        cfg = SimConfig(duration=1000.0, seed=17, data_rate=10.0,
                        ack_timeout=0.5, ack_delay=0.6)
        trace = Trace()
        simulate(params, cfg, "oracle", trace=trace)
        kinds = {(entity.split(":")[0], event, "forced" in detail)
                 for _, entity, event, detail in trace.records}
        assert kinds >= {
            ("nic", "phase", False), ("nic", "phase", True), ("nic", "send", False),
            ("proxy", "park", False), ("proxy", "timeout", False),
            ("relay", "duplicate", False), ("app", "deliver", False),
            ("oracle", "EV_NO_WIFI", False), ("oracle", "EV_SHORT_WIFI", False),
            ("oracle", "EV_LONG_WIFI", False),
        }

    def test_trace_records_oracle_events(self):
        trace = Trace()
        simulate(default_params(), quiet(duration=2000.0), "oracle", trace=trace)
        kinds = {r[2] for r in trace.records if r[1] == "oracle"}
        assert {"EV_NO_WIFI", "EV_SHORT_WIFI", "EV_LONG_WIFI"} <= kinds


class TestReplicate:
    def test_identical_seeds_give_zero_se(self):
        params = default_params()
        rep = replicate(params, quiet(duration=2000.0), "plain", seeds=[5, 5])
        assert rep.n == 2
        for stat in rep.stats.values():
            assert stat.se == 0.0

    def test_requires_two_replications(self):
        with pytest.raises(ValidationError, match="at least 2 replications.*got 1"):
            replicate(default_params(), quiet(replications=1), "plain")

    def test_within_helper(self):
        params = default_params()
        rep = replicate(params, quiet(duration=5000.0, replications=4), "plain")
        stat = rep.stats["availability"]
        assert rep.within("availability", stat.mean, 3.0)
        assert not rep.within("availability", stat.mean + 10 * (stat.se + 1e-12), 3.0)

    def test_z_score(self):
        stats = {
            "spread": packetsim.MetricStats(mean=1.0, se=0.5),
            "exact": packetsim.MetricStats(mean=2.0, se=0.0),
        }
        rep = packetsim.ReplicationResult(n=2, stats=stats, runs=())
        assert rep.z("spread", 2.5) == 3.0
        assert rep.within("spread", 2.5, 3.0) and not rep.within("spread", 2.6, 3.0)
        # a zero standard error: no distance at the mean, infinite elsewhere
        assert rep.z("exact", 2.0) == 0.0
        assert rep.within("exact", 2.0, 0.0)
        assert rep.z("exact", 2.0 + 1e-15) == float("inf")
        assert not rep.within("exact", 2.0 + 1e-15, k=1e300)

    def test_verdict_bound_values(self):
        # two-sided Student's t, Sidak-corrected over the metrics of a run
        bounds = [packetsim.verdict_bound(n, m) for n, m in ((6, 3), (30, 3), (30, 6))]
        assert [round(k, 2) for k in bounds] == [5.24, 3.2, 3.46]
        assert packetsim.ALPHA == 0.01
        with pytest.raises(ValidationError):
            packetsim.verdict_bound(1, 3)  # one replication has no t

    def test_student_t_quantile_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        coverages = [0.5, 0.999] + [0.99 ** (1 / m) for m in (1, 3, 6)]  # m = 3, 6: compare
        for df in range(1, 201):
            for coverage in coverages:
                ours = packetsim.student_t_quantile(coverage, df)
                theirs = stats.t.ppf(0.5 + coverage / 2, df)
                assert ours == pytest.approx(theirs, rel=1e-10, abs=0.0), (df, coverage)

    def test_wrong_reference_fails_the_verdict(self):
        # the analytic power passes and a reference 5% too high fails; at 8
        # replications of 3e4 s the first holds in 299 and the second in all
        # of root seeds 1-300 (at 6 of 2e4 s the second held in only 90 of
        # seeds 1-100)
        params = default_params()
        rep = replicate(params, quiet(duration=3e4, seed=17, replications=8), "oracle")
        bound = packetsim.verdict_bound(rep.n, 3)
        power = abps.evaluate(abps.build_oracle(params)).power_w
        assert rep.within("power_w", power, bound)
        assert not rep.within("power_w", power * 1.05, bound)

    def test_power_tracks_mode(self):
        params = default_params()
        cfg = quiet(duration=2e4, seed=31, replications=4)
        text = replicate(params, cfg, "plain", mode="text")
        compat = replicate(params, cfg, "plain", mode="appendix")
        # full per-state charges always cost at least as much as the
        # idle-interface discount
        assert compat.stats["power_w"].mean > text.stats["power_w"].mean


def scripted(values, then=1e9):
    """A draw function that returns ``values`` in order, then ``then`` for ever."""
    values = iter(values)
    return lambda: next(values, then)


def scripted_run(draws, uniforms=(), variant="plain", duration=10.0, data_rate=0.0):
    """Run a simulation whose sojourn scales are all 1 and whose draws are
    fixed, so chosen transitions fall due at exactly the same float."""
    trace = Trace()
    cfg = SimConfig(duration=duration, seed=1, data_rate=data_rate)
    sim = packetsim._Simulation(default_params(), cfg, variant, "text", trace)
    for nic in (sim.umts, sim.wifi):
        nic.scales[1:] = [1.0] * 4
    for table in (sim.oracle_scale, sim.wifi_hold_scale):
        for state in table:
            table[state] = 1.0
    sim.draw = scripted(draws)
    sim.uniform = scripted(uniforms, then=0.0)
    sim.run()
    return [(t, entity, detail) for t, entity, _, detail in trace.records]


class TestTieOrder:
    # the first three draws schedule UMTS, WiFi and the oracle, in that order

    def test_oracle_fires_before_an_interface_due_at_the_same_time(self):
        records = scripted_run([5.0, 1e9, 5.0])
        assert records[:2] == [(5.0, "oracle", "O_UW->O_U"),
                               (5.0, "nic:UMTS", "disconnected->setup")]

    def test_interfaces_due_together_fire_in_scheduling_order(self):
        # UMTS was scheduled first, so it fires first
        assert scripted_run([2.0, 2.0])[:2] == [(2.0, "nic:UMTS", "disconnected->setup"),
                                                (2.0, "nic:WiFi", "disconnected->setup")]
        # UMTS fires at 1 and reschedules to 3, where WiFi has been due since 0
        assert scripted_run([1.0, 3.0, 1e9, 2.0])[:3] == [
            (1.0, "nic:UMTS", "disconnected->setup"),
            (3.0, "nic:WiFi", "disconnected->setup"),
            (3.0, "nic:UMTS", "setup->connected"),
        ]

    def test_a_redrawn_or_restarted_clock_counts_as_set_then(self):
        # WiFi connects at 2 and UMTS is scheduled for 7 at 2.5; the oracle's
        # move at 3 redraws WiFi's holding time to end at 7 too
        assert scripted_run([2.5, 1.0, 3.0, 1.0, 100.0, 4.5, 4.0])[3:] == [
            (3.0, "oracle", "O_UW->O_U"),
            (7.0, "nic:UMTS", "setup->connected"),
            (7.0, "nic:WiFi", "connected->failed"),
        ]
        # UMTS is forced off at 1 and back on at 2, due at 5 with WiFi,
        # whose clock was set at 0
        records = scripted_run([100.0, 5.0, 1.0, 1.0, 3.0], uniforms=[0.99], variant="oracle")
        assert records[:6] == [
            (1.0, "oracle", "O_UW->O_W"),
            (1.0, "nic:UMTS", "disconnected->off (forced)"),
            (2.0, "oracle", "O_W->O_UW"),
            (2.0, "nic:UMTS", "off->disconnected (forced)"),
            (5.0, "nic:WiFi", "disconnected->setup"),
            (5.0, "nic:UMTS", "disconnected->setup"),
        ]

    def test_interface_fires_before_a_datagram_due_at_the_same_time(self):
        # datagrams fall due at 1, 2, 3, ...; UMTS connects at exactly 2,
        # so the parked datagram 0 and the new datagram 1 both go out at 2
        records = scripted_run([1.0, 1e9, 1e9, 1.0], data_rate=1.0, duration=2.5)
        assert records == [
            (1.0, "nic:UMTS", "disconnected->setup"),
            (1.0, "proxy", "seq=0"),
            (2.0, "nic:UMTS", "setup->connected"),
            (2.0, "nic:UMTS", "seq=0 attempt=1 active=True"),
            (2.0, "app", "seq=0"),
            (2.0, "nic:UMTS", "seq=1 attempt=1 active=True"),
            (2.0, "app", "seq=1"),
        ]


# (period, the bottom of its tie binade): period / ulp ends in exactly one half
TIE_BINADES = [(0.02, 1 / 32), (0.1, 0.25), (1 / 3, 0.5)]


@st.composite
def send_runs(draw):
    """(start, period, n) of n sends after the one at start: in a tie
    binade, with a power-of-two period, with a period of a few ulps of the
    last send, or any; and half of them from just below a power of two."""
    kind = draw(st.sampled_from(["tie", "power", "ulp", "any"]))
    if kind == "tie":
        period, bottom = draw(st.sampled_from(TIE_BINADES))
        start = bottom + draw(st.integers(0, 1000)) * math.ulp(bottom)
    elif kind == "power":
        period, start = 2.0 ** draw(st.integers(-30, 3)), draw(st.floats(1e-6, 100.0))
    elif kind == "ulp":
        start = 2.0 ** draw(st.integers(-10, 12)) * draw(st.floats(1.0, 2.0))
        period = math.ulp(2.0 * start) * draw(st.integers(1, 3))
    else:
        period, start = draw(st.floats(1e-4, 10.0)), draw(st.floats(1e-6, 100.0))
    if draw(st.booleans()):
        top = 2.0 ** draw(st.integers(-8, 12))
        start = draw(st.sampled_from([math.nextafter(top, 0.0), top - period]))
        assume(start > 0.0)
    return start, period, draw(st.integers(0, 400))


class TestSendTimes:
    def test_tie_binades(self):
        for period, bottom in TIE_BINADES:
            assert period / math.ulp(bottom) % 1 == 0.5

    @settings(max_examples=100, deadline=None)
    @given(send_runs())
    def test_closed_form_matches_repeated_addition(self, run):
        start, period, n = run
        times = [start]
        for _ in range(n):
            times.append(times[-1] + period)
        # the simulator's runs: every step advances the clock
        assume(period >= math.ulp(times[-1]))
        sends = packetsim._SendTimes(start, period, times[-1])
        assert [sends.at(k) for k in range(n + 1)] == times
        assert sends.between(n // 2, n + 1) == times[n // 2:]
        for k, t in enumerate(times):
            assert sends.count_before(t) == k
            assert sends.count_before(math.nextafter(t, math.inf)) == k + 1
        assert sends.count_before(math.nextafter(start, 0.0)) == 0

    def test_kept_send_times_equal_fresh_ones(self):
        # two (period, duration) pairs, interleaved, each read with two delays
        for period, duration in [(0.02, 50.0), (1 / 3, 80.0)] * 2:
            kept = packetsim._send_times(period, duration)
            fresh = packetsim._SendTimes(period, period, duration)
            assert (kept.starts, kept.times, kept.steps) == (
                fresh.starts, fresh.times, fresh.steps)
            times = fresh.between(0, fresh.starts[-1])
            assert kept.between(0, kept.starts[-1]) == times
            for delay in (0.2, 1 / 3):
                assert kept.in_time(delay) == sum(t + delay <= duration for t in times)


class TestKeptTables:
    """A run reads the rate and metric tables of its own parameter set,
    kept on that instance; ``dataclasses.replace`` starts with none."""

    CONFIGS = [quiet(duration=3000.0, seed=3),
               SimConfig(duration=80.0, seed=3, data_rate=50.0, ack_timeout=1.0, ack_delay=0.2)]

    @pytest.mark.parametrize("variant", abps.VARIANTS)
    @pytest.mark.parametrize("mode", abps.MODES)
    def test_runs_read_their_own_params(self, variant, mode):
        a = default_params()
        b = replace(a, tput_W=11.0, T_W_minus=5.0,
                    e={**abps.DEFAULT_ENERGY,
                       "WiFi": {**abps.DEFAULT_ENERGY["WiFi"], "connected": 0.45}})
        for cfg in self.CONFIGS:
            first = simulate(a, cfg, variant, mode)
            other = simulate(b, cfg, variant, mode)
            again = simulate(a, cfg, variant, mode)
            fresh = replace(a)
            assert not fresh._tables
            assert first == again == simulate(fresh, cfg, variant, mode)
            assert other.power_w != first.power_w
            assert other.throughput_mbps != first.throughput_mbps
            assert other.occupancy != first.occupancy

    def test_kept_tables_leave_equality_repr_and_pickling_alone(self):
        a = default_params(tput_W=11.0)
        text = repr(a)
        for variant in abps.VARIANTS:
            simulate(a, self.CONFIGS[1], variant)
        abps.build_oracle(a)
        assert a._tables
        assert a == replace(a) and repr(a) == text
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert copied == a and repr(copied) == text
            assert not copied._tables
            assert simulate(copied, self.CONFIGS[1], "oracle") == simulate(
                a, self.CONFIGS[1], "oracle")


class TestBlocks:
    @pytest.mark.parametrize("fill", ["standard_exponential", "random"])
    def test_draws_read_whole_blocks_in_order(self, fill):
        # 600 draws cross two refills; each block is one fill(256) call
        draw = packetsim._blocks(getattr(np.random.default_rng(9), fill)).__next__
        got = [draw() for _ in range(600)]
        reference = getattr(np.random.default_rng(9), fill)
        want = np.concatenate([reference(256) for _ in range(3)])[:600]
        assert packetsim.BLOCK_SIZE == 256
        assert all(type(x) is float for x in got)
        assert got == want.tolist()


def trace_digest(config, variant, mode="text", params=None):
    digest = hashlib.sha256()
    simulate(params or default_params(), config, variant, mode,
             trace=lambda *record: digest.update(f"{record!r}\n".encode()))
    return digest.hexdigest()


class TestStream:
    # sha256 of repr of every trace record; any change to the draw order,
    # the tie rule or the event bookkeeping moves these
    @pytest.mark.parametrize("config, variant, mode, want", [
        (quiet(duration=2e4, seed=3), "plain", "text",
         "eb71c9b06fcccd8ac4fc913ed97361c30270231f5a010a07d5e7df96b117fbd3"),
        (quiet(duration=2e4, seed=4), "oracle", "appendix",
         "b67b5ec741687209cb2670f995712af91d76ed3a4f9c31da9241fc439caaaead"),
        (SimConfig(duration=500.0, seed=5, data_rate=20.0, ack_delay=2.0, ack_timeout=0.5),
         "oracle", "text",
         "d32f981a19e67263cb94fa6bec83db860da18a29b2eb65029671bdfadbb38142"),
        (SimConfig(duration=400.0, seed=6, data_rate=50.0, ack_delay=0.2),
         "oracle", "text",
         "e3ae090c80072ee4bec4c7382b7284d12fb8af576bcdfb71ed97f8a39102b732"),
    ], ids=["plain-idle", "oracle-idle-appendix", "oracle-duplicates", "oracle-traffic"])
    def test_trace_digest(self, config, variant, mode, want):
        assert trace_digest(config, variant, mode) == want

    # sha256 of the repr of untraced runs' SimMetrics, so occupancy, the
    # oracle's sojourn means and counts and the counters are pinned on the
    # path no trace record covers
    @pytest.mark.parametrize("config, variant, mode, params, want", [
        (quiet(duration=2e4, seed=3), "plain", "text", {},
         "65d525653091a91a4e528e232ff7bae9788cfbfe92773233952df7f2b06534c0"),
        (quiet(duration=2e4, seed=8), "plain", "appendix", {},
         "d6078761061846e593130cc8619ba4b8ff4271ab931a1e5b0605fb55cdd76aec"),
        (quiet(duration=2e4, seed=9), "oracle", "text", {},
         "699b1ef7ba3140897cb1429b5bd46c47af9881ac59aedc690a983e7debd257a7"),
        (quiet(duration=2e4, seed=4), "oracle", "appendix", {},
         "ff2c704a16e4c787eb34c27d59b6ca5bb9ab8a0a362cbe50b33b8cb8aa53e5bd"),
        # served in stretches, with 488 lost sends and their resends
        (SimConfig(duration=400.0, seed=11, data_rate=50.0, ack_delay=0.2), "oracle", "text",
         dict(T_W_minus=5.0, T_W_plus=40.0),
         "2ec24296f1a3b2b362b69dc2234110c9f4f5b74f90d7a187fbbe760ad8aca8b5"),
    ], ids=["plain-idle", "plain-idle-appendix", "oracle-idle", "oracle-idle-appendix",
            "oracle-stretches"])
    def test_untraced_metrics_digest(self, config, variant, mode, params, want):
        metrics = simulate(default_params(**params), config, variant, mode)
        assert hashlib.sha256(repr(metrics).encode()).hexdigest() == want

    # runs where ACK timing decides the counters: generated, acked,
    # delivered_in_order, duplicates, retransmissions, lost_sends,
    # parked_at_end. An ACK that falls due past the end is not counted.
    @pytest.mark.parametrize("config, variant, params, counters, want", [
        # ACK delay equal to the timeout, so each ACK ties its timeout
        (SimConfig(duration=500.0, seed=17, data_rate=20.0, ack_delay=0.5, ack_timeout=0.5),
         "oracle", dict(T_W_minus=5.0, T_W_plus=40.0), (9999, 9989, 9999, 0, 162, 162, 0),
         "257bd32f64c90cc7ca4a4bd36dd59fcf85a630206771a4ec3a50478f861a5ccc"),
        # the ACKs of the last 0.2 s of sends fall past the end
        (SimConfig(duration=50.1, seed=6, data_rate=50.0, ack_delay=0.2),
         "oracle", {}, (2504, 2494, 2504, 0, 4, 4, 0),
         "2bf11313acbf8230682bf8751d69736790c11ea8e6b6f279ea4779fbc088c28a"),
        # sends at multiples of 0.25 s: the ACK of the send at 99.5 s falls
        # due at exactly the end and counts, the two after it do not
        (SimConfig(duration=100.0, seed=1, data_rate=4.0, ack_delay=0.5),
         "plain", {}, (400, 398, 400, 0, 22, 22, 0),
         "abe73d38e47bed767ae1c352858661c0fc211d10165c8c89ee2b09424281d008"),
    ], ids=["ack-ties-timeout", "acks-past-end", "ack-due-at-end"])
    def test_ack_edges(self, config, variant, params, counters, want):
        params = default_params(**params)
        assert trace_digest(config, variant, params=params) == want
        m = simulate(params, config, variant)
        assert (m.generated, m.acked, m.delivered_in_order, m.duplicates,
                m.retransmissions, m.lost_sends, m.parked_at_end) == counters
        assert m.goodput_mbps == m.acked * 1250 * 8 / config.duration / 1e6
