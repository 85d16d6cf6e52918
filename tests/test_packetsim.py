"""Event-simulator tests: determinism, delivery integrity, convergence."""

import numpy as np
import pytest

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

    def test_occupancy_fractions_partition_time(self):
        m = simulate(default_params(), quiet(duration=2e4), "oracle")
        assert sum(m.occupancy.values()) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_sojourns_match_exponential_means(self):
        params = default_params()
        rep = replicate(params, quiet(duration=5e4, seed=5, replications=10), "oracle")
        for name, want in (("sojourn_O_UW", 20.0), ("sojourn_O_W", 80.0), ("sojourn_O_U", 30.0)):
            stat = rep.stats[name]
            assert abs(stat.mean - want) <= 3 * stat.se, (name, stat)

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

    def test_duplicates_suppressed_under_aggressive_timeout(self):
        # ACK slower than the timeout: every delivered datagram is resent at
        # least once, so the relay must discard heavily
        params = default_params()
        cfg = SimConfig(duration=1000.0, seed=21, data_rate=20.0,
                        ack_timeout=0.1, ack_delay=0.25)
        m = simulate(params, cfg, "plain")
        assert m.duplicates > 0
        assert m.retransmissions > 0
        # each sequence number is delivered to the application at most once
        assert m.delivered_in_order <= m.generated
        assert m.delivered_in_order + m.parked_at_end >= 0

    def test_exactly_once_delivery_with_losses(self):
        params = default_params(T_W_minus=5.0, T_W_plus=40.0)
        cfg = SimConfig(duration=3000.0, seed=17, data_rate=10.0,
                        ack_timeout=0.5, ack_delay=0.6)
        m = simulate(params, cfg, "oracle")
        assert m.lost_sends > 0
        assert m.duplicates > 0
        assert m.delivered_in_order <= m.generated
        # everything acknowledged was delivered exactly once, in order
        assert m.acked <= m.generated

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
        assert rep.within("availability", stat.mean)
        assert not rep.within("availability", stat.mean + 10 * (stat.se + 1e-12))

    def test_z_score(self):
        stats = {
            "spread": packetsim.MetricStats(mean=1.0, se=0.5),
            "exact": packetsim.MetricStats(mean=2.0, se=0.0),
        }
        rep = packetsim.ReplicationResult(n=2, stats=stats, runs=())
        assert rep.z("spread", 2.5) == 3.0
        assert rep.within("spread", 2.5) and not rep.within("spread", 2.6)
        # a zero standard error: no distance at the mean, infinite elsewhere
        assert rep.z("exact", 2.0) == 0.0
        assert rep.within("exact", 2.0)
        assert rep.z("exact", 2.0 + 1e-15) == float("inf")
        assert not rep.within("exact", 2.0 + 1e-15, k=1e300)

    def test_power_tracks_mode(self):
        params = default_params()
        cfg = quiet(duration=2e4, seed=31, replications=4)
        text = replicate(params, cfg, "plain", mode="text")
        compat = replicate(params, cfg, "plain", mode="appendix")
        # full per-state charges always cost at least as much as the
        # idle-interface discount
        assert compat.stats["power_w"].mean > text.stats["power_w"].mean
