"""Cross-validate the analytic chains against the packet-level simulator.

The two routes share only the parameter set and the per-state metric
definitions (``abps.state_available``, ``state_power`` and
``state_throughput``): one solves the stationary distribution of the
composed chain, the other replays the interface and oracle state machines
event by event and integrates the metrics over simulated time. Each line
gives ``ReplicationResult.z``, the distance of the simulated mean from the
analytic value in standard errors; agreement within a few says both tell
the same story.
"""

from abps_toolkit import abps, packetsim

params = abps.default_params()
config = packetsim.SimConfig(duration=1e5, seed=7, data_rate=0.0, replications=10)

for variant in ("plain", "oracle"):
    analytic = abps.evaluate(abps.build(variant, params))
    rep = packetsim.replicate(params, config, variant)
    print(f"== {variant} (10 x {config.duration:.0e} s)")
    for metric, reference in (
        ("availability", analytic.availability),
        ("power_w", analytic.power_w),
        ("throughput_mbps", analytic.throughput_mbps),
        ("sojourn_O_UW", params.T_W_minus),
        ("sojourn_O_W", params.T_W_plus),
    ):
        s = rep.stats[metric]
        print(f"   {metric:16} analytic={reference:10.5f}  "
              f"simulated={s.mean:10.5f} +- {s.se:.2g}  (z={rep.z(metric, reference):.2f})")
    print()

# Traffic-level behavior: an ACK delay longer than the retransmission
# timeout makes every datagram race its own retransmission, so the relay's
# duplicate filter earns its keep.
config = packetsim.SimConfig(duration=2000.0, seed=11, data_rate=20.0,
                             ack_timeout=0.1, ack_delay=0.25)
metrics = packetsim.simulate(params, config, "oracle")
print("aggressive-timeout run:")
print(f"   generated={metrics.generated}  acked={metrics.acked}  "
      f"delivered in order={metrics.delivered_in_order}")
print(f"   retransmissions={metrics.retransmissions}  duplicates discarded={metrics.duplicates}")
print(f"   goodput={metrics.goodput_mbps:.4f} Mbps  "
      f"(state-based throughput {metrics.throughput_mbps:.2f} Mbps)")
