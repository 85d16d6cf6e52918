"""Fingerprint the packet simulator over a fixed family of configurations.

Prints one line per configuration: the configuration and the sha256 of its
``SimMetrics`` repr followed by the repr of each of its trace records (none
for an untraced run). Run it in two checkouts and compare the outputs::

    python tools/sim_digest.py > a.txt      # in one checkout
    python tools/sim_digest.py b.txt        # in the other
    diff a.txt b.txt

Each run imports the simulator from the ``src`` directory beside this
script, so the two outputs fingerprint the two checkouts. The family covers
both variants and both modes, traced and untraced runs, 0, 2 and 50
datagrams/s, and ACK delays below, equal to and above the ACK timeout. Each
configuration runs in turn under three parameter sets, each one object for
the whole family: the defaults, tight windows, which give lost sends, parks
and retransmissions, and one that differs in an energy row, ``tput_W``,
``oracle_baseline_power`` and ``idle_connected_fraction``. So a table kept
for one parameter set and read for another shows as a changed line.
A count of the configurations, of those with lost sends,
of those with a park record in their trace or datagrams parked at the end,
and of the traced ones goes to stderr.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abps_toolkit import abps, packetsim  # noqa: E402

SEEDS = range(1, 15)
PARAMS = {
    "default": abps.default_params(),
    "T_W_minus=5,T_W_plus=40": abps.default_params(T_W_minus=5.0, T_W_plus=40.0),
    "energy,tput_W,baseline,idle": abps.default_params(
        e={**abps.DEFAULT_ENERGY, "WiFi": {**abps.DEFAULT_ENERGY["WiFi"], "connected": 0.45,
                                           "setup": 0.23}},
        tput_W=11.0, oracle_baseline_power=0.25, idle_connected_fraction=0.5),
}
TIMEOUT = 0.5
DELAYS = [0.2, TIMEOUT, 2.0]           # below, equal to and above the timeout
IDLE_DURATION = 3000.0
TRAFFIC_DURATION = 80.0


def configs():
    """(params name, params, config, variant, mode, traced) per run."""
    for seed, variant, mode, traced in itertools.product(SEEDS, abps.VARIANTS, abps.MODES,
                                                         (False, True)):
        runs = [packetsim.SimConfig(duration=IDLE_DURATION, seed=seed, data_rate=0.0)]
        runs += [packetsim.SimConfig(duration=TRAFFIC_DURATION, seed=seed, data_rate=rate,
                                     ack_timeout=TIMEOUT, ack_delay=delay)
                 for rate, delay in itertools.product((2.0, 50.0), DELAYS)]
        for cfg in runs:
            for name, params in PARAMS.items():
                yield name, params, cfg, variant, mode, traced


def main(out) -> None:
    total = lost = parked = traced_runs = 0
    for name, params, cfg, variant, mode, traced in configs():
        digest = hashlib.sha256()
        records = []
        trace = (lambda *record: records.append(record)) if traced else None
        metrics = packetsim.simulate(params, cfg, variant, mode, trace)
        digest.update(f"{metrics!r}\n".encode())
        for record in records:
            digest.update(f"{record!r}\n".encode())
        total += 1
        lost += metrics.lost_sends > 0
        parked += metrics.parked_at_end > 0 or any(r[2] == "park" for r in records)
        traced_runs += traced
        print(f"{name} seed={cfg.seed} rate={cfg.data_rate:g} delay={cfg.ack_delay:g} "
              f"timeout={cfg.ack_timeout:g} duration={cfg.duration:g} {variant} {mode} "
              f"traced={traced} {digest.hexdigest()}", file=out)
    print(f"{total} configs: {lost} with lost sends, {parked} with a park in the trace "
          f"or at the end, {traced_runs} traced", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/sim_digest.py [OUTPUT]")
    if len(sys.argv) == 2:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            main(handle)
    else:
        main(sys.stdout)
