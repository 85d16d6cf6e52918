"""A quick tour of the CTMC core: build a chain, solve it, attach rewards.

The running example is a single network interface cycling through
disconnected -> setup -> connected -> failed, the same lifecycle the full
models use per interface.
"""

import numpy as np

from abps_toolkit import (
    RewardVector,
    build_generator,
    expected_reward,
    mean_residence_time,
    reachable_states,
    steady_state,
)

# States: 0=disconnected, 1=setup, 2=connected, 3=failed.
# A scan finds a network after ~6 s, setup takes ~1.5 s and succeeds 99%
# of the time, connections hold ~10 min, failure detection takes ~1 s.
alpha, beta, p, gamma, mu = 1 / 6.024, 1 / 1.5, 0.99, 1 / 600, 1.0

generator = build_generator(
    4,
    [
        (0, 1, alpha),
        (1, 2, p * beta),          # setup succeeded
        (1, 0, (1 - p) * beta),    # setup failed, scan again
        (2, 3, gamma),             # connection drops
        (3, 0, mu),                # failure detected
    ],
)

print("dense generator (rows sum to zero):")
print(np.array_str(generator.to_dense(), precision=4, suppress_small=True))

print("\nreachable from 'disconnected':", sorted(reachable_states(generator, 0)))
print("mean residence in 'connected': %.1f s" % mean_residence_time(generator, 2))

pi = steady_state(generator, 0)
for name, prob in zip(("disconnected", "setup", "connected", "failed"), pi.probabilities):
    print(f"  pi[{name}] = {prob:.6f}")

print(f"\navailability (P[connected]) = {pi.probabilities[2]:.6f}")

# Per-state power draw in Watts, straight from the interface energy table.
power = RewardVector(np.array([0.12, 0.31, 0.62, 0.25]), units="W")
print(f"long-run power draw = {expected_reward(pi, power):.4f} W")
