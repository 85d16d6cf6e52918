"""Performance-modeling toolkit for multi-NIC always-best-packet-switching.

Subpackages:

- :mod:`abps_toolkit.ctmc` - finite CTMCs, stationary solver, rate rewards
- :mod:`abps_toolkit.modlang` - guarded-command module language and composer
- :mod:`abps_toolkit.abps` - the plain and oracle switching models
- :mod:`abps_toolkit.packetsim` - packet-level discrete-event cross-validator
- :mod:`abps_toolkit.coverage` - WiFi coverage catalog, classifier and policy
- :mod:`abps_toolkit.cli` - the ``abps`` command-line front end
"""

from abps_toolkit.ctmc import (
    GeneratorMatrix,
    RewardVector,
    StationaryDistribution,
    StructureError,
    ValidationError,
    build_generator,
    expected_reward,
    mean_residence_time,
    reachable_states,
    steady_state,
)

__all__ = [
    "GeneratorMatrix",
    "RewardVector",
    "StationaryDistribution",
    "StructureError",
    "ValidationError",
    "build_generator",
    "expected_reward",
    "mean_residence_time",
    "reachable_states",
    "steady_state",
]

__version__ = "0.1.0"
