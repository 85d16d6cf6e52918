"""Finite-state continuous-time Markov chains.

Generator matrices, reachability, stationary distributions and rate rewards.
Chains here are small (tens to a few hundred states), so a generator is
stored once, as one read-only dense Q, and everything reads it:
reachability and the closed class are breadth-first searches on the
pattern ``Q > 0``, and the stationary solver is a direct dense solve on the
recurrent class, which is both fast and deterministic (Stewart,
*Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 2).

All values are immutable after construction and can be shared freely across
threads; a single solve is single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: Default tolerances; every solver entry point accepts overrides.
PROB_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates a structural precondition (bad rate, index, length)."""


class StructureError(RuntimeError):
    """The chain's structure rules out a unique stationary distribution."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Infinitesimal generator Q of a finite CTMC.

    ``q`` is the dense read-only ``n_states x n_states`` matrix: transition
    rates (1/s) off the diagonal and minus each state's exit rate on it, so
    every row sums to zero. Use :func:`build_generator` rather than the raw
    constructor so the invariants are checked.
    """

    n_states: int
    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def entries(self) -> Mapping[tuple[int, int], float]:
        """Off-diagonal rates as a read-only map ``(i, j) -> rate``, in row order."""
        rows, cols = np.nonzero(self.q > 0.0)
        rates = self.q[rows, cols].tolist()
        return MappingProxyType(dict(zip(zip(rows.tolist(), cols.tolist()), rates)))

    def rate(self, i: int, j: int) -> float:
        """Transition rate from ``i`` to ``j`` (0.0 if absent), or ``-exit_rate(i)``."""
        _check_state(self, i)
        _check_state(self, j)
        return float(self.q[i, j])

    def exit_rate(self, i: int) -> float:
        """Total rate out of state ``i`` (minus the diagonal entry)."""
        return -self.rate(i, i)

    def to_dense(self) -> np.ndarray:
        """A writable copy of Q."""
        return self.q.copy()


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run state occupancy probabilities over the full state space."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1:
            raise ValidationError("probabilities must be a 1-d vector")
        if p.min(initial=0.0) < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {p.sum()!r}, not 1")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def n_states(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class RewardVector:
    """Per-state accrual rates; units (e.g. Watts, Mbps) are the caller's."""

    values: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError("rewards must be a 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValidationError("rewards must be finite")
        if v.min(initial=0.0) < 0.0:
            raise ValidationError("rewards must be nonnegative")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def build_generator(
    n_states: int, transitions: Iterable[tuple[int, int, float]]
) -> GeneratorMatrix:
    """Assemble a generator from ``(from, to, rate)`` triples.

    Rates must be strictly positive and indices in range; parallel
    transitions between the same pair of states are summed, matching the
    additivity of racing exponential clocks.
    """
    if not isinstance(n_states, (int, np.integer)) or n_states < 1:
        raise ValidationError(f"n_states must be a positive integer, got {n_states!r}")
    q = np.zeros((n_states, n_states))
    for src, dst, rate in transitions:
        if not (0 <= src < n_states) or not (0 <= dst < n_states):
            raise ValidationError(
                f"transition ({src}, {dst}) outside state range [0, {n_states})"
            )
        if src == dst:
            raise ValidationError(f"self-loop on state {src} is not allowed")
        if not (rate > 0.0) or not math.isfinite(rate):
            raise ValidationError(
                f"transition ({src}, {dst}) needs a positive finite rate, got {rate!r}"
            )
        q[int(src), int(dst)] += float(rate)
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(n_states=int(n_states), q=q)


def reachable_states(generator: GeneratorMatrix, initial: int) -> set[int]:
    """States reachable from ``initial`` along positive-rate transitions."""
    _check_state(generator, initial)
    return set(np.flatnonzero(_closure(generator.q > 0.0, initial)).tolist())


def steady_state(
    generator: GeneratorMatrix,
    initial: int,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> StationaryDistribution:
    """Stationary distribution of the subchain reachable from ``initial``.

    Solves pi Q = 0, sum(pi) = 1 restricted to the single closed
    communicating class of the reachable subchain (transient states get
    probability zero); one balance equation is replaced by the
    normalization constraint and the system solved directly. The residual
    ``max|pi Q|`` divided by the largest exit rate must not exceed
    ``residual_tol``, so the check is invariant under rescaling time. Raises
    :class:`StructureError` when the reachable subchain contains more than
    one closed class, since then the long-run behavior would depend on the
    start state.
    """
    reachable = sorted(reachable_states(generator, initial))
    recurrent = np.flatnonzero(_single_closed_class(generator.q > 0.0, reachable))

    a = generator.q.T[np.ix_(recurrent, recurrent)]  # a fresh, writable copy
    a[0, :] = 1.0
    b = np.zeros(len(recurrent))
    b[0] = 1.0
    x = np.linalg.solve(a, b)

    # Direct solves can leave harmless signed zeros / tiny negatives.
    x[np.abs(x) < 1e-15] = 0.0
    if x.min(initial=0.0) < -1e-9:
        raise StructureError("stationary solve produced a negative probability")
    x = np.clip(x, 0.0, None)
    x /= x.sum()

    pi = np.zeros(generator.n_states)
    pi[recurrent] = x

    residual = np.abs(pi @ generator.q).max()
    max_exit = -generator.q.diagonal().min()
    if max_exit > 0.0:
        residual /= max_exit
    if residual > residual_tol:
        raise StructureError(
            f"relative stationary residual {residual:.3e} exceeds tolerance "
            f"{residual_tol:.1e}"
        )
    return StationaryDistribution(probabilities=pi)


def steady_state_probability(
    dist: StationaryDistribution, predicate: Callable[[int], bool]
) -> float:
    """Probability mass of the states satisfying ``predicate``."""
    total = float(
        sum(p for i, p in enumerate(dist.probabilities) if predicate(i))
    )
    return min(max(total, 0.0), 1.0)


def expected_reward(dist: StationaryDistribution, rewards: RewardVector) -> float:
    """Expected stationary rate reward, sum_i pi_i * r_i."""
    if len(rewards.values) != dist.n_states:
        raise ValidationError(
            f"reward vector length {len(rewards.values)} != {dist.n_states} states"
        )
    return float(dist.probabilities @ rewards.values)


def mean_residence_time(generator: GeneratorMatrix, state: int) -> float:
    """Mean sojourn in ``state``: the inverse of its total outgoing rate."""
    out = generator.exit_rate(state)
    return math.inf if out == 0.0 else 1.0 / out


def _check_state(generator: GeneratorMatrix, state: int) -> None:
    if not (0 <= state < generator.n_states):
        raise ValidationError(
            f"state {state} outside range [0, {generator.n_states})"
        )


def _closure(edges: np.ndarray, start: int) -> np.ndarray:
    """Mask of the states reachable from ``start`` along ``edges[i, j]``, found
    one breadth-first layer at a time."""
    seen = np.zeros(len(edges), dtype=bool)
    frontier = np.arange(len(edges)) == start
    while frontier.any():
        seen |= frontier
        frontier = edges[frontier].any(axis=0) & ~seen
    return seen


def _single_closed_class(edges: np.ndarray, reachable: Sequence[int]) -> np.ndarray:
    """Mask of the unique closed communicating class among ``reachable`` states.

    From a state, step to any state it reaches that cannot reach back; each
    step shrinks the forward set, and where none is left that set is a
    closed class. The class is unique exactly when every reachable state
    reaches it; otherwise the search repeats from a state that reaches none
    of the classes found so far, until all of them are counted.
    """
    closed: list[np.ndarray] = []
    covered = np.zeros(len(edges), dtype=bool)
    while not covered[reachable].all():
        state = reachable[int(np.argmax(~covered[reachable]))]
        while True:
            forward = _closure(edges, state)
            backward = _closure(edges.T, state)
            escape = forward & ~backward
            if not escape.any():
                break
            state = int(np.argmax(escape))
        closed.append(forward)
        covered |= backward  # a state reaching the class reaches each of its members
    if len(closed) != 1:
        sizes = sorted(int(c.sum()) for c in closed)
        raise StructureError(
            f"reachable subchain has {len(closed)} closed classes "
            f"(sizes {sizes}); the stationary distribution is not unique"
        )
    return closed[0]
