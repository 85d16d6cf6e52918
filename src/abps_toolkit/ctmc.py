"""Finite-state continuous-time Markov chains.

Generator matrices, reachability, stationary distributions and rate rewards.
Chains here are small (tens to a few hundred states), so the stationary
solver uses a direct dense solve on the recurrent class, which is both fast
and deterministic.

All values are immutable after construction and can be shared freely across
threads; a single solve is single-threaded.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

#: Default tolerances; every solver entry point accepts overrides.
ROW_SUM_TOL = 1e-12
PROB_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


class ValidationError(ValueError):
    """An input violates a structural precondition (bad rate, index, length)."""


class StructureError(RuntimeError):
    """The chain's structure rules out a unique stationary distribution."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Infinitesimal generator Q of a finite CTMC.

    ``entries`` holds the off-diagonal transition rates (1/s) as a sparse
    map ``(i, j) -> rate``; the diagonal is implied, so every row sums to
    zero by construction. Use :func:`build_generator` rather than the raw
    constructor so the invariants are checked.
    """

    n_states: int
    entries: Mapping[tuple[int, int], float]

    def rate(self, i: int, j: int) -> float:
        """Transition rate from ``i`` to ``j`` (0.0 if absent)."""
        if i == j:
            return -self.exit_rate(i)
        return self.entries.get((i, j), 0.0)

    def exit_rate(self, i: int) -> float:
        """Total rate out of state ``i`` (minus the diagonal entry)."""
        return sum(r for (a, _), r in self.entries.items() if a == i)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Outgoing edges per state as ``[(target, rate), ...]`` lists."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_states)]
        for (i, j), r in self.entries.items():
            adj[i].append((j, r))
        return adj

    def to_dense(self) -> np.ndarray:
        """Dense Q with the implied diagonal filled in."""
        q = np.zeros((self.n_states, self.n_states))
        for (i, j), r in self.entries.items():
            q[i, j] = r
        np.fill_diagonal(q, -q.sum(axis=1))
        return q


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
    entries: dict[tuple[int, int], float] = {}
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
        key = (int(src), int(dst))
        entries[key] = entries.get(key, 0.0) + float(rate)
    return GeneratorMatrix(n_states=int(n_states), entries=entries)


def reachable_states(generator: GeneratorMatrix, initial: int) -> set[int]:
    """States reachable from ``initial`` along positive-rate transitions."""
    _check_state(generator, initial)
    adj = generator.adjacency()
    seen = {initial}
    frontier = deque([initial])
    while frontier:
        here = frontier.popleft()
        for nxt, _ in adj[here]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


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
    recurrent = _single_closed_class(generator, reachable)

    pos = {s: k for k, s in enumerate(recurrent)}
    m = len(recurrent)
    q = np.zeros((m, m))
    for (i, j), r in generator.entries.items():
        if i in pos and j in pos:
            q[pos[i], pos[j]] = r
    np.fill_diagonal(q, -q.sum(axis=1))

    a = q.T.copy()
    a[0, :] = 1.0
    b = np.zeros(m)
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

    dense = generator.to_dense()
    residual = np.abs(pi @ dense).max()
    max_exit = -dense.diagonal().min()
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
    _check_state(generator, state)
    out = generator.exit_rate(state)
    return math.inf if out == 0.0 else 1.0 / out


def _check_state(generator: GeneratorMatrix, state: int) -> None:
    if not (0 <= state < generator.n_states):
        raise ValidationError(
            f"state {state} outside range [0, {generator.n_states})"
        )


def _single_closed_class(
    generator: GeneratorMatrix, reachable: Sequence[int]
) -> list[int]:
    """The unique closed communicating class among ``reachable`` states.

    Closed classes are the strongly connected components with no edges
    leaving them; more than one means the stationary limit is ambiguous.
    """
    pos = {s: k for k, s in enumerate(reachable)}
    rows, cols = [], []
    for (i, j), _ in generator.entries.items():
        if i in pos and j in pos:
            rows.append(pos[i])
            cols.append(pos[j])
    graph = csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(reachable), len(reachable))
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")

    open_comps = set()
    for (i, j), _ in generator.entries.items():
        if i in pos and j in pos and labels[pos[i]] != labels[pos[j]]:
            open_comps.add(labels[pos[i]])
    closed = [c for c in range(n_comp) if c not in open_comps]
    if len(closed) != 1:
        sizes = sorted(int(np.sum(labels == c)) for c in closed)
        raise StructureError(
            f"reachable subchain has {len(closed)} closed classes "
            f"(sizes {sizes}); the stationary distribution is not unique"
        )
    keep = closed[0]
    return [s for s in reachable if labels[pos[s]] == keep]
