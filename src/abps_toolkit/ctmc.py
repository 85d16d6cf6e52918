"""Finite-state continuous-time Markov chains.

Generator matrices, reachability, stationary distributions and rate rewards.
Chains here are small (tens to a few hundred states), so a generator is
stored once, as one read-only dense Q, and everything reads it:
reachability and the closed class are breadth-first searches on the
pattern ``Q > 0``, and the stationary solver is a direct dense solve on the
recurrent class, which is both fast and deterministic (Stewart,
*Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 2).
The closed class is found once per pattern: a small bounded memo keyed by
``Q > 0`` and the initial state serves every chain that differs only in its
rates, such as the points of a parameter sweep, and :func:`steady_states`
solves a stack of such chains in one call.

All values are immutable after construction and can be shared freely across
threads; a single solve is single-threaded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Tolerances of a stationary distribution: its sum, and its relative residual.
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

    @classmethod
    def rows(cls, probabilities: np.ndarray) -> list[StationaryDistribution]:
        """One distribution per row of a ``(P, n)`` array, each checked as
        the constructor checks one; the rows share one read-only copy."""
        block = np.array(probabilities, dtype=float)
        if block.ndim != 2:
            raise ValidationError("a stack of distributions must be 2-d")
        if block.min(initial=0.0) < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        sums = block.sum(axis=1)
        off = np.abs(sums - 1.0) > PROB_SUM_TOL
        if off.any():
            raise ValidationError(f"probabilities sum to {sums[off.argmax()]!r}, not 1")
        block.flags.writeable = False
        found = []
        for row in block:
            dist = object.__new__(cls)  # checked above, as a block
            object.__setattr__(dist, "probabilities", row)
            found.append(dist)
        return found

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
    n_states: int, transitions: Iterable[tuple[int, int, float]] | np.ndarray
) -> GeneratorMatrix:
    """Assemble a generator from ``(from, to, rate)`` triples.

    ``transitions`` is an iterable of triples or an ``(E, 3)`` array. Rates
    must be strictly positive and finite and indices in range; parallel
    transitions between the same pair of states are summed in input order,
    matching the additivity of racing exponential clocks, and each sum and
    each state's total exit rate must stay finite.
    """
    if not isinstance(n_states, (int, np.integer)) or n_states < 1:
        raise ValidationError(f"n_states must be a positive integer, got {n_states!r}")
    if not isinstance(transitions, np.ndarray):
        transitions = list(transitions)
    src, dst, rates = np.asarray(transitions, dtype=float).reshape(-1, 3).T
    in_range = (0 <= src) & (src < n_states) & (0 <= dst) & (dst < n_states)
    bad = ~in_range | (src == dst) | ~((rates > 0.0) & np.isfinite(rates))
    if bad.any():
        k = int(np.argmax(bad))
        pair = f"({_index_text(src[k])}, {_index_text(dst[k])})"
        if not in_range[k]:
            raise ValidationError(
                f"transition {pair} outside state range [0, {n_states})"
            )
        if src[k] == dst[k]:
            raise ValidationError(f"self-loop on state {_index_text(src[k])} is not allowed")
        raise ValidationError(
            f"transition {pair} needs a positive finite rate, got {float(rates[k])!r}"
        )
    q = np.zeros((n_states, n_states))
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        np.add.at(q, (src.astype(np.intp), dst.astype(np.intp)), rates)
        exit_rates = q.sum(axis=1)
    if not np.isfinite(q).all():
        i, j = np.argwhere(~np.isfinite(q))[0]
        raise ValidationError(
            f"transitions ({i}, {j}) sum to a non-finite rate {float(q[i, j])!r}"
        )
    if not np.isfinite(exit_rates).all():
        i = int(np.argmax(~np.isfinite(exit_rates)))
        raise ValidationError(
            f"state {i} has a non-finite total exit rate {float(exit_rates[i])!r}"
        )
    np.fill_diagonal(q, -exit_rates)
    return GeneratorMatrix(n_states=int(n_states), q=q)


def _index_text(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def reachable_states(generator: GeneratorMatrix, initial: int) -> set[int]:
    """States reachable from ``initial`` along positive-rate transitions."""
    _check_state(generator, initial)
    return set(np.flatnonzero(_closure(generator.q > 0.0, initial)).tolist())


def steady_state(generator: GeneratorMatrix, initial: int) -> StationaryDistribution:
    """Stationary distribution of the subchain reachable from ``initial``.

    Solves pi Q = 0, sum(pi) = 1 restricted to the single closed
    communicating class of the reachable subchain (transient states get
    probability zero); one balance equation is replaced by the
    normalization constraint and the system solved directly. The residual
    ``max|pi Q|`` divided by the largest exit rate must not exceed
    ``RESIDUAL_TOL``, so the check is invariant under rescaling time. Raises
    :class:`StructureError` when the reachable subchain contains more than
    one closed class, since then the long-run behavior would depend on the
    start state, or when the solve is numerically singular. The class
    search is remembered per pattern ``Q > 0``.
    """
    _check_state(generator, initial)
    support = np.packbits(generator.q > 0.0).tobytes()
    recurrent = _recurrent_class(generator.n_states, initial, support)
    try:
        pi, negative, residual = _solve(generator.q[np.newaxis], recurrent)
    except np.linalg.LinAlgError:
        raise StructureError("stationary solve is singular") from None
    if negative[0]:
        raise StructureError("stationary solve produced a negative probability")
    if not residual[0] <= RESIDUAL_TOL:  # a NaN residual fails too
        raise StructureError(
            f"relative stationary residual {residual[0]:.3e} exceeds tolerance "
            f"{RESIDUAL_TOL:.1e}"
        )
    return StationaryDistribution(probabilities=pi[0])


def steady_states(q: np.ndarray, initial: int) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions of a stack of generators in one solve.

    ``q`` is a ``(P, n, n)`` stack of valid generators that share the
    pattern ``Q > 0`` of ``q[0]``. Returns the ``(P, n)`` probabilities and
    the mask of the rows that :func:`steady_state` accepts, each row bit for
    bit what it returns for that generator alone. A row of another pattern
    is not accepted, and a singular system fails the whole stack. Raises
    :class:`StructureError`, as :func:`steady_state` does, when the pattern
    has more than one closed class.
    """
    if not len(q):
        return np.empty(q.shape[:2]), np.zeros(0, dtype=bool)
    support = q[0] > 0.0
    recurrent = _recurrent_class(q.shape[1], initial, np.packbits(support).tobytes())
    same = ((q > 0.0) == support).all(axis=(1, 2))
    try:
        pi, negative, residual = _solve(q, recurrent)
    except np.linalg.LinAlgError:
        return np.full(q.shape[:2], np.nan), np.zeros(len(q), dtype=bool)
    # the checks of steady_state and of StationaryDistribution
    summed = np.abs(pi.sum(axis=1) - 1.0) <= PROB_SUM_TOL
    return pi, same & ~negative & (residual <= RESIDUAL_TOL) & summed


def _solve(
    q: np.ndarray, recurrent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve each generator of the stack ``q`` on the closed class
    ``recurrent``: the probabilities, the rows whose solve went negative and
    each row's relative residual. A row is computed the same way alone or in
    any stack, so it comes out bit for bit the same."""
    everywhere = len(recurrent) == q.shape[1]
    a = q.copy() if everywhere else q[:, recurrent[:, np.newaxis], recurrent]
    a[:, :, 0] = 1.0  # one balance equation becomes the normalization
    b = np.zeros((len(q), len(recurrent), 1))
    b[:, 0] = 1.0
    # pi Q = 0 is Q^T pi = 0; the transposed view is already in the
    # column-major order the solver copies its input into
    x = np.linalg.solve(a.transpose(0, 2, 1), b)[..., 0]

    # Direct solves can leave harmless signed zeros / tiny negatives.
    x[np.abs(x) < 1e-15] = 0.0
    negative = x.min(axis=1, initial=0.0) < -1e-9
    x = np.clip(x, 0.0, None)
    x /= x.sum(axis=1, keepdims=True)

    if everywhere:
        pi = x
    else:
        pi = np.zeros(q.shape[:2])
        pi[:, recurrent] = x

    residual = np.abs(pi[:, np.newaxis, :] @ q)[:, 0].max(axis=1)
    max_exit = -q.diagonal(axis1=1, axis2=2).min(axis=1)
    return pi, negative, residual / np.where(max_exit > 0.0, max_exit, 1.0)


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


@functools.lru_cache(maxsize=32)
def _recurrent_class(n_states: int, initial: int, support: bytes) -> np.ndarray:
    """Indices of the closed class reached from ``initial``, memoized by the
    packed pattern ``Q > 0``: chains that differ only in their rates share
    the search. A structure that is rejected raises and is not remembered."""
    bits = np.unpackbits(np.frombuffer(support, dtype=np.uint8), count=n_states * n_states)
    edges = bits.reshape(n_states, n_states).astype(bool)
    reachable = np.flatnonzero(_closure(edges, initial)).tolist()
    recurrent = np.flatnonzero(_single_closed_class(edges, reachable))
    recurrent.flags.writeable = False
    return recurrent


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
