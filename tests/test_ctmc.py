"""Tests for the CTMC core: generators, reachability, stationary solves, rewards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    steady_states,
)

rates = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestBuildGenerator:
    def test_two_state(self):
        q = build_generator(2, [(0, 1, 1.0), (1, 0, 2.0)])
        np.testing.assert_allclose(q.to_dense(), [[-1.0, 1.0], [2.0, -2.0]])

    def test_absorbing_singleton(self):
        q = build_generator(1, [])
        np.testing.assert_allclose(q.to_dense(), [[0.0]])

    def test_parallel_transitions_summed(self):
        q = build_generator(2, [(0, 1, 1.0), (0, 1, 0.5)])
        assert q.rate(0, 1) == 1.5
        rng = np.random.default_rng(23)
        triples = _random_triples(rng, 9)
        triples += triples[:4]
        expected: dict[tuple[int, int], float] = {}
        for i, j, r in triples:
            expected[(i, j)] = expected.get((i, j), 0.0) + r
        g = build_generator(9, triples)
        assert dict(g.entries) == expected
        with pytest.raises(TypeError):
            g.entries[(0, 1)] = 1.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValidationError):
            build_generator(2, [(0, 1, 0.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            build_generator(2, [(0, 1, -1.0)])

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build_generator(2, [(0, 2, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            build_generator(2, [(1, 1, 1.0)])

    def test_non_finite_sums_rejected(self):
        # each rate is finite, but the parallel pair and the row overflow
        with pytest.raises(ValidationError, match=r"\(0, 1\) sum to a non-finite rate inf"):
            build_generator(2, [(0, 1, 1e308), (0, 1, 1e308), (1, 0, 1.0)])
        with pytest.raises(ValidationError, match="state 0 has a non-finite total exit rate"):
            build_generator(3, [(0, 1, 1e308), (0, 2, 1e308), (1, 0, 1.0), (2, 0, 1.0)])

    def test_array_input_matches_triples(self):
        triples = [(0, 1, 1.0), (1, 2, 0.5), (0, 1, 0.25), (2, 0, 3.0)]
        from_array = build_generator(3, np.array(triples))
        assert np.array_equal(from_array.q, build_generator(3, iter(triples)).q)

    def test_row_sums_zero(self):
        rng = np.random.default_rng(7)
        q = _random_irreducible(rng, 12)
        np.testing.assert_allclose(q.to_dense().sum(axis=1), 0.0, atol=1e-12)
        assert all(r >= 0 for r in q.entries.values())
        assert not q.q.flags.writeable
        with pytest.raises(ValueError):
            q.q[0, 1] = 5.0
        dense = q.to_dense()
        dense[0, 1] = 5.0  # a writable copy, not a view
        assert q.q[0, 1] != 5.0


class TestReachability:
    def test_cycle_fully_reachable(self):
        # d -> s -> c -> f -> d lifecycle ring plus the setup-failure edge
        q = build_generator(
            4, [(0, 1, 1.0), (1, 2, 0.9), (1, 0, 0.1), (2, 3, 0.5), (3, 0, 1.0)]
        )
        assert reachable_states(q, 0) == {0, 1, 2, 3}

    def test_respects_direction(self):
        q = build_generator(3, [(0, 1, 1.0), (2, 0, 1.0)])
        assert reachable_states(q, 0) == {0, 1}
        assert reachable_states(q, 2) == {0, 1, 2}

    def test_initial_out_of_range(self):
        q = build_generator(2, [(0, 1, 1.0)])
        with pytest.raises(ValidationError):
            reachable_states(q, 5)

    def test_monotone_under_added_transitions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            triples = _random_triples(rng, n)
            base = reachable_states(build_generator(n, triples), 0)
            i, j = rng.integers(0, n, size=2)
            while i == j:
                i, j = rng.integers(0, n, size=2)
            more = triples + [(int(i), int(j), 1.0)]
            grown = reachable_states(build_generator(n, more), 0)
            assert base <= grown


class TestSteadyState:
    def test_two_state_balance(self):
        q = build_generator(2, [(0, 1, 1.0), (1, 0, 2.0)])
        pi = steady_state(q, 0).probabilities
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_singleton(self):
        q = build_generator(1, [])
        np.testing.assert_allclose(steady_state(q, 0).probabilities, [1.0])

    def test_transient_states_get_zero(self):
        # 0 leads into the closed pair {1, 2}
        q = build_generator(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 3.0)])
        pi = steady_state(q, 0).probabilities
        assert pi[0] == 0.0
        np.testing.assert_allclose(pi, [0.0, 0.75, 0.25], atol=1e-12)

    def test_two_closed_classes_rejected(self):
        q = build_generator(3, [(0, 1, 1.0), (0, 2, 1.0)])
        with pytest.raises(StructureError, match="closed classes"):
            steady_state(q, 0)
        # 0 -> 1 -> 2 forks into the closed pair {3, 4} and the closed ring {5, 6, 7}
        q = build_generator(8, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 5, 1.0),
                                (3, 4, 1.0), (4, 3, 2.0),
                                (5, 6, 1.0), (6, 7, 1.0), (7, 5, 1.0)])
        with pytest.raises(StructureError, match=r"2 closed classes \(sizes \[2, 3\]\)"):
            steady_state(q, 0)

    def test_support_matches_brute_force_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n, triples, initial = _random_layered_chain(rng)
            g = build_generator(n, triples)
            reach = _floyd_warshall_reachability(n, triples)
            expected_reachable = set(np.flatnonzero(reach[initial]).tolist())
            assert reachable_states(g, initial) == expected_reachable
            closed = {s for s in expected_reachable
                      if all(reach[t, s] for t in np.flatnonzero(reach[s]))}
            pi = steady_state(g, initial).probabilities
            assert set(np.flatnonzero(pi > 0.0).tolist()) == closed

    def test_fast_cycle_solves(self):
        # a valid chain whose absolute residual (~7e-9) only reflects its rates
        q = build_generator(3, [(0, 1, 1e8), (1, 2, 2e8), (2, 0, 3e8)])
        pi = steady_state(q, 0).probabilities
        np.testing.assert_allclose(pi, [6 / 11, 3 / 11, 2 / 11], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_residual_fails(self):
        # a generator assembled without build_generator's checks: pi Q is NaN
        q = GeneratorMatrix(2, np.array([[-np.inf, np.inf], [1.0, -1.0]]))
        with pytest.raises(StructureError):
            steady_state(q, 0)

    @pytest.mark.parametrize("n_states, q", [
        (3, [[-1.0, 1.0], [1.0, -1.0]]),
        (2, [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),
        (1, [0.0]),
    ])
    def test_size_must_match_q(self, n_states, q):
        # one size, stated twice: a mismatch would end in an IndexError
        with pytest.raises(ValidationError, match=f"Q of {n_states} states must be"):
            GeneratorMatrix(n_states, q)

    def test_singular_solve_is_a_structure_error(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(StructureError, match="stationary solve is singular"):
            steady_state(build_generator(2, [(0, 1, 1.0), (1, 0, 1.0)]), 0)

    def test_class_search_shared_by_rates_not_by_pattern(self):
        # same pattern Q > 0 at other rates, then a pattern that differs
        for scale in (1.0, 7.0):
            q = build_generator(3, [(0, 1, scale), (1, 2, 1.0), (2, 1, 3.0)])
            np.testing.assert_allclose(steady_state(q, 0).probabilities,
                                       [0.0, 0.75, 0.25], atol=1e-12)
        q = build_generator(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 3.0)])
        assert steady_state(q, 0).probabilities.min() > 0.0
        with pytest.raises(StructureError, match="closed classes"):
            steady_state(build_generator(3, [(0, 1, 1.0), (0, 2, 1.0)]), 0)
        with pytest.raises(StructureError, match="closed classes"):  # not remembered as valid
            steady_state(build_generator(3, [(0, 1, 2.0), (0, 2, 1.0)]), 0)

    def test_result_independent_of_start_state(self):
        rng = np.random.default_rng(11)
        q = _random_irreducible(rng, 8)
        pi0 = steady_state(q, 0).probabilities
        pi5 = steady_state(q, 5).probabilities
        np.testing.assert_allclose(pi0, pi5, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        q = _random_irreducible(rng, 15)
        a = steady_state(q, 0).probabilities
        b = steady_state(q, 0).probabilities
        assert np.array_equal(a, b)

    @given(a=rates, b=rates)
    @settings(max_examples=200, deadline=None)
    def test_two_state_analytic_formula(self, a, b):
        q = build_generator(2, [(0, 1, a), (1, 0, b)])
        pi = steady_state(q, 0).probabilities
        assert abs(pi[0] - b / (a + b)) < 1e-12
        assert abs(pi[1] - a / (a + b)) < 1e-12

    @given(scale=st.floats(min_value=1e-8, max_value=1e8), seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_time_rescaling_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        triples = _random_triples(rng, n)
        q = build_generator(n, triples)
        q_scaled = build_generator(n, [(i, j, r * scale) for i, j, r in triples])
        pi = steady_state(q, 0).probabilities
        pi_scaled = steady_state(q_scaled, 0).probabilities
        np.testing.assert_allclose(pi, pi_scaled, atol=1e-10)

    def test_residual_and_normalization_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            q = _random_irreducible(rng, n)
            pi = steady_state(q, 0).probabilities
            assert abs(pi.sum() - 1.0) <= 1e-12
            assert pi.min() >= 0.0
            assert np.abs(pi @ q.to_dense()).max() < 1e-10


class TestSteadyStates:
    """One stacked solve of generators that share a pattern gives each row
    bit for bit what steady_state gives it alone."""

    # 0 is transient and leads into the closed ring {1, 2, 3}
    PAIRS = [(0, 1), (1, 2), (2, 3), (3, 1), (2, 1)]

    def stack(self, rates):
        return np.stack([build_generator(4, [(i, j, r) for (i, j), r in zip(self.PAIRS, row)]).q
                         for row in rates])

    def test_rows_equal_single_solves(self):
        rates = np.random.default_rng(31).uniform(0.01, 100.0, (40, len(self.PAIRS)))
        q = self.stack(rates)
        pi, ok = steady_states(q, 0)
        assert ok.all()
        for row, matrix in zip(pi, q):
            alone = steady_state(GeneratorMatrix(4, matrix), 0).probabilities
            assert row.tobytes() == alone.tobytes()

    def test_other_pattern_and_singular_stack_rejected(self):
        q = self.stack([[1.0, 1.0, 1.0, 1.0, 1.0]] * 3)
        q[2, 2, 1] = 0.0  # a transition of the shared pattern is missing
        q[2, 2, 2] = -1.0
        assert steady_states(q, 0)[1].tolist() == [True, True, False]
        q[1] = 0.0  # a singular system fails the whole stack
        assert steady_states(q, 0)[1].tolist() == [False, False, False]

    def test_empty_stack(self):
        pi, ok = steady_states(np.zeros((0, 3, 3)), 0)
        assert pi.shape == (0, 3) and ok.shape == (0,)

    def test_two_closed_classes_raise(self):
        q = build_generator(3, [(0, 1, 1.0), (0, 2, 1.0)]).q
        with pytest.raises(StructureError, match="closed classes"):
            steady_states(np.stack([q, 2.0 * q]), 0)


class TestMetrics:
    def test_expected_reward(self):
        dist = StationaryDistribution(np.array([2 / 3, 1 / 3]))
        assert expected_reward(dist, RewardVector(np.array([0.0, 3.0]))) == pytest.approx(1.0)
        assert expected_reward(dist, RewardVector(np.array([0.0, 0.0]))) == 0.0

    def test_reward_length_mismatch(self):
        dist = StationaryDistribution(np.array([1.0]))
        with pytest.raises(ValidationError):
            expected_reward(dist, RewardVector(np.array([1.0, 2.0])))

    def test_reward_vector_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValidationError):
            RewardVector(np.array([-0.1]))
        with pytest.raises(ValidationError):
            RewardVector(np.array([np.inf]))

    def test_mean_residence_time(self):
        q = build_generator(3, [(0, 1, 0.25), (0, 2, 0.25), (1, 0, 1.0), (2, 0, 1.0)])
        assert mean_residence_time(q, 0) == pytest.approx(2.0)
        q_abs = build_generator(2, [(0, 1, 1.0)])
        assert mean_residence_time(q_abs, 1) == math.inf


def _random_triples(rng, n):
    """A ring through all states plus random extra edges: always irreducible."""
    perm = rng.permutation(n)
    triples = [
        (int(perm[k]), int(perm[(k + 1) % n]), float(rng.uniform(0.1, 10.0)))
        for k in range(n)
    ]
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            triples.append((int(i), int(j), float(rng.uniform(0.01, 50.0))))
    return triples


def _random_irreducible(rng, n):
    return build_generator(n, _random_triples(rng, n))


def _random_layered_chain(rng):
    """A closed block, transient feeders that all lead into it, and an
    unreachable component that feeds both, on shuffled state indices.

    Returns ``(n, triples, initial)`` with ``initial`` a feeder or a closed
    state, so exactly one closed class is reachable.
    """
    n_closed, n_feed, n_away = (int(k) for k in rng.integers(1, 8, size=3))
    n = n_closed + n_feed + n_away
    label = rng.permutation(n)
    closed = label[:n_closed]
    feed = label[n_closed:n_closed + n_feed]
    away = label[n_closed + n_feed:]
    # the ring of a lone closed state is a self-loop, so it is dropped
    triples = [(int(closed[i]), int(closed[j]), r)
               for i, j, r in _random_triples(rng, n_closed) if i != j]
    for k, s in enumerate(feed):
        # each feeder steps to the closed block or to an earlier feeder
        targets = np.concatenate([closed, feed[:k]])
        triples.append((int(s), int(rng.choice(targets)), float(rng.uniform(0.1, 5.0))))
        for _ in range(int(rng.integers(0, 3))):  # extra edges may form transient cycles
            t = int(rng.choice(np.concatenate([closed, feed])))
            if t != s:
                triples.append((int(s), t, float(rng.uniform(0.1, 5.0))))
    for k, s in enumerate(away):
        if n_away > 1:
            triples.append((int(s), int(away[(k + 1) % n_away]), 1.0))
        triples.append((int(s), int(rng.choice(label[:n_closed + n_feed])), 0.5))
    initial = int(rng.choice(label[:n_closed + n_feed]))
    return n, triples, initial


def _floyd_warshall_reachability(n, triples):
    """Reflexive-transitive closure of the transition pattern, by Warshall's
    algorithm: ``reach[i, j]`` iff ``j`` is reachable from ``i``."""
    reach = np.eye(n, dtype=bool)
    for i, j, _ in triples:
        reach[i, j] = True
    for k in range(n):
        for i in range(n):
            if reach[i, k]:
                for j in range(n):
                    if reach[k, j]:
                        reach[i, j] = True
    return reach
