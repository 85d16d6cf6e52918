"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Criterion 5 shares one 30-replication simulation batch
across the cross-validation checks, so the whole suite stays well inside
its runtime budgets.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from abps_toolkit import abps, coverage, modlang, packetsim
from abps_toolkit.abps import (
    DEFAULT_T_MINUS_GRID,
    DEFAULT_T_PLUS_GRID,
    build,
    default_params,
    evaluate,
    reference_model_path,
    sweep,
)
from abps_toolkit.coverage import (
    AccessPoint,
    CoverageEvent,
    EventKind,
    NicActivation,
    TrajectorySample,
    apply_policy,
    classify,
    predict_coverage,
)
from abps_toolkit.ctmc import build_generator, mean_residence_time, steady_state

BINDINGS = {"T_W_minus": 20.0, "T_W_plus": 80.0}
M = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL "
              f"({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} ({name}): PASS ({elapsed:.2f} s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f} s exceeds budget {budget_s} s"


@pytest.fixture(scope="module")
def cross_validation_runs():
    """30 replications x 1e5 s at defaults, both variants (criterion 5)."""
    params = default_params()
    config = packetsim.SimConfig(
        duration=1e5, seed=20120917, data_rate=0.0, replications=30
    )
    started = time.perf_counter()
    runs = {
        variant: packetsim.replicate(params, config, variant)
        for variant in ("plain", "oracle")
    }
    return params, runs, time.perf_counter() - started


def test_criterion_1_fixture_fidelity():
    with criterion(1, "fixture fidelity", budget_s=1.0):
        expected_states = {"plain": 48, "oracle": 24}
        for variant in ("plain", "oracle"):
            spec = modlang.parse_file(reference_model_path(variant))
            parsed = modlang.compose(spec, BINDINGS)
            assert parsed.n_states == expected_states[variant]
            built = build(variant, default_params(), mode="appendix").chain
            report = modlang.equivalent(built, parsed)
            assert report, report.differences[:5]


def test_criterion_2_solver_correctness():
    with criterion(2, "solver correctness", budget_s=10.0):
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            perm = rng.permutation(n)
            triples = [
                (int(perm[k]), int(perm[(k + 1) % n]), float(rng.uniform(0.05, 20.0)))
                for k in range(n)
            ]
            for _ in range(int(rng.integers(0, 2 * n))):
                i, j = (int(x) for x in rng.integers(0, n, size=2))
                if i != j:
                    triples.append((i, j, float(rng.uniform(0.01, 50.0))))
            gen = build_generator(n, triples)
            pi = steady_state(gen, 0).probabilities
            assert np.abs(pi @ gen.to_dense()).max() < 1e-10
            assert abs(pi.sum() - 1.0) <= 1e-12
            assert pi.min() >= 0.0
            scale = float(rng.uniform(1e-3, 1e3))
            scaled = build_generator(n, [(i, j, r * scale) for i, j, r in triples])
            np.testing.assert_allclose(
                steady_state(scaled, 0).probabilities, pi, atol=1e-10
            )
        for _ in range(1000):
            a = float(rng.uniform(1e-3, 1e3))
            b = float(rng.uniform(1e-3, 1e3))
            pi = steady_state(build_generator(2, [(0, 1, a), (1, 0, b)]), 0).probabilities
            assert abs(pi[0] - b / (a + b)) < 1e-12
            assert abs(pi[1] - a / (a + b)) < 1e-12


def test_criterion_3_metric_orderings_text_mode():
    # Known red check: with the text-mode energy rule (idle UMTS billed at
    # 20% of its connected draw while both NICs are up) plus the flat 0.1 W
    # positioning baseline, the oracle variant costs slightly MORE than
    # plain at the larger T_W_minus settings, so the power clause below
    # cannot hold at every grid point. The appendix-compatible reward
    # structure satisfies it everywhere (test_abps.py asserts that); see
    # README "Known red acceptance check". The clause is asserted as stated
    # rather than weakened.
    with criterion(3, "metric orderings over the grid (text mode)", budget_s=5.0):
        table = sweep(default_params(), mode="text")
        violations = []
        for t_minus in DEFAULT_T_MINUS_GRID:
            for t_plus in DEFAULT_T_PLUS_GRID:
                plain = table.result("plain", t_minus, t_plus)
                oracle = table.result("oracle", t_minus, t_plus)
                assert plain.availability >= oracle.availability
                assert oracle.throughput_mbps <= plain.throughput_mbps
                if not (oracle.power_w < plain.power_w):
                    violations.append(
                        f"({t_minus:g},{t_plus:g}): oracle {oracle.power_w:.4f} W"
                        f" >= plain {plain.power_w:.4f} W"
                    )
        for t_plus in DEFAULT_T_PLUS_GRID:
            column = [
                table.result("oracle", t_minus, t_plus).availability
                for t_minus in DEFAULT_T_MINUS_GRID
            ]
            assert all(x <= y for x, y in zip(column, column[1:]))
        assert not violations, (
            "power_oracle < power_plain fails under the text-mode energy rule at: "
            + "; ".join(violations)
        )


def test_criterion_4_impossible_states():
    with criterion(4, "impossible configurations unreachable", budget_s=5.0):
        model = build("oracle", default_params())
        chain = model.chain
        dist = evaluate(model).distribution

        def impossible(assignment):
            return (assignment["s_oracle"] == 3 and assignment["s_U"] != 0) or (
                assignment["s_oracle"] == 1 and assignment["s_W"] != 0
            )

        assert not [i for i in range(chain.n_states) if impossible(chain.assignment(i))]
        mass = sum(
            dist.probabilities[i]
            for i in range(chain.n_states)
            if impossible(chain.assignment(i))
        )
        assert mass == 0.0


def test_criterion_5_cross_validation(cross_validation_runs):
    params, runs, sim_elapsed = cross_validation_runs
    with criterion(5, "simulation cross-validation 30 x 1e5 s", budget_s=120.0):
        assert sim_elapsed < 115.0
        for variant, rep in runs.items():
            analytic = evaluate(build(variant, params))
            for metric, reference in (
                ("availability", analytic.availability),
                ("power_w", analytic.power_w),
                ("throughput_mbps", analytic.throughput_mbps),
                ("sojourn_O_W", params.T_W_plus),
                ("sojourn_O_UW", params.T_W_minus),
            ):
                stat = rep.stats[metric]
                assert abs(stat.mean - reference) <= 3.0 * stat.se, (
                    f"{variant} {metric}: analytic {reference:.6f}, "
                    f"simulated {stat.mean:.6f} +- {stat.se:.2g}"
                )


def test_oracle_residence_times_match_exit_rates(cross_validation_runs):
    # mean residence = 1 / (sum of outgoing rates), checked against the
    # empirical sojourns of the three oracle states
    params, runs, _ = cross_validation_runs
    rates = abps.resolved_rates(params, "text")
    oracle_chain = build_generator(
        3,
        [
            (0, 1, rates["lambda_U_UW"]),      # O_U  -> O_UW
            (1, 0, rates["lambda_UW_U"]),      # O_UW -> O_U
            (1, 2, rates["lambda_UW_W"]),      # O_UW -> O_W
            (2, 1, rates["lambda_W_UW"]),      # O_W  -> O_UW
        ],
    )
    expected = {
        "sojourn_O_U": mean_residence_time(oracle_chain, 0),
        "sojourn_O_UW": mean_residence_time(oracle_chain, 1),
        "sojourn_O_W": mean_residence_time(oracle_chain, 2),
    }
    assert expected["sojourn_O_UW"] == pytest.approx(params.T_W_minus)
    assert expected["sojourn_O_W"] == pytest.approx(params.T_W_plus)
    for variant in ("plain", "oracle"):
        for metric, reference in expected.items():
            stat = runs[variant].stats[metric]
            assert abs(stat.mean - reference) <= 3.0 * stat.se, (variant, metric, stat)


def test_empirical_occupancy_close_to_stationary(cross_validation_runs):
    # total variation between pooled empirical occupancy and the analytic
    # distribution, both variants
    params, runs, _ = cross_validation_runs
    for variant, rep in runs.items():
        model = build(variant, params)
        analytic = {
            tuple(model.chain.states[i]): p
            for i, p in enumerate(evaluate(model).distribution.probabilities)
        }
        pooled: dict[tuple, float] = {}
        for run in rep.runs:
            for key, frac in run.occupancy.items():
                pooled[key] = pooled.get(key, 0.0) + frac / len(rep.runs)
        tv = 0.5 * sum(
            abs(pooled.get(k, 0.0) - analytic.get(k, 0.0))
            for k in set(pooled) | set(analytic)
        )
        assert tv < 0.02, f"{variant}: TV distance {tv:.4f}"


def test_compare_command_at_full_defaults(capsys):
    # the command-line cross-validation harness at its stock settings:
    # both variants, 30 replications of 1e5 s, all comparisons must pass
    from abps_toolkit import cli

    code = cli.main(["compare", "--seed", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("pass") == 6 and "FAIL" not in out


def test_criterion_6_policy_table():
    with criterion(6, "activation policy table", budget_s=1.0):
        table = {
            EventKind.EV_NO_WIFI: NicActivation(active_wifi=False, active_umts=True),
            EventKind.EV_SHORT_WIFI: NicActivation(active_wifi=True, active_umts=True),
            EventKind.EV_LONG_WIFI: NicActivation(active_wifi=True, active_umts=False),
        }
        for kind, expected in table.items():
            active = apply_policy(CoverageEvent(0.0, kind))
            assert active == expected
            assert active.active_wifi or active.active_umts
        assert len(table) == len(EventKind)  # exhaustive: no fourth event


def test_criterion_7_coverage_use_cases():
    with criterion(7, "coverage classifier use cases", budget_s=5.0):
        walk = [TrajectorySample(t, 0.0, t * M) for t in range(0, 361)]
        corridor = [
            AccessPoint(f"campus-{i}", 0.0, x * M, radius_m=60.0, group="campusnet")
            for i, x in enumerate((40, 120, 200, 280), start=1)
        ]
        events = classify(predict_coverage(walk, corridor), threshold_s=40.0)
        long_events = [e for e in events if e.kind is EventKind.EV_LONG_WIFI]
        assert len(long_events) == 1
        assert apply_policy(long_events[0]) == NicActivation(True, False)
        assert long_events[0].duration == pytest.approx(340.0, abs=0.5)

        walk = [TrajectorySample(t, 0.0, t * M) for t in range(0, 501)]
        endpoints = [
            AccessPoint("park-wifi", 0.0, 30 * M, radius_m=50.0),
            AccessPoint("corner-shop", 0.0, 470 * M, radius_m=50.0),
        ]
        timeline = predict_coverage(walk, endpoints)
        assert [iv.covered for iv in timeline] == [True, False, True]
        events = classify(timeline, threshold_s=40.0)
        middle = events[1]
        assert middle.kind is EventKind.EV_NO_WIFI
        assert apply_policy(middle) == NicActivation(False, True)


def test_criterion_8_simulator_integrity():
    with criterion(8, "simulator delivery integrity", budget_s=30.0):
        params = default_params()
        config = packetsim.SimConfig(
            duration=1000.0, seed=77, data_rate=20.0,
            ack_timeout=0.1, ack_delay=0.25,
        )
        delivered: list[int] = []

        def trace(t, entity, event, detail):
            if entity == "app" and event == "deliver":
                delivered.append(int(detail.split("=")[1]))

        metrics = packetsim.simulate(params, config, "oracle", trace=trace)
        assert metrics.duplicates > 0, "aggressive timeout must provoke duplicates"
        assert metrics.retransmissions > 0
        assert delivered == sorted(set(delivered)), "in-order, duplicate-free delivery"
        assert len(delivered) == metrics.delivered_in_order

        again = packetsim.simulate(params, config, "oracle")
        assert again == metrics, "same seed must give bit-identical metrics"
        assert packetsim.simulate(params, config, "plain") == packetsim.simulate(
            params, config, "plain"
        )
