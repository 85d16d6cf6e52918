"""Model-builder, parameter and sweep tests for the two switching variants."""

import numpy as np
import pytest

from abps_toolkit import abps, modlang
from abps_toolkit.abps import (
    AbpsParams,
    build_oracle,
    build_plain,
    default_params,
    evaluate,
    load_params,
    params_from_mapping,
    reference_model_path,
    resolved_rates,
    sweep,
)
from abps_toolkit.ctmc import ValidationError

BINDINGS = {"T_W_minus": 20.0, "T_W_plus": 80.0}


class TestParams:
    def test_energy_table_defaults(self):
        p = default_params()
        assert p.e["UMTS"]["connected"] == 0.62
        assert p.e["WiFi"]["failed"] == 0.15
        assert p.e["UMTS"]["off"] == 0.0

    def test_rate_defaults(self):
        p = default_params()
        assert p.alpha_U == pytest.approx(1 / 6.024)
        assert p.gamma_U == pytest.approx(1 / 600)
        assert p.lambda_U_UW == pytest.approx(1 / 30)
        assert p.tput_U == 0.2 and p.tput_W == 26.0
        assert p.oracle_baseline_power == 0.1
        assert p.idle_connected_fraction == 0.2

    def test_oracle_rates_follow_windows(self):
        p = default_params()
        assert p.lambda_UW_U == pytest.approx(0.025)  # 0.5 * (1/20)
        assert p.lambda_UW_W == pytest.approx(0.025)
        assert p.lambda_W_UW == pytest.approx(1 / 80)
        q = p.with_windows(10.0, 40.0)
        assert q.lambda_UW_U == pytest.approx(0.05)
        assert q.lambda_W_UW == pytest.approx(1 / 40)

    def test_residence_time_identities(self):
        p = default_params()
        assert 1.0 / (p.lambda_UW_U + p.lambda_UW_W) == pytest.approx(p.T_W_minus)
        assert 1.0 / p.lambda_W_UW == pytest.approx(p.T_W_plus)

    def test_window_order_enforced(self):
        with pytest.raises(ValidationError):
            default_params(T_W_minus=50.0, T_W_plus=40.0)
        default_params(T_W_minus=40.0, T_W_plus=40.0)  # equality is allowed

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            default_params(p_W=0.0)
        with pytest.raises(ValidationError):
            default_params(p_U=1.5)

    def test_energy_validation(self):
        bad = {"UMTS": dict(abps.DEFAULT_ENERGY["UMTS"], off=0.5),
               "WiFi": dict(abps.DEFAULT_ENERGY["WiFi"])}
        with pytest.raises(ValidationError):
            default_params(e=bad)

    def test_mapping_overrides(self):
        p = params_from_mapping({"gamma_U": 1 / 500, "e.WiFi.connected": 0.5})
        assert p.gamma_U == pytest.approx(1 / 500)
        assert p.e["WiFi"]["connected"] == 0.5
        assert p.e["UMTS"]["connected"] == 0.62

    def test_mapping_rederives_lambdas_on_window_change(self):
        p = params_from_mapping({"T_W_minus": 10.0})
        assert p.lambda_UW_U == pytest.approx(0.05)

    def test_mapping_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            params_from_mapping({"not_a_field": 1.0})
        with pytest.raises(ValidationError, match="unknown energy"):
            params_from_mapping({"e.UMTS.sleeping": 1.0})

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(
            "# overrides\n"
            "gamma_U = 0.002\n"
            "T_W_minus=10\n"
            "e.UMTS.connected = 0.7\n"
        )
        p = load_params(cfg)
        assert p.gamma_U == 0.002
        assert p.T_W_minus == 10.0
        assert p.e["UMTS"]["connected"] == 0.7

    def test_config_file_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("gamma_U hello\n")
        with pytest.raises(ValidationError):
            load_params(cfg)


class TestBuilders:
    def test_plain_state_count(self):
        assert build_plain(default_params()).chain.n_states == 48

    def test_oracle_state_count_and_partition(self):
        chain = build_oracle(default_params()).chain
        assert chain.n_states == 24
        blocks = {1: [], 2: [], 3: []}
        for i in range(chain.n_states):
            a = chain.assignment(i)
            blocks[a["s_oracle"]].append((a["s_U"], a["s_W"]))
        assert len(blocks[1]) == 4 and all(w == 0 for _, w in blocks[1])
        assert len(blocks[2]) == 16 and all(u != 0 and w != 0 for u, w in blocks[2])
        assert len(blocks[3]) == 4 and all(u == 0 for u, _ in blocks[3])

    def test_impossible_configurations_unreachable(self):
        chain = build_oracle(default_params()).chain
        for state in chain.states:
            a = dict(zip(chain.var_names, state))
            if a["s_oracle"] == 3:
                assert a["s_U"] == 0
            if a["s_oracle"] == 1:
                assert a["s_W"] == 0

    def test_both_connected_energy_by_mode(self):
        p = default_params()
        for mode, expected in (("text", 0.2 * 0.62 + 0.38), ("appendix", 1.0)):
            chain = build_plain(p, mode=mode).chain
            values = {
                chain.rewards["energy"][i]
                for i in range(chain.n_states)
                if chain.value(i, "s_U") == 3 and chain.value(i, "s_W") == 3
            }
            assert len(values) == 1
            assert values.pop() == pytest.approx(expected)

    def test_oracle_off_state_energy(self):
        chain = build_oracle(default_params()).chain
        i = next(
            i for i in range(chain.n_states)
            if chain.assignment(i) == {"s_U": 0, "s_W": 3, "s_oracle": 3}
        )
        assert chain.rewards["energy"][i] == pytest.approx(0.48)

    def test_throughput_rewards(self):
        chain = build_plain(default_params()).chain
        for i in range(chain.n_states):
            u, w = chain.value(i, "s_U"), chain.value(i, "s_W")
            expected = 26.0 if w == 3 else (0.2 if u == 3 else 0.0)
            assert chain.rewards["throughput"][i] == expected

    def test_reward_vectors_match_reference_listings_in_appendix_mode(self):
        # the listings' reward blocks are an independent statement of the
        # energy and throughput rule; the builder tabulates its own
        p = default_params()
        for variant in ("plain", "oracle"):
            spec = modlang.parse_file(reference_model_path(variant))
            for t_minus, t_plus in ((5.0, 40.0), (20.0, 80.0), (40.0, 120.0)):
                point = p.with_windows(t_minus, t_plus)
                built = abps.build(variant, point, mode="appendix").chain
                parsed = modlang.compose(
                    spec, {"T_W_minus": t_minus, "T_W_plus": t_plus}
                )
                assert modlang.equivalent(built, parsed)
                index = {state: i for i, state in enumerate(built.states)}
                order = [parsed.var_names.index(v) for v in built.var_names]
                for j, state in enumerate(parsed.states):
                    i = index[tuple(state[k] for k in order)]
                    for name in ("energy", "throughput"):
                        assert built.rewards[name][i] == parsed.rewards[name][j]

    def test_builder_matches_reference_listing_in_appendix_mode(self):
        p = default_params()
        for variant in ("plain", "oracle"):
            built = abps.build(variant, p, mode="appendix").chain
            parsed = modlang.compose(
                modlang.parse_file(reference_model_path(variant)), BINDINGS
            )
            assert modlang.equivalent(built, parsed)

    def test_builder_spec_prints_as_a_listing_equal_to_the_bundled_one(self):
        # format_model is the builder's listing: it parses back to the same
        # spec, which agrees with the bundled listing at every grid point
        p = default_params()
        for variant in ("plain", "oracle"):
            spec = abps.build(variant, p, mode="appendix").spec
            printed = modlang.parse(modlang.format_model(spec))
            assert printed == spec
            listing = modlang.parse_file(reference_model_path(variant))
            for t_minus in abps.DEFAULT_T_MINUS_GRID:
                for t_plus in abps.DEFAULT_T_PLUS_GRID:
                    point = p.with_windows(t_minus, t_plus)
                    ours = modlang.compose(printed, resolved_rates(point, "appendix"))
                    theirs = modlang.compose(
                        listing, {"T_W_minus": t_minus, "T_W_plus": t_plus}
                    )
                    assert modlang.equivalent(ours, theirs), (variant, t_minus, t_plus)

    def test_one_spec_per_variant_rates_bound_per_point(self):
        a = abps.build("oracle", default_params(), mode="text")
        b = abps.build("oracle", default_params(T_W_minus=10.0), mode="appendix")
        assert a.spec is b.spec
        assert set(a.spec.external_parameters) == set(resolved_rates(default_params(), "text"))

    def test_text_mode_differs_from_reference_listing(self):
        built = build_oracle(default_params(), mode="text").chain
        parsed = modlang.compose(
            modlang.parse_file(reference_model_path("oracle")), BINDINGS
        )
        assert not modlang.equivalent(built, parsed)

    def test_appendix_rates_quirks(self):
        p = default_params()
        rates = resolved_rates(p, "appendix")
        assert rates["lambda_U_UW"] == 30.0
        assert rates["wifi_setup_success"] == pytest.approx(p.beta_W * p.p_U)
        rates = resolved_rates(p, "text")
        assert rates["lambda_U_UW"] == pytest.approx(1 / 30)
        assert rates["wifi_setup_success"] == pytest.approx(p.beta_W * p.p_W)

    def test_bad_variant_and_mode(self):
        with pytest.raises(ValidationError):
            abps.build("hybrid", default_params())
        with pytest.raises(ValidationError):
            abps.build("plain", default_params(), mode="luxe")


class TestEvaluate:
    def test_metric_ranges(self):
        r = evaluate(build_plain(default_params()))
        assert 0.0 <= r.availability <= 1.0
        assert r.power_w >= 0.0
        assert 0.0 <= r.throughput_mbps <= 26.0

    def test_wifi_never_drops_limit(self):
        p = default_params(
            T_W_minus=1e9, T_W_plus=1e9,
            lambda_UW_U=0.025, lambda_UW_W=0.025, lambda_W_UW=1 / 80,
        )
        r = evaluate(build_plain(p))
        assert r.availability == pytest.approx(1.0, abs=1e-6)

    def test_plain_availability_exceeds_oracle(self):
        p = default_params()
        assert (
            evaluate(build_plain(p)).availability
            > evaluate(build_oracle(p)).availability
        )

    def test_appendix_mode_power_ordering_at_defaults(self):
        p = default_params()
        assert (
            evaluate(build_oracle(p, "appendix")).power_w
            < evaluate(build_plain(p, "appendix")).power_w
        )

    def test_evaluate_chain_requires_interface_variables(self):
        spec = modlang.parse(
            "ctmc module m x : [0..1] init 0;"
            " [] x=0 -> 1.0:(x'=1); [] x=1 -> 1.0:(x'=0); endmodule"
        )
        with pytest.raises(ValidationError, match="s_U"):
            abps.evaluate_chain(modlang.compose(spec))


class TestSweep:
    def test_grid_cardinality(self):
        table = sweep(default_params())
        assert len(table.rows) == 24  # 12 points x 2 variants
        assert all(row.metrics is not None for row in table.rows)

    def test_availability_and_throughput_orderings_text_mode(self):
        table = sweep(default_params())
        for tm in abps.DEFAULT_T_MINUS_GRID:
            for tp in abps.DEFAULT_T_PLUS_GRID:
                plain = table.result("plain", tm, tp)
                oracle = table.result("oracle", tm, tp)
                assert plain.availability >= oracle.availability
                assert oracle.throughput_mbps <= plain.throughput_mbps

    def test_all_orderings_appendix_mode(self):
        table = sweep(default_params(), mode="appendix")
        for tm in abps.DEFAULT_T_MINUS_GRID:
            for tp in abps.DEFAULT_T_PLUS_GRID:
                plain = table.result("plain", tm, tp)
                oracle = table.result("oracle", tm, tp)
                assert plain.availability >= oracle.availability
                assert oracle.power_w < plain.power_w
                assert oracle.throughput_mbps <= plain.throughput_mbps

    def test_oracle_availability_monotone_in_short_window(self):
        table = sweep(default_params(), variants=("oracle",))
        for tp in abps.DEFAULT_T_PLUS_GRID:
            column = [
                table.result("oracle", tm, tp).availability
                for tm in abps.DEFAULT_T_MINUS_GRID
            ]
            assert all(a <= b for a, b in zip(column, column[1:]))
            assert column[-1] > column[0]

    def test_throughput_grows_with_longer_windows(self):
        table = sweep(default_params())
        for variant in ("plain", "oracle"):
            low = table.result(variant, 5.0, 40.0).throughput_mbps
            high = table.result(variant, 40.0, 120.0).throughput_mbps
            assert high > low

    def test_metric_ranges_everywhere(self):
        for mode in ("text", "appendix"):
            for row in sweep(default_params(), mode=mode).rows:
                assert 0.0 <= row.metrics.availability <= 1.0
                assert row.metrics.power_w >= 0.0
                assert 0.0 <= row.metrics.throughput_mbps <= 26.0

    def test_invalid_point_recorded_not_fatal(self):
        table = sweep(default_params(), t_minus_values=(80.0,), t_plus_values=(40.0,))
        assert len(table.rows) == 2
        assert all(row.metrics is None and row.error for row in table.rows)

    def test_csv_shape_and_determinism(self, tmp_path):
        table = sweep(default_params())
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "variant,T_W_minus,T_W_plus,availability,power_W,throughput_Mbps"
        assert len(lines) == 25
        assert table.to_csv() == text
        out = tmp_path / "sweep.csv"
        table.write_csv(out)
        assert out.read_text() == text

    def test_csv_error_column_when_needed(self):
        table = sweep(default_params(), t_minus_values=(80.0,), t_plus_values=(40.0,))
        lines = table.to_csv().strip().split("\n")
        assert lines[0].endswith(",error")
        assert "T_W_plus" in lines[1]  # the validation message names the window
