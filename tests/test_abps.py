"""Model-builder, parameter and sweep tests for the two switching variants."""

from dataclasses import replace

import numpy as np
import pytest

from abps_toolkit import abps, modlang
from abps_toolkit.abps import (
    AbpsParams,
    build_oracle,
    build_plain,
    default_params,
    evaluate,
    params_from_mapping,
    read_entries,
    reference_model_path,
    resolved_rates,
    sweep,
)
from abps_toolkit.ctmc import StructureError, ValidationError

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
        rates = resolved_rates(p, "text")
        assert rates["lambda_UW_U"] == pytest.approx(0.025)  # 0.5 * (1/20)
        assert rates["lambda_UW_W"] == pytest.approx(0.025)
        assert rates["lambda_W_UW"] == pytest.approx(1 / 80)
        rates = resolved_rates(replace(p, T_W_minus=10.0, T_W_plus=40.0), "text")
        assert rates["lambda_UW_U"] == pytest.approx(0.05)
        assert rates["lambda_W_UW"] == pytest.approx(1 / 40)
        # the fields keep what was given; a pinned rate holds when the windows move
        assert p.lambda_UW_U is None
        pinned = replace(default_params(lambda_UW_U=0.5), T_W_minus=10.0, T_W_plus=40.0)
        rates = resolved_rates(pinned, "text")
        assert (rates["lambda_UW_U"], rates["lambda_UW_W"]) == (0.5, 0.5 * (1.0 / 10.0))

    def test_residence_time_identities(self):
        p = default_params()
        rates = resolved_rates(p, "text")
        assert 1.0 / (rates["lambda_UW_U"] + rates["lambda_UW_W"]) == pytest.approx(p.T_W_minus)
        assert 1.0 / rates["lambda_W_UW"] == pytest.approx(p.T_W_plus)

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

    @pytest.mark.parametrize("key, value", [
        ("e.UMTS.connected", float("nan")),
        ("e.WiFi.setup", float("inf")),
        ("e.WiFi.failed", -0.1),
        ("tput_W", float("nan")),
        ("tput_U", -1.0),
        ("oracle_baseline_power", float("inf")),
    ])
    def test_amounts_must_be_nonnegative_and_finite(self, key, value):
        # a NaN passes a ``v < 0`` check, and a sweep of it printed nan or errors
        with pytest.raises(ValidationError) as err:
            params_from_mapping({key: value})
        assert str(err.value) == f"{key} must be nonnegative and finite, got {value!r}"

    def test_short_window_whose_rate_overflows_is_named(self):
        pins = {"lambda_UW_U": 0.5, "lambda_UW_W": 0.02, "lambda_W_UW": 0.01}
        with pytest.raises(ValidationError, match=r"^1/T_W_minus must be finite, got "
                                                  r"T_W_minus=1e-320$"):
            default_params(**pins, T_W_minus=1e-320, T_W_plus=1.0)
        # a zero rate out of WiFi-only is a fair limit, and solves
        p = default_params(lambda_W_UW=0.01, T_W_plus=float("inf"))
        assert 0.0 < evaluate(build_plain(p)).availability < 1.0

    def test_mapping_overrides(self):
        p = params_from_mapping({"gamma_U": 1 / 500, "e.WiFi.connected": 0.5})
        assert p.gamma_U == pytest.approx(1 / 500)
        assert p.e["WiFi"]["connected"] == 0.5
        assert p.e["UMTS"]["connected"] == 0.62

    def test_mapping_rederives_lambdas_on_window_change(self):
        p = params_from_mapping({"T_W_minus": 10.0})
        assert resolved_rates(p, "text")["lambda_UW_U"] == pytest.approx(0.05)

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
        entries = read_entries(cfg)
        assert entries == {"gamma_U": 0.002, "T_W_minus": 10.0, "e.UMTS.connected": 0.7}
        p = params_from_mapping(entries)
        assert p.gamma_U == 0.002
        assert p.T_W_minus == 10.0
        assert p.e["UMTS"]["connected"] == 0.7
        # file entries and then flags, the flags winning, are the same
        # parameters as every entry given as a flag: a pin in the file holds
        # when a flag moves a window, and a window in the file is checked
        # against the window a flag gives
        for file_entries, flags in (
            ({"lambda_UW_U": 0.5}, {"T_W_minus": 10.0}),
            ({"T_W_minus": 100.0, "gamma_U": 0.002}, {"T_W_plus": 200.0, "gamma_U": 0.003}),
        ):
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in file_entries.items()))
            merged = read_entries(cfg)
            merged.update(flags)
            assert params_from_mapping(merged) == params_from_mapping({**file_entries, **flags})

    def test_config_file_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("gamma_U hello\n")
        with pytest.raises(ValidationError):
            read_entries(cfg)
        cfg.write_text("# rates\n\ngamma_U = 0.002\nmu_U = fast # per second\n")
        with pytest.raises(ValidationError) as err:
            read_entries(cfg)
        assert str(err.value) == f"{cfg}:4: non-numeric value for 'mu_U': 'fast'"
        cfg.write_bytes(b"T_W_minus = 10\ngamma_U = 0.002 # caf\xe9\n")
        with pytest.raises(ValidationError, match=r"params\.cfg:2: byte 0xe9 is not UTF-8$"):
            read_entries(cfg)


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
                point = replace(p, T_W_minus=t_minus, T_W_plus=t_plus)
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
                    point = replace(p, T_W_minus=t_minus, T_W_plus=t_plus)
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

    def test_availability_of_phases_outside_the_builders_range(self):
        # s_U takes 2, 3 and 6 and s_W 5 and 6: availability is still the
        # mass of the states with an interface in phase 3, connected
        spec = modlang.parse(
            "ctmc module m s_U : [2..6] init 2; s_W : [5..6] init 5;"
            " [] s_U=2 -> 1.0:(s_U'=3); [] s_U=3 -> 3.0:(s_U'=6);"
            " [] s_U=6 -> 2.0:(s_U'=2)&(s_W'=11-s_W); endmodule"
            " rewards \"energy\" true : 1; endrewards"
            " rewards \"throughput\" true : 1; endrewards"
        )
        chain = modlang.compose(spec)
        result = abps.evaluate_chain(chain)
        u = chain.var_names.index("s_U")
        mass = sum(p for s, p in zip(chain.states, result.distribution.probabilities)
                   if s[u] == abps.PHASE_CONNECTED)
        assert len(chain.states) == 6
        assert result.availability == pytest.approx(mass) and 0.0 < mass < 1.0


#: Non-default values of every field the state functions read.
OTHER_REWARDS = dict(
    e={**abps.DEFAULT_ENERGY, "WiFi": {**abps.DEFAULT_ENERGY["WiFi"], "connected": 0.45}},
    tput_U=0.3, tput_W=11.0, oracle_baseline_power=0.25, idle_connected_fraction=0.5,
)


class TestPhaseTable:
    @pytest.mark.parametrize("overrides", [{}, OTHER_REWARDS], ids=["default", "other"])
    @pytest.mark.parametrize("mode", abps.MODES)
    @pytest.mark.parametrize("variant", abps.VARIANTS)
    def test_table_is_the_state_functions(self, overrides, mode, variant):
        p = default_params(**overrides)
        table = abps._derived(p, abps._phase_table, mode, variant)
        for u in range(5):
            for w in range(5):
                assert table[0, u, w] == float(abps.state_available(u, w))
                assert table[1, u, w] == abps.state_power(u, w, p, mode, variant)
                assert table[2, u, w] == abps.state_throughput(u, w, p)
        assert not table.flags.writeable
        assert abps._derived(p, abps._phase_table, mode, variant) is table

    def test_builder_rewards_are_the_state_functions(self):
        p = default_params(**OTHER_REWARDS)
        for variant in abps.VARIANTS:
            chain = abps.build(variant, p, "text").chain
            u, w = chain.var_names.index("s_U"), chain.var_names.index("s_W")
            assert chain.rewards["energy"].tolist() == [
                abps.state_power(s[u], s[w], p, "text", variant) for s in chain.states]
            assert chain.rewards["throughput"].tolist() == [
                abps.state_throughput(s[u], s[w], p) for s in chain.states]


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

    def test_singular_solve_recorded_as_error_row(self, monkeypatch):
        # the stacked solve fails as a whole, then each point alone
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        table = sweep(default_params(), t_minus_values=(20.0,), t_plus_values=(80.0,))
        assert [(row.metrics, row.error) for row in table.rows] == [
            (None, "stationary solve is singular")] * 2

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


class TestSweepBatch:
    """A sweep solves each variant's grid in one batch and evaluates the
    points the batch leaves out one by one; every row must equal the point
    evaluated alone, metrics bit for bit and errors word for word."""

    SPECIAL = [0.0, -0.0, float("nan"), float("inf"), 1e-320, 20.0]

    @staticmethod
    def alone(params, variant, mode, t_minus, t_plus):
        try:
            point = replace(params, T_W_minus=t_minus, T_W_plus=t_plus)
            m = evaluate(abps.build(variant, point, mode))
        except (ValidationError, StructureError, modlang.ModelError) as err:
            return None, str(err)
        return (repr((m.availability, m.power_w, m.throughput_mbps)),
                m.distribution.probabilities.tobytes()), None

    @pytest.mark.parametrize("mode", ["text", "appendix"])
    # p_U = 1 zeroes a rate; with every oracle rate pinned, only the gammas follow the windows
    @pytest.mark.parametrize("overrides", [
        {}, {"p_U": 1.0}, {"lambda_UW_U": 0.5, "lambda_UW_W": 0.02, "lambda_W_UW": 0.01}])
    def test_random_grid_equals_points_alone(self, mode, overrides):
        rng = np.random.default_rng(2011)
        params = default_params(**overrides)
        # the special values come first, so (inf, inf), whose oracle rates
        # are 0, is the first point that passes the window-order check
        t_minus = self.SPECIAL + [float(t) for t in rng.uniform(0.5, 120.0, 7).round(2)]
        t_plus = self.SPECIAL + [float(t) for t in rng.uniform(0.5, 300.0, 7).round(2)]
        table = sweep(params, t_minus, t_plus, mode=mode)
        assert len(table.rows) == 2 * len(t_minus) * len(t_plus)
        solved = 0
        for row in table.rows:
            metrics, error = self.alone(params, row.variant, mode, row.T_W_minus, row.T_W_plus)
            if row.metrics is None:
                assert (metrics, row.error) == (None, error)
            else:
                m = row.metrics
                got = (repr((m.availability, m.power_w, m.throughput_mbps)),
                       m.distribution.probabilities.tobytes())
                assert (got, row.error) == (metrics, None)
                solved += 1
        assert 0 < solved < len(table.rows)

    @pytest.mark.parametrize("mode", ["text", "appendix"])
    def test_pinned_rates_hold_at_every_point(self, mode):
        unpinned = sweep(default_params(), (20.0, 10.0), (80.0, 40.0), mode=mode)
        for pin in ({"lambda_UW_U": 0.5}, {"lambda_UW_W": 0.5}, {"lambda_W_UW": 0.5}):
            params = default_params(**pin)
            table = sweep(params, (20.0, 10.0), (80.0, 40.0), mode=mode)
            for row, free in zip(table.rows, unpinned.rows):
                m = row.metrics
                got = (repr((m.availability, m.power_w, m.throughput_mbps)),
                       m.distribution.probabilities.tobytes())
                assert (got, None) == self.alone(params, row.variant, mode,
                                                 row.T_W_minus, row.T_W_plus)
                if row.variant == "oracle":
                    assert m.availability != free.metrics.availability

    def test_energy_table_edited_after_construction(self):
        # the params keep read-only copies of the table they checked
        source = {nic: dict(row) for nic, row in abps.DEFAULT_ENERGY.items()}
        params = default_params(e=source)
        with pytest.raises(TypeError):
            params.e["UMTS"]["off"] = 0.5
        with pytest.raises(TypeError):
            params.e["UMTS"] = {}
        with pytest.raises(TypeError):
            abps.DEFAULT_ENERGY["UMTS"]["connected"] = 5.0
        source["UMTS"]["off"] = 0.5
        assert params.e["UMTS"]["off"] == 0.0
        table = sweep(params, (5.0, 20.0), (80.0,))
        assert all(row.error is None for row in table.rows)
        assert table.to_csv() == sweep(default_params(), (5.0, 20.0), (80.0,)).to_csv()

    def test_windows_that_are_not_floats_go_point_by_point(self):
        floats = sweep(default_params(), (5.0, 20.0), (80.0,))
        ints = sweep(default_params(), (5, 20), (80,))
        assert ints.to_csv() == floats.to_csv()
