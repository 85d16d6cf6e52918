"""Parser and composer tests, including the shipped reference listings."""

import copy
import itertools

import numpy as np
import pytest

from abps_toolkit import abps, modlang
from abps_toolkit.modlang import (
    Branch,
    Command,
    CompositionError,
    DuplicateDeclarationError,
    InitOutOfRangeError,
    ModelSpec,
    ModuleSpec,
    Num,
    ParseError,
    UnboundParameterError,
    UndeclaredIdentifierError,
    Update,
    Variable,
    compose,
    equivalent,
    format_model,
    parse,
)
from abps_toolkit.abps import default_params, reference_model_path, resolved_rates

BINDINGS = {"T_W_minus": 20.0, "T_W_plus": 80.0}


def parse_reference(variant):
    return modlang.parse_file(reference_model_path(variant))


class TestParse:
    def test_plain_listing_structure(self):
        spec = parse_reference("plain")
        assert [m.name for m in spec.modules] == ["umts", "wifi", "oracle"]
        assert set(spec.external_parameters) == {"T_W_plus", "T_W_minus"}
        assert set(spec.rewards) == {"energy", "throughput"}

    def test_oracle_listing_umts_commands(self):
        spec = parse_reference("oracle")
        umts = spec.modules[0]
        assert umts.name == "umts"
        assert len(umts.commands) == 6
        labels = [c.label for c in umts.commands if c.label]
        assert labels == ["umts_0", "umts_1"]

    def test_init_out_of_range(self):
        with pytest.raises(InitOutOfRangeError):
            parse("ctmc module m x : [1..2] init 3; endmodule")

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse("ctmc\nmodule m\n  x : [0..1] init 0\nendmodule")
        assert "line 4" in str(err.value)

    def test_requires_ctmc_marker(self):
        with pytest.raises(ParseError, match="ctmc"):
            parse("module m x : [0..1] init 0; endmodule")

    def test_duplicate_variable(self):
        text = """ctmc
        module a x : [0..1] init 0; endmodule
        module b x : [0..1] init 0; endmodule
        """
        with pytest.raises(DuplicateDeclarationError):
            parse(text)

    def test_undeclared_identifier(self):
        text = "ctmc module m x : [0..1] init 0; [] x=0 -> mystery:(x'=1); endmodule"
        with pytest.raises(UndeclaredIdentifierError, match="mystery"):
            parse(text)

    def test_unknown_construct_rejected(self):
        with pytest.raises(ParseError):
            parse("ctmc label \"foo\" = true;")

    def test_unknown_operator_rejected(self):
        with pytest.raises(ParseError):
            parse("ctmc formula f = 1 < 2;")

    def test_formulas_inlined(self):
        text = """ctmc
        module m x : [0..3] init 0;
          [] x=0 -> 1.0:(x'=1);
          [] x!=0 -> 2.0:(x'=0);
        endmodule
        formula busy = x != 0;
        rewards "load" busy : 5.0; endrewards
        """
        spec = parse(text)
        item = spec.rewards["load"][0]
        assert modlang._idents(item.guard) == {"x"}

    def test_line_comments_ignored(self):
        spec = parse("ctmc // a model\n// nothing else\n")
        assert spec.kind == "ctmc"


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["plain", "oracle"])
    def test_reference_listings(self, variant):
        spec = parse_reference(variant)
        assert parse(format_model(spec)) == spec

    def test_rateless_branches_survive(self):
        text = """ctmc
        module m x : [0..1] init 0;
          [go] x=0 -> (x'=1);
          [] x=1 -> 0.5:(x'=0);
        endmodule
        """
        spec = parse(text)
        assert parse(format_model(spec)) == spec
        assert spec.modules[0].commands[0].branches[0].rate is None


def two_state_module(name, var, rate_there, rate_back):
    return ModuleSpec(
        name,
        (Variable(var, 0, 1, 0),),
        (
            Command(
                None,
                modlang.Binary("=", modlang.Ident(var), Num(0.0)),
                (Branch(Num(rate_there), (Update(var, Num(1.0)),)),),
            ),
            Command(
                None,
                modlang.Binary("=", modlang.Ident(var), Num(1.0)),
                (Branch(Num(rate_back), (Update(var, Num(0.0)),)),),
            ),
        ),
    )


def model_of(*modules, constants=None, rewards=None):
    return ModelSpec("ctmc", dict(constants or {}), {}, tuple(modules), dict(rewards or {}))


class TestCompose:
    def test_independent_modules_interleave(self):
        spec = model_of(
            two_state_module("a", "x", 1.0, 1.0),
            two_state_module("b", "y", 2.0, 2.0),
        )
        chain = compose(spec)
        assert chain.n_states == 4
        idx = {chain.states[i]: i for i in range(4)}
        assert chain.generator.rate(idx[(0, 0)], idx[(1, 0)]) == 1.0
        assert chain.generator.rate(idx[(0, 0)], idx[(0, 1)]) == 2.0
        assert chain.generator.rate(idx[(0, 0)], idx[(1, 1)]) == 0.0

    def test_unlabeled_composition_is_disjoint_union_of_lifted_transitions(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            mods, chains = [], []
            for mi in range(int(rng.integers(2, 4))):
                size = int(rng.integers(2, 4))
                var = f"v{mi}"
                cmds = []
                local = []
                for s in range(size):
                    t = (s + 1) % size
                    r = float(rng.uniform(0.1, 5.0))
                    local.append((s, t, r))
                    if rng.random() < 0.5 and size > 2:
                        t2 = (s + 2) % size
                        r2 = float(rng.uniform(0.1, 5.0))
                        local.append((s, t2, r2))
                for s, t, r in local:
                    cmds.append(
                        Command(
                            None,
                            modlang.Binary("=", modlang.Ident(var), Num(float(s))),
                            (Branch(Num(r), (Update(var, Num(float(t))),)),),
                        )
                    )
                mods.append(ModuleSpec(f"m{mi}", (Variable(var, 0, size - 1, 0),), tuple(cmds)))
                chains.append((var, size, local))
            chain = compose(model_of(*mods))

            # oracle: lift every module transition over the full product space
            sizes = [size for _, size, _ in chains]
            expected = {}
            for point in itertools.product(*[range(s) for s in sizes]):
                for mi, (_, _, local) in enumerate(chains):
                    for s, t, r in local:
                        if point[mi] == s:
                            dst = list(point)
                            dst[mi] = t
                            key = (tuple(point), tuple(dst))
                            expected[key] = expected.get(key, 0.0) + r
            got = {
                (chain.states[i], chain.states[j]): r
                for (i, j), r in chain.generator.entries.items()
            }
            assert chain.n_states == int(np.prod(sizes))
            assert set(got) == set(expected)
            for key in expected:
                assert got[key] == pytest.approx(expected[key], abs=1e-12)

    def test_sync_rate_is_product(self):
        a = ModuleSpec(
            "a",
            (Variable("x", 0, 1, 0),),
            (
                Command(
                    "tick",
                    modlang.Binary("=", modlang.Ident("x"), Num(0.0)),
                    (Branch(Num(3.0), (Update("x", Num(1.0)),)),),
                ),
                Command(
                    None,
                    modlang.Binary("=", modlang.Ident("x"), Num(1.0)),
                    (Branch(Num(1.0), (Update("x", Num(0.0)),)),),
                ),
            ),
        )
        b = ModuleSpec(
            "b",
            (Variable("y", 0, 1, 0),),
            (
                Command(
                    "tick",
                    modlang.Binary("=", modlang.Ident("y"), Num(0.0)),
                    (Branch(Num(5.0), (Update("y", Num(1.0)),)),),
                ),
                Command(
                    None,
                    modlang.Binary("=", modlang.Ident("y"), Num(1.0)),
                    (Branch(Num(1.0), (Update("y", Num(0.0)),)),),
                ),
            ),
        )
        chain = compose(model_of(a, b))
        idx = {chain.states[i]: i for i in range(chain.n_states)}
        assert chain.generator.rate(idx[(0, 0)], idx[(1, 1)]) == pytest.approx(15.0, abs=1e-12)
        # no solo moves for the synchronized label
        assert chain.generator.rate(idx[(0, 0)], idx[(1, 0)]) == 0.0
        assert chain.generator.rate(idx[(0, 0)], idx[(0, 1)]) == 0.0

    def test_singleton_label_behaves_as_unlabeled(self):
        a = two_state_module("a", "x", 1.0, 1.0)
        lone = ModuleSpec(
            "b",
            (Variable("y", 0, 1, 0),),
            (
                Command(
                    "solo",
                    modlang.Binary("=", modlang.Ident("y"), Num(0.0)),
                    (Branch(Num(4.0), (Update("y", Num(1.0)),)),),
                ),
                Command(
                    None,
                    modlang.Binary("=", modlang.Ident("y"), Num(1.0)),
                    (Branch(Num(1.0), (Update("y", Num(0.0)),)),),
                ),
            ),
        )
        chain = compose(model_of(a, lone))
        idx = {chain.states[i]: i for i in range(chain.n_states)}
        assert chain.generator.rate(idx[(0, 0)], idx[(0, 1)]) == 4.0

    def test_state_count_bounded_by_range_product(self):
        spec = parse_reference("oracle")
        chain = compose(spec, BINDINGS)
        bound = 1
        for v in spec.variables():
            bound *= v.high - v.low + 1
        assert chain.n_states <= bound

    def test_reference_oracle_reachability_and_forced_off(self):
        chain = compose(parse_reference("oracle"), BINDINGS)
        assert chain.n_states == 24
        pos = {v: k for k, v in enumerate(chain.var_names)}
        for (i, j), rate in chain.generator.entries.items():
            src, dst = chain.states[i], chain.states[j]
            if src[pos["s_oracle"]] == 2 and dst[pos["s_oracle"]] == 3:
                assert dst[pos["s_U"]] == 0  # moving to WiFi-only shuts UMTS down

    def test_reference_plain_reachability(self):
        chain = compose(parse_reference("plain"), BINDINGS)
        assert chain.n_states == 48

    def test_unbound_parameter(self):
        spec = parse_reference("plain")
        with pytest.raises(UnboundParameterError, match="T_W"):
            compose(spec, {"T_W_minus": 20.0})

    def test_unknown_binding_rejected(self):
        spec = parse_reference("plain")
        with pytest.raises(CompositionError, match="nope"):
            compose(spec, dict(BINDINGS, nope=1.0))

    def test_self_loops_dropped(self):
        text = """ctmc
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=0) + 2.0:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        """
        chain = compose(parse(text))
        assert all(i != j for i, j in chain.generator.entries)
        assert chain.generator.rate(0, 1) == 2.0

    def test_negative_rate_in_reachable_state(self):
        text = """ctmc
        const double r = -1.0;
        module m x : [0..1] init 0;
          [] x=0 -> r:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        """
        with pytest.raises(CompositionError, match="negative rate"):
            compose(parse(text))

    def test_division_by_zero_names_expression(self):
        text = """ctmc
        const double w;
        module m x : [0..1] init 0;
          [] x=0 -> 1/w:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        """
        with pytest.raises(CompositionError, match=r"division by zero in \(1\.0 / w\)"):
            compose(parse(text), {"w": 0.0})

    def test_out_of_range_update(self):
        text = """ctmc
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=2);
        endmodule
        """
        with pytest.raises(CompositionError, match="outside"):
            compose(parse(text))

    def test_non_finite_update_rejected(self):
        text = """ctmc
        const double big = 1e308;
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=big*10);
        endmodule
        """
        with pytest.raises(CompositionError, match="non-integer inf"):
            compose(parse(text))

    def test_conditional_rate_reads_other_module(self):
        text = """ctmc
        module a x : [0..1] init 0;
          [] x=0 -> (y=1 ? 9.0 : 1.0):(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        module b y : [0..1] init 1;
          [] y=1 -> 0.5:(y'=0);
          [] y=0 -> 0.5:(y'=1);
        endmodule
        """
        chain = compose(parse(text))
        idx = {chain.states[i]: i for i in range(chain.n_states)}
        assert chain.generator.rate(idx[(0, 1)], idx[(1, 1)]) == 9.0
        assert chain.generator.rate(idx[(0, 0)], idx[(1, 0)]) == 1.0

    def test_rewards_accumulate_additively(self):
        text = """ctmc
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        rewards "r"
          true : 0.5;
          x=1 : 2.0;
        endrewards
        """
        chain = compose(parse(text))
        idx = {chain.states[i]: i for i in range(chain.n_states)}
        assert chain.rewards["r"][idx[(0,)]] == 0.5
        assert chain.rewards["r"][idx[(1,)]] == 2.5


def snapshot(chain):
    """Everything a composed chain carries, bit for bit."""
    return (chain.var_names, chain.states, chain.initial, chain.generator.q.tobytes(),
            {name: vec.tobytes() for name, vec in chain.rewards.items()})


def outcome(spec, bindings):
    try:
        return snapshot(compose(spec, bindings))
    except modlang.ModelError as err:
        return type(err), str(err)


class TestCompiledCompose:
    """compose reuses a spec's compiled structure; every call must still
    equal a compile from scratch (a deep copy is a spec never seen before)."""

    def warm_then_fresh(self, spec, *bindings_seq):
        outcomes = []
        for bindings in bindings_seq:
            warm = outcome(spec, bindings)
            assert warm == outcome(copy.deepcopy(spec), bindings)
            outcomes.append(warm)
        return outcomes

    @pytest.mark.parametrize("variant", ["plain", "oracle"])
    @pytest.mark.parametrize("mode", ["text", "appendix"])
    @pytest.mark.parametrize("certain", ["p_U", "p_W"])
    def test_certain_setup_drops_fail_transitions(self, variant, mode, certain):
        # p = 1 zeroes a setup-fail rate, which removes its transitions
        spec = abps.build(variant, default_params(), mode).spec
        usual = resolved_rates(default_params(), mode)
        sure = resolved_rates(default_params(**{certain: 1.0}), mode)
        before, after, again = self.warm_then_fresh(spec, usual, sure, usual)
        assert before == again
        q_before, q_after = (np.frombuffer(o[3]).reshape(len(o[1]), -1) for o in (before, after))
        assert np.count_nonzero(q_after) < np.count_nonzero(q_before)

    def test_guard_and_update_constants_change_the_states(self):
        spec = parse("""ctmc
        const double k;
        const double r;
        module m x : [0..3] init 0;
          [] x=0 -> r:(x'=k);
          [] x!=0 -> 1.0:(x'=0);
        endmodule
        module n y : [0..1] init 0;
          [] y=0 & k=2 -> 1.0:(y'=1);
          [] y=1 -> 2.0:(y'=0);
        endmodule
        rewards "r"
          x=k : 1.0;
          y=1 : r;
        endrewards
        """)
        seq = [{"k": 1, "r": 0.5}, {"k": 2, "r": 0.5}, {"k": 3, "r": 2.0},
               {"k": 2, "r": 0.0}, {"k": 1, "r": 0.5}, {"k": 2.5, "r": 1.0}]
        results = self.warm_then_fresh(spec, *seq)
        states = [set(r[1]) if len(r) == 5 else r for r in results]
        assert states[0] == {(0, 0), (1, 0)}
        assert states[1] == {(0, 0), (2, 0), (0, 1), (2, 1)}
        assert states[2] == {(0, 0), (3, 0)}
        assert states[3] == {(0, 0), (0, 1)}  # r = 0: x never leaves 0
        assert results[4] == results[0]
        for bindings, result in zip(seq[:5], results):
            rewards = np.frombuffer(result[4]["r"])
            expected = [(x == bindings["k"]) * 1.0 + (y == 1) * bindings["r"]
                        for x, y in result[1]]
            assert rewards.tolist() == expected
        assert results[5] == (CompositionError,
                              "update of 'x' in module 'm' produced non-integer 2.5")

    def test_errors_keep_their_text(self):
        spec = parse("""ctmc
        const double a;
        const double b;
        const double w;
        module m x : [0..2] init 0;
          [] x=0 -> a:(x'=1);
          [] x=1 -> b:(x'=2);
          [] x=2 -> 1/w:(x'=0);
        endmodule
        """)
        ok, hidden, negative, division, again = self.warm_then_fresh(
            spec,
            {"a": 1.0, "b": 1.0, "w": 1.0},
            {"a": 0.0, "b": -1.0, "w": 1.0},  # the negative rate is never reached
            {"a": 1.0, "b": -1.0, "w": 1.0},
            {"a": 1.0, "b": 1.0, "w": 0.0},
            {"a": 1.0, "b": 1.0, "w": 1.0},
        )
        assert len(ok[1]) == 3 and hidden[1] == ((0,),)
        assert negative == (CompositionError,
                            "negative rate -1.0 in module 'm' (rate b)")
        assert division == (CompositionError, "division by zero in (1.0 / w)")
        assert again == ok

    def test_listing_division_by_zero_after_warm_cache(self):
        spec = parse_reference("oracle")
        good, bad, back = self.warm_then_fresh(
            spec, BINDINGS, {"T_W_minus": 0.0, "T_W_plus": 80.0}, BINDINGS)
        assert bad == (CompositionError, "division by zero in (1.0 / T_W_minus)")
        assert back == good

    def test_rewards_changed_in_place_are_read(self):
        spec = parse("""ctmc
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        rewards "r"
          x=1 : 2.0;
        endrewards
        """)
        assert list(compose(spec).rewards["r"]) == [0.0, 2.0]
        spec.rewards["r"] = (modlang.RewardItem(modlang.Bool(True), Num(3.0)),)
        assert list(compose(spec).rewards["r"]) == [3.0, 3.0]


class TestEquivalence:
    def test_chain_equals_itself(self):
        chain = compose(parse_reference("plain"), BINDINGS)
        report = equivalent(chain, chain)
        assert report and report.differences == []

    def test_perturbed_rate_detected(self):
        spec = parse_reference("plain")
        a = compose(spec, BINDINGS)
        b = compose(spec, BINDINGS)
        (i, j), rate = next(iter(b.generator.entries.items()))
        entries = dict(b.generator.entries)
        entries[(i, j)] = rate + 1e-6
        from abps_toolkit.ctmc import build_generator

        b_perturbed = modlang.ComposedChain(
            generator=build_generator(
                b.generator.n_states, [(s, d, r) for (s, d), r in entries.items()]
            ),
            var_names=b.var_names,
            states=b.states,
            initial=b.initial,
            rewards=b.rewards,
        )
        report = equivalent(a, b_perturbed)
        assert not report
        assert any("rate" in d and "->" in d for d in report.differences)

    def test_mismatched_variables_reported(self):
        a = compose(model_of(two_state_module("a", "x", 1.0, 1.0)))
        b = compose(model_of(two_state_module("b", "y", 1.0, 1.0)))
        report = equivalent(a, b)
        assert not report
        assert any("variable sets differ" in d for d in report.differences)
