"""Parser and composer tests, including the shipped reference listings."""

import copy
import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from abps_toolkit.ctmc import StructureError, ValidationError, steady_state

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
        across_modules = """ctmc
        module a x : [0..1] init 0; endmodule
        module b x : [0..1] init 0; endmodule
        """
        in_one_module = (
            "ctmc module m x : [0..1] init 0; x : [0..2] init 1; [] x=0 -> (x'=1); endmodule"
        )
        for text in (across_modules, in_one_module):
            with pytest.raises(DuplicateDeclarationError,
                               match=r"^duplicate declaration of 'x' \(variable\)$"):
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

    @pytest.mark.parametrize("formulas, message", [
        pytest.param("formula a = b + 1; formula b = 1;",
                     "line 1, column 6: formula 'a' refers to formula 'b', "
                     "which is declared after it", id="forward"),
        pytest.param("formula b = 1; formula a = b; formula c = a * d; formula d = 2;",
                     "line 1, column 36: formula 'c' refers to formula 'd', "
                     "which is declared after it", id="forward-after-earlier"),
        pytest.param("formula a = 1; formula b = b + a;",
                     "line 1, column 21: formula 'b' refers to itself", id="self"),
        pytest.param("formula a = b; formula b = a;",
                     "line 1, column 6: formula 'a' refers to formula 'b', "
                     "which is declared after it", id="cycle"),
    ])
    def test_formula_names_only_earlier_formulas(self, formulas, message):
        # formulas are inlined in declaration order, so a self or forward
        # reference would stay an identifier that compose cannot bind
        text = f"ctmc {formulas} module m x : [0..1] init 0; [] x=0 -> a:(x'=0); endmodule"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_formula_may_name_earlier_formulas(self):
        spec = parse("ctmc formula b = 2; formula a = b + 1;"
                     " module m x : [0..1] init 0; [] x=0 -> a:(x'=1); endmodule")
        chain = modlang.compose(spec, {})
        assert chain.generator.rate(0, 1) == 3.0

    def test_line_comments_ignored(self):
        spec = parse("ctmc // a model\n// nothing else\n")
        assert spec.kind == "ctmc"

    @staticmethod
    def error_at(text):
        with pytest.raises(ParseError) as err:
            parse(text)
        return err.value.line, err.value.column, str(err.value).split(": ", 1)[1]

    def test_numbers_are_ascii_digits(self):
        # '²' once crashed float() and '٣' read as 3.0; identifiers keep
        # their Unicode letters
        assert self.error_at("ctmc\nconst double a = 2²;") == (
            2, 19, "unexpected character '²'")
        assert self.error_at("ctmc\nconst double a = ٣;") == (
            2, 18, "unexpected character '٣'")
        assert parse("ctmc const double é = 1;").constants == {"é": Num(1.0)}

    def test_string_ends_on_its_line(self):
        text = 'ctmc\nrewards "a\nb" true : 1; endrewards'
        assert self.error_at(text) == (2, 9, "unterminated string")

    def test_end_of_input_after_a_comment_has_its_true_column(self):
        assert self.error_at("ctmc\nmodule // unfinished") == (
            2, 21, "expected 'IDENT', found 'end of input'")

    def test_non_finite_bound_is_not_an_integer(self):
        assert self.error_at("ctmc module m x : [0..1e400] init 0; endmodule") == (
            1, 23, "expected an integer")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_byte_that_is_not_utf8_is_a_parse_error(self, tmp_path, newline):
        # lines end at each of \n, \r\n and \r, as the parser reads them
        path = tmp_path / "bad.sm"
        lines = ["ctmc", "// café", "const double été = 1;", "const double éb\udcff = 2;"]
        path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(ValidationError) as err:
            modlang.parse_file(path)
        assert str(err.value) == f"{path}:4: byte 0xff is not UTF-8"


# The expressions below sit in one of these listings; a, b and c are constants.
IN_CONST = "ctmc const double a; const double b; const double c;\nconst double k = {};"
LISTINGS = {
    "guard": ("ctmc const double a; const double b; const double c;\n"
              "module m x : [0..1] init 0;\n  [] {} -> (x'=1);\nendmodule"),
    "const": IN_CONST,
    "end": IN_CONST[:-1],
}

# Binding powers of the binary operators, as the module docstring gives them.
POWER = {"|": 1, "&": 2, "=": 3, "!=": 3, "+": 4, "-": 4, "*": 5, "/": 5}


def minimal_text(expr):
    """``expr`` with only the parentheses that the operator table needs."""
    def power(e):
        if isinstance(e, modlang.Cond):
            return 0
        return POWER[e.op] if isinstance(e, modlang.Binary) else 6

    if isinstance(expr, modlang.Binary):
        p = POWER[expr.op]
        left, right = minimal_text(expr.left), minimal_text(expr.right)
        if power(expr.left) < p or power(expr.left) == p == 3:  # comparisons do not chain
            left = f"({left})"
        if power(expr.right) <= p:  # left-associative
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, modlang.Unary):
        operand = minimal_text(expr.operand)
        return f"-({operand})" if power(expr.operand) < 6 else f"-{operand}"
    if isinstance(expr, modlang.Cond):
        test = minimal_text(expr.test)
        if power(expr.test) == 0:
            test = f"({test})"
        return f"{test} ? {minimal_text(expr.then)} : {minimal_text(expr.orelse)}"
    return modlang.format_expr(expr)


expressions = st.recursive(
    st.one_of(
        st.sampled_from([modlang.Ident(n) for n in "abc"] + [modlang.Bool(True), modlang.Bool(False)]),
        st.sampled_from([0.0, 1.0, 2.5, 1e-3, 4e16]).map(Num),
    ),
    lambda inner: st.one_of(
        st.builds(modlang.Binary, st.sampled_from(sorted(POWER)), inner, inner),
        st.builds(modlang.Unary, st.just("-"), inner),
        st.builds(modlang.Cond, inner, inner, inner),
    ),
    max_leaves=10,
)


class TestExpressionGrammar:
    @pytest.mark.parametrize("where, expr, line, column, message", [
        ("guard", "a = b = c", 3, 12, "expected '->', found '='"),
        ("guard", "x = 1 & a = b = c", 3, 20, "expected '->', found '='"),
        ("guard", "a = b != c", 3, 12, "expected '->', found '!='"),
        ("guard", "a & b = c = d", 3, 16, "expected '->', found '='"),
        ("guard", "(x = 1", 3, 13, "expected ')', found '->'"),
        ("guard", "x = 1 |", 3, 14, "unexpected token '->' in expression"),
        ("const", "a = b = c", 2, 24, "expected ';', found '='"),
        ("const", "a != b = c", 2, 25, "expected ';', found '='"),
        ("const", "a + b = c = a", 2, 28, "expected ';', found '='"),
        ("const", "a +", 2, 21, "unexpected token ';' in expression"),
        ("const", "a * (b", 2, 24, "expected ')', found ';'"),
        ("const", "a + * b", 2, 22, "unexpected token '*' in expression"),
        ("const", "a ? b", 2, 23, "expected ':', found ';'"),
        ("const", "- -", 2, 21, "unexpected token ';' in expression"),
        ("const", ")", 2, 18, "unexpected token ')' in expression"),
        ("end", "a +", 2, 21, "unexpected token 'end of input' in expression"),
        ("end", "(a + b", 2, 24, "expected ')', found 'end of input'"),
        ("end", "a = b =", 2, 24, "expected ';', found '='"),
        ("end", "a ? b :", 2, 25, "unexpected token 'end of input' in expression"),
        ("end", "-", 2, 19, "unexpected token 'end of input' in expression"),
    ])
    def test_malformed_expression_error(self, where, expr, line, column, message):
        # the messages, lines and columns of the five-level parser before
        # precedence climbing replaced it
        assert TestParse.error_at(LISTINGS[where].format(expr)) == (line, column, message)

    @pytest.mark.parametrize("expr, tree", [
        ("a - b - c", "((a - b) - c)"),
        ("a / b * c", "((a / b) * c)"),
        ("a + b * c - a", "((a + (b * c)) - a)"),
        ("-a * b", "((-a) * b)"),
        ("a = 1 & b != 2 | c = 0", "(((a = 1.0) & (b != 2.0)) | (c = 0.0))"),
        ("a | b & c", "(a | (b & c))"),
        ("a + 1 = b * 2", "((a + 1.0) = (b * 2.0))"),
        ("a | b ? c : a ? b : c", "((a | b) ? c : (a ? b : c))"),
    ])
    def test_operator_table(self, expr, tree):
        assert modlang.format_expr(parse(IN_CONST.format(expr)).constants["k"]) == tree

    @settings(max_examples=300, deadline=None)
    @given(expressions)
    def test_round_trip(self, expr):
        # format_expr brackets every operation; minimal_text only where the
        # operator table needs it, so this pins precedence and associativity
        for text in (modlang.format_expr(expr), minimal_text(expr)):
            assert parse(IN_CONST.format(text)).constants["k"] == expr


# Values that probe IEEE corners: signed zeros, overflow, infinities, NaN.
CORNERS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, np.inf, -np.inf, np.nan]


def well_typed(expr):
    for want in (modlang._NUMBER, modlang._BOOLEAN):
        try:
            modlang._check_type(expr, want)
            return True
        except CompositionError:
            pass
    return False


@st.composite
def corner_columns(draw):
    """a, b and c at 1 to 6 points."""
    size = draw(st.integers(1, 6))
    column = st.lists(st.sampled_from(CORNERS), min_size=size, max_size=size)
    return {name: draw(column) for name in "abc"}


class TestEvaluationRules:
    @settings(max_examples=100, deadline=None)
    @given(expressions.filter(well_typed), corner_columns())
    @example(parse(IN_CONST.format("a / 0")).constants["k"],
             {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0]})
    @example(parse(IN_CONST.format("a = 0 ? 1 / 0 : b / a")).constants["k"],
             {"a": [0.0, 2.5, 1.0], "b": [0.0, np.nan, -1.0], "c": [0.0, 0.0, 0.0]})
    def test_array_rule_matches_scalar_rule(self, expr, columns):
        # the array rule of each point is the scalar rule: its value bit for
        # bit (NaN matches NaN), and its mask where the scalar rule raises;
        # few drawn trees divide by a literal zero, so the examples do
        size = len(columns["a"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape
            bad = [np.zeros(size, dtype=bool)]
            with np.errstate(all="ignore"):  # as the callers of the array rule do
                values = modlang.eval_expr(
                    expr, {name: np.array(c) for name, c in columns.items()}, bad)
            values, bad = np.broadcast_to(values, (size,)), bad[0]
            for p in range(size):
                try:
                    scalar = modlang.eval_expr(expr, {name: c[p] for name, c in columns.items()})
                except CompositionError as err:
                    assert str(err).startswith("division by zero in ")
                    assert bad[p]
                    continue
                assert not bad[p]
                if isinstance(scalar, bool):
                    assert values.dtype == bool and values[p] == scalar
                else:
                    row = np.float64(values[p])
                    assert (np.isnan(row) and np.isnan(scalar)
                            or row.tobytes() == np.float64(scalar).tobytes())


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

    CONSTANTS = """ctmc
    const double a = 2*b;
    const double b;
    const double c = d + 1;
    const double d = c;
    module m x : [0..1] init 0;
      [] x=0 -> a:(x'=1);
      [] x=1 -> 1.0:(x'=0);
    endmodule
    """

    def test_constants_resolve_in_any_order_and_name_their_errors(self):
        spec = parse(self.CONSTANTS.replace("d + 1", "b + 1").replace("= c;", "= 0.5;"))
        assert compose(spec, {"b": 1.5}).generator.rate(0, 1) == 3.0
        with pytest.raises(UnboundParameterError, match="b"):
            compose(spec)
        with pytest.raises(CompositionError, match="circular constant definition"):
            compose(parse(self.CONSTANTS), {"b": 1.0})
        # the parser rejects this; a spec built in code reaches the composer
        spec = model_of(two_state_module("m", "x", 1.0, 1.0),
                        constants={"a": modlang.Ident("nope")})
        with pytest.raises(UndeclaredIdentifierError, match="nope"):
            compose(spec)
        guard = modlang.Binary("=", modlang.Ident("nope"), Num(0.0))
        spec = model_of(ModuleSpec("m", (Variable("x", 0, 1, 0),), (
            Command(None, guard, (Branch(None, (Update("x", Num(1.0)),)),)),)))
        with pytest.raises(UndeclaredIdentifierError, match="^undeclared identifier: nope$"):
            compose(spec)

    def test_composed_spec_freed_without_cyclic_collector(self):
        # a spec and its compiled program, with the walk the program keeps,
        # are released by reference counting alone
        gc.collect()
        gc.disable()
        try:
            spec = parse_reference("oracle")
            compose(spec, BINDINGS)
            program = modlang.compile(spec)
            program.evaluate(BINDINGS)
            program.evaluate_many({"T_W_minus": [20.0, 40.0], "T_W_plus": 80.0})
            alive = [weakref.ref(spec), weakref.ref(program), weakref.ref(program._walk)]
            del spec, program
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()

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

    def test_ill_typed_expression_rejected_where_no_walk_reaches_it(self):
        # x=1 never holds in the one state that reads the rate
        spec = parse("""ctmc
        module m x : [0..1] init 0;
          [] x=0 -> (x=1 ? true : 2.0):(x'=1);
        endmodule
        """)
        for route in (modlang.compile, compose):
            with pytest.raises(CompositionError) as err:
                route(spec)
            assert str(err.value) == "expected a number, got a boolean in true"

    @pytest.mark.parametrize("command, reward, message", [
        ("[] x -> (x'=1);", "true : 1;", "expected a boolean, got a number in x"),
        ("[] x=0 & 1 -> (x'=1);", "true : 1;", "expected a boolean, got a number in 1.0"),
        ("[] (x=0) = true -> (x'=1);", "true : 1;",
         "expected a number, got a boolean in (x = 0.0)"),
        ("[] x=0 -> -(x=0):(x'=1);", "true : 1;",
         "expected a number, got a boolean in (x = 0.0)"),
        ("[] (x ? true : false) -> (x'=1);", "true : 1;",
         "expected a boolean, got a number in x"),
        ("[] x=0 -> (x'=false);", "true : 1;", "expected a number, got a boolean in false"),
        ("[] x=0 -> (x'=1);", "1 : 2;", "expected a boolean, got a number in 1.0"),
        ("[] x=0 -> (x'=1);", "true : x=1;", "expected a number, got a boolean in (x = 1.0)"),
    ])
    def test_type_rule(self, command, reward, message):
        spec = parse(f'ctmc module m x : [0..1] init 0; {command} endmodule '
                     f'rewards "r" {reward} endrewards')
        with pytest.raises(CompositionError) as err:
            modlang.compile(spec)
        assert str(err.value) == message

    def test_constant_definitions_are_numbers(self):
        spec = parse("ctmc const double c = 1 = 1; module m x : [0..1] init 0; endmodule")
        with pytest.raises(CompositionError) as err:
            modlang.compile(spec)
        assert str(err.value) == "expected a number, got a boolean in (1.0 = 1.0)"

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


def outcome(evaluate, bindings):
    """What ``evaluate(bindings)`` gives: a chain snapshot or an error."""
    try:
        return snapshot(evaluate(bindings))
    except (modlang.ModelError, ValidationError) as err:
        return type(err), str(err)


def fresh(spec):
    """compose on a copy of ``spec``, a spec no program has seen."""
    return lambda bindings: compose(copy.deepcopy(spec), bindings)


def solved(spec, bindings):
    """A fresh compose and steady_state at ``bindings``: states, stationary
    probabilities and rewards, bit for bit, or None where either raises."""
    try:
        chain = compose(copy.deepcopy(spec), bindings)
        dist = steady_state(chain.generator, chain.initial)
    except (modlang.ModelError, ValidationError, StructureError):
        return None
    return (chain.states, dist.probabilities.tobytes(),
            {name: vec.tobytes() for name, vec in chain.rewards.items()})


def batch_rows(batch):
    """The rows of a ChainBatch in the form of :func:`solved`."""
    return [
        (batch.states, batch.probabilities[i].tobytes(),
         {name: vec[i].tobytes() for name, vec in batch.rewards.items()})
        if batch.ok[i] else None
        for i in range(len(batch.ok))
    ]


@st.composite
def small_specs(draw):
    """Listings of one or two modules over a, b, c (rates and rewards) and
    k (a guard and update constant), with shared labels, self-loops,
    out-of-range and non-integer updates, divisions, and every operator."""
    lines = ["ctmc"] + [f"const double {n};" for n in "abck"]
    names = [f"v{i}" for i in range(draw(st.integers(1, 2)))]
    for i, var in enumerate(names):
        lines += [f"module m{i}", f"  {var} : [0..2] init 0;"]
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(0, 2))
            label = draw(st.sampled_from(["", "", "s"]))
            guard = draw(st.sampled_from(
                [f"{var}={j}", f"{var}!={j}", "true", "false", f"{var}=k",
                 f"{names[0]}=1 | {var}={j}", f"{var}!={j} & k-{var}!=1",
                 f"({names[-1]}=1 ? {var}={j} : false)"]))
            rate = draw(st.sampled_from(["a", "b", "a*b", "1/c", f"({names[-1]}=1 ? a : 2.0)",
                                         "a+b", f"b-{var}", "-a"]))
            value = draw(st.sampled_from([str(j), str(j), "k", f"{var}+1", f"{j}/2"]))
            lines.append(f"  [{label}] {guard} -> {rate}:({var}'={value});")
        lines.append("endmodule")
    if draw(st.booleans()):
        lines += ['rewards "r"', f"  {names[0]}=1 : 1/c;", "  true : b;", "endrewards"]
    return parse("\n".join(lines) + "\n")


BINDING_VALUES = st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0, 1e308])


class TestCompiledCompose:
    """A compiled program replays its kept walk; every evaluation must still
    equal a compose from scratch."""

    def warm_then_fresh(self, spec, *bindings_seq):
        program = modlang.compile(spec)
        outcomes = []
        for bindings in bindings_seq:
            warm = outcome(program.evaluate, bindings)
            assert warm == outcome(fresh(spec), bindings)
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

    def test_generator_errors_precede_reward_errors(self):
        # a walk builds its generator before it reads the rewards, so the
        # overflowing rate is reported and 1/c is never evaluated
        spec = parse("""ctmc
        const double a;
        const double b;
        const double c;
        module m x : [0..1] init 0;
          [] x=0 -> a*b:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        rewards "r"
          true : 1/c;
        endrewards
        """)
        ok, bad = self.warm_then_fresh(
            spec, {"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 1e308, "c": 0})
        assert ok[1] == ((0,), (1,))
        assert bad == (ValidationError,
                       "transition (0, 1) needs a positive finite rate, got inf")

    @pytest.mark.parametrize("value", [1e308, float("nan")])
    def test_non_finite_reward_sum_rejected(self, value):
        # 1e308 + 1e308 overflows in the sum; NaN is not finite on its own
        spec = parse("""ctmc
        const double a;
        module m x : [0..1] init 0;
          [] x=0 -> 1.0:(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        rewards "r"
          true : a;
          true : a;
        endrewards
        """)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may leak
            ok, bad, again = self.warm_then_fresh(spec, {"a": 1.0}, {"a": value}, {"a": 1.0})
        assert np.frombuffer(ok[4]["r"]).tolist() == [2.0, 2.0]
        got = "inf" if value == 1e308 else "nan"
        assert bad == (CompositionError,
                       f"reward structure 'r' needs finite values, got {got} in state 0")
        assert again == ok

    @settings(max_examples=150, deadline=None)
    @given(small_specs(), st.lists(st.fixed_dictionaries({n: BINDING_VALUES for n in "abck"}),
                                   min_size=2, max_size=5))
    def test_every_call_equals_a_fresh_compose(self, spec, bindings_seq):
        program = modlang.compile(spec)
        for bindings in bindings_seq:
            assert outcome(program.evaluate, bindings) == outcome(fresh(spec), bindings)
        # each row of a batch is a fresh compose and steady_state at its point
        batch = program.evaluate_many({n: [b[n] for b in bindings_seq] for n in "abck"})
        for row, bindings in zip(batch_rows(batch), bindings_seq):
            assert row is None or row == solved(spec, bindings)

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


class TestEvaluateMany:
    """A grid of points in one batch: each row it gives is a fresh compose
    and steady_state at its point, and the points it leaves out are the ones
    that fail or need another walk."""

    def test_listing_grid(self):
        spec = parse_reference("oracle")
        minus = [20.0, 0.0, 5.0, 40.0, -1.0, 7.5]  # 1/0, and a negative rate
        batch = modlang.compile(spec).evaluate_many({"T_W_minus": minus, "T_W_plus": 80.0})
        rows = batch_rows(batch)
        assert [row is not None for row in rows] == [True, False, True, True, False, True]
        for row, t in zip(rows, minus):
            assert row is None or row == solved(spec, {"T_W_minus": t, "T_W_plus": 80.0})

    def test_points_off_the_walk_left_out(self):
        spec = abps.build("oracle", default_params()).spec
        program = modlang.compile(spec)
        usual = resolved_rates(default_params(), "text")
        fail = usual["umts_setup_fail"]
        # a zero rate drops transitions: that point needs a walk of its own
        batch = program.evaluate_many({**usual, "umts_setup_fail": [fail, 0.0, fail]})
        assert batch.ok.tolist() == [True, False, True]
        # the batch follows the walk of its first point
        points = [{**usual, "umts_setup_fail": 0.0, "mu_U": mu} for mu in (1.0, 2.0)]
        batch = program.evaluate_many({**usual, "umts_setup_fail": 0.0, "mu_U": [1.0, 2.0]})
        assert batch_rows(batch) == [solved(spec, point) for point in points]
        assert all(batch.ok)

    def test_errors_only_where_eval_expr_meets_them(self):
        # 1/c = 0 is finite at c = 0 in numpy, but eval_expr's scalar rule
        # raises there, and only when the conditional picks that branch
        spec = parse("""ctmc
        const double c;
        const double s;
        module m x : [0..1] init 0;
          [] x=0 -> (s = 1 ? (1/c = 0 ? 1.0 : 2.0) : 3.0):(x'=1);
          [] x=1 -> 1.0:(x'=0);
        endmodule
        """)
        points = [{"c": 1.0, "s": 1.0}, {"c": 0.0, "s": 1.0}, {"c": 0.0, "s": 0.0}]
        batch = modlang.compile(spec).evaluate_many({"c": [1.0, 0.0, 0.0], "s": [1.0, 1.0, 0.0]})
        assert batch_rows(batch) == [solved(spec, point) for point in points]
        assert batch.ok.tolist() == [True, False, True]
        assert outcome(fresh(spec), points[1]) == (CompositionError,
                                                   "division by zero in (1.0 / c)")

    def test_chunks_give_the_same_rows(self, monkeypatch):
        spec = parse_reference("plain")
        grid = {"T_W_minus": np.linspace(5.0, 60.0, 7), "T_W_plus": np.linspace(60.0, 300.0, 7)}
        whole = batch_rows(modlang.compile(spec).evaluate_many(grid))
        monkeypatch.setattr(modlang, "_STACK_BYTES", 1)  # one point per stacked solve
        assert batch_rows(modlang.compile(spec).evaluate_many(grid)) == whole
        assert all(whole)

    def test_no_point_composes(self):
        batch = modlang.compile(parse_reference("plain")).evaluate_many(
            {"T_W_minus": [0.0, 0.0], "T_W_plus": 80.0})
        assert batch.states == () and batch.ok.tolist() == [False, False]

    def test_bindings_checked_as_for_one_point(self):
        program = modlang.compile(parse_reference("plain"))
        program.evaluate(BINDINGS)
        with pytest.raises(CompositionError, match="undeclared constant 'nope'"):
            program.evaluate_many({**BINDINGS, "nope": [1.0, 2.0]})
        # an unbound parameter fails every point
        assert not program.evaluate_many({"T_W_minus": [20.0, 30.0]}).ok.any()

    def test_bindings_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            modlang.compile(parse_reference("plain")).evaluate_many(
                {"T_W_minus": [[20.0]], "T_W_plus": 80.0})


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
