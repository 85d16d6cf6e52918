"""A small guarded-command stochastic-module language and its composer.

The language describes continuous-time models as modules of integer-range
variables plus guarded commands. Commands may carry a synchronization label
in square brackets; labeled commands in different modules fire together at
the product of their rates (an omitted rate counts as 1). The grammar,
deliberately minimal:

    model       : 'ctmc' item*
    item        : const | module | formula | rewards
    const       : 'const' 'double' NAME ('=' expr)? ';'
    module      : 'module' NAME vardecl* command* 'endmodule'
    vardecl     : NAME ':' '[' INT '..' INT ']' 'init' INT ';'
    command     : '[' NAME? ']' expr '->' branch ('+' branch)* ';'
    branch      : (expr ':')? update ('&' update)*
    update      : '(' NAME "'" '=' expr ')'
    formula     : 'formula' NAME '=' expr ';'
    rewards     : 'rewards' STRING (expr ':' expr ';')* 'endrewards'
    expr        : ternary conditional over | & = != + - * / and parentheses

Constants declared without a value are external parameters and must be
bound before composition. ``formula`` definitions are inlined where they
are referenced. ``//`` starts a line comment.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from abps_toolkit.ctmc import GeneratorMatrix, build_generator

RATE_EQUALITY_TOL = 1e-12

KEYWORDS = {
    "ctmc",
    "const",
    "double",
    "module",
    "endmodule",
    "init",
    "formula",
    "rewards",
    "endrewards",
    "true",
    "false",
}


class ModelError(Exception):
    """Base class for everything the parser and composer can reject."""


class ParseError(ModelError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateDeclarationError(ModelError):
    pass


class UndeclaredIdentifierError(ModelError):
    pass


class InitOutOfRangeError(ModelError):
    pass


class UnboundParameterError(ModelError):
    def __init__(self, name: str):
        super().__init__(f"unbound model parameter: {name}")
        self.name = name


class CompositionError(ModelError):
    pass


# --------------------------------------------------------------------------
# Expression trees


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Bool:
    value: bool


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cond:
    test: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Num, Bool, Ident, Unary, Binary, Cond]


def eval_expr(expr: Expr, env: Mapping[str, float]) -> float | bool:
    """Evaluate ``expr`` under ``env`` (constants plus variable values)."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Bool):
        return expr.value
    if isinstance(expr, Ident):
        try:
            return env[expr.name]
        except KeyError:
            raise UndeclaredIdentifierError(f"undeclared identifier: {expr.name}")
    if isinstance(expr, Unary):
        return -_num(eval_expr(expr.operand, env), expr)
    if isinstance(expr, Binary):
        lhs = eval_expr(expr.left, env)
        rhs = eval_expr(expr.right, env)
        op = expr.op
        if op == "+":
            return _num(lhs, expr) + _num(rhs, expr)
        if op == "-":
            return _num(lhs, expr) - _num(rhs, expr)
        if op == "*":
            return _num(lhs, expr) * _num(rhs, expr)
        if op == "/":
            try:
                return _num(lhs, expr) / _num(rhs, expr)
            except ZeroDivisionError:
                raise CompositionError(f"division by zero in {format_expr(expr)}")
        if op == "=":
            return _num(lhs, expr) == _num(rhs, expr)
        if op == "!=":
            return _num(lhs, expr) != _num(rhs, expr)
        if op == "&":
            return _bool(lhs, expr) and _bool(rhs, expr)
        if op == "|":
            return _bool(lhs, expr) or _bool(rhs, expr)
        raise CompositionError(f"unknown operator {op!r}")
    if isinstance(expr, Cond):
        return eval_expr(
            expr.then if _bool(eval_expr(expr.test, env), expr) else expr.orelse, env
        )
    raise CompositionError(f"cannot evaluate {expr!r}")


def eval_number(expr: Expr, env: Mapping[str, float]) -> float:
    return _num(eval_expr(expr, env), expr)


def _num(value, where) -> float:
    if isinstance(value, bool):
        raise CompositionError(f"expected a number, got a boolean in {format_expr(where)}")
    return float(value)


def _bool(value, where) -> bool:
    if not isinstance(value, bool):
        raise CompositionError(f"expected a boolean, got {value!r} in {format_expr(where)}")
    return value


def _substitute(expr: Expr, table: Mapping[str, Expr]) -> Expr:
    """Replace identifier references per ``table`` (used to inline formulas)."""
    if isinstance(expr, Ident) and expr.name in table:
        return table[expr.name]
    if isinstance(expr, Unary):
        return Unary(expr.op, _substitute(expr.operand, table))
    if isinstance(expr, Binary):
        return Binary(expr.op, _substitute(expr.left, table), _substitute(expr.right, table))
    if isinstance(expr, Cond):
        return Cond(
            _substitute(expr.test, table),
            _substitute(expr.then, table),
            _substitute(expr.orelse, table),
        )
    return expr


def _idents(expr: Expr) -> set[str]:
    if isinstance(expr, Ident):
        return {expr.name}
    if isinstance(expr, Unary):
        return _idents(expr.operand)
    if isinstance(expr, Binary):
        return _idents(expr.left) | _idents(expr.right)
    if isinstance(expr, Cond):
        return _idents(expr.test) | _idents(expr.then) | _idents(expr.orelse)
    return set()


# --------------------------------------------------------------------------
# Model structure


@dataclass(frozen=True)
class Update:
    var: str
    value: Expr


@dataclass(frozen=True)
class Branch:
    rate: Expr | None  # None means rate 1
    updates: tuple[Update, ...]


@dataclass(frozen=True)
class Command:
    label: str | None
    guard: Expr
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Variable:
    name: str
    low: int
    high: int
    init: int


@dataclass(frozen=True)
class ModuleSpec:
    name: str
    variables: tuple[Variable, ...]
    commands: tuple[Command, ...]


@dataclass(frozen=True)
class RewardItem:
    guard: Expr
    value: Expr


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    constants: dict[str, Expr | None]  # None: external parameter, bind at compose
    formulas: dict[str, Expr]
    modules: tuple[ModuleSpec, ...]
    rewards: dict[str, tuple[RewardItem, ...]]

    @property
    def external_parameters(self) -> tuple[str, ...]:
        return tuple(n for n, e in self.constants.items() if e is None)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for m in self.modules for v in m.variables)


# --------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, NUMBER, STRING, a punctuation literal, or EOF
    text: str
    line: int
    column: int


_PUNCT2 = ("!=", "..", "->")
_PUNCT1 = "[](){};:'=?+-*/&|"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(_Token(two, two, line, start_col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and not text.startswith("..", j):
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", line, start_col)
            tokens.append(_Token("STRING", text[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _PUNCT1:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- model items ------------------------------------------------------

    def parse_model(self) -> ModelSpec:
        if self.peek().kind != "ctmc":
            raise self.error("model must start with the continuous-time marker 'ctmc'")
        self.advance()
        constants: dict[str, Expr | None] = {}
        formulas: dict[str, Expr] = {}
        modules: list[ModuleSpec] = []
        rewards: dict[str, tuple[RewardItem, ...]] = {}
        while self.peek().kind != "EOF":
            kind = self.peek().kind
            if kind == "const":
                name, value = self.parse_const()
                self._declare(name, constants, formulas, modules, "constant")
                constants[name] = value
            elif kind == "module":
                mod = self.parse_module()
                if any(m.name == mod.name for m in modules):
                    raise DuplicateDeclarationError(f"duplicate module {mod.name!r}")
                for var in mod.variables:
                    self._declare(var.name, constants, formulas, modules, "variable")
                modules.append(mod)
            elif kind == "formula":
                name, expr = self.parse_formula()
                self._declare(name, constants, formulas, modules, "formula")
                formulas[name] = expr
            elif kind == "rewards":
                name, items = self.parse_rewards()
                if name in rewards:
                    raise DuplicateDeclarationError(f"duplicate rewards block {name!r}")
                rewards[name] = items
            else:
                raise self.error(
                    "expected 'const', 'module', 'formula' or 'rewards'"
                )
        spec = ModelSpec("ctmc", constants, formulas, tuple(modules), rewards)
        _validate(spec)
        return _inline_formulas(spec)

    @staticmethod
    def _declare(name, constants, formulas, modules, what):
        taken = (
            name in constants
            or name in formulas
            or any(v.name == name for m in modules for v in m.variables)
        )
        if taken:
            raise DuplicateDeclarationError(f"duplicate declaration of {name!r} ({what})")

    def parse_const(self) -> tuple[str, Expr | None]:
        self.expect("const")
        self.expect("double")
        name = self.expect("IDENT").text
        value: Expr | None = None
        if self.peek().kind == "=":
            self.advance()
            value = self.parse_expr()
        self.expect(";")
        return name, value

    def parse_module(self) -> ModuleSpec:
        self.expect("module")
        name = self.expect("IDENT").text
        variables: list[Variable] = []
        commands: list[Command] = []
        while True:
            kind = self.peek().kind
            if kind == "endmodule":
                self.advance()
                break
            if kind == "[":
                commands.append(self.parse_command())
            elif kind == "IDENT":
                variables.append(self.parse_vardecl())
            else:
                raise self.error("expected a variable declaration, command or 'endmodule'")
        return ModuleSpec(name, tuple(variables), tuple(commands))

    def parse_vardecl(self) -> Variable:
        name = self.expect("IDENT").text
        self.expect(":")
        self.expect("[")
        low = self.parse_int()
        self.expect("..")
        high = self.parse_int()
        self.expect("]")
        if low > high:
            raise self.error(f"empty range [{low}..{high}]")
        self.expect("init")
        init = self.parse_int()
        self.expect(";")
        return Variable(name, low, high, init)

    def parse_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("NUMBER")
        value = float(tok.text)
        if value != int(value):
            raise ParseError("expected an integer", tok.line, tok.column)
        return sign * int(value)

    def parse_command(self) -> Command:
        self.expect("[")
        label = None
        if self.peek().kind == "IDENT":
            label = self.advance().text
        self.expect("]")
        guard = self.parse_expr()
        self.expect("->")
        branches = [self.parse_branch()]
        while self.peek().kind == "+":
            self.advance()
            branches.append(self.parse_branch())
        self.expect(";")
        return Command(label, guard, tuple(branches))

    def parse_branch(self) -> Branch:
        # An update starts "( IDENT '"; anything else is a rate expression.
        rate: Expr | None = None
        if not (
            self.peek().kind == "("
            and self.peek(1).kind == "IDENT"
            and self.peek(2).kind == "'"
        ):
            rate = self.parse_expr()
            self.expect(":")
        updates = [self.parse_update()]
        while self.peek().kind == "&":
            self.advance()
            updates.append(self.parse_update())
        seen = set()
        for upd in updates:
            if upd.var in seen:
                raise self.error(f"variable {upd.var!r} updated twice in one branch")
            seen.add(upd.var)
        return Branch(rate, tuple(updates))

    def parse_update(self) -> Update:
        self.expect("(")
        name = self.expect("IDENT").text
        self.expect("'")
        self.expect("=")
        value = self.parse_expr()
        self.expect(")")
        return Update(name, value)

    def parse_formula(self) -> tuple[str, Expr]:
        self.expect("formula")
        name = self.expect("IDENT").text
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return name, expr

    def parse_rewards(self) -> tuple[str, tuple[RewardItem, ...]]:
        self.expect("rewards")
        name = self.expect("STRING").text
        items: list[RewardItem] = []
        while self.peek().kind != "endrewards":
            guard = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            self.expect(";")
            items.append(RewardItem(guard, value))
        self.advance()
        return name, tuple(items)

    # -- expressions (ternary < or < and < comparison < additive < ...) ----

    def parse_expr(self) -> Expr:
        test = self.parse_or()
        if self.peek().kind == "?":
            self.advance()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return Cond(test, then, orelse)
        return test

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.peek().kind == "|":
            self.advance()
            left = Binary("|", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_comparison()
        while self.peek().kind == "&":
            self.advance()
            left = Binary("&", left, self.parse_comparison())
        return left

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        if self.peek().kind in ("=", "!="):
            op = self.advance().kind
            return Binary(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            left = Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Unary("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "true":
            self.advance()
            return Bool(True)
        if tok.kind == "false":
            self.advance()
            return Bool(False)
        if tok.kind == "IDENT":
            self.advance()
            return Ident(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error(f"unexpected token {tok.text or 'end of input'!r} in expression")


def parse(text: str) -> ModelSpec:
    """Parse model source text into a validated :class:`ModelSpec`."""
    return _Parser(_tokenize(text)).parse_model()


def parse_file(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _validate(spec: ModelSpec) -> None:
    var_names = {v.name for v in spec.variables()}
    module_vars = {m.name: {v.name for v in m.variables} for m in spec.modules}

    for var in spec.variables():
        if not (var.low <= var.init <= var.high):
            raise InitOutOfRangeError(
                f"initial value {var.init} of {var.name!r} outside [{var.low}..{var.high}]"
            )

    def check_idents(expr: Expr, allowed: set[str], where: str) -> None:
        for name in _idents(expr):
            if name not in allowed:
                raise UndeclaredIdentifierError(
                    f"undeclared identifier {name!r} in {where}"
                )

    const_names = set(spec.constants)
    formula_names = set(spec.formulas)
    everything = const_names | formula_names | var_names

    for name, expr in spec.constants.items():
        if expr is not None:
            check_idents(expr, const_names, f"constant {name!r}")
    for name, expr in spec.formulas.items():
        check_idents(expr, everything, f"formula {name!r}")
    for mod in spec.modules:
        for cmd in mod.commands:
            check_idents(cmd.guard, everything, f"guard in module {mod.name!r}")
            for branch in cmd.branches:
                if branch.rate is not None:
                    check_idents(branch.rate, everything, f"rate in module {mod.name!r}")
                for upd in branch.updates:
                    if upd.var not in module_vars[mod.name]:
                        raise UndeclaredIdentifierError(
                            f"module {mod.name!r} updates {upd.var!r}, "
                            "which is not one of its variables"
                        )
                    check_idents(upd.value, everything, f"update in module {mod.name!r}")
    for rname, items in spec.rewards.items():
        for item in items:
            check_idents(item.guard, everything, f"rewards {rname!r}")
            check_idents(item.value, everything, f"rewards {rname!r}")


def _inline_formulas(spec: ModelSpec) -> ModelSpec:
    """Substitute formula bodies wherever formulas are referenced."""
    table: dict[str, Expr] = {}
    for name, expr in spec.formulas.items():
        table[name] = _substitute(expr, table)  # formulas may use earlier ones

    def sub(expr: Expr) -> Expr:
        return _substitute(expr, table)

    modules = tuple(
        ModuleSpec(
            m.name,
            m.variables,
            tuple(
                Command(
                    c.label,
                    sub(c.guard),
                    tuple(
                        Branch(
                            None if b.rate is None else sub(b.rate),
                            tuple(Update(u.var, sub(u.value)) for u in b.updates),
                        )
                        for b in c.branches
                    ),
                )
                for c in m.commands
            ),
        )
        for m in spec.modules
    )
    rewards = {
        name: tuple(RewardItem(sub(i.guard), sub(i.value)) for i in items)
        for name, items in spec.rewards.items()
    }
    return ModelSpec(spec.kind, dict(spec.constants), dict(spec.formulas), modules, rewards)


# --------------------------------------------------------------------------
# Pretty printer


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Bool):
        return "true" if expr.value else "false"
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Unary):
        return f"(-{format_expr(expr.operand)})"
    if isinstance(expr, Binary):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, Cond):
        return (
            f"({format_expr(expr.test)} ? {format_expr(expr.then)}"
            f" : {format_expr(expr.orelse)})"
        )
    raise TypeError(f"not an expression: {expr!r}")


def format_model(spec: ModelSpec) -> str:
    """Render a ModelSpec back to parseable source (round-trip stable)."""
    out = ["ctmc", ""]
    for name, expr in spec.constants.items():
        if expr is None:
            out.append(f"const double {name};")
        else:
            out.append(f"const double {name} = {format_expr(expr)};")
    for name, expr in spec.formulas.items():
        out.append(f"formula {name} = {format_expr(expr)};")
    for mod in spec.modules:
        out.append("")
        out.append(f"module {mod.name}")
        for var in mod.variables:
            out.append(f"  {var.name} : [{var.low}..{var.high}] init {var.init};")
        for cmd in mod.commands:
            label = cmd.label or ""
            branches = " + ".join(_format_branch(b) for b in cmd.branches)
            out.append(f"  [{label}] {format_expr(cmd.guard)} -> {branches};")
        out.append("endmodule")
    for name, items in spec.rewards.items():
        out.append("")
        out.append(f'rewards "{name}"')
        for item in items:
            out.append(f"  {format_expr(item.guard)} : {format_expr(item.value)};")
        out.append("endrewards")
    return "\n".join(out) + "\n"


def _format_branch(branch: Branch) -> str:
    updates = " & ".join(
        f"({u.var}' = {format_expr(u.value)})" for u in branch.updates
    )
    if branch.rate is None:
        return updates
    return f"{format_expr(branch.rate)}:{updates}"


# --------------------------------------------------------------------------
# Composition


@dataclass(frozen=True)
class ComposedChain:
    """A module system flattened to one CTMC over its reachable states.

    ``states[i]`` gives the variable assignment of state ``i`` in
    ``var_names`` order; state 0 is the initial state.
    """

    generator: GeneratorMatrix
    var_names: tuple[str, ...]
    states: tuple[tuple[int, ...], ...]
    initial: int
    rewards: Mapping[str, np.ndarray]

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    def assignment(self, index: int) -> dict[str, int]:
        return dict(zip(self.var_names, self.states[index]))

    def value(self, index: int, var: str) -> int:
        return self.states[index][self.var_names.index(var)]

    def states_where(self, predicate: Callable[[dict[str, int]], bool]) -> list[int]:
        return [i for i in range(self.n_states) if predicate(self.assignment(i))]


def compose(
    spec: ModelSpec, bindings: Mapping[str, float] | None = None
) -> ComposedChain:
    """Build the product chain of all modules, restricted to reachable states.

    Unlabeled commands interleave independently. A label shared by several
    modules forms synchronized transitions that exist only where every such
    module has an enabled command for it, at the product of the branch
    rates (omitted rates count as 1); a label confined to a single module
    behaves as unlabeled. Rate expressions are evaluated in the source
    state, so conditional rates may read other modules' variables.
    Self-loops that change nothing and zero-rate transitions are dropped.
    Per-structure reward vectors sum all matching reward items per state.

    A spec's structure is compiled once and reused. The first call walks
    the states breadth-first, evaluating every guard and update, and keeps
    each candidate transition with the rate expressions it multiplies. A
    call with other bindings evaluates only the rate and reward expressions
    (per source state where one reads a state variable) and scatters them
    into the generator. Compiled forms are remembered, in small bounded
    memos, per spec object, per values of the constants that guards and
    updates read, and per pattern of zero rates; states are numbered, and
    errors raised, exactly where one full walk at these bindings would
    number them or meet them.
    """
    bindings = dict(bindings or {})
    for name in bindings:
        if name not in spec.constants:
            raise CompositionError(f"binding for undeclared constant {name!r}")
    consts = _resolve_constants(spec, bindings)
    return _program(spec).skeleton(consts).instantiate(consts)


# Value slots every skeleton shares: an omitted rate, and a reward item whose
# guard is false.
_ONE, _ZERO = 0, 1
_MEMO_LIMIT = 16


def _recall(memo: dict, key):
    """The remembered value for ``key`` (refreshed as most recent), or None."""
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
    return value


def _remember(memo: dict, key, value) -> None:
    """Store ``value``, forgetting the least recently used entries when full."""
    for old in list(memo)[: max(len(memo) - _MEMO_LIMIT + 1, 0)]:
        memo.pop(old, None)
    memo[key] = value


# Keyed by id(spec). An entry leaves when its spec is freed, so a spec
# composed once (a listing parsed for one solve) does not outlive its use and
# no id is reused while its entry lives.
_PROGRAMS: dict[int, "_Program"] = {}


def _program(spec: ModelSpec) -> "_Program":
    key = id(spec)
    program = _recall(_PROGRAMS, key)
    # the rewards dict is the one part of a spec that can change in place
    if program is None or program.spec() is not spec or program.rewards != spec.rewards:
        program = _Program(spec)
        program.spec = weakref.ref(spec, lambda _: _PROGRAMS.pop(key, None))
        _remember(_PROGRAMS, key, program)
    return program


class _Term:
    """An expression and the positions of the state variables it reads.

    Its value depends on the constants and on those variables only, so a
    compile evaluates it once per combination of their values.
    """

    __slots__ = ("expr", "names", "positions", "key")

    def __init__(self, expr: Expr, var_names: tuple[str, ...]):
        self.expr = expr
        self.names = _idents(expr)
        self.positions = tuple(k for k, v in enumerate(var_names) if v in self.names)
        self.key = operator.itemgetter(*self.positions) if self.positions else _no_key

    def env(self, consts: Mapping[str, float], state: tuple[int, ...], var_names):
        return {**consts, **{var_names[p]: state[p] for p in self.positions}}


def _no_key(state: tuple[int, ...]) -> tuple:
    return ()


class _Program:
    """What composition reads off a spec before any constant has a value."""

    def __init__(self, spec: ModelSpec):
        variables = spec.variables()
        var_names = self.var_names = tuple(v.name for v in variables)
        self.initial = tuple(v.init for v in variables)
        self.rewards = dict(spec.rewards)
        var_pos = {v.name: k for k, v in enumerate(variables)}
        ranges = {v.name: (v.low, v.high) for v in variables}

        # Names read by guards and updates: the constants among them decide
        # the state space.
        structural: set[str] = set()

        def term(expr: Expr | None, decides_states: bool = False) -> _Term | None:
            if expr is None:
                return None
            found = _Term(expr, var_names)
            if decides_states:
                structural.update(found.names)
            return found

        def command(cmd: Command):
            """A guard term and, per branch, its rate term and updates."""
            return term(cmd.guard, True), [
                (
                    term(b.rate),
                    [(u.var, var_pos[u.var], ranges[u.var], term(u.value, True))
                     for u in b.updates],
                )
                for b in cmd.branches
            ]

        label_modules: dict[str, list[int]] = {}
        for mi, mod in enumerate(spec.modules):
            for cmd in mod.commands:
                if cmd.label is not None:
                    mods = label_modules.setdefault(cmd.label, [])
                    if mi not in mods:
                        mods.append(mi)

        # A label used by one module only synchronizes with nothing.
        self.plain = []
        self.synced = []
        for label, mods in label_modules.items():
            if len(mods) >= 2:
                self.synced.append([
                    (
                        spec.modules[mi].name,
                        [command(c) for c in spec.modules[mi].commands if c.label == label],
                    )
                    for mi in mods
                ])
        for mod in spec.modules:
            for cmd in mod.commands:
                if cmd.label is None or len(label_modules[cmd.label]) < 2:
                    self.plain.append((mod.name, *command(cmd)))
        self.reward_terms = {
            rname: [(term(i.guard, True), term(i.value)) for i in items]
            for rname, items in self.rewards.items()
        }
        self.structural = tuple(sorted(structural - set(var_names)))
        self._skeletons: dict[tuple, _Skeleton] = {}

    def skeleton(self, consts: Mapping[str, float]) -> "_Skeleton":
        # an undeclared name stays out of the environment, so a guard
        # reading it fails as it would in a full walk
        guard_consts = {n: consts[n] for n in self.structural if n in consts}
        key = tuple(guard_consts.get(n) for n in self.structural)
        skeleton = _recall(self._skeletons, key)
        if skeleton is None:
            skeleton = _Skeleton(self, guard_consts)
            if not (skeleton.faults or skeleton.reward_faults):
                _remember(self._skeletons, key, skeleton)
        return skeleton


class _Skeleton:
    """Every state a walk reaches while no rate is zero, breadth-first.

    Per state it keeps, in the order a walk meets them, the value slots the
    walk evaluates (each slot is one rate or reward expression, in one
    source state only where the expression reads a state variable) and the
    candidate transitions, each with the slots whose product is its rate. A
    guard or update that fails is kept as the state's fault, raised only if
    a walk at some bindings reaches the state.
    """

    def __init__(self, program: _Program, consts: dict[str, float]):
        var_names = self.var_names = program.var_names
        self.slots: list[tuple[str | None, Expr, dict[str, int]]] = []
        slot_index: dict[tuple, int] = {}
        # Guard and update values; failures are not remembered, so they
        # raise again wherever they are met.
        known: dict[tuple, float | bool] = {}

        def value_of(term: _Term, state) -> float | bool:
            key = (term, term.key(state))
            value = known.get(key)
            if value is None:
                value = known[key] = eval_expr(term.expr, term.env(consts, state, var_names))
            return value

        def slot(module: str | None, term: _Term | None, state) -> int:
            if term is None:
                return _ONE
            key = (module, term, term.key(state))
            k = slot_index.get(key)
            if k is None:
                k = slot_index[key] = len(self.slots) + 2
                extra = {var_names[p]: state[p] for p in term.positions}
                self.slots.append((module, term.expr, extra))
            return k

        def apply_branch(target, source, mod_name, updates) -> tuple[int, ...]:
            new = list(target)
            for var, pos, (low, high), term in updates:
                value = _num(value_of(term, source), term.expr)
                if not math.isfinite(value) or value != int(value):
                    raise CompositionError(
                        f"update of {var!r} in module {mod_name!r} "
                        f"produced non-integer {value!r}"
                    )
                value = int(value)
                if not (low <= value <= high):
                    raise CompositionError(
                        f"update drives {var!r} to {value}, outside [{low}..{high}]"
                    )
                new[pos] = value
            return tuple(new)

        index = {program.initial: 0}
        states = [program.initial]
        self.site_slots: list[list[int]] = []
        self.faults: dict[int, Exception] = {}
        edge_dst: list[int] = []
        edge_factors: list[tuple[int, ...]] = []
        edge_start: list[int] = []

        for si, state in enumerate(states):  # grows as the walk finds states
            sites: list[int] = []
            self.site_slots.append(sites)
            edge_start.append(len(edge_dst))

            def record(target: tuple[int, ...], factors: tuple[int, ...]) -> None:
                if target == state:
                    return
                ti = index.get(target)
                if ti is None:
                    ti = index[target] = len(states)
                    states.append(target)
                edge_dst.append(ti)
                edge_factors.append(factors)

            try:
                for mod_name, guard, branches in program.plain:
                    if not _bool(value_of(guard, state), guard.expr):
                        continue
                    for rate, updates in branches:
                        k = slot(mod_name, rate, state)
                        sites.append(k)
                        record(apply_branch(state, state, mod_name, updates), (k,))

                for participants in program.synced:
                    # Every participating module needs an enabled command,
                    # else the label is blocked in this state.
                    options: list[list[tuple[int, str, list]]] = []
                    for mod_name, commands in participants:
                        opts = []
                        for guard, branches in commands:
                            if _bool(value_of(guard, state), guard.expr):
                                for rate, updates in branches:
                                    k = slot(mod_name, rate, state)
                                    sites.append(k)
                                    opts.append((k, mod_name, updates))
                        if not opts:
                            options = []
                            break
                        options.append(opts)
                    if not options:
                        continue
                    for combo in itertools.product(*options):
                        target = state
                        for _, mod_name, updates in combo:
                            # updates read the source state but apply cumulatively
                            target = apply_branch(target, state, mod_name, updates)
                        record(target, tuple(k for k, _, _ in combo))
            except ModelError as err:  # raised only where a walk reaches this state
                self.faults[si] = err
        edge_start.append(len(edge_dst))

        self.states = states
        self.edge_start = edge_start
        self.edge_dst = edge_dst
        width = max((len(f) for f in edge_factors), default=1)
        self.edge_slots = np.full((len(edge_factors), width), _ONE, dtype=np.intp)
        for e, factors in enumerate(edge_factors):
            self.edge_slots[e, : len(factors)] = factors

        # Reward guards per state; a false guard points at the zero slot.
        self.reward_slots: dict[str, np.ndarray] = {}
        self.reward_faults: dict[tuple[str, int], Exception] = {}
        for rname, items in program.reward_terms.items():
            table = np.full((len(states), len(items)), _ZERO, dtype=np.intp)
            for si, state in enumerate(states):
                for k, (guard, value) in enumerate(items):
                    try:
                        enabled = _bool(value_of(guard, state), guard.expr)
                    except ModelError as err:  # raised only if the state is reached
                        self.reward_faults[(rname, si)] = err
                        break
                    if enabled:
                        table[si, k] = slot(None, value, state)
            self.reward_slots[rname] = table
        self._structures: dict[bytes, _Structure] = {}

    def evaluate(self, consts: Mapping[str, float]) -> tuple[np.ndarray, dict[int, Exception]]:
        """Every slot's value at ``consts``; failed slots read NaN and keep
        their error, raised only where a walk meets the slot."""
        values = [1.0, 0.0]
        errors: dict[int, Exception] = {}
        for k, (module, expr, extra) in enumerate(self.slots, start=2):
            try:
                value = eval_number(expr, {**consts, **extra} if extra else consts)
                if module is not None and value < 0.0:
                    raise CompositionError(
                        f"negative rate {value!r} in module {module!r} "
                        f"(rate {format_expr(expr)})"
                    )
            except ModelError as err:
                errors[k] = err
                value = float("nan")
            values.append(value)
        return np.array(values), errors

    def instantiate(self, consts: Mapping[str, float]) -> ComposedChain:
        values, errors = self.evaluate(consts)
        rates = values[self.edge_slots[:, 0]]
        with np.errstate(all="ignore"):  # as Python floats: inf, NaN or 0, no warning
            for k in range(1, self.edge_slots.shape[1]):
                rates = rates * values[self.edge_slots[:, k]]
        live = rates != 0.0
        key = live.tobytes()
        structure = _recall(self._structures, key)
        if structure is None:
            structure = _Structure(self, live)
            _remember(self._structures, key, structure)
        if errors or self.faults:
            structure.raise_transition_error(self, errors)

        pair_rates = np.bincount(
            structure.edge_pair, weights=rates[structure.edges], minlength=len(structure.pairs)
        )
        generator = build_generator(
            len(structure.states), np.column_stack((structure.pairs, pair_rates))
        )
        if errors or self.reward_faults:
            structure.raise_reward_error(self, errors)
        rewards: dict[str, np.ndarray] = {}
        for rname, table in self.reward_slots.items():
            vec = np.zeros(len(structure.states))
            for column in table[structure.keep].T:  # summed in item order
                vec += values[column]
            vec.flags.writeable = False
            rewards[rname] = vec
        return ComposedChain(
            generator=generator,
            var_names=self.var_names,
            states=structure.states,
            initial=0,
            rewards=rewards,
        )


class _Structure:
    """The states and transitions a walk keeps under one pattern of live
    (nonzero-rate) candidate transitions, numbered in the walk's order."""

    def __init__(self, skeleton: _Skeleton, live: np.ndarray):
        new = {0: 0}
        order = [0]
        edges: list[int] = []
        edge_pair: list[int] = []
        pairs: dict[tuple[int, int], int] = {}
        for s in order:  # grows as the walk finds states
            for e in range(skeleton.edge_start[s], skeleton.edge_start[s + 1]):
                if not live[e]:
                    continue
                t = skeleton.edge_dst[e]
                ti = new.get(t)
                if ti is None:
                    ti = new[t] = len(order)
                    order.append(t)
                edges.append(e)
                edge_pair.append(pairs.setdefault((new[s], ti), len(pairs)))
        self.order = order
        self.keep = np.array(order, dtype=np.intp)
        self.states = tuple(skeleton.states[s] for s in order)
        self.edges = np.array(edges, dtype=np.intp)
        self.edge_pair = np.array(edge_pair, dtype=np.intp)
        self.pairs = np.array(list(pairs), dtype=float).reshape(-1, 2)

    def raise_transition_error(
        self, skeleton: _Skeleton, errors: Mapping[int, Exception]
    ) -> None:
        """Raise the first error a walk of these states would meet, if any."""
        for s in self.order:
            for k in skeleton.site_slots[s]:
                if k in errors:
                    raise errors[k]
            if s in skeleton.faults:
                raise skeleton.faults[s]

    def raise_reward_error(self, skeleton: _Skeleton, errors: Mapping[int, Exception]) -> None:
        """Raise the first error met tabulating the rewards, if any: reward
        structure by structure, state by state, item by item."""
        for rname, table in skeleton.reward_slots.items():
            for s in self.order:
                for k in table[s]:
                    if int(k) in errors:
                        raise errors[int(k)]
                if (rname, s) in skeleton.reward_faults:
                    raise skeleton.reward_faults[(rname, s)]


def _resolve_constants(
    spec: ModelSpec, bindings: Mapping[str, float]
) -> dict[str, float]:
    resolved: dict[str, float] = {}
    resolving: set[str] = set()

    def resolve(name: str) -> float:
        if name in resolved:
            return resolved[name]
        if name in resolving:
            raise CompositionError(f"circular constant definition involving {name!r}")
        if name in bindings:
            resolved[name] = float(bindings[name])
            return resolved[name]
        expr = spec.constants[name]
        if expr is None:
            raise UnboundParameterError(name)
        resolving.add(name)
        env = _LazyEnv(resolve, set(spec.constants))
        value = eval_number(expr, env)
        resolving.discard(name)
        resolved[name] = value
        return value

    for name in spec.constants:
        resolve(name)
    return resolved


class _LazyEnv(Mapping):
    """Environment that resolves constants on demand (for nested definitions)."""

    def __init__(self, resolver, names):
        self._resolver = resolver
        self._names = names

    def __getitem__(self, name):
        if name not in self._names:
            raise KeyError(name)
        return self._resolver(name)

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)


# --------------------------------------------------------------------------
# Chain equivalence


@dataclass
class ChainDiff:
    """Outcome of comparing two composed chains by variable assignment."""

    equal: bool
    differences: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equal


def equivalent(
    a: ComposedChain, b: ComposedChain, *, rate_tol: float = RATE_EQUALITY_TOL
) -> ChainDiff:
    """True iff mapping states by identical variable assignments carries
    ``a`` onto ``b`` with every transition rate equal within ``rate_tol``."""
    diffs: list[str] = []
    if set(a.var_names) != set(b.var_names):
        only_a = sorted(set(a.var_names) - set(b.var_names))
        only_b = sorted(set(b.var_names) - set(a.var_names))
        diffs.append(f"variable sets differ (only left: {only_a}, only right: {only_b})")
        return ChainDiff(False, diffs)

    order = sorted(a.var_names)

    def key(chain: ComposedChain, i: int) -> tuple[int, ...]:
        assignment = chain.assignment(i)
        return tuple(assignment[v] for v in order)

    def describe(k: tuple[int, ...]) -> str:
        return "(" + ", ".join(f"{v}={x}" for v, x in zip(order, k)) + ")"

    a_index = {key(a, i): i for i in range(a.n_states)}
    b_index = {key(b, i): i for i in range(b.n_states)}

    for k in sorted(set(a_index) - set(b_index)):
        diffs.append(f"state {describe(k)} only in left chain")
    for k in sorted(set(b_index) - set(a_index)):
        diffs.append(f"state {describe(k)} only in right chain")

    if key(a, a.initial) != key(b, b.initial):
        diffs.append(
            f"initial states differ: {describe(key(a, a.initial))} vs "
            f"{describe(key(b, b.initial))}"
        )

    if not diffs:
        keys = sorted(a_index)
        ia = [a_index[k] for k in keys]
        ib = [b_index[k] for k in keys]
        qa = a.generator.q[np.ix_(ia, ia)]
        qb = b.generator.q[np.ix_(ib, ib)]
        differ = np.abs(qa - qb) > rate_tol
        np.fill_diagonal(differ, False)
        for s, d in zip(*np.nonzero(differ)):
            diffs.append(
                f"rate {describe(keys[s])} -> {describe(keys[d])}: "
                f"{float(qa[s, d])!r} vs {float(qb[s, d])!r}"
            )
    return ChainDiff(not diffs, diffs)
