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
    expr        : binary ('?' expr ':' expr)?
    binary      : unary (OP unary)*, by the operator table below
    unary       : '-' unary | NUMBER | NAME | 'true' | 'false' | '(' expr ')'
    INT         : '-'? NUMBER, of integral value

Binary operators, loosest first, with their binding powers:

    1  |          left-associative
    2  &          left-associative
    3  =  !=      do not chain: ``a = b = c`` and ``a = b != c`` are errors
    4  +  -       left-associative
    5  *  /       left-associative

so ``x = 1 & y != 2 | z = 0`` reads ``((x = 1) & (y != 2)) | (z = 0)``. Unary
minus binds tighter than every binary operator, and the conditional looser:
``a | b ? c : d`` tests ``a | b``, and each branch is a whole ``expr``.

Tokens: NAME is a letter or '_' and then letters, digits or '_' (Unicode
letters count); NUMBER is ASCII digits with an optional fraction and
exponent (``2``, ``2.5``, ``1e-3``); STRING is ``"..."`` on one line. ``//``
starts a comment to the end of the line; blanks, tabs and carriage returns
separate tokens; any other character is a :class:`ParseError`.

Types: constants and variables are numbers. Guards, reward guards, the
operands of ``&`` and ``|`` and a conditional's test are booleans; rates,
update values, reward values, constant definitions and the operands of
arithmetic, unary minus, ``=`` and ``!=`` are numbers, and ``=`` and ``!=``
give booleans. Both branches of a conditional have the type its context
wants. :func:`compile` checks every expression once, reached or not.

Constants declared without a value are external parameters and must be
bound before composition. A ``formula`` is a macro: the spec keeps its
name where it is referenced, and :func:`compile` inlines its definition.

A constant's definition may name only constants, other expressions any
constant, variable or formula, and an update only its own module's
variables. The parser checks each name and initial value at its token once
the whole listing has parsed, so a syntax error comes first; the first
fault in the source raises :class:`UndeclaredIdentifierError` or
:class:`InitOutOfRangeError` with its line and column.

:func:`compile` turns a parsed spec into a :class:`Program`, which composes
the chain at one set of bindings (``evaluate``, what :func:`compose` does)
or composes and solves it at many points at once (``evaluate_many``).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Container, Mapping, Union

import numpy as np

from abps_toolkit._text import read_utf8
from abps_toolkit.ctmc import (
    GeneratorMatrix,
    StructureError,
    ValidationError,
    build_generator,
    steady_states,
)

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
    """Base class for everything the parser and composer can reject. An
    error with a place in the listing, its 1-based ``line`` and ``column``,
    says so first, as ``line L, column C: message``."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ParseError(ModelError):
    pass


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


_NUMBER, _BOOLEAN = "number", "boolean"

# Each binary operator: its function, on Python floats and bools or on numpy
# arrays of them, the type of both operands and the type of its value.
_OPERATORS: dict[str, tuple[Callable, str, str]] = {
    "+": (operator.add, _NUMBER, _NUMBER),
    "-": (operator.sub, _NUMBER, _NUMBER),
    "*": (operator.mul, _NUMBER, _NUMBER),
    "/": (operator.truediv, _NUMBER, _NUMBER),
    "=": (operator.eq, _NUMBER, _BOOLEAN),
    "!=": (operator.ne, _NUMBER, _BOOLEAN),
    "&": (operator.and_, _BOOLEAN, _BOOLEAN),
    "|": (operator.or_, _BOOLEAN, _BOOLEAN),
}


def _check_type(expr: Expr, want: str) -> None:
    """Raise :class:`CompositionError` unless ``expr`` is well typed and of
    type ``want``. Constants and variables are numbers; both branches of a
    conditional have the type its context wants."""
    if isinstance(expr, Cond):
        _check_type(expr.test, _BOOLEAN)
        _check_type(expr.then, want)
        _check_type(expr.orelse, want)
        return
    if isinstance(expr, Binary):
        if expr.op not in _OPERATORS:
            raise CompositionError(f"unknown operator {expr.op!r}")
        _, takes, got = _OPERATORS[expr.op]
        operands = (expr.left, expr.right)
    elif isinstance(expr, Unary):
        takes, got, operands = _NUMBER, _NUMBER, (expr.operand,)
    elif isinstance(expr, (Num, Bool, Ident)):
        takes, got, operands = None, _BOOLEAN if isinstance(expr, Bool) else _NUMBER, ()
    else:
        raise CompositionError(f"cannot evaluate {expr!r}")
    if got != want:
        raise CompositionError(f"expected a {want}, got a {got} in {format_expr(expr)}")
    for operand in operands:
        _check_type(operand, takes)


def eval_expr(
    expr: Expr, env: Mapping[str, object], bad: list | None = None
) -> float | bool | np.ndarray:
    """Evaluate the checked expression ``expr`` (every spec is checked as
    :func:`compile` reads it) under ``env``: constants plus variable values.
    The most frequent node types are tested first.

    With ``bad`` None this is the scalar rule: values are Python floats and
    bools, a division by zero raises :class:`CompositionError`, and a
    conditional evaluates only the branch its test picks. With ``bad`` a
    one-element list holding a mask over points it is the array rule:
    values are numpy arrays over the points (0-d where the same at every
    point), a conditional evaluates both branches, and ``bad[0]`` gathers
    the points at which the scalar rule raises. Callers of the array rule
    silence numpy's floating-point warnings, as Python floats give inf or
    NaN without one.
    """
    if isinstance(expr, Binary):
        lhs, rhs = eval_expr(expr.left, env, bad), eval_expr(expr.right, env, bad)
        if bad is not None and expr.op == "/":
            bad[0] |= rhs == 0.0
        try:
            return _OPERATORS[expr.op][0](lhs, rhs)
        except ZeroDivisionError:
            raise CompositionError(f"division by zero in {format_expr(expr)}")
    if isinstance(expr, Ident):
        value = _lookup(env, expr.name)
        return value if bad is None else np.asarray(value, dtype=float)
    if isinstance(expr, (Num, Bool)):
        return expr.value if bad is None else np.asarray(expr.value)
    if isinstance(expr, Cond):
        test = eval_expr(expr.test, env, bad)
        if bad is None:
            return eval_expr(expr.then if test else expr.orelse, env)
        then_bad, orelse_bad = [False], [False]
        then = eval_expr(expr.then, env, then_bad)
        orelse = eval_expr(expr.orelse, env, orelse_bad)
        bad[0] |= np.where(test, then_bad[0], orelse_bad[0])
        return np.where(test, then, orelse)
    return -eval_expr(expr.operand, env, bad)  # Unary


def _lookup(env: Mapping[str, object], name: str):
    try:
        return env[name]
    except KeyError:
        raise UndeclaredIdentifierError(f"undeclared identifier: {name}")


def _substitute(expr: Expr, table: Mapping[str, Expr]) -> Expr:
    """Replace identifier references per ``table`` (:func:`compile` inlines
    formulas with it).
    A binary subtree that names none of them comes back as it is."""
    if isinstance(expr, Ident):
        return table.get(expr.name, expr)
    if isinstance(expr, Unary):
        return Unary(expr.op, _substitute(expr.operand, table))
    if isinstance(expr, Binary):
        left, right = _substitute(expr.left, table), _substitute(expr.right, table)
        return expr if left is expr.left and right is expr.right else Binary(expr.op, left, right)
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
    formulas: dict[str, Expr]  # referenced by name; compile inlines them
    modules: tuple[ModuleSpec, ...]
    rewards: dict[str, tuple[RewardItem, ...]]

    @property
    def external_parameters(self) -> tuple[str, ...]:
        return tuple(n for n, e in self.constants.items() if e is None)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(v for m in self.modules for v in m.variables)


# --------------------------------------------------------------------------
# Tokenizer

# Each match is one token after any blanks and comments; the group that
# matched names its class, and EOF matches once, at the end of the input.
_TOKENS = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* )*
    (?: (?P<NUMBER> [0-9]+ (?: \.(?!\.) [0-9]* )? (?: [eE][+-]?[0-9]+ )? )
      | (?P<IDENT> [^\W\d]\w* )
      | (?P<STRING> "[^"\n]*" )
      | (?P<PUNCT> != | \.\. | -> | [][(){};:'=?+*/&|-] )
      | (?P<EOF> \Z )
      | (?P<OTHER> . ) )
    """,
    re.VERBOSE | re.DOTALL,
)

# A token is (kind, text, offset): kind is IDENT, NUMBER, STRING, a keyword,
# a punctuation literal or EOF, and offset is where it starts in the source.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKENS.finditer(text):
        kind = match.lastgroup
        start, end = match.span(kind)
        word = text[start:end]
        if kind == "PUNCT":
            kind = word
        # [^\W\d] also admits numerals such as '²'; an identifier starts
        # with a letter or '_'.
        elif kind == "IDENT" and (word[0].isalpha() or word[0] == "_"):
            if word in KEYWORDS:
                kind = word
        elif kind == "STRING":
            word = word[1:-1]
        elif kind == "OTHER" or kind == "IDENT":
            message = "unterminated string" if word == '"' else f"unexpected character {word[0]!r}"
            raise _error_at(text, start, message)
        append((kind, word, start))
    return tokens + tokens[-1:] * 2  # the parser looks up to two tokens past EOF


def _error_at(text: str, offset: int, message: str,
              kind: type[ModelError] = ParseError) -> ModelError:
    """A ``kind`` error at ``offset`` in ``text``, with its 1-based line and
    column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return kind(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


# --------------------------------------------------------------------------
# Parser

# Each binary operator's binding power, and the highest power that may follow
# it at the same level: its own for the left-associative ones, one less for
# the comparisons, which do not chain.
_BINARY = {"|": (1, 1), "&": (2, 2), "=": (3, 2), "!=": (3, 2),
           "+": (4, 4), "-": (4, 4), "*": (5, 5), "/": (5, 5)}
_TIGHTEST = max(power for power, _ in _BINARY.values())


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.constants: dict[str, Expr | None] = {}
        self.declared: set[str] = set()  # each constant, variable and formula name
        # Where parse_atom's names stand, for messages, and the names they may be.
        self.where, self.scope = "", self.declared
        # Each name or initial value to check once the listing is whole, in
        # source order: its token, the names it may be, its error and message.
        self.checks: list[tuple[int, Container[str], type[ModelError], str]] = []

    def peek(self, ahead: int = 0) -> str:
        """The kind of the token ``ahead`` places on."""
        return self.tokens[self.pos + ahead][0]

    def advance(self) -> str:
        """Step over the next token and give its text."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def expect(self, kind: str) -> str:
        """Step over the next token, which must be a ``kind``, and give its text."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise self.error(f"expected {kind!r}, found {self.found()!r}")
        self.pos += 1
        return token[1]

    def found(self) -> str:
        return self.tokens[self.pos][1] or "end of input"

    def error(self, message: str, at: int | None = None,
              kind: type[ModelError] = ParseError) -> ModelError:
        """A ``kind`` error at token ``at``, by default the next one."""
        offset = self.tokens[self.pos if at is None else at][2]
        return _error_at(self.text, offset, message, kind)

    # -- model items ------------------------------------------------------

    def parse_model(self) -> ModelSpec:
        if self.peek() != "ctmc":
            raise self.error("model must start with the continuous-time marker 'ctmc'")
        self.advance()
        formulas: dict[str, Expr] = {}
        formula_at: dict[str, int] = {}  # the index of each formula's token
        modules: list[ModuleSpec] = []
        rewards: dict[str, tuple[RewardItem, ...]] = {}
        while (kind := self.peek()) != "EOF":
            at = self.pos
            if kind == "const":
                name, value = self.parse_const()
                self._declare(name, "constant", at + 2)
                self.constants[name] = value
            elif kind == "module":
                mod, var_at = self.parse_module()
                if any(m.name == mod.name for m in modules):
                    raise self.error(f"duplicate module {mod.name!r}", at + 1,
                                     DuplicateDeclarationError)
                for var, var_pos in zip(mod.variables, var_at):
                    self._declare(var.name, "variable", var_pos)
                modules.append(mod)
            elif kind == "formula":
                name, expr = self.parse_formula()
                self._declare(name, "formula", at + 1)
                formulas[name] = expr
                formula_at[name] = at
            elif kind == "rewards":
                name, items = self.parse_rewards()
                if name in rewards:
                    raise self.error(f"duplicate rewards block {name!r}", at + 1,
                                     DuplicateDeclarationError)
                rewards[name] = items
            else:
                raise self.error("expected 'const', 'module', 'formula' or 'rewards'")
        self._check_formula_order(formulas, formula_at)
        for at, scope, kind, message in self.checks:
            if self.tokens[at][1] not in scope:
                raise self.error(message, at, kind)
        return ModelSpec("ctmc", self.constants, formulas, tuple(modules), rewards)

    def _declare(self, name: str, what: str, at: int) -> None:
        """Declare ``name``, whose token is ``at``, once."""
        if name in self.declared:
            raise self.error(f"duplicate declaration of {name!r} ({what})", at,
                             DuplicateDeclarationError)
        self.declared.add(name)

    def _check_formula_order(self, formulas: dict[str, Expr], at: dict[str, int]) -> None:
        """:func:`compile` inlines formulas in declaration order, so each may
        name only the formulas declared before it."""
        rank = {name: k for k, name in enumerate(formulas)}
        for k, (name, expr) in enumerate(formulas.items()):
            later = sorted((n for n in _idents(expr) if rank.get(n, -1) >= k), key=rank.get)
            if later:
                what = "itself" if later[0] == name else (
                    f"formula {later[0]!r}, which is declared after it")
                raise self.error(f"formula {name!r} refers to {what}", at[name])

    def parse_const(self) -> tuple[str, Expr | None]:
        self.expect("const")
        self.expect("double")
        name = self.expect("IDENT")
        value: Expr | None = None
        if self.peek() == "=":
            self.advance()
            self.where, self.scope = f"constant {name!r}", self.constants
            value = self.parse_expr()
        self.expect(";")
        return name, value

    def parse_module(self) -> tuple[ModuleSpec, list[int]]:
        """A module and the index of each of its variables' name tokens."""
        self.expect("module")
        name = self.expect("IDENT")
        variables: list[Variable] = []
        var_at: list[int] = []
        commands: list[Command] = []
        self.module, self.owned = name, set()  # for its commands to read
        while (kind := self.peek()) != "endmodule":
            if kind == "[":
                commands.append(self.parse_command())
            elif kind == "IDENT":
                var_at.append(self.pos)
                variables.append(self.parse_vardecl())
                self.owned.add(variables[-1].name)
            else:
                raise self.error("expected a variable declaration, command or 'endmodule'")
        self.advance()
        return ModuleSpec(name, tuple(variables), tuple(commands)), var_at

    def parse_vardecl(self) -> Variable:
        name = self.expect("IDENT")
        self.expect(":")
        self.expect("[")
        at = self.pos
        low = self.parse_int()
        self.expect("..")
        high = self.parse_int()
        self.expect("]")
        if low > high:
            raise self.error(f"empty range [{low}..{high}]", at)
        self.expect("init")
        at = self.pos
        init = self.parse_int()
        if not low <= init <= high:
            self.checks.append((at, (), InitOutOfRangeError,
                                f"initial value {init} of {name!r} outside [{low}..{high}]"))
        self.expect(";")
        return Variable(name, low, high, init)

    def parse_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        at = self.pos
        value = float(self.expect("NUMBER"))
        if not value.is_integer():  # False for inf too
            raise self.error("expected an integer", at)
        return sign * int(value)

    def parse_command(self) -> Command:
        self.expect("[")
        label = None
        if self.peek() == "IDENT":
            label = self.advance()
        self.expect("]")
        self.where, self.scope = f"guard in module {self.module!r}", self.declared
        guard = self.parse_expr()
        self.expect("->")
        branches = [self.parse_branch()]
        while self.peek() == "+":
            self.advance()
            branches.append(self.parse_branch())
        self.expect(";")
        return Command(label, guard, tuple(branches))

    def parse_branch(self) -> Branch:
        # An update starts "( IDENT '"; anything else is a rate expression.
        rate: Expr | None = None
        if not (self.peek() == "(" and self.peek(1) == "IDENT" and self.peek(2) == "'"):
            self.where = f"rate in module {self.module!r}"
            rate = self.parse_expr()
            self.expect(":")
        self.where = f"update in module {self.module!r}"
        updates = [self.parse_update()]
        while self.peek() == "&":
            self.advance()
            at = self.pos + 1  # the variable, after "("
            upd = self.parse_update()
            if any(u.var == upd.var for u in updates):
                raise self.error(f"variable {upd.var!r} updated twice in one branch", at)
            updates.append(upd)
        return Branch(rate, tuple(updates))

    def parse_update(self) -> Update:
        self.expect("(")
        at = self.pos
        name = self.expect("IDENT")
        self.checks.append((at, self.owned, UndeclaredIdentifierError,
                            f"module {self.module!r} updates {name!r}, "
                            "which is not one of its variables"))
        self.expect("'")
        self.expect("=")
        value = self.parse_expr()
        self.expect(")")
        return Update(name, value)

    def parse_formula(self) -> tuple[str, Expr]:
        self.expect("formula")
        name = self.expect("IDENT")
        self.expect("=")
        self.where, self.scope = f"formula {name!r}", self.declared
        expr = self.parse_expr()
        self.expect(";")
        return name, expr

    def parse_rewards(self) -> tuple[str, tuple[RewardItem, ...]]:
        self.expect("rewards")
        name = self.expect("STRING")
        self.where, self.scope = f"rewards {name!r}", self.declared
        items: list[RewardItem] = []
        while self.peek() != "endrewards":
            guard = self.parse_expr()
            self.expect(":")
            value = self.parse_expr()
            self.expect(";")
            items.append(RewardItem(guard, value))
        self.advance()
        return name, tuple(items)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        test = self.parse_binary(1)
        if self.peek() == "?":
            self.advance()
            then = self.parse_expr()
            self.expect(":")
            orelse = self.parse_expr()
            return Cond(test, then, orelse)
        return test

    def parse_binary(self, floor: int) -> Expr:
        """Operands joined by binary operators of binding power ``floor`` or
        more (precedence climbing). Each operator's right operand binds
        tighter than it; after it, only operators up to its ceiling (see
        ``_BINARY``) may follow on this level, so ``a = b = c`` stops after
        ``a = b``, as does ``a & b = c = d`` after ``a & b = c``."""
        left = self.parse_unary()
        ceiling = _TIGHTEST
        while True:
            power, after = _BINARY.get(self.peek(), (0, 0))
            if not floor <= power <= ceiling:
                return left
            op = self.advance()
            left = Binary(op, left, self.parse_binary(power + 1))
            ceiling = after

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            self.advance()
            return Unary("-", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind = self.peek()
        if kind == "NUMBER":
            return Num(float(self.advance()))
        if kind in ("true", "false"):
            self.advance()
            return Bool(kind == "true")
        if kind == "IDENT":
            name = self.advance()
            self.checks.append((self.pos - 1, self.scope, UndeclaredIdentifierError,
                                f"undeclared identifier {name!r} in {self.where}"))
            return Ident(name)
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error(f"unexpected token {self.found()!r} in expression")


def parse(text: str) -> ModelSpec:
    """Parse model source text into a validated :class:`ModelSpec`, as
    written: a formula's name stays where it is referenced."""
    return _Parser(text).parse_model()


def parse_file(path) -> ModelSpec:
    """Parse a UTF-8 listing, read by :func:`abps_toolkit._text.read_utf8`."""
    return parse(read_utf8(path, None).read())


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


@dataclass(frozen=True)
class ChainBatch:
    """A program's chains at P points, solved in one stack, over the states
    of one walk. Where ``ok[p]`` holds, row ``p`` of ``probabilities`` and
    of each reward array is bit for bit what :meth:`Program.evaluate` and
    ``ctmc.steady_state`` give at point ``p``; elsewhere, evaluate it alone.
    """

    states: tuple[tuple[int, ...], ...]
    ok: np.ndarray
    probabilities: np.ndarray
    rewards: Mapping[str, np.ndarray]


def compile(spec: ModelSpec) -> "Program":
    """Inline ``spec``'s formulas, check its types and compile it once, to
    evaluate it at many bindings. A spec built in code composes as the
    listing that :func:`format_model` prints for it."""
    return Program(spec)


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

    States are numbered breadth-first from the initial state. Errors are
    raised in that order: an ill-typed expression anywhere in the spec, a
    guard, update or rate that fails in a reached state, then a rate or sum
    ``build_generator`` rejects, then a reward guard or value that fails,
    then a reward sum that is not finite.

    This is ``compile(spec).evaluate(bindings)``.
    """
    return compile(spec).evaluate(bindings)


# Value slots every walk shares: an omitted rate, and a reward item whose
# guard is false.
_ONE, _ZERO = 0, 1

# The largest generator stack evaluate_many assembles at once, in bytes.
_STACK_BYTES = 10_000_000


class _Term:
    """An expression and the positions of the state variables it reads.

    Its value depends on the constants and on those variables only, so a
    walk evaluates it once per combination of their values.
    """

    __slots__ = ("expr", "names", "positions", "key")

    def __init__(self, expr: Expr, var_names: tuple[str, ...]):
        self.expr = expr
        self.names = _idents(expr)
        self.positions = tuple(k for k, v in enumerate(var_names) if v in self.names)
        self.key = operator.itemgetter(*self.positions) if self.positions else _no_key


def _no_key(state: tuple[int, ...]) -> tuple:
    return ()


class Program:
    """A spec compiled for evaluation at many bindings.

    Compiling reads the spec's constants, formulas, commands and rewards,
    inlines the formulas and checks the types, raising
    :class:`CompositionError` for an ill-typed expression whether or not a
    walk would reach it; later edits to the spec are not seen. The program
    keeps the walk of its latest evaluation and replays it, evaluating only
    the rate and reward expressions, while the constants that guards and
    updates read are unchanged and the same candidate transitions are live
    (nonzero); otherwise it walks again.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.constants = dict(spec.constants)
        for expr in self.constants.values():
            if expr is not None:
                _check_type(expr, _NUMBER)
        self.variables = spec.variables()
        var_names = self.var_names = tuple(v.name for v in self.variables)
        var_pos = {v.name: k for k, v in enumerate(self.variables)}
        # Each formula's body with the earlier formulas it names inlined.
        formulas: dict[str, Expr] = {}
        for name, expr in spec.formulas.items():
            formulas[name] = _substitute(expr, formulas)

        # Names read by guards and updates: the constants among them decide
        # the state space.
        structural: set[str] = set()

        def term(expr: Expr | None, want: str, decides_states: bool = False) -> _Term | None:
            if expr is None:
                return None
            if formulas:
                expr = _substitute(expr, formulas)
            _check_type(expr, want)
            found = _Term(expr, var_names)
            if decides_states:
                structural.update(found.names)
            return found

        def update(module: str, u: Update):
            if u.var not in var_pos:
                raise CompositionError(f"module {module!r} updates {u.var!r}, "
                                       "which is not a declared variable")
            v = self.variables[var_pos[u.var]]
            return u.var, var_pos[u.var], (v.low, v.high), term(u.value, _NUMBER, True)

        def command(module: str, cmd: Command):
            """A guard term and, per branch, its rate term and updates."""
            return term(cmd.guard, _BOOLEAN, True), [
                (term(b.rate, _NUMBER), [update(module, u) for u in b.updates])
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
                    (m.name, [command(m.name, c) for c in m.commands if c.label == label])
                    for m in (spec.modules[mi] for mi in mods)
                ])
        for mod in spec.modules:
            for cmd in mod.commands:
                if cmd.label is None or len(label_modules[cmd.label]) < 2:
                    self.plain.append((mod.name, *command(mod.name, cmd)))
        self.reward_terms = {
            rname: [(term(i.guard, _BOOLEAN, True), term(i.value, _NUMBER)) for i in items]
            for rname, items in spec.rewards.items()
        }
        self.guard_names = tuple(structural - set(var_names))
        self._walk: _Walk | None = None

    def evaluate(self, bindings: Mapping[str, float] | None = None) -> ComposedChain:
        """The chain at ``bindings``, as :func:`compose` builds it."""
        bindings = self._declared(bindings or {})
        consts = _resolve_constants(self.constants, bindings)
        walk = self._walk
        if walk is not None:
            fits, q, rewards = walk.replay(consts, [np.zeros(1, dtype=bool)])
            if fits[0]:
                return walk.make_chain(GeneratorMatrix(len(walk.states), q[0]),
                                       {rname: vec[0] for rname, vec in rewards.items()})
        walk = self._walk = _Walk(self, consts)
        chain = walk.chain
        del walk.chain  # a replay builds its own chain; keep no copy of this one
        return chain

    def evaluate_many(self, bindings: Mapping[str, object]) -> ChainBatch:
        """The chains at P points and their stationary distributions, at once.

        ``bindings`` maps each constant to an array over the points or to
        one value for all. The batch follows the walk of its first point
        that composes. A point whose guard constants or live pattern differ
        from that walk's, whose values raise or are rejected, or whose solve
        ``ctmc.steady_state`` rejects gets no row. Each chunk of at most
        ``_STACK_BYTES`` of generators goes through one stacked solve.
        """
        columns = {name: np.asarray(value, dtype=float)
                   for name, value in self._declared(bindings).items()}
        shape = np.broadcast_shapes(*(c.shape for c in columns.values()))
        if len(shape) > 1:
            raise ValueError(f"bindings must be scalars or 1-d arrays, got shape {shape}")
        size = shape[0] if shape else 1
        for first in range(size):
            try:
                self.evaluate({name: c[first] if c.ndim else c for name, c in columns.items()})
                break
            except (ModelError, ValidationError):
                continue
        else:
            return ChainBatch((), np.zeros(size, dtype=bool), np.empty((size, 0)), {})
        walk = self._walk
        n = len(walk.states)
        ok = np.zeros(size, dtype=bool)
        probabilities = np.full((size, n), np.nan)
        rewards = {rname: np.full((size, n), np.nan) for rname in walk.reward_slots}
        step = max(1, _STACK_BYTES // (8 * n * n))
        for start in range(first, size, step):
            rows = slice(start, min(start + step, size))
            bad = [np.zeros(rows.stop - rows.start, dtype=bool)]
            try:
                with np.errstate(all="ignore"):  # as Python floats: inf or NaN, no warning
                    consts = _resolve_constants(
                        self.constants,
                        {name: c[rows] if c.ndim else c for name, c in columns.items()}, bad)
            except ModelError:  # every point fails alike
                continue
            fits, q, vectors = walk.replay(consts, bad)
            for rname, vec in vectors.items():
                rewards[rname][rows] = vec
            picked = np.flatnonzero(fits)
            if len(picked):
                try:
                    pi, solved = steady_states(q if fits.all() else q[picked], 0)
                except StructureError:
                    continue  # every point fails alike; alone, each says why
                probabilities[start + picked], ok[start + picked] = pi, solved
        for array in (probabilities, *rewards.values()):
            array[~ok] = np.nan  # no result
            array.flags.writeable = False
        ok.flags.writeable = False
        return ChainBatch(walk.states, ok, probabilities, rewards)

    def _declared(self, bindings: Mapping[str, object]) -> dict[str, object]:
        for name in bindings:
            if name not in self.constants:
                raise CompositionError(f"binding for undeclared constant {name!r}")
        return dict(bindings)


class _Walk:
    """One breadth-first walk of a program at some bindings, kept for replay.

    The walk meets states, guards, updates and values in the order of a full
    walk and raises the first error where it meets it. It records each value
    slot it evaluates (one rate or reward expression, in one source state
    only where the expression reads a state variable), every candidate
    transition with the slots whose product is its rate, which candidates
    were live (nonzero), each state's reward slots, and the constants that
    guards and updates read. Bindings that leave those constants alone and
    every candidate as live as before walk the same states, so a replay
    evaluates the slots only.
    """

    def __init__(self, program: Program, consts: Mapping[str, float]):
        var_names = self.var_names = program.var_names
        # The constants that guards and updates read (an undeclared name
        # stays out): a replay needs them unchanged.
        self.guard_env = {n: consts[n] for n in program.guard_names if n in consts}

        self.slots: list[tuple[str | None, Expr, dict[str, int]]] = []
        values = [1.0, 0.0]
        slot_index: dict[tuple, int] = {}
        known: dict[tuple, float | bool] = {}  # guard and update values
        envs: dict[tuple[int, ...], dict[str, float]] = {}

        def env_of(state) -> dict[str, float]:
            """The constants and ``state``'s variables. A term reads only the
            names in it, so its value is the same as under the constants and
            the variables it reads alone."""
            env = envs.get(state)
            if env is None:
                env = envs[state] = dict(consts)
                env.update(zip(var_names, map(float, state)))
            return env

        def value_of(term: _Term, state) -> float | bool:
            key = (term, term.key(state))
            value = known.get(key)
            if value is None:
                value = known[key] = eval_expr(term.expr, env_of(state))
            return value

        def slot(module: str | None, term: _Term | None, state) -> int:
            """The slot of a rate (``module`` set, checked non-negative) or
            reward value."""
            if term is None:
                return _ONE
            key = (module, term, term.key(state))
            k = slot_index.get(key)
            if k is None:
                value = eval_expr(term.expr, env_of(state))
                if module is not None and value < 0.0:
                    raise CompositionError(f"negative rate {value!r} in module {module!r} "
                                           f"(rate {format_expr(term.expr)})")
                values.append(value)
                self.slots.append((module, term.expr,
                                   {var_names[p]: float(state[p]) for p in term.positions}))
                k = slot_index[key] = len(values) - 1
            return k

        def apply_branch(target, source, mod_name, updates) -> tuple[int, ...]:
            new = list(target)
            for var, pos, (low, high), term in updates:
                value = value_of(term, source)
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

        initial = tuple(v.init for v in program.variables)
        index = {initial: 0}
        states = [initial]
        edge_factors: list[tuple[int, ...]] = []
        live: list[bool] = []
        edge_pair: list[int] = []
        pairs: dict[tuple[int, int], int] = {}

        for si, state in enumerate(states):  # grows as the walk finds states

            def record(target: tuple[int, ...], factors: tuple[int, ...]) -> None:
                if target == state:
                    return
                rate = values[factors[0]]
                for k in factors[1:]:
                    rate *= values[k]
                edge_factors.append(factors)
                live.append(rate != 0.0)
                if rate != 0.0:
                    ti = index.get(target)
                    if ti is None:
                        ti = index[target] = len(states)
                        states.append(target)
                    edge_pair.append(pairs.setdefault((si, ti), len(pairs)))

            for mod_name, guard, branches in program.plain:
                if not value_of(guard, state):
                    continue
                for rate, updates in branches:
                    k = slot(mod_name, rate, state)
                    record(apply_branch(state, state, mod_name, updates), (k,))

            for participants in program.synced:
                # Every participating module needs an enabled command, else
                # the label is blocked in this state.
                options: list[list[tuple[int, str, list]]] = []
                for mod_name, commands in participants:
                    opts = []
                    for guard, branches in commands:
                        if value_of(guard, state):
                            for rate, updates in branches:
                                opts.append((slot(mod_name, rate, state), mod_name, updates))
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

        self.states = tuple(states)
        self.rate_slots = np.array([k for k, (module, _, _) in enumerate(self.slots, start=2)
                                    if module is not None], dtype=np.intp)
        width = max((len(f) for f in edge_factors), default=1)
        self.edge_slots = np.full((len(edge_factors), width), _ONE, dtype=np.intp)
        for e, factors in enumerate(edge_factors):
            self.edge_slots[e, : len(factors)] = factors
        self.live = np.array(live, dtype=bool)
        self.edge_pair = np.array(edge_pair, dtype=np.intp)
        self.pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2)
        n = len(states)
        self.cells = (self.pairs[:, 0] * n + self.pairs[:, 1])[self.edge_pair]  # of Q, flat
        generator = self.generator(self.rates(np.array(values)))  # its errors come first

        # A false reward guard points at the zero slot.
        self.reward_slots: dict[str, np.ndarray] = {}
        for rname, items in program.reward_terms.items():
            table = np.full((len(states), len(items)), _ZERO, dtype=np.intp)
            for si, state in enumerate(states):
                for k, (guard, value) in enumerate(items):
                    if value_of(guard, state):
                        table[si, k] = slot(None, value, state)
            self.reward_slots[rname] = table
        self.chain = self.make_chain(generator, self.rewards(np.array(values)))

    def generator(self, rates: np.ndarray) -> GeneratorMatrix:
        """The generator at one point's candidate ``rates``, through ``build_generator``."""
        rates = rates[self.live]
        pair_rates = np.bincount(self.edge_pair, weights=rates, minlength=len(self.pairs))
        return build_generator(len(self.states), np.column_stack((self.pairs, pair_rates)))

    def rates(self, values: np.ndarray) -> np.ndarray:
        """Each candidate's rate, its slots multiplied in factor order, from
        one point's slot values or a row of them per point."""
        rates = values[..., self.edge_slots[:, 0]]
        with np.errstate(all="ignore"):  # as Python floats: inf, NaN or 0, no warning
            for k in range(1, self.edge_slots.shape[1]):
                rates = rates * values[..., self.edge_slots[:, k]]
        return rates

    def rewards(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Each reward vector, its items summed in order; as for rates()."""
        rewards = {}
        for rname, table in self.reward_slots.items():
            vec = np.zeros(values.shape[:-1] + (len(self.states),))
            with np.errstate(all="ignore"):  # callers reject a non-finite sum
                for column in table.T:
                    vec += values[..., column]
            rewards[rname] = vec
        return rewards

    def replay(
        self, consts: Mapping[str, object], bad: list
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """The walk replayed at once at the points of the mask ``bad[0]``,
        which already holds those where a constant fails: the mask of the
        points it fits, with no value that raises or that the walk would
        reject, and each point's generator matrix and reward vectors."""
        n, size = len(self.states), len(bad[0])
        values = np.empty((size, 2 + len(self.slots)))
        values[:, _ONE], values[:, _ZERO] = 1.0, 0.0
        with np.errstate(all="ignore"):  # as Python floats: inf or NaN, no warning
            for k, (_, expr, extra) in enumerate(self.slots, start=2):
                values[:, k] = eval_expr(expr, {**consts, **extra} if extra else consts, bad)
            fits = ~bad[0] & ~(values[:, self.rate_slots] < 0.0).any(axis=1)
            for name, value in self.guard_env.items():
                fits &= consts[name] == value
            rates = self.rates(values)
            fits &= ((rates != 0.0) == self.live).all(axis=1)
            rates = rates[:, self.live]
            # One flat bincount over point, source and target sums parallel
            # transitions in walk order, as generator() does for one point.
            flat = (np.arange(size)[:, np.newaxis] * (n * n) + self.cells).ravel()
            q = np.bincount(flat, weights=rates.ravel(), minlength=size * n * n)
            q = q.astype(float, copy=False).reshape(-1, n * n)  # empty input counts in ints
            exit_rates = q.reshape(-1, n, n).sum(axis=2)
            q[:, :: n + 1] = -exit_rates  # the diagonal
            q = q.reshape(-1, n, n)
        # rates are not negative, so a finite exit rate bounds every sum in its row
        fits &= np.isfinite(rates).all(axis=1) & np.isfinite(exit_rates).all(axis=1)
        rewards = self.rewards(values)
        for vec in rewards.values():
            fits &= np.isfinite(vec).all(axis=1)
        return fits, q, rewards

    def make_chain(self, generator: GeneratorMatrix, rewards: dict) -> ComposedChain:
        for rname, vec in rewards.items():
            finite = np.isfinite(vec)
            if not finite.all():
                si = int(finite.argmin())  # the first state that is not finite
                raise CompositionError(
                    f"reward structure {rname!r} needs finite values, "
                    f"got {float(vec[si])!r} in state {si}"
                )
            vec.flags.writeable = False
        return ComposedChain(generator, self.var_names, self.states, 0, rewards)


def _resolve_constants(
    constants: Mapping[str, Expr | None], bindings: Mapping[str, object], bad: list | None = None
) -> dict:
    """Every constant's value by the rule ``bad`` picks in :func:`eval_expr`:
    a float per constant (bound ones through ``float``), or an array over
    the points (bound ones given as float arrays)."""
    env = _ConstantEnv(constants, bindings, bad)
    for name in constants:
        env[name]
    return dict(env)


class _ConstantEnv(dict):
    """Constants resolved on demand, so a definition may name a later one.

    It holds no reference to itself, so the spec it reads is freed by
    reference counting alone.
    """

    def __init__(self, constants, bindings, bad):
        super().__init__()
        self.constants, self.bindings, self.bad = constants, bindings, bad
        self.resolving: set[str] = set()

    def __missing__(self, name: str):
        if name not in self.constants:
            raise KeyError(name)
        if name in self.resolving:
            raise CompositionError(f"circular constant definition involving {name!r}")
        if name in self.bindings:
            value = self.bindings[name]
            if self.bad is None:
                value = float(value)
        else:
            expr = self.constants[name]
            if expr is None:
                raise UnboundParameterError(name)
            self.resolving.add(name)
            value = eval_expr(expr, self, self.bad)
            self.resolving.discard(name)
        self[name] = value
        return value


# --------------------------------------------------------------------------
# Chain equivalence


@dataclass
class ChainDiff:
    """Outcome of comparing two composed chains by variable assignment."""

    equal: bool
    differences: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equal


def equivalent(a: ComposedChain, b: ComposedChain) -> ChainDiff:
    """True iff mapping states by identical variable assignments carries
    ``a`` onto ``b`` with every transition rate equal within
    ``RATE_EQUALITY_TOL``."""
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
        differ = np.abs(qa - qb) > RATE_EQUALITY_TOL
        np.fill_diagonal(differ, False)
        for s, d in zip(*np.nonzero(differ)):
            diffs.append(
                f"rate {describe(keys[s])} -> {describe(keys[d])}: "
                f"{float(qa[s, d])!r} vs {float(qb[s, d])!r}"
            )
    return ChainDiff(not diffs, diffs)
