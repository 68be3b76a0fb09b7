"""Arithmetic expression language for kernels k(t, s) and forcings f(t).

Grammar (whitespace insignificant, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -2^2
evaluates to -4 and 2^3^2 to 512.  Numbers are decimal, in ASCII digits,
with optional fraction and exponent.  The only variables are t and s, the
constants are pi and e, and the callable names are fixed (see _FUNCTIONS).
Unknown names and wrong arities are rejected at parse time with an offset.

parse returns an expression as its post-order program, a flat tuple of
items, each after its operands: ("num", value) for a literal, ("name",
ident) for a variable or constant, ("neg", "-") for unary minus, ("bin",
op) for a binary operator and ("call", func) for a call.  So t*(1 + s) is
(("name", "t"), ("num", 1.0), ("name", "s"), ("bin", "+"), ("bin", "*")).
Programs compare, hash and print as plain tuples, at any length.

evaluate, to_source and free_variables are one walk, _fold: a loop over a
value stack, with its own leaf and combine steps for each.  The walk
rejects, with ValueError, any item outside the grammar and a program that
does not leave exactly one value, so hand-built programs are checked too
(a literal must be a finite float, as parse makes it).

evaluate binds t and s to real, finite floats or numpy arrays that
broadcast together and computes each item with one numpy ufunc over all
points (gamma, which numpy lacks, maps math.gamma over the entries).
Failures come from numpy's IEEE exception flags: an item whose ufunc raises
divide, overflow or invalid (underflow is ignored) raises EvalError naming
its sub-expression.  Literals and bindings are finite, so that is an
item that makes inf or nan from finite operands.
"""

import math
import re
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expression",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "free_variables",
    "to_source",
]

_VARIABLES = ("t", "s")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = {
    "exp": (1, np.exp),
    "ln": (1, np.log),
    "sqrt": (1, np.sqrt),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "abs": (1, np.abs),
    # numpy has no gamma ufunc; math.gamma raises at poles and on overflow.
    "gamma": (1, np.vectorize(math.gamma, otypes=[float])),
    "pow": (2, np.power),
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# How tightly each operator binds, for the parser and the printer alike;
# unary minus binds at _UNARY, a number, name or call at _ATOM.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY, _ATOM = 3, 5
# Nesting bound for parentheses, unary minus, '^', and call arguments.
# Each level costs about five Python frames during parsing, so 100 keeps a
# wide margin under the interpreter's recursion limit; operator chains are
# parsed iteratively and do not count against it.
_MAX_DEPTH = 100

# An expression's post-order program (see the module docstring).
Expression = tuple[tuple[str, float | str], ...]
# Every item of the grammar but a number literal, with its operand count.
_ARITY = {("neg", "-"): 1,
          **{("name", ident): 0 for ident in (*_VARIABLES, *_CONSTANTS)},
          **{("bin", op): 2 for op in _BINARY},
          **{("call", func): arity for func, (arity, _) in _FUNCTIONS.items()}}


class ParseError(ValueError):
    """Syntax or name error, located by offset into the source text."""

    def __init__(self, offset: int, expected: str, source: str):
        self.offset = offset
        self.expected = expected
        start = max(0, offset - 24)
        self.excerpt = source[start:offset + 24]
        super().__init__(f"offset {offset}: expected {expected} (near {self.excerpt!r})")


class EvalError(ValueError):
    """Evaluation failure, naming the offending sub-expression."""

    def __init__(self, reason: str, program: Expression):
        self.reason = reason
        self.source = to_source(program)
        super().__init__(f"{reason} in {self.source!r}")


class _Fault(Exception):
    """An evaluation step's failure; _fold names its sub-expression."""


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


_SPACE = re.compile(r"\s*")
# ASCII digits only: float() takes other decimal digits but not superscripts.
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),]))")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    end = 0
    while match := _TOKEN.match(text, end):
        kind = match.lastgroup
        # An operator is its own kind.
        tokens.append(_Token(match[kind] if kind == "op" else kind, match[kind], match.start(kind)))
        end = match.end()
    offset = _SPACE.match(text, end).end()
    if offset < len(text):
        raise ParseError(offset, f"a valid token, not {text[offset]!r}", text)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that appends each item to program once its
    operands are there."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0
        self.depth = 0
        self.program = []

    def peek(self) -> _Token:
        return self.tokens[self.position]

    def advance(self) -> _Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect(self, kind: str, expected: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.offset, expected, self.text)
        return self.advance()

    def parse_expr(self, level: int = 1) -> None:
        # One left-associative chain per binding level below _UNARY (+ -,
        # then * /), parsed iteratively, so only genuine nesting
        # (parentheses, unary minus, '^', call arguments) costs depth; the
        # counting happens in parse_factor, which every nesting path re-enters.
        if level == _UNARY:
            return self.parse_factor()
        self.parse_expr(level + 1)
        while _BINDING.get(self.peek().kind) == level:
            op = self.advance().kind
            self.parse_expr(level + 1)
            self.program.append(("bin", op))

    def parse_factor(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.peek().offset,
                             f"nesting no deeper than {_MAX_DEPTH}", self.text)
        if self.peek().kind == "-":
            self.advance()
            self.parse_factor()
            self.program.append(("neg", "-"))
        else:
            self.parse_primary()
            if self.peek().kind == "^":
                self.advance()
                self.parse_factor()
                self.program.append(("bin", "^"))
        self.depth -= 1

    def parse_primary(self) -> None:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = float(token.text)
            if not math.isfinite(value):
                raise ParseError(token.offset, "a representable number literal", self.text)
            self.program.append(("num", value))
        elif token.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                self.parse_call(token)
            elif token.text in _VARIABLES or token.text in _CONSTANTS:
                self.program.append(("name", token.text))
            else:
                expected = (f"'(' after function name {token.text!r}" if token.text in _FUNCTIONS
                            else f"a known name, not {token.text!r}")
                raise ParseError(token.offset, expected, self.text)
        elif token.kind == "(":
            self.advance()
            self.parse_expr()
            self.expect(")", "')'")
        else:
            raise ParseError(token.offset, "a number, name, or '('", self.text)

    def parse_call(self, name: _Token) -> None:
        if name.text not in _FUNCTIONS:
            raise ParseError(name.offset,
                             f"a known function name, not {name.text!r}", self.text)
        self.expect("(", "'('")
        self.parse_expr()
        count = 1
        while self.peek().kind == ",":
            self.advance()
            self.parse_expr()
            count += 1
        self.expect(")", "')'")
        arity = _FUNCTIONS[name.text][0]
        if count != arity:
            raise ParseError(
                name.offset,
                f"{arity} argument(s) to {name.text!r}, not {count}", self.text)
        self.program.append(("call", name.text))


def parse(text: str) -> Expression:
    """Parse source text to its program; raise ParseError on the first
    violation (syntax, unknown name, or wrong arity), with its offset."""
    if not isinstance(text, str):
        raise TypeError(f"expression source must be str, got {type(text).__name__}")
    parser = _Parser(text)
    parser.parse_expr()
    token = parser.peek()
    if token.kind != "end":
        raise ParseError(token.offset, "end of input", text)
    return tuple(parser.program)


def _fold(program: Expression, leaf, combine):
    """The one walk of a program, a loop over a value stack: leaf(item)
    gives each literal's and name's value, combine(item, operands) each
    other item's from its operands' values, left to right.

    An item outside the grammar, an item short of operands and a program
    that does not leave exactly one value raise ValueError.  A _Fault
    raised by either step becomes an EvalError naming the sub-expression
    that ends at its item.
    """
    values: list = []
    for end, item in enumerate(program):
        try:
            arity = _ARITY[item]
        except (KeyError, TypeError):  # a number literal, or no item of the grammar
            if not (isinstance(item, tuple) and len(item) == 2 and item[0] == "num"
                    and isinstance(item[1], float) and math.isfinite(item[1])):
                raise ValueError(f"{item!r} is not an expression item") from None
            arity = 0
        if len(values) < arity:
            raise ValueError(f"{item!r} needs {arity} operand(s), not {len(values)}")
        try:
            if arity:
                operands = values[-arity:]
                del values[-arity:]
                values.append(combine(item, operands))
            else:
                values.append(leaf(item))
        except _Fault as fault:
            raise EvalError(str(fault), program[_start(program, end):end + 1]) from None
    if len(values) != 1:
        raise ValueError(f"{program[-1:]!r} leaves {len(values)} values, not one")
    return values[0]


def _start(program: Expression, end: int) -> int:
    """Where the sub-expression that ends at program[end] starts: walking
    back, each item fills one pending operand and adds its own."""
    start, pending = end, _ARITY.get(program[end], 0)
    while pending:
        start -= 1
        pending += _ARITY.get(program[start], 0) - 1
    return start


def _fence(part: tuple[str, int], minimum: int) -> str:
    text, level = part
    return f"({text})" if level < minimum else text


def _print_leaf(item) -> tuple[str, int]:
    kind, value = item
    if kind == "name":
        return value, _ATOM
    # A negative literal prints with a leading '-', so it binds as unary minus.
    return repr(value), _UNARY if math.copysign(1.0, value) < 0 else _ATOM


def _print_item(item, parts: list[tuple[str, int]]) -> tuple[str, int]:
    kind, name = item
    if kind == "neg":
        return "-" + _fence(parts[0], _UNARY), _UNARY
    if kind == "call":
        return name + "(" + ", ".join(text for text, _ in parts) + ")", _ATOM
    level = _BINDING[name]
    # '^' is right-associative: strict on the left, loose on the right; the
    # others the other way round.  Only + and - are printed with spaces.
    left, right = (level + 1, level) if name == "^" else (level, level + 1)
    op = f" {name} " if level == 1 else name
    return _fence(parts[0], left) + op + _fence(parts[1], right), level


def to_source(program: Expression) -> str:
    """Render a program back to source with minimal parentheses.

    Parenthesization matches the grammar exactly, so
    parse(to_source(program)) == program for every parsed program.
    Programs of any length print (see _fold).
    """
    return _fold(program, _print_leaf, _print_item)[0]


def free_variables(program: Expression) -> set[str]:
    """The set of variables (among t, s) appearing in the program."""
    return _fold(program, lambda item: {item[1]} & set(_VARIABLES),
                 lambda item, found: set().union(*found))


def evaluate(program: Expression, t: float | np.ndarray | None = None,
             s: float | np.ndarray | None = None) -> float | np.ndarray:
    """IEEE double evaluation with bindings for t and s.

    Bindings may be floats or numpy arrays, and must be real and finite;
    every item is one numpy ufunc call on the broadcast operands, so a
    program is walked once however many points it is evaluated at.  The
    result is a float when it is a scalar (scalar bindings, or a program
    that uses no bound variable) and an array of the broadcast shape of the
    variables it uses otherwise.

    Failures raise EvalError naming the sub-expression: an unbound
    variable, and an item whose ufunc raises numpy's IEEE divide, overflow
    or invalid flag (underflow is ignored).  From finite operands that is
    exactly an item that makes an inf or nan: division by zero, and as
    "domain error" sqrt of a negative, ln of a non-positive, gamma at a
    pole, a fractional power of a negative, and overflow to inf.  A
    complex or non-finite binding raises EvalError naming the variable, and
    bindings whose shapes do not broadcast together raise EvalError naming
    s, both before the walk.  Programs of any length evaluate (see _fold).
    """
    bindings = {ident: value for ident, value in (("t", t), ("s", s)) if value is not None}
    for ident, value in bindings.items():
        if np.iscomplexobj(value):
            raise EvalError("complex binding", (("name", ident),))
        bindings[ident] = np.asarray(value, dtype=float)
        if not np.isfinite(bindings[ident]).all():
            raise EvalError("non-finite binding", (("name", ident),))
    try:
        np.broadcast_shapes(*(value.shape for value in bindings.values()))
    except ValueError:  # one shape alone always broadcasts, so t and s are both bound
        raise EvalError(f"bindings do not broadcast: t {bindings['t'].shape}, "
                        f"s {bindings['s'].shape}", (("name", "s"),)) from None
    names = {**_CONSTANTS, **bindings}

    def leaf(item):
        if item[0] == "num":
            return item[1]
        if item[1] not in names:
            raise _Fault(f"unbound variable {item[1]!r}")
        return names[item[1]]

    def combine(item, operands: list):
        kind, name = item
        if kind == "neg":
            return -operands[0]
        ufunc = _BINARY[name] if kind == "bin" else _FUNCTIONS[name][1]
        try:
            return ufunc(*operands)
        except FloatingPointError:  # finite operands, so this item made the inf or nan
            if name == "/" and np.any(operands[1] == 0):
                raise _Fault("division by zero") from None
            raise _Fault("domain error") from None
        except (ValueError, OverflowError) as exc:  # gamma at a pole or overflowing
            raise _Fault(f"domain error ({exc})") from None

    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        value = _fold(program, leaf, combine)
    return float(value) if np.ndim(value) == 0 else value
