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

evaluate binds t and s to real, finite floats or numpy arrays that
broadcast together and computes each node with one numpy ufunc over all
points (gamma, which numpy lacks, maps math.gamma over the entries).
Failures come from numpy's IEEE exception flags: a node whose ufunc raises
divide, overflow or invalid (underflow is ignored) raises EvalError naming
it.  Parsed literals and bindings are finite, so that is a node that makes
inf or nan from finite operands.
evaluate, to_source and free_variables are one walk, _fold, each with its
own leaf and combine steps.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "Number",
    "Name",
    "Unary",
    "Binary",
    "Call",
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


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str

    def __post_init__(self):
        if self.ident not in _VARIABLES and self.ident not in _CONSTANTS:
            raise ValueError(f"name must be one of t, s, pi, e, not {self.ident!r}")


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expression"

    def __post_init__(self):  # parse builds only valid nodes; hand-built ones are checked
        if self.op != "-":
            raise ValueError(f"unary operator must be '-', not {self.op!r}")


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self):
        if self.op not in _BINARY:
            raise ValueError(f"binary operator must be one of {''.join(_BINARY)}, not {self.op!r}")


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]

    def __post_init__(self):
        if _FUNCTIONS.get(self.func, (None,))[0] != len(self.args):
            raise ValueError(f"{self.func!r} with {len(self.args)} argument(s) is not a known call")


Expression = Union[Number, Name, Unary, Binary, Call]


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

    def __init__(self, reason: str, node: "Expression"):
        self.reason = reason
        self.source = to_source(node)
        super().__init__(f"{reason} in {self.source!r}")


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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.position = 0
        self.depth = 0

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

    def parse_expr(self, level: int = 1) -> Expression:
        # One left-associative chain per binding level below _UNARY (+ -,
        # then * /), parsed iteratively, so only genuine nesting
        # (parentheses, unary minus, '^', call arguments) costs depth; the
        # counting happens in parse_factor, which every nesting path re-enters.
        if level == _UNARY:
            return self.parse_factor()
        node = self.parse_expr(level + 1)
        while _BINDING.get(self.peek().kind) == level:
            op = self.advance().kind
            node = Binary(op, node, self.parse_expr(level + 1))
        return node

    def parse_factor(self) -> Expression:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.peek().offset,
                             f"nesting no deeper than {_MAX_DEPTH}", self.text)
        if self.peek().kind == "-":
            self.advance()
            node = Unary("-", self.parse_factor())
        else:
            node = self.parse_primary()
            if self.peek().kind == "^":
                self.advance()
                node = Binary("^", node, self.parse_factor())
        self.depth -= 1
        return node

    def parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            value = float(token.text)
            if not math.isfinite(value):
                raise ParseError(token.offset, "a representable number literal", self.text)
            return Number(value)
        if token.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                return self.parse_call(token)
            if token.text in _VARIABLES or token.text in _CONSTANTS:
                return Name(token.text)
            if token.text in _FUNCTIONS:
                raise ParseError(token.offset,
                                 f"'(' after function name {token.text!r}", self.text)
            raise ParseError(token.offset,
                             f"a known name, not {token.text!r}", self.text)
        if token.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        raise ParseError(token.offset, "a number, name, or '('", self.text)

    def parse_call(self, name: _Token) -> Expression:
        if name.text not in _FUNCTIONS:
            raise ParseError(name.offset,
                             f"a known function name, not {name.text!r}", self.text)
        self.expect("(", "'('")
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")", "')'")
        arity = _FUNCTIONS[name.text][0]
        if len(args) != arity:
            raise ParseError(
                name.offset,
                f"{arity} argument(s) to {name.text!r}, not {len(args)}", self.text)
        return Call(name.text, tuple(args))


def parse(text: str) -> Expression:
    """Parse source text to an Expression; raise ParseError on the first
    violation (syntax, unknown name, or wrong arity), with its offset."""
    if not isinstance(text, str):
        raise TypeError(f"expression source must be str, got {type(text).__name__}")
    parser = _Parser(text)
    node = parser.parse_expr()
    token = parser.peek()
    if token.kind != "end":
        raise ParseError(token.offset, "end of input", text)
    return node


def _fold(node: Expression, leaf, combine):
    """The one walk of a tree, in post-order: leaf(item) for each Number and
    Name, combine(item, values) for each Unary, Binary and Call with its
    children's values left to right.  It is iterative, so trees of any
    depth (long operator chains in particular) are walked without
    exhausting the interpreter stack."""
    values: list = []
    work: list = [(node, None)]  # (item, None) to visit, (item, arity) to combine
    while work:
        item, arity = work.pop()
        if arity is not None:
            operands = values[len(values) - arity:]
            del values[len(values) - arity:]
            values.append(combine(item, operands))
            continue
        if isinstance(item, (Number, Name)):
            values.append(leaf(item))
            continue
        if isinstance(item, Unary):
            children = (item.operand,)
        elif isinstance(item, Binary):
            children = (item.left, item.right)
        elif isinstance(item, Call):
            children = item.args
        else:
            raise TypeError(f"not an Expression node: {item!r}")
        work.append((item, len(children)))
        for child in reversed(children):
            work.append((child, None))
    return values[0]


def _precedence(node: Expression) -> int:
    if isinstance(node, Binary):
        return _BINDING[node.op]
    # A negative literal prints with a leading '-', so it binds as unary minus.
    if isinstance(node, Unary) or (isinstance(node, Number)
                                   and math.copysign(1.0, node.value) < 0):
        return _UNARY
    return _ATOM


def _fence(source: str, node: Expression, minimum: int) -> str:
    return f"({source})" if _precedence(node) < minimum else source


def _print_node(item: Unary | Binary | Call, parts: list[str]) -> str:
    if isinstance(item, Unary):
        return "-" + _fence(parts[0], item.operand, _UNARY)
    if isinstance(item, Call):
        return item.func + "(" + ", ".join(parts) + ")"
    level = _BINDING[item.op]
    # '^' is right-associative: strict on the left, loose on the right; the
    # others the other way round.  Only + and - are printed with spaces.
    left, right = (level + 1, level) if item.op == "^" else (level, level + 1)
    op = f" {item.op} " if level == 1 else item.op
    return _fence(parts[0], item.left, left) + op + _fence(parts[1], item.right, right)


def to_source(node: Expression) -> str:
    """Render a tree back to source with minimal parentheses.

    Parenthesization matches the grammar exactly, so
    to_source(parse(to_source(tree))) == to_source(tree).  Trees of any
    depth print (see _fold).
    """
    return _fold(node, lambda item: repr(item.value) if isinstance(item, Number) else item.ident,
                 _print_node)


def free_variables(node: Expression) -> set[str]:
    """The set of variables (among t, s) appearing in the tree."""
    return _fold(node,
                 lambda item: {item.ident} & set(_VARIABLES) if isinstance(item, Name) else set(),
                 lambda item, found: set().union(*found))


def evaluate(node: Expression, t: float | np.ndarray | None = None,
             s: float | np.ndarray | None = None) -> float | np.ndarray:
    """IEEE double evaluation with bindings for t and s.

    Bindings may be floats or numpy arrays, and must be real and finite;
    every node is one numpy ufunc call on the broadcast operands, so a
    tree is walked once however many points it is evaluated at.  The
    result is a float when it is a scalar (scalar bindings, or a tree that
    uses no bound variable) and an array of the broadcast shape of the
    variables it uses otherwise.

    Failures raise EvalError naming the sub-expression: an unbound
    variable, and a node whose ufunc raises numpy's IEEE divide, overflow
    or invalid flag (underflow is ignored).  From finite operands that is
    exactly a node that makes an inf or nan: division by zero, and as
    "domain error" sqrt of a negative, ln of a non-positive, gamma at a
    pole, a fractional power of a negative, and overflow to inf.  A
    complex or non-finite binding raises EvalError naming the variable, and
    bindings whose shapes do not broadcast together raise EvalError naming
    s, both before the walk.  Trees of any depth evaluate (see _fold).
    """
    bindings = {ident: value for ident, value in (("t", t), ("s", s)) if value is not None}
    for ident, value in bindings.items():
        if np.iscomplexobj(value):
            raise EvalError("complex binding", Name(ident))
        bindings[ident] = np.asarray(value, dtype=float)
        if not np.isfinite(bindings[ident]).all():
            raise EvalError("non-finite binding", Name(ident))
    try:
        np.broadcast_shapes(*(value.shape for value in bindings.values()))
    except ValueError:  # one shape alone always broadcasts, so t and s are both bound
        raise EvalError(f"bindings do not broadcast: t {bindings['t'].shape}, "
                        f"s {bindings['s'].shape}", Name("s")) from None

    def leaf(item: Number | Name):
        if isinstance(item, Number):
            return item.value
        if item.ident in _CONSTANTS:
            return _CONSTANTS[item.ident]
        if item.ident not in bindings:
            raise EvalError(f"unbound variable {item.ident!r}", item)
        return bindings[item.ident]

    def combine(item: Unary | Binary | Call, operands: list):
        if isinstance(item, Unary):
            return -operands[0]
        ufunc = _BINARY[item.op] if isinstance(item, Binary) else _FUNCTIONS[item.func][1]
        try:
            return ufunc(*operands)
        except FloatingPointError:  # finite operands, so this node made the inf or nan
            if isinstance(item, Binary) and item.op == "/" and np.any(operands[1] == 0):
                raise EvalError("division by zero", item) from None
            raise EvalError("domain error", item) from None
        except (ValueError, OverflowError) as exc:  # gamma at a pole or overflowing
            raise EvalError(f"domain error ({exc})", item) from None

    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        value = _fold(node, leaf, combine)
    return float(value) if np.ndim(value) == 0 else value
