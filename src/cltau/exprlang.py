"""Arithmetic expression language for kernels k(t, s) and forcings f(t).

Grammar (whitespace insignificant, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -2^2
evaluates to -4 and 2^3^2 to 512.  Numbers are decimal with optional
fraction and exponent.  The only variables are t and s, the constants are
pi and e, and the callable names are fixed (see _FUNCTIONS).  Unknown
names and wrong arities are rejected at parse time with an offset.

evaluate binds t and s to floats or numpy arrays and computes each node
with one numpy ufunc over all points (gamma, which numpy lacks, maps the
scalar routine over the entries).  A node that yields inf or nan from
finite operands, overflow included, raises EvalError naming it.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fracderiv import gamma

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
    # numpy has no gamma ufunc; the scalar routine raises at poles.
    "gamma": (1, np.vectorize(gamma, otypes=[float])),
    "pow": (2, np.power),
}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
# Nesting bound for parentheses, unary minus, '^', and call arguments.
# Each level costs about four Python frames during parsing, so 100 keeps a
# wide margin under the interpreter's recursion limit; operator chains are
# parsed iteratively and do not count against it.
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]


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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


_OPERATOR_CHARS = "+-*/^(),"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and text[i + 1].isdigit()):
            start = i
            while i < length and text[i].isdigit():
                i += 1
            if i < length and text[i] == ".":
                i += 1
                while i < length and text[i].isdigit():
                    i += 1
            if i < length and text[i] in "eE":
                j = i + 1
                if j < length and text[j] in "+-":
                    j += 1
                if j < length and text[j].isdigit():
                    i = j
                    while i < length and text[i].isdigit():
                        i += 1
            tokens.append(_Token("number", text[start:i], start))
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            start = i
            while i < length and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        raise ParseError(i, f"a valid token, not {ch!r}", text)
    tokens.append(_Token("end", "", length))
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

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.peek().offset,
                             f"nesting no deeper than {_MAX_DEPTH}", self.text)

    def leave(self):
        self.depth -= 1

    def parse_expr(self) -> Expression:
        # Chains of +/- are parsed iteratively, so only genuine nesting
        # (parentheses, unary minus, '^', call arguments) costs depth;
        # the counting happens in parse_factor, which every nesting path
        # re-enters.
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expression:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expression:
        self.enter()
        if self.peek().kind == "-":
            self.advance()
            node = Unary("-", self.parse_factor())
        else:
            node = self.parse_primary()
            if self.peek().kind == "^":
                self.advance()
                node = Binary("^", node, self.parse_factor())
        self.leave()
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


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(node: Expression) -> int:
    if isinstance(node, Binary):
        if node.op in ("+", "-"):
            return _PREC_ADD
        if node.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Unary):
        return _PREC_UNARY
    return _PREC_ATOM


def _fence(source: str, node: Expression, minimum: int) -> str:
    return f"({source})" if _precedence(node) < minimum else source


def _push_children(work: list, node: Expression):
    """Queue node for post-order completion, children first (left to right)."""
    work.append((node, True))
    if isinstance(node, Unary):
        work.append((node.operand, False))
    elif isinstance(node, Binary):
        work.append((node.right, False))
        work.append((node.left, False))
    else:
        for arg in reversed(node.args):
            work.append((arg, False))


def to_source(node: Expression) -> str:
    """Render a tree back to source with minimal parentheses.

    Parenthesization matches the grammar exactly, so
    to_source(parse(to_source(tree))) == to_source(tree).  The walk is
    iterative: trees of any depth (long operator chains in particular)
    print without exhausting the interpreter stack.
    """
    out: list[str] = []
    work: list[tuple[Expression, bool]] = [(node, False)]
    while work:
        item, ready = work.pop()
        if not ready:
            if isinstance(item, Number):
                out.append(repr(item.value))
            elif isinstance(item, Name):
                out.append(item.ident)
            elif isinstance(item, (Unary, Binary, Call)):
                _push_children(work, item)
            else:
                raise TypeError(f"not an Expression node: {item!r}")
            continue
        if isinstance(item, Unary):
            out.append("-" + _fence(out.pop(), item.operand, _PREC_UNARY))
        elif isinstance(item, Binary):
            right = out.pop()
            left = out.pop()
            if item.op in ("+", "-"):
                out.append(_fence(left, item.left, _PREC_ADD)
                           + f" {item.op} " + _fence(right, item.right, _PREC_ADD + 1))
            elif item.op in ("*", "/"):
                out.append(_fence(left, item.left, _PREC_MUL)
                           + item.op + _fence(right, item.right, _PREC_MUL + 1))
            else:
                # '^' is right-associative: strict on the left, loose on the right.
                out.append(_fence(left, item.left, _PREC_POW + 1)
                           + "^" + _fence(right, item.right, _PREC_POW))
        else:
            args = out[len(out) - len(item.args):]
            del out[len(out) - len(item.args):]
            out.append(item.func + "(" + ", ".join(args) + ")")
    return out[0]


def free_variables(node: Expression) -> set[str]:
    """The set of variables (among t, s) appearing in the tree."""
    out: set[str] = set()
    work: list[Expression] = [node]
    while work:
        item = work.pop()
        if isinstance(item, Name):
            if item.ident in _VARIABLES:
                out.add(item.ident)
        elif isinstance(item, Unary):
            work.append(item.operand)
        elif isinstance(item, Binary):
            work.append(item.left)
            work.append(item.right)
        elif isinstance(item, Call):
            work.extend(item.args)
    return out


def _check_finite(item: Expression, value, operands: list):
    """Raise EvalError if item made a non-finite entry from finite operands."""
    finite = np.isfinite(value)
    if finite.all():
        return
    fresh = ~finite
    for operand in operands:
        fresh = fresh & np.isfinite(operand)
    if not fresh.any():
        return
    if isinstance(item, Binary) and item.op == "/" and np.any(fresh & (operands[1] == 0)):
        raise EvalError("division by zero", item)
    raise EvalError("domain error", item)


@np.errstate(all="ignore")  # non-finite results are checked node by node
def evaluate(node: Expression, t: float | np.ndarray | None = None,
             s: float | np.ndarray | None = None) -> float | np.ndarray:
    """IEEE double evaluation with bindings for t and s.

    Bindings may be floats or numpy arrays; every node is one numpy ufunc
    call on the broadcast operands, so a tree is walked once however many
    points it is evaluated at.  The result is a float when it is a scalar
    (scalar bindings, or a tree that uses no bound variable) and an array
    of the broadcast shape of the variables it uses otherwise.

    Unbound variables and any node that turns finite operands into a
    non-finite value raise EvalError naming that sub-expression: division
    by zero, and as "domain error" sqrt of a negative, ln of a
    non-positive, gamma at a pole, a fractional power of a negative, and
    overflow to inf.  The walk is iterative, so trees of any depth
    evaluate without exhausting the interpreter stack.
    """
    bindings = {"t": t, "s": s}

    def name_value(item: Name):
        if item.ident in _CONSTANTS:
            return _CONSTANTS[item.ident]
        if item.ident not in _VARIABLES:
            raise EvalError(f"unknown name {item.ident!r}", item)
        value = bindings[item.ident]
        if value is None:
            raise EvalError(f"unbound variable {item.ident!r}", item)
        return np.asarray(value, dtype=float)

    out: list = []
    work: list[tuple[Expression, bool]] = [(node, False)]
    while work:
        item, ready = work.pop()
        if not ready:
            if isinstance(item, Number):
                out.append(item.value)
            elif isinstance(item, Name):
                out.append(name_value(item))
            elif isinstance(item, (Unary, Binary, Call)):
                _push_children(work, item)
            else:
                raise TypeError(f"not an Expression node: {item!r}")
            continue
        if isinstance(item, Unary):
            out.append(-out.pop())
            continue
        arity = 2 if isinstance(item, Binary) else len(item.args)
        operands = out[len(out) - arity:]
        del out[len(out) - arity:]
        if isinstance(item, Binary):
            value = _BINARY[item.op](*operands)
        else:
            try:
                value = _FUNCTIONS[item.func][1](*operands)
            except (ValueError, OverflowError) as exc:  # gamma at a pole or overflowing
                raise EvalError(f"domain error ({exc})", item) from None
        _check_finite(item, value, operands)
        out.append(value)
    value = out[0]
    return float(value) if np.ndim(value) == 0 else value
