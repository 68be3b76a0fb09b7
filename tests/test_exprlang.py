"""Expression language: precedence, literals, parse-time name resolution,
positioned errors, the minimal-parenthesis printer, and totality under
fuzzed input."""

import math
import random
import string

import numpy as np
import pytest

from cltau.exprlang import (
    Binary,
    Call,
    EvalError,
    Name,
    Number,
    ParseError,
    Unary,
    evaluate,
    free_variables,
    parse,
    to_source,
)


def _value(src, **bindings):
    return evaluate(parse(src), **bindings)


# -------------------------------------------------------------- precedence

def test_arithmetic_precedence():
    assert _value("1 + 2*3") == 7.0
    assert _value("6 - 4/2") == 4.0
    assert _value("2*3^2") == 18.0
    assert _value("(1 + 2)*3") == 9.0


def test_left_associativity():
    assert _value("1 - 2 - 3") == -4.0
    assert _value("8/4/2") == 1.0


def test_power_binds_tighter_than_unary_minus():
    assert _value("-2^2") == -4.0
    assert _value("(-2)^2") == 4.0
    assert _value("2^-3") == 0.125


def test_power_is_right_associative():
    assert _value("2^3^2") == 512.0
    assert _value("(2^3)^2") == 64.0


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2t")
    with pytest.raises(ParseError):
        parse("(1)(2)")


# ----------------------------------------------------------------- atoms

def test_number_literals():
    assert _value("0.5") == 0.5
    assert _value(".25") == 0.25
    assert _value("1e-3") == 1e-3
    assert _value("2.5E+2") == 250.0
    # "2e" is a number followed by the constant e, not a malformed literal;
    # without implicit multiplication it fails at the juxtaposition.
    with pytest.raises(ParseError) as err:
        parse("2e")
    assert err.value.expected == "end of input"


def test_non_representable_literal():
    with pytest.raises(ParseError) as err:
        parse("1e999")
    assert "representable" in err.value.expected


def test_constants_and_variables():
    assert _value("pi") == pytest.approx(math.pi, rel=0)
    assert _value("e") == pytest.approx(math.e, rel=0)
    assert _value("t + s", t=2.0, s=3.0) == 5.0
    assert type(_value("t^2", t=3.0)) is float
    # Array bindings broadcast; a tree without variables stays a float.
    t, s = np.array([[0.25], [0.5]]), np.array([1.0, 2.0, 4.0])
    assert np.array_equal(_value("t*s + 1", t=t, s=s), t * s + 1.0)
    assert type(_value("2*pi", t=t)) is float
    assert free_variables(parse("t*s + pi")) == {"t", "s"}
    assert free_variables(parse("2 + e")) == set()


def test_functions():
    assert _value("gamma(0.5)") == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert _value("pow(2, 10)") == 1024.0
    assert _value("exp(ln(3))") == pytest.approx(3.0, rel=1e-15)
    assert _value("sqrt(abs(0 - 9))") == 3.0
    assert _value("sin(0) + cos(0)") == 1.0


def test_tan():
    node = parse("tan(t)")
    assert node == Call("tan", (Name("t"),))
    for t in (0.0, 0.3, 1.0, -1.2):
        assert evaluate(node, t=t) == np.tan(t)
        # numpy's tan and libm's may differ in the last bit (they do at 0.3).
        assert abs(evaluate(node, t=t) - math.tan(t)) <= math.ulp(math.tan(t))


# ----------------------------------------------------------- parse errors

def test_unclosed_parenthesis_offset():
    with pytest.raises(ParseError) as err:
        parse("2*(3")
    assert err.value.offset == 4
    assert err.value.expected == "')'"
    assert str(err.value).startswith("offset 4: expected ')'")


def test_unknown_token_offset():
    with pytest.raises(ParseError) as err:
        parse("1 @ 2")
    assert err.value.offset == 2


def test_unknown_names_fail_at_parse_time():
    with pytest.raises(ParseError) as err:
        parse("foo(1)")
    assert err.value.offset == 0 and "foo" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse("1 + x")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("pow(1)")
    assert "2 argument(s)" in err.value.expected


def test_trailing_and_empty_input():
    with pytest.raises(ParseError) as err:
        parse("t s")
    assert err.value.expected == "end of input"
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(TypeError):
        parse(b"1 + 1")


def test_nesting_depth_guard():
    fine = "(" * 80 + "1" + ")" * 80
    assert _value(fine) == 1.0
    with pytest.raises(ParseError) as err:
        parse("(" * 150 + "1" + ")" * 150)
    assert "nesting" in err.value.expected
    with pytest.raises(ParseError):
        parse("-" * 150 + "1")


# ------------------------------------------------------------ eval errors

def test_eval_errors_name_the_subexpression():
    with pytest.raises(EvalError) as err:
        _value("1/(t - t)", t=5.0)
    assert "division by zero" in str(err.value)
    with pytest.raises(EvalError) as err:
        _value("sqrt(t - 2)", t=1.0)
    assert "domain error" in str(err.value) and "sqrt" in str(err.value)
    with pytest.raises(EvalError) as err:
        _value("ln(0)")
    assert "ln" in str(err.value)
    with pytest.raises(EvalError) as err:
        _value("t + 1")  # unbound
    assert "unbound" in str(err.value)
    # With array bindings one bad entry fails the whole call, and overflow
    # to inf is an error too.
    array_cases = [
        ("2 + 1/(t - 0.5)", {"t": np.array([0.0, 0.5, 1.0])}, "division by zero",
         "1.0/(t - 0.5)"),
        ("1 + sqrt(t - s)", {"t": np.array([[0.2], [0.8]]), "s": np.array([0.1, 0.5])},
         "domain error", "sqrt(t - s)"),
        ("t*ln(s)", {"t": np.ones(3), "s": np.array([1.0, 0.0, 2.0])}, "domain error", "ln(s)"),
        ("gamma(t - 1)", {"t": np.array([0.5, 1.0])}, "domain error", "gamma(t - 1.0)"),
        ("exp(t)*s", {"t": np.array([1.0, 1000.0]), "s": 2.0}, "domain error", "exp(t)"),
        ("1e300*t", {"t": np.array([1.0, 1e10])}, "domain error", "1e+300*t"),
    ]
    for src, bindings, reason, source in array_cases:
        with pytest.raises(EvalError) as err:
            _value(src, **bindings)
        assert err.value.reason.startswith(reason) and err.value.source == source


def test_eval_error_is_value_error():
    assert issubclass(ParseError, ValueError)
    assert issubclass(EvalError, ValueError)


# ---------------------------------------------------------------- printer

def test_to_source_minimal_parentheses():
    cases = [
        ("1+2*3", "1.0 + 2.0*3.0"),
        ("(1+2)*3", "(1.0 + 2.0)*3.0"),
        ("1-(2-3)", "1.0 - (2.0 - 3.0)"),
        ("2/(3*4)", "2.0/(3.0*4.0)"),
        ("-2^2", "-2.0^2.0"),
        ("(-2)^2", "(-2.0)^2.0"),
        ("2^3^2", "2.0^3.0^2.0"),
        ("(2^3)^2", "(2.0^3.0)^2.0"),
        ("pow(t, 2) + s", "pow(t, 2.0) + s"),
    ]
    for src, printed in cases:
        assert to_source(parse(src)) == printed


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.5:
            return Number(float(rng.randint(0, 9)))
        if pick < 0.8:
            return Name(rng.choice(["t", "s"]))
        return Name(rng.choice(["pi", "e"]))
    pick = rng.random()
    if pick < 0.15:
        return Unary("-", _random_tree(rng, depth - 1))
    if pick < 0.9:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return Call("pow", (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))


def test_to_source_round_trips_random_trees():
    rng = random.Random(20260816)
    for _ in range(300):
        node = _random_tree(rng, 4)
        assert parse(to_source(node)) == node


def test_array_evaluation_matches_pointwise_evaluation():
    # One call on 16 points gives, bit for bit, the 16 scalar results; when
    # some point fails, the array call fails too, naming a node that fails
    # at that point.
    rng = random.Random(20261018)
    points = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 16))
    for _ in range(300):
        node = _random_tree(rng, 4)
        scalar, failures = [], set()
        for t, s in points.T:
            try:
                scalar.append(evaluate(node, t=float(t), s=float(s)))
            except EvalError as exc:
                failures.add(exc.source)
        if failures:
            with pytest.raises(EvalError) as err:
                evaluate(node, t=points[0], s=points[1])
            assert err.value.source in failures
            continue
        vector = np.broadcast_to(evaluate(node, t=points[0], s=points[1]), (16,))
        assert np.array_equal(vector.view(np.int64), np.array(scalar).view(np.int64)), (
            to_source(node))


# ---------------------------------------------------------------- totality

def test_fuzz_totality():
    # parse() must either return a tree or raise ParseError, nothing else.
    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + "+-*/^(), .\t"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        try:
            node = parse(text)
        except ParseError:
            continue
        evaluate(node, t=0.5, s=0.5)  # may raise EvalError, also fine
        to_source(node)


def test_fuzz_large_inputs():
    rng = random.Random(99)
    alphabet = string.printable
    for _ in range(8):
        text = "".join(rng.choice(alphabet) for _ in range(4096))
        with pytest.raises(ParseError):
            parse(text)
    # A syntactically valid 4 KiB expression parses fine.
    long_sum = " + ".join(["t"] * 1200)
    assert evaluate(parse(long_sum), t=1.0) == 1200.0


def test_fuzz_eval_totality():
    # Valid parses evaluated at random points raise only EvalError.
    rng = random.Random(3)
    sources = ["t^s", "ln(t - s)", "1/(t - s)", "gamma(t - 2)", "sqrt(s - t)",
               "pow(t, 0 - s)", "exp(t*300)"]
    for src in sources:
        node = parse(src)
        for _ in range(50):
            try:
                value = evaluate(node, t=rng.uniform(0, 1), s=rng.uniform(0, 1))
            except EvalError:
                continue
            assert isinstance(value, float) and math.isfinite(value)
