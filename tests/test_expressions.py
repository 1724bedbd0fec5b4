import math

import numpy as np
import pytest

from charfred import expressions
from charfred.expressions import (EvalError, ParseError, check_periodicity,
                                  constant_value, evaluate, evaluate_on,
                                  is_literal_zero, parse, pretty)

GOLDEN = [
    # (text, (x, y, t), value)
    ("1 + 2*3", (0, 0, 0), 7.0),
    ("(1 + 2)*3", (0, 0, 0), 9.0),
    ("2^3^2", (0, 0, 0), 512.0),
    ("-2^2", (0, 0, 0), -4.0),
    ("(-2)^2", (0, 0, 0), 4.0),
    ("2^-2", (0, 0, 0), 0.25),
    ("3 - 2 - 1", (0, 0, 0), 0.0),
    ("12/4/3", (0, 0, 0), 1.0),
    ("pi", (0, 0, 0), math.pi),
    ("sin(pi/2)", (0, 0, 0), 1.0),
    ("cos(pi)", (0, 0, 0), -1.0),
    ("exp(1)", (0, 0, 0), math.e),
    ("x^2 - y*t", (2, 3, 4), -8.0),
    ("sin(2*pi*y)", (0, 0.25, 0), 1.0),
    ("-x + y*-t", (1, 2, 3), -7.0),
    ("exp(-x^2)", (2, 0, 0), math.exp(-4.0)),
    ("1/4 + 1/4", (0, 0, 0), 0.5),
    ("cos(2*pi*t)", (0, 0, 0.5), -1.0),
    ("2*pi*x/(1 + x)", (1, 0, 0), math.pi),
    ("sin(x)*cos(y) + exp(t/2)", (0.5, 0.25, 1.0),
     math.sin(0.5) * math.cos(0.25) + math.exp(0.5)),
]


@pytest.mark.parametrize("text,point,expected", GOLDEN)
def test_golden_values(text, point, expected):
    got = evaluate(parse(text), *point)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_power_is_right_associative_and_binds_tighter_than_minus():
    assert evaluate(parse("2^3^2"), 0, 0, 0) == 512.0
    assert evaluate(parse("(2^3)^2"), 0, 0, 0) == 64.0
    assert evaluate(parse("-3^2"), 0, 0, 0) == -9.0


def test_array_evaluation_broadcasts():
    e = parse("x + 10*y + 100*t")
    x = np.array([1.0, 2.0])
    got = evaluate(e, x, 0.5, np.array([0.0, 1.0]))
    np.testing.assert_allclose(got, [6.0, 107.0])
    grid = evaluate_on(e, x[:, None], np.array([0.0, 1.0])[None, :], 0.0)
    assert grid.shape == (2, 2)
    np.testing.assert_allclose(grid, [[1.0, 11.0], [2.0, 12.0]])


@pytest.mark.parametrize("text,offset", [
    ("1 +", 3),
    ("(1 + 2", 6),
    ("sin(", 4),
    ("1 ** 2", 3),
    (")", 0),
    ("", 0),
    ("foo(1)", 0),
    ("1 2", 2),
])
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert err.value.expected


def test_unknown_name_reports_expected_set():
    with pytest.raises(ParseError) as err:
        parse("2*q")
    assert "q" in str(err.value) or err.value.offset == 2


@pytest.mark.parametrize("text,point", [
    ("1/0", (0, 0, 0)),
    ("1/x", (0.0, 0, 0)),
    ("(0 - 1)^(1/2)", (0, 0, 0)),
    ("exp(1000)", (0, 0, 0)),
])
def test_eval_errors(text, point):
    e = parse(text)
    with pytest.raises(EvalError) as err:
        evaluate(e, *point)
    assert err.value.node is not None


def test_eval_error_on_array_divide():
    e = parse("1/x")
    with pytest.raises(EvalError):
        evaluate(e, np.array([1.0, 0.0]), 0.0, 0.0)


def test_pretty_round_trips():
    for text, point, expected in GOLDEN:
        e = parse(text)
        again = parse(pretty(e))
        assert evaluate(again, *point) == pytest.approx(expected, rel=1e-12,
                                                        abs=1e-15)
        assert pretty(again) == pretty(e)


def test_pretty_minimal_parentheses():
    assert pretty(parse("-2^2")) == "-2^2"
    assert pretty(parse("(2^3)^2")) == "(2^3)^2"
    assert pretty(parse("2^3^2")) == "2^3^2"
    assert pretty(parse("(x + 1)^2")) == "(x + 1)^2"
    assert pretty(parse("x*(y + t)")) == "x*(y + t)"
    assert pretty(parse("-(x + y)")) == "-(x + y)"
    assert pretty(parse("x - (y - t)")) == "x - (y - t)"
    assert pretty(parse("(x + y)*t")) == "(x + y)*t"
    assert pretty(parse("x + y*t")) == "x + y*t"


def test_is_literal_zero():
    assert is_literal_zero(parse("0"))
    assert is_literal_zero(parse("0.0"))
    assert not is_literal_zero(parse("x - x"))
    assert not is_literal_zero(parse("1"))


def test_integral_powers_match_np_power():
    e = parse("x^7")
    xs = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(evaluate(e, xs, 0, 0), xs ** 7, rtol=1e-14)
    # negative base is fine for integral exponents
    assert evaluate(parse("(0 - 2)^3"), 0, 0, 0) == -8.0


PERIODIC_ACCEPT = ["sin(2*pi*y)", "cos(2*pi*t)", "sin(2*pi*y - 2*pi*t)",
                   "x^2", "1/2", "sin(2*pi*y)*cos(4*pi*t)"]
PERIODIC_REJECT = ["y", "t^2", "sin(pi*y)", "exp(y)", "y*t", "cos(pi*t)"]


@pytest.mark.parametrize("text", PERIODIC_ACCEPT)
def test_periodicity_accepts(text):
    assert check_periodicity(parse(text), 1.0, 1.0)


@pytest.mark.parametrize("text", PERIODIC_REJECT)
def test_periodicity_rejects(text):
    assert not check_periodicity(parse(text), 1.0, 1.0)


def test_periodicity_respects_periods():
    assert check_periodicity(parse("sin(pi*y)"), 2.0, 1.0)
    assert not check_periodicity(parse("sin(pi*y)"), 1.0, 1.0)


def test_periodicity_reads_the_halton_sample_formed_at_import(monkeypatch):
    # the 64 points of bases 2, 3 and 5, formed once: a check recomputes
    # none of them, and reads y and t scaled to its periods
    want = [[expressions._halton(i, b) for i in range(1, 65)]
            for b in (2, 3, 5)]
    assert [a.tolist() for a in expressions._PERIODICITY_SAMPLE] == want
    seen = []

    def recording(e, x, y, t):
        seen.append((x, y, t))
        return evaluate_on(e, x, y, t)

    def no_halton(*args):
        raise AssertionError("the Halton sample was recomputed")

    monkeypatch.setattr(expressions, "_halton", no_halton)
    monkeypatch.setattr(expressions, "evaluate_on", recording)
    assert check_periodicity(parse("sin(pi*y)*cos(2*pi*t/3)"), 2.0, 3.0)
    x, y, t = seen[0]
    assert x.tolist() == want[0]
    assert y.tolist() == (np.array(want[1]) * 2.0).tolist()
    assert t.tolist() == (np.array(want[2]) * 3.0).tolist()


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("which", ("y", "t"))
def test_periodicity_rejects_non_finite_periods(which, bad):
    periods = {"period_y": 1.0, "period_t": 1.0, f"period_{which}": bad}
    with pytest.raises(ValueError):
        check_periodicity(parse("y"), **periods)


@pytest.mark.parametrize("text,value", [
    ("0", 0.0), ("0.3", 0.3), ("-0.2", -0.2), ("pi", math.pi),
    ("-pi", -math.pi), ("1/2", 0.5), ("pi/4", math.pi / 4),
    ("2*0.15", 0.3), ("-(1 - 0.8)", -(1 - 0.8)), ("exp(0) - 1", 0.0),
    ("cos(pi)/5", -0.2), ("2^-2", 0.25)])
def test_constant_value_folds_variable_free_trees(text, value):
    assert constant_value(parse(text)) == value


@pytest.mark.parametrize("text", ["x", "0*y", "t - t", "sin(2*pi*y)",
                                  "1/0", "exp(1000)"])
def test_constant_value_refuses_variables_and_failures(text):
    assert constant_value(parse(text)) is None
