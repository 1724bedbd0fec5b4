"""Closed-form expressions in the variables x, y, t.

Grammar (whitespace insensitive)::

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 'pi' | 'x' | 'y' | 't'
             | ('sin' | 'cos' | 'exp') '(' sum ')'
             | '(' sum ')'

'^' is right associative and binds tighter than unary minus, so
``-2^2`` means ``-(2^2)`` and ``2^3^2`` means ``2^(3^2)``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

FUNCTIONS = ("sin", "cos", "exp")
VARIABLES = ("x", "y", "t")
# relative tolerance of check_periodicity
PERIODICITY_RTOL = 1e-9


class ParseError(ValueError):
    """Syntax error with the byte offset and the token set expected there."""

    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"at offset {offset}: found {found}, expected {exp}")


class EvalError(ArithmeticError):
    """Evaluation failure (zero divisor or log-domain); carries the subtree."""

    def __init__(self, message: str, node: "Expression"):
        self.node = node
        self.reason = message
        super().__init__(f"{message} in '{pretty(node)}'")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Pi, Var, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(off, {"number", "name", "operator"}, repr(stripped[0]))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(off, {f"'{op}'"}, repr(val) if val else "end of input")

    def parse_sum(self) -> Expression:
        node = self.parse_product()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.parse_product())
            else:
                return node

    def parse_product(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val == "pi":
                return Pi()
            if val in VARIABLES:
                return Var(val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(val, arg)
            raise ParseError(off, set(VARIABLES) | set(FUNCTIONS) | {"pi"}, repr(val))
        if kind == "op" and val == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        expected = {"number", "name", "'('", "'-'"}
        return self._fail(off, expected, val)

    def _fail(self, off, expected, val):
        raise ParseError(off, expected, repr(val) if val else "end of input")


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with byte offset and expected-token set) on bad input.
    """
    p = _Parser(text)
    node = p.parse_sum()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(off, {"operator", "end of input"}, repr(val))
    return node


def _int_pow(base, m: int, node):
    # repeated multiplication keeps small integer powers exact
    if m < 0:
        return _divide(1.0, _int_pow(base, -m, node), node)
    r = 1.0
    p = base
    while m:
        if m & 1:
            r = r * p
        p = p * p
        m >>= 1
    return r


def _divide(num, den, node):
    if isinstance(den, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den
        if not np.all(np.isfinite(out)):
            raise EvalError("division by zero", node)
        return out
    if den == 0.0:
        raise EvalError("division by zero", node)
    return num / den


def _power(base, expo, node):
    if not isinstance(expo, np.ndarray):
        e = float(expo)
        if e == int(e) and abs(e) <= 16:
            return _int_pow(base, int(e), node)
    with np.errstate(all="ignore"):
        out = np.power(base, expo)
    if not np.all(np.isfinite(out)):
        raise EvalError("log-domain power", node)
    return out


_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def evaluate(e: Expression, x, y, t):
    """Evaluate ``e`` at (x, y, t); scalars in, scalar out, arrays broadcast.

    Division by zero and log-domain powers raise EvalError naming the
    offending subtree; exp overflow is treated the same way.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return np.pi
    if isinstance(e, Var):
        return {"x": x, "y": y, "t": t}[e.name]
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, y, t)
    if isinstance(e, Call):
        with np.errstate(over="ignore", invalid="ignore"):
            val = _CALLS[e.func](evaluate(e.arg, x, y, t))
        if not np.all(np.isfinite(val)):
            raise EvalError(f"{e.func} out of range", e)
        return val
    lhs = evaluate(e.lhs, x, y, t)
    rhs = evaluate(e.rhs, x, y, t)
    if e.op == "+":
        return lhs + rhs
    if e.op == "-":
        return lhs - rhs
    if e.op == "*":
        return lhs * rhs
    if e.op == "/":
        return _divide(lhs, rhs, e)
    return _power(lhs, rhs, e)


def evaluate_on(e: Expression, x, y, t) -> np.ndarray:
    """Array evaluation broadcast to the common shape of x, y, t."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
    out = evaluate(e, np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                   np.asarray(t, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float), shape)


def is_literal_zero(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _reads_variables(e: Expression) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Neg, Call)):
        return _reads_variables(e.arg)
    if isinstance(e, BinOp):
        return _reads_variables(e.lhs) or _reads_variables(e.rhs)
    return False


def constant_value(e: Expression) -> float | None:
    """The value of e if it reads none of x, y, t, else None.

    The tree is evaluated once, so ``1/2`` and ``pi/4`` fold like the
    literals ``0.5`` and ``pi``; a tree whose evaluation fails gives
    None, leaving the error to the pointwise evaluation.
    """
    if _reads_variables(e):
        return None
    try:
        return float(evaluate(e, 0.0, 0.0, 0.0))
    except EvalError:
        return None


_SUM, _PRODUCT, _NEG, _POWER, _ATOM = 1, 2, 3, 4, 5


def _level(e: Expression) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _SUM
        if e.op in "*/":
            return _PRODUCT
        return _POWER
    if isinstance(e, Neg):
        return _NEG
    return _ATOM


def _wrap(e: Expression, minimum: int) -> str:
    s = pretty(e)
    if _level(e) < minimum:
        return f"({s})"
    return s


def pretty(e: Expression) -> str:
    """Canonical text form; parse(pretty(e)) reproduces e structurally."""
    if isinstance(e, Num):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _NEG)
    if e.op in "+-":
        return f"{_wrap(e.lhs, _SUM)} {e.op} {_wrap(e.rhs, _SUM + 1)}"
    if e.op in "*/":
        return f"{_wrap(e.lhs, _PRODUCT)}{e.op}{_wrap(e.rhs, _PRODUCT + 1)}"
    # '^': right associative, parenthesize any compound base
    lhs = _wrap(e.lhs, _ATOM)
    rhs = _wrap(e.rhs, _NEG)
    return f"{lhs}^{rhs}"


def _halton(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


# check_periodicity's sample of the unit cube: the Halton points 1..64
# in bases 2, 3 and 5, one array per coordinate
_PERIODICITY_SAMPLE = tuple(np.array([_halton(i, b) for i in range(1, 65)])
                            for b in (2, 3, 5))


def check_periodicity(e: Expression, period_y: float,
                      period_t: float) -> bool:
    """Test e(x, y+Y, t) == e(x, y, t+T) == e(x, y, t) numerically.

    Uses a deterministic 64-point low-discrepancy (Halton) sample of the
    domain, _PERIODICITY_SAMPLE scaled to the periods; comparisons are
    relative: |dv| <= PERIODICITY_RTOL*(1 + |v|).
    """
    if not all(p > 0 and math.isfinite(p) for p in (period_y, period_t)):
        raise ValueError("periods must be positive and finite")
    xs, ys, ts = _PERIODICITY_SAMPLE
    ys = ys * period_y
    ts = ts * period_t
    base = evaluate_on(e, xs, ys, ts)
    for dy, dt in ((period_y, 0.0), (0.0, period_t), (period_y, period_t)):
        shifted = evaluate_on(e, xs, ys + dy, ts + dt)
        if np.any(np.abs(shifted - base)
                  > PERIODICITY_RTOL * (1.0 + np.abs(base))):
            return False
    return True
