"""Property test of the canonical text form of expressions.

Random expression trees over every node type; pretty must print each so
that parse reads back the same tree, parentheses and signs included.
"""
from hypothesis import given, settings, strategies as st

from charfred.expressions import (FUNCTIONS, VARIABLES, BinOp, Call, Neg,
                                  Num, Pi, Var, parse, pretty)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

# the parser reads a leading minus as Neg, so literals are nonnegative
NUMBERS = st.one_of(st.integers(0, 10 ** 17).map(float),
                    st.floats(min_value=0.0, allow_nan=False,
                              allow_infinity=False)).map(Num)
LEAVES = st.one_of(NUMBERS, st.just(Pi()), st.sampled_from(VARIABLES).map(Var))


def _compound(children):
    # one branch per precedence level, so nested powers are common
    def binary(ops):
        return st.builds(BinOp, st.sampled_from(ops), children, children)

    return st.one_of(children.map(Neg), binary(("+", "-")),
                     binary(("*", "/")), binary(("^",)),
                     st.builds(Call, st.sampled_from(FUNCTIONS), children))


TREES = st.recursive(LEAVES, _compound, max_leaves=12)


@PROPERTY
@given(TREES)
def test_parse_inverts_pretty(tree):
    assert parse(pretty(tree)) == tree
