"""Shared spec builders for the test suite."""
from __future__ import annotations

from dataclasses import replace

import charfred as cf

ZERO = cf.parse("0")
ONE = cf.parse("1")


def zero_b(n: int = 3):
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))


def cyclic_b(g1_reads, g2_reads, g3_reads):
    """Forward 3x3 cyclic pattern: rows read (g3, g1, g2) columns."""
    b = [[ZERO] * 3 for _ in range(3)]
    b[0][2] = g1_reads
    b[1][0] = g2_reads
    b[2][1] = g3_reads
    return tuple(tuple(row) for row in b)


def identity_spec(alpha=(0.0, 0.0, 0.0), beta=(0.0, 0.0, 0.0),
                  gamma=(ZERO, ZERO, ZERO), b=None, orientation=cf.FORWARD):
    return cf.SystemSpec(n=3, k=2, l=1, a1=[[1.0]], a2=[[1.0]], a3=[[1.0]],
                         alpha=alpha, beta=beta, gamma=gamma,
                         b=b if b is not None else zero_b(),
                         orientation=orientation)


def coupled_spec():
    """Contractive cyclic system with variable coefficients."""
    return identity_spec(
        alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
        gamma=(cf.parse("0.3"), ZERO, cf.parse("-0.2")),
        b=cyclic_b(cf.parse("0.4*cos(2*pi*y)"), cf.parse("0.3"),
                   cf.parse("0.2*sin(2*pi*t)")))


def mirrored_spec():
    """coupled_spec's couplings in the mirrored cycle: group 1 reads
    group 2, group 2 reads group 3 and group 3 reads group 1."""
    spec = coupled_spec()
    b = [[ZERO] * 3 for _ in range(3)]
    b[0][1], b[1][2], b[2][0] = spec.b[0][2], spec.b[1][0], spec.b[2][1]
    return replace(spec, b=tuple(map(tuple, b)), orientation=cf.MIRRORED)


def block_coupled_spec():
    """Four rows, a non-diagonal 2 x 2 first block and variable gamma.

    Row 3 (group 2) reads both rows of group 1, so the pointwise factor
    B P A^{-1} of K mixes them.
    """
    return cf.SystemSpec(
        n=4, k=3, l=2, a1=[[1.0, 0.5], [-0.3, 1.2]], a2=[[1.0]],
        a3=[[1.0]], alpha=(0.5, 0.0, 1.0, -1.0), beta=(1.0, -0.5, -1.0, 0.5),
        gamma=(cf.parse("0.3"), cf.parse("0.1*cos(2*pi*y)"), ZERO,
               cf.parse("-0.2")),
        b=((ZERO, ZERO, ZERO, cf.parse("0.4*cos(2*pi*y)")),
           (ZERO, ZERO, ZERO, cf.parse("0.2")),
           (cf.parse("0.3"), cf.parse("-0.25*sin(2*pi*t)"), ZERO, ZERO),
           (ZERO, ZERO, cf.parse("0.2*sin(2*pi*t)"), ZERO)))
