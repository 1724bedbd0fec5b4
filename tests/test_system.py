"""Structure, validation, and nondegeneracy of system descriptions."""
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import charfred as cf
from conftest import ONE, ZERO, cyclic_b, identity_spec, zero_b


def four_component_spec(**overrides):
    base = dict(
        n=4, k=3, l=1,
        a1=[[1.0]], a2=[[2.0, 1.0], [0.5, 2.0]], a3=[[-1.0]],
        alpha=(0.0, 0.5, 1.0, -1.0), beta=(1.0, 0.0, -1.0, 0.5),
        gamma=(ZERO, ZERO, ZERO, ZERO),
        b=tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))
    base.update(overrides)
    return cf.SystemSpec(**base)


def test_group_ranges_and_membership():
    s = four_component_spec()
    g1, g2, g3 = s.group_ranges()
    assert list(g1) == [0]
    assert list(g2) == [1, 2]
    assert list(g3) == [3]
    assert [s.group_of(i) for i in range(4)] == [0, 1, 1, 2]


def test_full_matrix_assembles_blocks():
    s = four_component_spec()
    m = s.full_matrix()
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    expect[1:3, 1:3] = [[2.0, 1.0], [0.5, 2.0]]
    expect[3, 3] = -1.0
    np.testing.assert_array_equal(m, expect)


def test_coupling_pattern_forward():
    s = identity_spec()
    assert s.coupling_pattern() == ((0, 2), (1, 0), (2, 1))
    assert s.feeding_group() == 2
    assert s.cell_allowed(0, 2)
    assert not s.cell_allowed(0, 1)
    assert not s.cell_allowed(1, 1)


def test_coupling_pattern_mirrored():
    s = identity_spec(orientation=cf.MIRRORED)
    assert s.coupling_pattern() == ((0, 1), (1, 2), (2, 0))
    assert s.feeding_group() == 1
    assert s.cell_allowed(0, 1)
    assert not s.cell_allowed(0, 2)


def test_row_is_uncoupled():
    b = cyclic_b(ONE, ZERO, ZERO)
    s = identity_spec(b=b)
    assert not s.row_is_uncoupled(0)
    assert s.row_is_uncoupled(1)
    assert s.row_is_uncoupled(2)


def test_effective_slopes_zero_coupled_rows():
    b = cyclic_b(ONE, ZERO, ZERO)
    s = identity_spec(alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5), b=b)
    sl = cf.effective_slopes(s)
    np.testing.assert_array_equal(sl.alpha, [0.5, 0.0, 0.0])
    np.testing.assert_array_equal(sl.beta, [1.0, 0.0, 0.0])


def test_nondegeneracy_value_known_triple():
    sl = cf.EffectiveSlopes(alpha=np.array([0.0, 1.0, 0.0]),
                            beta=np.array([1.0, -1.0, 0.0]))
    assert cf.nondegeneracy_value(sl, 0, 1, 2) == pytest.approx(1.0)


def test_check_nondegeneracy_reports_one_based_triples():
    s = identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                      b=cyclic_b(ONE, ONE, ONE))
    checks = cf.check_nondegeneracy(s)
    assert len(checks) == 1
    t = checks[0]
    assert t.triple == (1, 2, 3)
    assert t.value == pytest.approx(1.0)
    assert not t.degenerate
    assert not t.exempt
    # cyclic variant carries roles rotated one step
    sl = cf.effective_slopes(s)
    assert t.cyclic_value == pytest.approx(cf.nondegeneracy_value(sl, 1, 2, 0))


def test_degenerate_triple_flagged():
    s = identity_spec(alpha=(1.0, 2.0, 3.0), beta=(0.0, 0.0, 0.0),
                      b=cyclic_b(ONE, ONE, ONE))
    t = cf.check_nondegeneracy(s)[0]
    assert t.value == 0.0
    assert t.degenerate
    assert not t.exempt
    rep = cf.validate_spec(s)
    assert not rep.ok
    assert any(v.rule == "nondegeneracy" for v in rep.violations)


def test_exempt_triple_passes_validation():
    # both leading effective alphas vanish: the triple is exempt even
    # though the determinant is zero
    s = identity_spec(alpha=(0.0, 0.0, 1.0), beta=(0.0, 0.0, 0.0),
                      b=cyclic_b(ONE, ONE, ONE))
    t = cf.check_nondegeneracy(s)[0]
    assert t.degenerate
    assert t.exempt
    assert cf.validate_spec(s).ok


def test_degeneracy_threshold_scales_with_slopes():
    eps = 5e-13
    s = identity_spec(alpha=(0.0, eps, 0.0), beta=(1.0, -1.0, 0.0),
                      b=cyclic_b(ONE, ONE, ONE))
    t = cf.check_nondegeneracy(s)[0]
    assert abs(t.value) == pytest.approx(2 * eps, rel=1e-6)
    assert t.degenerate


@pytest.mark.parametrize("override,rule", [
    (dict(k=3), "dims"),
    (dict(l=2), "dims"),
    (dict(a2=[[1.0, 0.0], [0.0, 1.0]]), "block-shape"),
    (dict(a3=[[0.0]]), "det-a3"),
    (dict(a1=[[1e-13]]), "det-a1"),
    (dict(orientation="sideways"), "orientation"),
    (dict(period_y=-1.0), "periods"),
    (dict(alpha=(0.0, 0.0)), "slopes"),
    (dict(gamma=(ZERO, ZERO)), "gamma-shape"),
])
def test_validation_rule_ids(override, rule):
    base = dict(n=3, k=2, l=1, a1=[[1.0]], a2=[[1.0]], a3=[[1.0]],
                alpha=(0.0, 0.0, 0.0), beta=(0.0, 0.0, 0.0),
                gamma=(ZERO, ZERO, ZERO), b=zero_b())
    base.update(override)
    rep = cf.validate_spec(cf.SystemSpec(**base))
    assert not rep.ok
    assert rule in [v.rule for v in rep.violations]


@pytest.mark.parametrize("period", [float("nan"), float("inf"),
                                    -float("inf")])
def test_non_finite_periods_are_rejected(period):
    # NaN compares False with everything, so a sign test alone admits it
    for key in ("period_y", "period_t"):
        with pytest.raises(ValueError, match="periods must be positive"):
            cf.Grid(nx=4, ny=4, nt=4, **{key: period})
        rep = cf.validate_spec(replace(identity_spec(), **{key: period}))
        assert [v.rule for v in rep.violations] == ["periods"]


def test_validation_flags_pattern_and_periodicity():
    bad_cell = tuple(tuple(ONE if (i, j) == (0, 1) else ZERO
                           for j in range(3)) for i in range(3))
    rep = cf.validate_spec(identity_spec(b=bad_cell))
    assert [v.rule for v in rep.violations] == ["pattern"]

    aperiodic = tuple(tuple(cf.parse("y") if (i, j) == (0, 2) else ZERO
                            for j in range(3)) for i in range(3))
    rep = cf.validate_spec(identity_spec(b=aperiodic))
    assert [v.rule for v in rep.violations] == ["periodicity"]


def test_validation_flags_nonperiodic_gamma():
    rep = cf.validate_spec(identity_spec(gamma=(cf.parse("t"), ZERO, ZERO)))
    assert any(v.rule == "periodicity" for v in rep.violations)


def test_validation_collects_multiple_violations():
    s = cf.SystemSpec(n=3, k=2, l=1, a1=[[0.0]], a2=[[1.0]], a3=[[1.0]],
                      alpha=(0.0, 0.0, 0.0), beta=(0.0, 0.0),
                      gamma=(ZERO, ZERO, ZERO), b=zero_b())
    rep = cf.validate_spec(s)
    rules = {v.rule for v in rep.violations}
    assert {"det-a1", "slopes"} <= rules


def test_report_dict_is_json_clean():
    import json
    rep = cf.validate_spec(identity_spec(b=cyclic_b(ONE, ONE, ONE),
                                         alpha=(0.0, 1.0, 0.0),
                                         beta=(1.0, -1.0, 0.0)))
    text = json.dumps(dataclasses.asdict(rep), sort_keys=True)
    assert '"ok": true' in text


def test_spec_from_strings():
    s = cf.spec_from_strings(
        n=3, k=2, l=1, a1=[[1.0]], a2=[[1.0]], a3=[[1.0]],
        alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
        gamma=("0.3", "0", "-0.2"),
        b=[["0", "0", "0.4*cos(2*pi*y)"],
           ["0.3", "0", "0"],
           ["0", "0.2*sin(2*pi*t)", "0"]])
    assert cf.validate_spec(s).ok
    assert not s.row_is_uncoupled(0)


def test_mirrored_spec_validates():
    b = [[ZERO] * 3 for _ in range(3)]
    b[0][1] = ONE
    b[1][2] = ONE
    b[2][0] = ONE
    s = identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                      b=tuple(tuple(r) for r in b), orientation=cf.MIRRORED)
    rep = cf.validate_spec(s)
    assert rep.ok
    assert len(rep.nondegeneracy) == 1
