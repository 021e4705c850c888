"""Oracle pins for the progression constancy checks.

Every frozen enumeration value in this file was computed from the local
sign tables (w_star) and the global products (root_number_f,
root_number_l), which carry their own independent pins in
test_local_signs.py and test_root_number.py.  The closed-form checks
under test here must reproduce those enumerations, except in the lanes
explicitly marked divergent below (those are surfaced by the audit
module rather than patched).
"""

import random
import re
from fractions import Fraction

import pytest

from rootno.audit import falsify_constancy, probe_set
from rootno.constancy import (
    Sufficiency,
    Verdict,
    check_f,
    check_f_p,
    check_f_table1,
    check_l_corollary,
    check_l_lemma,
)
from rootno.local_signs import w_star
from rootno.rank_jump import (forced_sign, forced_sign_kq, generic_rank,
                              rank_jump_report)
from rootno.root_number import root_number_f, root_number_l


# ---------------------------------------------------------------------------
# check_f: full-family verdicts
# ---------------------------------------------------------------------------

def test_check_f_constant_pin_7500():
    v = check_f(-7500, 6000, 60)
    assert v.constant is True
    assert v.sign == 1
    assert v.matched == ("P5.1(p=5)", "P3.2", "C3d")
    assert v.reason is None
    assert str(v) == "Constant(+1) [P5.1(p=5), P3.2, C3d]"


def test_check_f_nonconstant_pins():
    v = check_f(-972, 12, 18)
    assert v.constant is False
    assert v.sign is None
    assert v.reason == "C3"
    assert str(v) == "NonConstant: C3"

    assert check_f(-972, 12, 30).reason == "C3"
    assert check_f(-12, 1, 1).reason == "C3"
    assert check_f(-75, 1, 5).reason == "P5:p=5"
    assert check_f(-243, 1, 1).reason == "P3"


def test_check_f_gate():
    assert check_f(20, 3, 1).reason == "s not of form -3r^2"
    assert check_f(-7, 1, 1).reason == "s not of form -3r^2"
    assert check_f(0, 1, 1).reason == "s not of form -3r^2"
    assert check_f(3, 1, 1).reason == "s not of form -3r^2"


def test_check_f_input_validation():
    with pytest.raises(ValueError):
        check_f(-3, 0, 1)
    with pytest.raises(ValueError):
        check_f(-3, 4, 0)


_PROGRESSION_CALLS = {
    "check_f": lambda a, b: check_f(-12, a, b),
    "check_f_p": lambda a, b: check_f_p(2, -12, a, b),
    "check_f_table1": lambda a, b: check_f_table1(-12, a, b),
    "forced_sign": lambda a, b: forced_sign(2, -12, a, b),
    "forced_sign_kq": lambda a, b: forced_sign_kq(5, a, b),
    "rank_jump_report": lambda a, b: rank_jump_report(-12, a, b),
    "probe_set": lambda a, b: probe_set(2, -12, a, b),
    "falsify_constancy": lambda a, b: falsify_constancy(-12, a, b, 10),
}


@pytest.mark.parametrize("name", sorted(_PROGRESSION_CALLS))
@pytest.mark.parametrize("a,b", [(True, 1), (8, True)])
def test_progression_entry_points_reject_bool(name, a, b):
    # True == 1 is an int to isinstance; every progression entry point
    # shares one validator that refuses it
    call = _PROGRESSION_CALLS[name]
    call(8, 1)
    with pytest.raises(ValueError):
        call(a, b)


_MINUS_3_SQUARE_CALLS = {
    "check_f": lambda s: check_f(s, 6, 1),
    "check_f_p": lambda s: check_f_p(2, s, 6, 1),
    "check_f_table1": lambda s: check_f_table1(s, 6, 1),
}


@pytest.mark.parametrize("name", sorted(_MINUS_3_SQUARE_CALLS))
@pytest.mark.parametrize("s", [-972.0, -3.0, True, False, Fraction(-972),
                               "-972"])
def test_minus_3_square_gates_refuse_an_s_that_is_not_an_int(name, s):
    # unchecked, a float s stops in math.isqrt with a TypeError and True
    # passes as 1, which is not of the form -3r^2
    call = _MINUS_3_SQUARE_CALLS[name]
    call(-972)
    with pytest.raises(ValueError, match=re.escape(
            f"s must be an integer, got {s!r}")):
        call(s)


_NONZERO_S_CALLS = {
    "rank_jump_report": lambda s: rank_jump_report(s, 8, 1),
    "generic_rank": generic_rank,
    "probe_set": lambda s: probe_set(2, s, 8, 1),
    "falsify_constancy": lambda s: falsify_constancy(s, 8, 1, 10),
}


@pytest.mark.parametrize("name", sorted(_NONZERO_S_CALLS))
@pytest.mark.parametrize("s", [True, 0])
def test_nonzero_s_entry_points_reject_bool_and_zero(name, s):
    call = _NONZERO_S_CALLS[name]
    call(-12)
    with pytest.raises(ValueError, match="s must be a nonzero integer"):
        call(s)


def test_check_f_negative_a_same_progression():
    # aZ+b and (-a)Z+b are the same set of fibres
    assert check_f(-7500, -6000, 60) == check_f(-7500, 6000, 60)


def test_check_f_divergent_lane_c3b_block0():
    # The 2-adic lane C3b with nu2(s) % 4 == 0 reports Constant while the
    # fibres genuinely alternate.  The conditions are kept as printed; the
    # audit module records the disagreement.  Pinned here so any change in
    # behaviour is loud.
    v = check_f(-3, 4, 1)
    assert v.constant is True
    assert v.sign == 1
    assert v.matched == ("P3.2", "C3b")
    assert w_star(2, -3, 1) == -1
    assert w_star(2, -3, 5) == 1
    assert root_number_f(-3, 1) == 1
    assert root_number_f(-3, 5) == -1


def test_check_f_c3b_block2_holds_at_b_2():
    # Same lane, nu2(s) % 4 == 2, at b = 2: on this progression enumeration
    # does stay constant.  The lane is not sound for the whole block; see
    # the b = 6 pin below.
    v = check_f(-12, 8, 2)
    assert v.constant is True
    assert v.sign == -1
    assert v.matched == ("P3.2", "C3b")
    assert set(root_number_f(-12, 8 * u + 2) for u in range(-20, 21)) == {-1}


def test_check_f_divergent_lane_c3b_block2():
    # C3b also reports Constant at nu2(s) % 4 == 2 while the fibres
    # alternate: t = 8u + 6 gives W(6) = -1 and W(14) = +1.  Kept as
    # printed and pinned, like the block-0 case above.
    v = check_f(-12, 8, 6)
    assert str(v) == "Constant(-1) [P3.2, C3b]"
    assert falsify_constancy(-12, 8, 6, 200) == ((0, -1), (1, 1))


@pytest.mark.parametrize("s,a,b", [(-1875, 40, 5), (-7500, 20, 15)])
def test_check_f_nonconstant_p5_without_witness(s, a, b):
    # P5 fails at p = 5, yet W = -1 on every fibre checked: -3 is a
    # non-residue mod 5, so nu5(t^2 - s) stops at 4 once nu5(t) >= 2, and
    # w_5 is +1 on these fibres.  NonConstant here does not mean both signs
    # occur; the condition list is kept as printed and the gap pinned.
    assert str(check_f(s, a, b)) == "NonConstant: P5:p=5"
    assert {root_number_f(s, a * u + b) for u in range(-300, 301)} == {-1}


def test_check_f_constant_c3a_pin():
    v = check_f(-3, 8, 1)
    assert v.constant is True
    assert v.sign == 1
    assert v.matched == ("P3.2", "C3a")
    assert set(root_number_f(-3, 8 * u + 1) for u in range(-25, 26)) == {1}


def test_check_f_constant_c3d_gap2_pin():
    v = check_f(-12, 4, 3)
    assert v.constant is True
    assert v.sign == -1
    assert v.matched == ("P3.2", "C3d")
    assert set(root_number_f(-12, 4 * u + 3) for u in range(-15, 16)) == {-1}


# ---------------------------------------------------------------------------
# check_f_p: single-prime verdicts
# ---------------------------------------------------------------------------

def test_check_f_p_pins():
    v = check_f_p(2, -972, 12, 18)
    assert v.constant is False
    assert v.reason == "C3"

    v = check_f_p(3, -972, 12, 18)
    assert v.constant is True
    assert v.matched == ("P3.2",)
    assert v.sign == 1

    v = check_f_p(5, -7500, 6000, 60)
    assert v.constant is True
    assert v.matched == ("P5.1(p=5)",)
    assert v.sign == 1

    # prime not dividing s: trivially constant +1
    v = check_f_p(7, -972, 12, 18)
    assert v.constant is True
    assert v.matched == ()
    assert v.sign == 1

    assert check_f_p(2, -12, 1, 1).reason == "C3"
    assert check_f_p(3, -243, 1, 1).reason == "P3"
    assert check_f_p(5, -75, 1, 5).reason == "P5:p=5"


def test_check_f_p_validation():
    with pytest.raises(ValueError):
        check_f_p(4, -3, 1, 1)
    with pytest.raises(ValueError):
        check_f_p(2, 20, 1, 1)
    with pytest.raises(ValueError):
        check_f_p(2, -3, 0, 1)
    with pytest.raises(ValueError):
        check_f_p(2, -3, 1, 0)


def test_check_f_p_strict_both_signs_pins():
    # frozen from w_star enumeration: these progressions provably vary
    assert w_star(2, -972, 18) == 1
    assert w_star(2, -972, 30) == -1
    assert {w_star(2, -12, u + 1) for u in range(-10, 11)} == {-1, 1}
    assert {w_star(3, -243, u + 1) for u in range(-10, 11)} == {-1, 1}
    assert {w_star(5, -75, u + 5) for u in range(-20, 21)} == {-1, 1}


def _random_gated_instances(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = (2 ** rng.randint(0, 3)) * (3 ** rng.randint(0, 2)) \
            * (5 ** rng.randint(0, 1)) * rng.choice([1, 7])
        s = -3 * r * r
        a = (2 ** rng.randint(0, 4)) * (3 ** rng.randint(0, 3)) \
            * (5 ** rng.randint(0, 2)) * rng.choice([1, 5, 7, 11])
        b = (2 ** rng.randint(0, 4)) * (3 ** rng.randint(0, 3)) \
            * (5 ** rng.randint(0, 2)) * rng.choice([1, 3, 5, 7, 9, 11, 13, 15]) \
            * rng.choice([1, -1])
        out.append((s, a, b))
    return out


def test_check_f_p_agrees_with_enumeration():
    # Single-prime verdicts against direct w_star enumeration.  A constant
    # verdict must match the enumerated value exactly (C3b excepted, see
    # the divergence pins above); an enumeration showing both signs must
    # never get a constant verdict.
    both_signs_seen = 0
    for s, a, b in _random_gated_instances(20260816, 150):
        for p in (2, 3, 5, 7):
            v = check_f_p(p, s, a, b)
            emp = {w_star(p, s, a * u + b) for u in range(-18, 19)}
            if v.constant and v.matched != ("C3b",):
                assert emp == {v.sign}, (p, s, a, b, v, emp)
            if len(emp) == 2:
                both_signs_seen += 1
                assert not v.constant or v.matched == ("C3b",), (p, s, a, b, v)
    assert both_signs_seen >= 10


def test_check_f_agrees_with_enumeration():
    # Whole-family verdicts against the full root number product.
    constant_seen = 0
    for s, a, b in _random_gated_instances(915, 40):
        # keep the fibres small enough to factor quickly
        a %= 1000
        b %= 1000
        if a == 0 or b == 0:
            continue
        v = check_f(s, a, b)
        if v.constant and "C3b" not in v.matched:
            constant_seen += 1
            emp = {root_number_f(s, a * u + b) for u in range(-10, 11)}
            assert emp == {v.sign}, (s, a, b, v, emp)
    assert constant_seen >= 3


# ---------------------------------------------------------------------------
# check_f_table1: independent 2-adic route
# ---------------------------------------------------------------------------

TABLE1_ROW_PINS = [
    ((-3, 8, 1), "T1.row-1"),
    ((-3, 8, 2), "T1.row-2"),
    ((-48, 8, 2), "T1.row-3"),
    ((-48, 4, 1), "T1.row-4"),
    ((-7500, 6000, 60), "T1.row-5"),
    ((-12, 4, 3), "T1.row-6"),
    ((-192, 8, 2), "T1.row-7"),
    ((-192, 4, 1), "T1.row-8"),
    ((-3072, 4, 1), "T1.row-9"),
    ((-3, 16, 8), "T1.row-10"),
    ((-3, 8, 8), "T1.row-10"),
    ((-12, 16, 32), "T1.row-11"),
    ((-12, 8, 4), "T1.row-12"),
    ((-12, 8, 8), "T1.row-12"),
]


def test_check_f_table1_row_pins():
    for (s, a, b), row in TABLE1_ROW_PINS:
        assert check_f_table1(s, a, b) == row, (s, a, b)


def test_check_f_table1_none_pins():
    # the two C3b lanes have no corresponding row
    assert check_f_table1(-3, 4, 1) is None
    assert check_f_table1(-12, 8, 2) is None
    # genuinely non-constant progressions
    assert check_f_table1(-972, 12, 18) is None
    assert check_f_table1(-972, 12, 30) is None
    assert check_f_table1(-12, 1, 1) is None


def test_check_f_table1_validation():
    with pytest.raises(ValueError):
        check_f_table1(20, 4, 1)
    with pytest.raises(ValueError):
        check_f_table1(-3, 0, 1)


def test_table1_matches_2adic_conditions():
    # Dual route: a row fires exactly when the 2-adic condition list gives
    # a constant verdict through any lane other than C3b.  C3b instances
    # are the documented gap between the two routes.
    c3b_seen = 0
    for s, a, b in _random_gated_instances(777, 300):
        row = check_f_table1(s, a, b)
        v = check_f_p(2, s, a, b)
        if v.constant and v.matched == ("C3b",):
            c3b_seen += 1
            assert row is None, (s, a, b)
        else:
            assert (row is not None) == v.constant, (s, a, b, row, v)
    assert c3b_seen >= 2


# ---------------------------------------------------------------------------
# check_l_corollary: sufficiency for twisted families, rational parameters
# ---------------------------------------------------------------------------

def test_corollary_quadratic_twist_instance():
    # V(t): y^2 = x^3 + (t^2+v) x^2 - (t^2+v+3) x + 1 rewrites as the
    # twisted family with (w, r, v) = (12, 3/2, v + 3/2).
    res = check_l_corollary(12, Fraction(3, 2), Fraction(5, 2))
    assert res.satisfied is True
    assert res.matched == ("L-COR.2", "L-COR.3b")
    assert res.sign == 1
    # Frozen enumeration: the fibres of this very family alternate, so the
    # sufficiency conditions and the sign tables disagree here.  Kept as
    # printed; the audit module owns the reconciliation.
    assert root_number_l(12, Fraction(-27, 4), Fraction(5, 2), 0) == 1
    assert root_number_l(12, Fraction(-27, 4), Fraction(5, 2), 1) == -1


def test_corollary_all_three_conditions_matched():
    res = check_l_corollary(20, Fraction(3, 4), 1)
    assert res.satisfied is True
    assert res.matched == ("L-COR.1(p=5)", "L-COR.2", "L-COR.3d")
    assert res.sign == 1
    # this one also alternates on actual fibres (frozen)
    assert root_number_l(20, Fraction(-27, 16), 1, 1) == -1


def test_corollary_lane_3a_constant_instance():
    res = check_l_corollary(4, 1, Fraction(1, 4))
    assert res.satisfied is True
    assert res.matched == ("L-COR.2", "L-COR.3a")
    assert res.sign == -1
    assert {root_number_l(4, -3, Fraction(1, 4), t) for t in range(-10, 11)} == {-1}


def test_corollary_lane_3c_constant_instance():
    res = check_l_corollary(8, Fraction(1, 8), 1)
    assert res.satisfied is True
    assert res.matched == ("L-COR.2", "L-COR.3c")
    assert res.sign == 1
    assert {root_number_l(8, Fraction(-3, 64), 1, t) for t in range(-10, 11)} == {1}


def test_corollary_failures():
    res = check_l_corollary(1, 3, 1)
    assert res.satisfied is False
    assert res.failed == "L-COR.3"
    assert res.sign is None

    assert check_l_corollary(1, 5, 1).failed == "L-COR.1(p=5)"
    assert check_l_corollary(1, 9, 1).failed == "L-COR.2"


def test_corollary_preconditions():
    with pytest.raises(ValueError):
        check_l_corollary(Fraction(1, 2), 1, 1)   # w not an integer
    with pytest.raises(ValueError):
        check_l_corollary(1, 1, Fraction(1, 2))   # w*v not an integer
    with pytest.raises(ValueError):
        check_l_corollary(2, Fraction(1, 3), 1)   # -3 r^2 w^2 not an integer
    with pytest.raises(ValueError):
        check_l_corollary(0, 1, 1)
    with pytest.raises(ValueError):
        check_l_corollary(1, 0, 1)
    with pytest.raises(ValueError):
        check_l_corollary(1, 1, 0)


# ---------------------------------------------------------------------------
# check_l_lemma: sufficiency for twisted families on a progression
# ---------------------------------------------------------------------------

def test_lemma_pin_satisfied():
    res = check_l_lemma(7, 14, 1, 12, 6)
    assert res.satisfied is True
    assert res.matched == ("L-LEM.1(p=7)", "L-LEM.2", "L-LEM.3")
    assert res.sign == 1
    # frozen enumeration: constant +1 on the window
    assert {root_number_l(7, -588, 1, 12 * u + 6) for u in range(-25, 26)} == {1}


def test_lemma_pin_not_satisfied_but_constant():
    # The conditions fail on the 3-adic part, yet enumeration of this
    # progression is constant: the lemma is sufficient, not necessary.
    res = check_l_lemma(7, 14, 1, 4, 2)
    assert res.satisfied is False
    assert res.failed == "L-LEM.2"
    assert res.sign is None
    assert {root_number_l(7, -588, 1, 4 * u + 2) for u in range(-25, 26)} == {1}


def test_lemma_other_failures():
    assert check_l_lemma(7, 14, 2, 12, 6).failed == "L-LEM.3"
    assert check_l_lemma(7, 7, 3, 12, 6).failed == "L-LEM.1(p=7)"


def test_lemma_validation():
    with pytest.raises(ValueError):
        check_l_lemma(0, 14, 1, 12, 6)
    with pytest.raises(ValueError):
        check_l_lemma(7, 0, 1, 12, 6)
    with pytest.raises(ValueError):
        check_l_lemma(7, 14, 0, 12, 6)
    with pytest.raises(ValueError):
        check_l_lemma(Fraction(7, 2), 14, 1, 12, 6)
    for args in ((True, 14, 1, 12, 6), (7, 14, 1, True, 6),
                 (7, 14, 1, 12, True)):
        with pytest.raises(ValueError):
            check_l_lemma(*args)
    # a = 0 and b = 0 are accepted: valuation_or_inf reads them as infinite
    assert isinstance(check_l_lemma(7, 14, 1, 0, 6), Sufficiency)
    assert isinstance(check_l_lemma(7, 14, 1, 12, 0), Sufficiency)


def test_lemma_satisfied_implies_constant_enumeration():
    # Constructed instances that meet the conditions must enumerate to a
    # single sign equal to the reported one.
    rng = random.Random(424242)
    checked = 0
    while checked < 8:
        w = rng.choice([1, 3, 5, 7, 21])
        r = rng.choice([1, 2, 7, 14])
        v = rng.choice([1, 5, 7, 11, 13, -1, -5])
        a = 12 * rng.choice([1, 2, 3])
        b = 6 * rng.choice([1, 5, 7, -1])
        res = check_l_lemma(w, r, v, a, b)
        if not res.satisfied:
            continue
        checked += 1
        emp = {root_number_l(w, -3 * r * r, v, a * u + b) for u in range(-8, 9)}
        assert emp == {res.sign}, (w, r, v, a, b, res, emp)


def test_verdict_and_sufficiency_repr():
    assert isinstance(check_f(-3, 8, 1), Verdict)
    assert isinstance(check_l_lemma(7, 14, 1, 12, 6), Sufficiency)
    assert str(check_l_lemma(7, 14, 1, 12, 6)) == \
        "satisfied(+1) [L-LEM.1(p=7), L-LEM.2, L-LEM.3]"
    assert str(check_l_lemma(7, 14, 1, 4, 2)) == "not satisfied: L-LEM.2"
