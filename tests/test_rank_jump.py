"""Oracle pins for the forced-local-sign rank-jump analysis.

Every frozen span below was computed from the local sign tables
(``w_star``) over u-windows before the closed-form conditions were
implemented.  Three lane families are known to disagree with the tables
and are pinned as such rather than patched:

* the deep 2-adic lane (nu2(a) - nu2(b) > 2 and nu2(s) - 2*nu2(b) < -4)
  claims -1 but every fibre enumerates to +1 ("flipped");
* for p == 1 mod 4 the even-nu_p(b) legendre lanes carry the opposite
  sign from the tables ("flipped");
* at nu2(a) - nu2(b) == 2 with nu2(s) == 2*nu2(b) the b2 != 1 mod 4
  sub-lanes claim a forced sign but the fibres alternate ("varies").
"""

import random

import pytest

from rootno.arith import valuation
from rootno.local_signs import w_star
from rootno.rank_jump import (
    forced_sign,
    forced_sign_kq,
    generic_rank,
    rank_jump_report,
)
from rootno.root_number import root_number_f

S54 = -12 * 5**4    # -7500
S58 = -12 * 5**8
S74 = -12 * 7**4    # -28812
S78 = -12 * 7**8
S34 = -972          # -12 * 3**4
S94 = -78732        # -12 * 9**4
S24 = -192          # -12 * 2**4
S44 = -3072         # -12 * 4**4


def _span(p, s, a, b, radius=40):
    return sorted({w_star(p, s, a * u + b) for u in range(-radius, radius + 1)})


# ---------------------------------------------------------------------------
# generic rank of the family
# ---------------------------------------------------------------------------

def test_generic_rank_values():
    for s in (-12, -972, -7500, -192, -78732, -3072, -12 * 11**4):
        assert generic_rank(s) == 1
    for s in (-3, -48, -75, -300, -5, 1, 7, 12, 972):
        assert generic_rank(s) == 0


def test_generic_rank_rejects_zero():
    with pytest.raises(ValueError):
        generic_rank(0)


# ---------------------------------------------------------------------------
# forced_sign: one pin per condition lane, sign claim and enumeration both
# frozen.  Rows marked "flipped" or "varies" are the documented divergences.
# ---------------------------------------------------------------------------

LANE_PINS = [
    # p >= 5, p == 1 mod 4
    (5, S54, 25, 25, 1, [1]),          # high valuations on both a and b
    (5, S54, 25, 5, 1, [1]),           # odd nu(b) below nu(a)
    (5, S54, 5, 2, 1, [-1]),           # flipped: nu(b)=0, (2/5) = -1
    (5, S54, 5, 1, -1, [1]),           # flipped: nu(b)=0, (1/5) = +1
    (5, S58, 625, 50, 1, [-1]),        # flipped: nu(b)=2
    (5, S58, 625, 25, -1, [1]),        # flipped: nu(b)=2
    (5, S58, 3125, 1250, 1, [1]),      # nu(s) <= 2 nu(b)
    (5, S58, 625, 1250, 1, [1]),       # nu(a) <= nu(b), nu(s) <= 2 nu(a)
    (5, S54, 7, 3, None, [-1, 1]),     # no valuation separation
    # p >= 5, p == 3 mod 4 (matches print at every depth)
    (7, S74, 49, 49, 1, [1]),
    (7, S74, 343, 49, 1, [1]),
    (7, S74, 7, 1, 1, [1]),            # (1/7) = +1
    (7, S74, 7, 3, -1, [-1]),          # (3/7) = -1
    (7, S74, 49, 7, -1, [-1]),         # odd nu(b) below nu(a)
    (7, S74, 7, 49, None, [-1, 1]),    # nu(a)=1 guard: high lane must not fire
    (7, S78, 2401, 147, -1, [-1]),     # even nu(b)=2, (3/7) = -1
    (7, S78, 2401, 98, 1, [1]),        # even nu(b)=2, (2/7) = +1
    # p >= 5 not dividing s: trivially forced +1
    (7, S54, 7, 3, 1, [1]),
    (7, S54, 3, 1, 1, [1]),
    # p = 3
    (3, S34, 3, 1, -1, [-1]),          # nu3(s) = 2 nu3(b) + 1 + 4
    (3, S34, 9, 2, -1, [-1]),
    (3, S34, 9, 3, 1, [1]),            # nu3(s) <= 2 nu3(b) + 3
    (3, S34, 9, 6, 1, [1]),
    (3, S94, 9, 6, 1, [1]),            # nu3(s) = 2 nu3(b) + 3 + 4, b3 = 2
    (3, S94, 9, 3, -1, [-1]),          # same depth, b3 = 1
    (3, S94, 27, 27, 1, [1]),          # nu3(s) <= 2 nu3(a) + 3
    (3, S94, 27, 81, 1, [1]),
    (3, S94, 3, 9, None, [-1, 1]),     # nu3(a) <= nu3(b) but s too deep
    (3, S54, 3, 1, 1, [1]),            # nu3(s) = 1: always forced +1
    (3, S54, 3, 2, 1, [1]),
    # p = 2, gap = nu2(a) - nu2(b), diff = nu2(s) - 2 nu2(b)
    (2, S54, 8, 8, 1, [1]),            # gap <= 0, nu2(s) <= 2 nu2(a) - 4
    (2, S24, 32, 32, 1, [1]),
    (2, S24, 8, 8, None, [-1, 1]),     # gap <= 0 but s too deep
    (2, S54, 16, 8, 1, [1]),           # gap 1, diff -4
    (2, S54, 8, 4, -1, [-1]),          # gap 1, diff -2
    (2, S54, 4, 2, None, [-1, 1]),     # gap 1, diff 0
    (2, S54, 32, 8, 1, [1]),           # gap 2, diff -4
    (2, S54, 64, 16, 1, [1]),          # gap 2, diff -6
    (2, S54, 16, 4, -1, [-1]),         # gap 2, diff -2
    (2, S54, 8, 2, 1, [1]),            # gap 2, diff 0, b2 = 1 mod 4
    (2, S54, 8, 6, 1, [-1, 1]),        # varies: gap 2, diff 0, b2 = 3 mod 8
    (2, S54, 8, 14, -1, [-1, 1]),      # varies: gap 2, diff 0, b2 = 7 mod 8
    (2, S54, 4, 3, 1, [1]),            # gap 2, diff 2, b2 = 3 mod 4
    (2, S54, 4, 1, None, [-1, 1]),     # gap 2, diff 2, b2 = 1 mod 4
    (2, S54, 4, 5, None, [-1, 1]),
    (2, S24, 8, 6, 1, [1]),            # gap 2, diff 4, b2 = 3 mod 4
    (2, S24, 8, 2, -1, [-1]),          # gap 2, diff 4, b2 = 1 mod 4
    (2, S24, 4, 3, 1, [1]),            # gap 2, diff 6, b2 = 3 mod 4
    (2, S24, 4, 1, -1, [-1]),          # gap 2, diff 6, b2 = 1 mod 4
    (2, S44, 4, 1, -1, [-1]),          # gap 2, diff 10, b2 = 1 mod 4
    (2, S44, 4, 5, -1, [-1]),
    (2, S44, 4, 3, None, [-1, 1]),     # gap 2, diff 10, b2 = 3 mod 4
    (2, S44, 4, 7, None, [-1, 1]),
    (2, S54, 64, 8, 1, [1]),           # gap 3, diff -4
    (2, S54, 128, 16, -1, [1]),        # flipped: gap 3, diff -6
    (2, S54, 256, 32, -1, [1]),        # flipped: gap 4, diff -8
    (2, S24, 512, 64, -1, [1]),        # flipped: deeper s
    (2, S24, 1024, 64, -1, [1]),
    (2, S54, 32, 4, -1, [-1]),         # gap 3, diff -2
    (2, S54, 16, 2, 1, [1]),           # gap 3, diff 0, b2 = 1 mod 4
    (2, S54, 16, 6, 1, [1]),           # gap 3, diff 0, b2 = 3 mod 8
    (2, S54, 16, 14, -1, [-1]),        # gap 3, diff 0, b2 = 7 mod 8
    (2, S54, 8, 1, 1, [1]),            # gap 3, diff 2, b2 = 1 mod 8
    (2, S54, 8, 3, 1, [1]),            # gap 3, diff 2, b2 = 3 mod 8
    (2, S54, 8, 7, 1, [1]),            # gap 3, diff 2, b2 = 7 mod 8
    (2, S54, 8, 5, -1, [-1]),          # gap 3, diff 2, b2 = 5 mod 8
    (2, S24, 16, 6, 1, [1]),           # gap 3, diff 4, b2 = 3 mod 4
    (2, S24, 16, 2, -1, [-1]),         # gap 3, diff 4, b2 = 1 mod 4
    (2, S44, 16, 6, 1, [1]),           # gap 3, diff 8
    (2, S44, 16, 2, -1, [-1]),
    (2, S24, 8, 3, 1, [1]),            # gap 3, diff 6, b2 = 3 mod 4
    (2, S24, 8, 1, -1, [-1]),          # gap 3, diff 6, b2 = 1 mod 4
    (2, S44, 8, 7, 1, [1]),            # gap 3, diff 10, b2 = 7 mod 8
    (2, S44, 8, 1, -1, [-1]),          # gap 3, diff 10, b2 = 1 mod 8
    (2, S44, 8, 3, -1, [-1]),
    (2, S44, 8, 5, -1, [-1]),
]


@pytest.mark.parametrize(
    "p,s,a,b,forced,span",
    LANE_PINS,
    ids=["p%d_s%d_a%d_b%d" % (p, s, a, b) for p, s, a, b, _, _ in LANE_PINS],
)
def test_forced_sign_lane_pin(p, s, a, b, forced, span):
    assert forced_sign(p, s, a, b) == forced
    assert _span(p, s, a, b) == span


def test_forced_sign_ignores_sign_of_a():
    for p, s, a, b, forced, _ in LANE_PINS[::5]:
        assert forced_sign(p, s, -a, b) == forced


@pytest.mark.parametrize("s", [S34, -12 * 6**4, S94])
def test_forced_sign_p3_odd_gap_lane(s):
    # nu3(b) < nu3(a) and nu3(s) - 2 nu3(b) - 1 a positive multiple of 4:
    # nu3(s) is 5 or 9 here, which no s = -12 q^4 with q >= 5 reaches
    for a, b in ((3, 1), (3, 2), (9, 1), (9, 4), (27, 2), (3, -1), (9, 5)):
        assert forced_sign(3, s, a, b) == -1
        assert {w_star(3, s, a * u + b) for u in range(-2999, 3000)} == {-1}


def test_forced_sign_validation():
    with pytest.raises(ValueError):
        forced_sign(4, S54, 1, 1)
    with pytest.raises(ValueError):
        forced_sign(5, -75, 1, 1)       # -75 is -3r^2 but not -12k^4
    with pytest.raises(ValueError):
        forced_sign(5, 0, 1, 1)
    with pytest.raises(ValueError):
        forced_sign(5, S54, 0, 1)
    with pytest.raises(ValueError):
        forced_sign(5, S54, 1, 0)


# ---------------------------------------------------------------------------
# the single-prime-s specialization is an independent route; it must agree
# with the general conditions everywhere
# ---------------------------------------------------------------------------

def test_forced_sign_kq_pins():
    assert forced_sign_kq(5, 6000, 60) == {2: -1, 3: 1, 5: 1}
    assert forced_sign_kq(5, 5, 2) == {2: None, 3: 1, 5: 1}
    assert forced_sign_kq(5, 250, 125) == {2: None, 3: 1, 5: 1}
    assert forced_sign_kq(7, 56, 12) == {2: -1, 3: 1, 7: -1}
    # the high-valuation lane needs nu_q(a) >= 2: q | a alone must not fire
    assert forced_sign_kq(7, 7, 49)[7] is None
    # nu2(b) = 2 with nu2(a) >= 3 is a -1 lane, not a +1 one
    assert forced_sign_kq(5, 16, 4)[2] == -1
    # nu2(b) > 3 with nu2(a) > nu2(b) + 2 is the deep -1 lane
    assert forced_sign_kq(5, 128, 16)[2] == -1


def test_forced_sign_kq_validation():
    for q in (4, 3, 2, -5, 9):
        with pytest.raises(ValueError):
            forced_sign_kq(q, 1, 1)
    with pytest.raises(ValueError):
        forced_sign_kq(5, 0, 1)
    with pytest.raises(ValueError):
        forced_sign_kq(5, 1, 0)


def test_kq_route_matches_general_route():
    rng = random.Random(20260816)
    drawn = []
    for _ in range(250):
        q = rng.choice((5, 7, 11, 13, 17, 19))
        a = (2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 3)
             * q ** rng.randint(0, 4) * rng.choice((1, 3, 5, 7, 9, 11, 13, 15))
             * rng.choice((1, -1)))
        b = (2 ** rng.randint(0, 6) * 3 ** rng.randint(0, 3)
             * q ** rng.randint(0, 4) * rng.choice((1, 3, 5, 7, 9, 11, 13, 15))
             * rng.choice((1, -1)))
        drawn.append((q, a, b))
    # the draws keep nu2(a) <= 6, so the deep lane at 2 (nu2(b) > 3 and
    # nu2(a) > nu2(b) + 2) needs fixed inputs
    for q, a, b in drawn + [(5, 128, 16), (7, 128, -16)]:
        s = -12 * q**4
        got = forced_sign_kq(q, a, b)
        assert set(got) == {2, 3, q}
        for p in (2, 3, q):
            assert got[p] == forced_sign(p, s, a, b), (q, a, b, p)


# ---------------------------------------------------------------------------
# enumeration property: wherever a lane fires, the fibres obey it, except in
# the two flipped lane families (constant at the opposite sign) and the
# varying one (both signs occur)
# ---------------------------------------------------------------------------

def _nu(p, x):
    return valuation(p, x)[0]


def _flipped_lane(p, s, a, b):
    if p == 2:
        va, vb = _nu(2, a), _nu(2, b)
        return va - vb > 2 and _nu(2, s) - 2 * vb < -4
    if p >= 5 and p % 4 == 1:
        va, vb = _nu(p, a), _nu(p, b)
        return vb < va and _nu(p, s) > 2 * vb and vb % 2 == 0
    return False


def _varying_lane(p, s, a, b):
    if p != 2:
        return False
    va = _nu(2, a)
    vb, b2 = valuation(2, b)
    return va - vb == 2 and _nu(2, s) == 2 * vb and b2 % 4 == 3


def test_forced_sign_matches_enumeration():
    rng = random.Random(996633)
    clean = flipped = varying = 0
    for _ in range(200):
        k = rng.choice((1, 2, 3, 5, 6, 7, 10))
        s = -12 * k**4
        ps = sorted({2, 3} | {p for p in (5, 7) if k % p == 0})
        a = (2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 3)
             * 5 ** rng.randint(0, 2) * 7 ** rng.randint(0, 2)
             * rng.choice((1, 3, 5, 7, 9, 11, 13, 15)) * rng.choice((1, -1)))
        b = (2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 3)
             * 5 ** rng.randint(0, 2) * 7 ** rng.randint(0, 2)
             * rng.choice((1, 3, 5, 7, 9, 11, 13, 15)) * rng.choice((1, -1)))
        for p in ps:
            f = forced_sign(p, s, a, b)
            if f is None:
                continue
            span = _span(p, s, a, b, radius=24)
            if _flipped_lane(p, s, a, b):
                assert span == [-f], (p, s, a, b)
                flipped += 1
            elif _varying_lane(p, s, a, b):
                assert span == [-1, 1], (p, s, a, b)
                varying += 1
            else:
                assert span == [f], (p, s, a, b)
                clean += 1
    assert clean >= 150


def test_offset_class_is_pinned_by_the_family_shape():
    # s = -12 k^4 has odd part 13 mod 16, so the mod-4 class of the odd part
    # of b2^2 - s2 is decided by b2 mod 8 (it is 3 exactly when b2^2 = 9
    # mod 16).  The conditions read that class only at b2 = 3 mod 8, where
    # it is always 3, so their class-1 branch is vacuous for this family.
    for k in (1, 2, 3, 5, 7, 10):
        s2 = valuation(2, -12 * k**4)[1]
        assert s2 % 16 == 13
        for b2 in range(1, 64, 2):
            x = valuation(2, b2 * b2 - s2)[1] % 4
            assert x == (3 if b2 % 8 in (3, 5) else 1)


# ---------------------------------------------------------------------------
# rank_jump_report
# ---------------------------------------------------------------------------

def test_report_forced_jump_pin():
    rep = rank_jump_report(-7500, 6000, 60)
    assert rep["s"] == -7500 and rep["a"] == 6000 and rep["b"] == 60
    assert rep["generic_rank"] == 1
    assert rep["per_prime"] == {2: -1, 3: 1, 5: 1}
    assert rep["forced_W"] == 1
    assert rep["predicted_min_rank"] == 2
    assert rep["rank_jump_predicted"] is True
    assert rep["banner"] == "conditional on the parity conjecture"
    assert rep["flags"] == {
        "parity_conjecture": True,
        "silverman_finite_exceptions": True,
    }


def test_report_unknown_when_a_prime_is_unforced():
    rep = rank_jump_report(-972, 12, 18)
    assert rep["generic_rank"] == 1
    assert rep["per_prime"] == {2: None, 3: 1}
    assert rep["forced_W"] is None
    assert rep["predicted_min_rank"] == 1
    assert rep["rank_jump_predicted"] == "unknown"


def test_report_no_jump_on_generic_rank_zero():
    rep = rank_jump_report(-3, 8, 1)
    assert rep["generic_rank"] == 0
    assert "per_prime" not in rep
    assert rep["forced_W"] == 1
    assert rep["predicted_min_rank"] == 0
    assert rep["rank_jump_predicted"] is False


def test_report_jump_from_constancy_route():
    # not of the quartic shape, but the progression checker proves W = -1
    assert root_number_f(-75, 25) == -1
    assert sorted({root_number_f(-75, 40 * u + 25) for u in range(-30, 31)}) == [-1]
    rep = rank_jump_report(-75, 40, 25)
    assert rep["generic_rank"] == 0
    assert "per_prime" not in rep
    assert rep["forced_W"] == -1
    assert rep["predicted_min_rank"] == 1
    assert rep["rank_jump_predicted"] is True


def test_report_unknown_off_the_square_shape():
    for s in (-5, 7):
        rep = rank_jump_report(s, 1, 1)
        assert rep["generic_rank"] == 0
        assert "per_prime" not in rep
        assert rep["forced_W"] is None
        assert rep["predicted_min_rank"] == 0
        assert rep["rank_jump_predicted"] == "unknown"


def test_report_key_shape():
    with_quartic = rank_jump_report(-7500, 6000, 60)
    assert list(with_quartic) == [
        "s", "a", "b", "generic_rank", "per_prime", "forced_W",
        "predicted_min_rank", "rank_jump_predicted", "banner", "flags",
    ]
    without = rank_jump_report(-75, 40, 25)
    assert list(without) == [
        "s", "a", "b", "generic_rank", "forced_W",
        "predicted_min_rank", "rank_jump_predicted", "banner", "flags",
    ]


def test_report_validation():
    with pytest.raises(ValueError):
        rank_jump_report(0, 1, 1)
    with pytest.raises(ValueError, match="^s must be a nonzero integer$"):
        rank_jump_report(0, 0, 0)
    with pytest.raises(ValueError):
        rank_jump_report(-7500, 0, 1)
    with pytest.raises(ValueError):
        rank_jump_report(-7500, 1, 0)
