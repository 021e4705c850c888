"""Global root number: product over the factor base, twist reduction, windows."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootno import arith, root_number
from rootno.arith import factorize, legendre, sqrt_mod_prime_power, valuation
from rootno.audit import falsify_constancy, run_paper_examples
from rootno.constancy import check_f, check_f_p
from rootno.families import is_singular, l_to_f
from rootno.local_signs import TABLES, TableFallthrough, _row_hit, w_star
from rootno.rank_jump import rank_jump_report
from rootno.root_number import (
    average_root_number_window,
    breakdown_f,
    breakdown_l,
    factor_base,
    root_number_f,
    root_number_l,
    window_breakdowns,
    window_signs,
)


def test_factor_base():
    # 6 * s * (t^2 - s) = 6 * (-972) * 1296 at t = 18
    assert factor_base(-972, 18) == [2, 3]
    # t = 14, s = -28812: t^2 - s = 29008 = 2^4 * 7^2 * 37
    assert factor_base(-28812, 14) == [2, 3, 7, 37]
    assert factor_base(-7500, 60) == [2, 3, 5, 37]
    with pytest.raises(ValueError):
        factor_base(9, 3)
    with pytest.raises(ValueError):
        factor_base(0, 1)


def test_root_number_pins():
    assert root_number_f(-972, 18) == -1
    assert root_number_f(-972, 30) == 1
    assert root_number_f(-7500, 60) == 1
    assert root_number_f(-28812, 14) == -1
    assert root_number_f(-3, 1) == 1
    assert root_number_f(-3, 5) == -1


def test_breakdown_factors():
    b = breakdown_f(-7500, 60)
    assert b.factors == {2: -1, 3: 1, 5: 1, 37: 1}
    assert b.w == 1
    b = breakdown_f(-28812, 14)
    assert b.factors == {2: -1, 3: 1, 7: -1, 37: 1}
    assert b.w == -1
    prod = 1
    for sign in b.factors.values():
        prod *= sign
    assert b.w == -prod


def test_root_number_l():
    assert root_number_l(7, -588, 1, 2) == 1
    assert root_number_l(7, -588, 1, 6) == 1
    # must agree with the reduced F fibre
    rng = random.Random(3301)
    checked = 0
    while checked < 150:
        w = rng.randint(-6, 6)
        s = rng.randint(-200, 200)
        v = rng.randint(-20, 20)
        t = rng.randint(-30, 30)
        if w == 0 or s == 0:
            continue
        S, T = l_to_f(w, s, v, t)
        if is_singular(S, T):
            continue
        assert root_number_l(w, s, v, t) == root_number_f(S, T)
        checked += 1


def test_root_number_l_requires_integral_reduction():
    with pytest.raises(ValueError):
        root_number_l(Fraction(1, 2), -12, 0, 1)
    # rational inputs with integral reduction are fine
    assert root_number_l(Fraction(7), -588, 1, 2) == 1


@pytest.mark.parametrize("args, expected", [
    ((7, -588, 1, 2), (-28812, 35)),
    ((Fraction(7), Fraction(-588), Fraction(1), Fraction(2)), (-28812, 35)),
    ((True, -3, False, 2), (-3, 4)),
    ((-1, True, 3, True), (1, -4)),
    ((2, Fraction(1, 4), Fraction(1, 2), 1), (1, 3)),
    ((2, 0.25, 1, 1), (1, 4)),
    ((Fraction(4, 2), -3, 0, 1), (-12, 2)),
])
def test_twist_reduction_in_ints_and_fractions(args, expected):
    # ints stay ints; every other argument is read as a Fraction, and an
    # integral reduction comes back as plain ints, never a bool or Fraction
    got = root_number._reduce_l(*args)
    assert got == expected
    assert [type(x) for x in got] == [int, int]


@pytest.mark.parametrize("args, message", [
    ((Fraction(1, 2), -3, 1, 1), "s*w^2 = -3/4 is not an integer"),
    ((1, -3, Fraction(1, 2), 1), "w*(t^2+v) = 3/2 is not an integer"),
    ((1, Fraction(-1, 3), 0, 0.5), "s*w^2 = -1/3 is not an integer"),
    ((True, -3, 0, Fraction(1, 3)), "w*(t^2+v) = 1/9 is not an integer"),
])
def test_twist_reduction_rejects_a_non_integral_reduction(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        root_number._reduce_l(*args)
    with pytest.raises(ValueError, match=re.escape(message)):
        root_number_l(*args)


def test_root_number_l_rejects_singular():
    # (S, T) = (4, 2): T^2 = S
    with pytest.raises(ValueError):
        root_number_l(1, 4, 2, 0)
    # S = 0
    with pytest.raises(ValueError):
        root_number_l(1, 0, 1, 1)


def test_average_window_pins():
    assert average_root_number_window(-972, 12, 18, 50) == Fraction(-51, 101)
    assert average_root_number_window(-7500, 6000, 60, 20) == 1


def test_progression_12u_plus_18_sign_pattern():
    # on t = 12u + 18, s = -972: W = +1 exactly when u == 1 mod 4
    for u in range(-12, 13):
        expected = 1 if u % 4 == 1 else -1
        assert root_number_f(-972, 12 * u + 18) == expected, u


def test_extra_primes_do_not_change_product():
    rng = random.Random(808)
    for _ in range(60):
        s = rng.choice([-1, 1]) * rng.randint(1, 500)
        t = rng.randint(-40, 40)
        if s == 0 or t * t == s:
            continue
        b = breakdown_f(s, t)
        base = set(b.factors)
        for q in (5, 7, 11, 13, 17, 19, 23):
            if q not in base:
                assert w_star(q, s, t) == 1


# ---------------------------------------------------------------------------
# the T3 reading at primes off 6s: the sign from the exponent of t^2 - s
# ---------------------------------------------------------------------------

def _off_6s_sign(p, e):
    # T3 at nu(s) = nu(t) = 0: (-3/p) when nu(t^2 - s) = 2, 4 mod 6, else +1
    return legendre(-3, p) if e % 6 in (2, 4) else 1


def test_off_6s_sign_is_read_from_the_exponent():
    # every prime 5 <= p < 200 (both classes of (-3/p)), s of both signs
    # that are squares mod p, and t = r + p^e for a root r of s mod p^(e+1),
    # so that nu_p(t^2 - s) = e exactly
    primes = [p for p in range(5, 200) if factorize(p)[1] == [(p, 1)]]
    classes = set()
    for p in primes:
        ss = [s for s in (-3, -12, -972, -588, 1, -1, 2, -2, 7, 1 - 2 * p)
              if s % p and legendre(s, p) == 1]
        assert any(s < 0 for s in ss) and any(s > 0 for s in ss), p
        for s in ss:
            classes.add(legendre(-3, p))
            s_primes = root_number.primes_of_6s(s)
            for e in range(1, 14):
                t = sqrt_mod_prime_power(s % p ** (e + 1), p, e + 1) + p ** e
                assert valuation(p, t * t - s)[0] == e
                for tt in (t, -t):
                    want = w_star(p, s, tt)
                    assert _off_6s_sign(p, e) == want, (p, s, tt, e)
                    got = root_number._breakdown(s, tt, s_primes, {p: e})
                    assert got.factors[p] == want, (p, s, tt, e)
    assert classes == {-1, 1}


@st.composite
def _fibres_near_roots(draw):
    s = draw(st.sampled_from([-1, 1])) * draw(st.one_of(
        st.integers(1, 10**6),
        st.integers(1, 300).map(lambda r: 3 * r * r)))
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]))
    k = draw(st.integers(1, 5))
    if s % p and legendre(s, p) == 1:
        # t within a few p^k of a root of s mod p^k: nu_p(t^2 - s) >= k
        t = sqrt_mod_prime_power(s % p**k, p, k) \
            + draw(st.integers(-3, 3)) * p**k
    else:
        t = draw(st.integers(-10**6, 10**6))
    return s, draw(st.sampled_from([-1, 1])) * t


@settings(max_examples=300, deadline=None)
@given(_fibres_near_roots())
def test_breakdown_f_equals_w_star_on_the_factor_base(fibre):
    s, t = fibre
    if is_singular(s, t):
        return
    assert breakdown_f(s, t).factors == {p: w_star(p, s, t)
                                         for p in factor_base(s, t)}


def test_window_skips_singular_fibres():
    # s = 4, t = u: singular at u = +-2, average over the other fibres
    avg = average_root_number_window(4, 1, 0, 3)
    signs = [root_number_f(4, t) for t in (-3, -1, 0, 1, 3)]
    assert avg == Fraction(sum(signs), 5)


def test_singular_inputs_rejected():
    with pytest.raises(ValueError):
        root_number_f(9, 3)
    with pytest.raises(ValueError):
        root_number_f(0, 7)
    # the window takes nonzero int s and a, an int b and a non-negative
    # int radius; a bool a once averaged t = u + 18, a float a reached
    # legendre as a non-prime, a float radius died in range()
    for args in [(0, 12, 18, 2), (-972, 0, 18, 2), (-972, True, 18, 2),
                 (-972, 1.5, 18, 1), (-972, 12, 18.0, 1), (-972, 12, False, 1),
                 (-972, 12, 18, 2.5), (-972, 12, 18, -1), (-972, 12, 18, True)]:
        with pytest.raises(ValueError):
            average_root_number_window(*args)
    # the only fibre of t = u + 2, |u| <= 0, is t = 2 with t^2 = s = 4
    with pytest.raises(ValueError, match="window contains no nonsingular fibre"):
        average_root_number_window(4, 1, 2, 0)


# ---------------------------------------------------------------------------
# window_breakdowns: the sieve and the remainder tree against breakdown_f,
# row by row
# ---------------------------------------------------------------------------

# primes just above 2^16, so t^2 - s = P*Q leaves a cofactor that no sieve
# prime divides and that only the cofactor split resolves
_ABOVE_TRIAL_BOUND = (65537, 65539, 65543, 65551, 1048583)


@st.composite
def _windows(draw):
    a = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 40)) \
        * draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 25, 49, 12, 30]))
    b = draw(st.one_of(st.integers(-300, 300),
                       st.integers(-10**9, 10**9)))
    u_min = draw(st.integers(-300, 300))
    rows = draw(st.integers(1, 40))
    if draw(st.integers(0, 5)) == 0:
        # rows of widely different sizes, from |t| = |b| <= 3 at u = 0 to
        # |a| * 40: the blocks taken for the largest row strip more
        # primes from the small ones than their own rule would
        a = draw(st.sampled_from([-1, 1])) * draw(st.integers(10**4, 10**9))
        b = draw(st.integers(-3, 3))
        u_min = -draw(st.integers(0, rows - 1))
    sign = draw(st.sampled_from([-1, 1]))
    kind = draw(st.sampled_from(["any", "square", "prime power", "P*Q"]))
    if kind == "any":
        s = sign * draw(st.integers(1, 10 ** draw(st.integers(1, 12))))
    elif kind == "square":
        # a square s that one row of the window, or none, makes singular
        row = draw(st.integers(0, rows))
        s = (a * (u_min + row) + b) ** 2 or 1
    elif kind == "prime power":
        s = sign * draw(st.sampled_from([2, 3, 5, 7, 13])) \
            ** draw(st.integers(1, 9)) * draw(st.integers(1, 200))
    else:
        t = a * u_min + b
        s = t * t - draw(st.sampled_from(_ABOVE_TRIAL_BOUND)) \
            * draw(st.sampled_from(_ABOVE_TRIAL_BOUND))
    return s or 1, a, b, u_min, u_min + rows - 1


@settings(max_examples=240, deadline=None)
@given(_windows(), st.sampled_from([0, 1 << 30]))
def test_window_sieve_matches_breakdown_f(window, sieve_rows):
    # every route reads its signs in _breakdown, so this holds the sieve's
    # and the remainder tree's primes and exponents to factorize's, row by
    # row
    s, a, b, u_min, u_max = window
    with pytest.MonkeyPatch.context() as mp:
        # every window takes the sieve, or none does
        mp.setattr(arith, "_SIEVE_ROWS", sieve_rows)
        got = window_breakdowns(s, a, b, u_min, u_max)
    assert len(got) == u_max - u_min + 1
    for u, bd in zip(range(u_min, u_max + 1), got):
        t = a * u + b
        if is_singular(s, t):
            assert bd is None, (s, t)
            continue
        want = breakdown_f(s, t)
        assert bd == want, (s, t)
        # ascending keys, as the scan's JSON prints them
        assert list(bd.factors) == list(want.factors)


@settings(max_examples=120, deadline=None)
@given(_windows())
def test_window_signs_match_root_number_f(window):
    # off s = -3 r^2 the rows' square-full parts come from one remainder
    # tree at k = 3, not from square_full_factors row by row
    s, a, b, u_min, u_max = window
    got = window_signs(s, a, b, u_min, u_max)
    assert len(got) == u_max - u_min + 1
    for u, w in zip(range(u_min, u_max + 1), got):
        t = a * u + b
        assert w == (None if is_singular(s, t) else root_number_f(s, t)), \
            (s, t)


def test_window_sieve_counts_exponents_at_deep_rows():
    # b is a root of s mod p^12 and a = p^2, so nu_p(t^2 - s) = 2 + nu_p(u):
    # the rows take exponents 2..5 at a prime where (-3/p) = -1, and the
    # sign at p flips with the exponent mod 6
    seen = set()
    rows = 128
    for p, s in ((5, -1), (11, 3), (17, -1), (17, 2)):
        a = p * p
        b = sqrt_mod_prime_power(s % p**12, p, 12)
        with pytest.MonkeyPatch.context() as mp:
            # a window this short takes the sieve too
            mp.setattr(arith, "_SIEVE_ROWS", 0)
            got = window_breakdowns(s, a, b, 1, rows)
        for u, bd in zip(range(1, rows + 1), got):
            t = a * u + b
            e = valuation(p, t * t - s)[0]
            seen.add(e)
            assert bd == breakdown_f(s, t), (p, s, t)
            assert bd.factors[p] == w_star(p, s, t) == _off_6s_sign(p, e)
    assert seen == {2, 3, 4, 5}


def test_window_routes_agree_around_the_row_threshold():
    # a window one row short of the threshold goes through the remainder
    # tree, one at it through the sieve; both equal breakdown_f, including the singular
    # rows of s = 4 at t = +-2
    for rows in (arith._SIEVE_ROWS - 1, arith._SIEVE_ROWS):
        got = window_breakdowns(4, 1, -60, 0, rows - 1)
        assert got == [None if is_singular(4, t) else breakdown_f(4, t)
                       for t in range(-60, rows - 60)]
        assert got.count(None) == 2


def test_short_window_factors_s_once(monkeypatch):
    # a short window factors s once, and no row goes through factorize:
    # its rows come from one remainder tree
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counted)
    monkeypatch.setattr(root_number, "factorize", counted)
    root_number.primes_of_6s.cache_clear()
    rows = 10
    got = window_breakdowns(-972, 12, 18, 0, rows - 1)
    assert calls == [-972]
    assert got == [breakdown_f(-972, 12 * u + 18) for u in range(rows)]


def test_window_validation_and_empty_window():
    assert window_breakdowns(-972, 12, 18, 5, 4) == []
    for args in [(0, 12, 18, 0, 1), (-972, 0, 18, 0, 1), (-972, True, 18, 0, 1),
                 (-972, 12, 18.0, 0, 1), (-972, 12, 18, 0.0, 1),
                 (-972, 12, 18, 0, "1")]:
        with pytest.raises(ValueError):
            window_breakdowns(*args)


# ---------------------------------------------------------------------------
# window_signs: W alone, with nothing but s factored at s = -3 r^2 and only
# the square-full part of t^2 - s read at any other s
# ---------------------------------------------------------------------------

# the scan benchmark's window at an s that is not -3 r^2
_SCAN_WINDOW = (-10504490, 10, 202318, 0, 499)

@pytest.mark.parametrize("window", [
    (-972, 12, 18, -40, 40),        # s = -3 r^2
    (-972, -7, 589318, 0, 599),     # s = -3 r^2, negative a, 600 rows
    (-3, 1, 10**9 + 7, 0, 30),
    (4, 1, -2, -5, 5),              # singular at t = +-2
    (4, 1, -300, 0, 599),           # sieved, singular at t = +-2
    (-7500 * 7, -12, 1001, -20, 20),
    (12, 5, -3, 0, 99),
    (-972, 12, 18, 5, 4),           # empty
    _SCAN_WINDOW,
    (-10504490, -11, 5 * 10**5, -300, 299),  # sieved, negative a
    (13, -7, 589318, 0, 599),       # sieved, negative a
    (4, 1, -2, -300, 299),          # sieved, singular at t = +-2
])
def test_window_signs_are_the_w_of_window_breakdowns(window):
    assert window_signs(*window) == [
        bd and bd.w for bd in window_breakdowns(*window)]


def test_window_signs_sieved_window_with_negative_a():
    # 600 rows take the sieve in window_breakdowns; at s = -3 r^2 the
    # signs route factors no row at all
    assert arith._SIEVE_ROWS <= 600
    for s in (-972, -75, 13):
        got = window_signs(s, -11, 5 * 10**5, -300, 299)
        assert len(got) == 600
        assert got == [root_number_f(s, -11 * u + 5 * 10**5)
                       for u in range(-300, 300)]


@pytest.mark.parametrize("s", [2, -1, 5, 13, -7, 4, -10504490])
def test_root_number_f_is_the_w_of_breakdown_f(s):
    rng = random.Random(s)
    ts = list(range(-200, 201)) + [rng.randrange(-10**12, 10**12)
                                   for _ in range(40)]
    # deep rows off 6 s, nu_p(t^2 - s) >= k, where p = 2 mod 3 flips W
    # only at k = 2 or 4 mod 6
    for p in (5, 11, 17):
        if s % p and legendre(s, p) == 1:
            for k in range(2, 14):
                r = sqrt_mod_prime_power(s % p**k, p, k)
                ts += [r, p**k - r, r + p**k]
    for t in ts:
        if is_singular(s, t):
            with pytest.raises(ValueError, match=re.escape(
                    f"fibre (s={s}, t={t}) is singular")):
                root_number_f(s, t)
        else:
            assert root_number_f(s, t) == breakdown_f(s, t).w, (s, t)


def test_window_signs_off_minus_3_square_factor_no_row(monkeypatch):
    # every t^2 - s of the scan window is below 2^48, so once the blocks
    # stop at its cube root nothing is left for BPSW, rho or ECM, and no
    # row is handed to factorize: only s is factored
    s = _SCAN_WINDOW[0]
    want = [bd and bd.w for bd in window_breakdowns(*_SCAN_WINDOW)]
    calls = {}
    for name in ("factorize", "is_prime", "_split_cofactor"):
        calls[name] = log = []

        def counted(*args, real=getattr(arith, name), log=log):
            log.append(args[0])
            return real(*args)

        monkeypatch.setattr(arith, name, counted)
    monkeypatch.setattr(root_number, "factorize", arith.factorize)
    root_number.primes_of_6s.cache_clear()
    assert window_signs(*_SCAN_WINDOW) == want
    assert calls["factorize"] == [s]
    # what factoring s asks of them, and the table primes, divide 6 s
    for name, log in calls.items():
        assert all(6 * s % n == 0 for n in log), name


def test_unsplittable_cofactor_off_minus_3_square_raises_as_breakdown_f(
        monkeypatch):
    # with one tiny ECM level, t^2 + 2 at this t leaves a 95-bit composite
    # cofactor that nothing splits: the signs route reaches it, as
    # factoring t^2 - s does, and raises the same error
    monkeypatch.setattr(arith, "_ECM_LEVELS", ((10, 1),))
    t = 870968805654166597
    for signs, breakdowns in ((root_number_f, breakdown_f),
                              (window_signs, window_breakdowns)):
        args = (-2, t) if signs is root_number_f else (-2, 1, t, 0, 3)
        with pytest.raises(ValueError, match="95-bit") as got:
            signs(*args)
        with pytest.raises(ValueError) as want:
            breakdowns(*args)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("args", [
    (-972, 0, 18, 0, 1), (12, 0, 18, 0, 1),
    (-972, 12, True, 0, 1), (12, 12, False, 0, 1),
    (-972, 12, 18, 0.0, 1), (12, 12, 18, 0.0, 1),
    (0, 12, 18, 0, 1), (-972.0, 12, 18, 0, 1), (-972, 12, 18, 0, "1"),
])
def test_window_signs_raise_what_window_breakdowns_raises(args):
    with pytest.raises(ValueError) as signs:
        window_signs(*args)
    with pytest.raises(ValueError) as breakdowns:
        window_breakdowns(*args)
    assert str(signs.value) == str(breakdowns.value)


def test_breakdown_f_refuses_a_bool_t_before_factoring(monkeypatch):
    with pytest.raises(ValueError, match=re.escape(
            "s and t must be integers, got s=-972, t=True")):
        breakdown_f(-972, True)
    with pytest.raises(ValueError, match=re.escape(
            "s and t must be integers, got s=True, t=5")):
        breakdown_f(True, 5)
    # a float or bool s or t is refused before anything, s included, is
    # factored, by root_number_f on the s = -3 r^2 route too
    calls = []
    monkeypatch.setattr(root_number, "factorize", calls.append)
    root_number.primes_of_6s.cache_clear()
    for s, t in ((-3.0, 1), (-2.0, 1), (True, 1), (-972, 18.0), (-972, True)):
        for f in (breakdown_f, root_number_f):
            with pytest.raises(ValueError, match=re.escape(
                    f"s and t must be integers, got s={s!r}, t={t!r}")):
                f(s, t)
    assert calls == []


def test_breakdown_f_names_a_fallthrough_off_the_minus_3_square_route(
        monkeypatch):
    # s = 10 is not -3 r^2, so breakdown_f signs p = 5 through the kernel;
    # the message and its cause are w_star_hit's
    breakdown_f(10, 3)
    monkeypatch.setitem(TABLES, "T3", [])
    _row_hit.cache_clear()
    with pytest.raises(TableFallthrough, match=re.escape(
            "no row of T3 matched p=5, s=10, t=3 (nu_s=1, nu_t=0, nu_d=0)")
            ) as exc:
        breakdown_f(10, 3)
    assert str(exc.value.__cause__) == (
        "no row of T3 matched LocalProfile(p=5, nu_s=1, s_u=2, nu_t=0, "
        "t_u=3, nu_d=0, d_u=4)")


# ---------------------------------------------------------------------------
# root_number_f at s = -3 r^2: the primes of 6s alone, against breakdown_f
# ---------------------------------------------------------------------------

# the r of the benchmark's progression grid, s = -3 r^2
_GRID_R = (1, 2, 3, 4, 5, 6, 7, 10, 12, 18, 25, 50)


def test_minus_3_square_route_matches_breakdown_f_on_the_grid():
    for r in _GRID_R:
        s = -3 * r * r
        for t in list(range(-120, 121)) + [10**6 + 7, -(10**9) - 3, 2**40]:
            assert root_number_f(s, t) == breakdown_f(s, t).w, (s, t)


def test_minus_12_fourth_takes_the_minus_3_square_route():
    # s = -12 q^4 = -3 (2 q^2)^2, and the twist (7, -588, 1) reduces to
    # S = -588 * 49 = -3 * 98^2
    for q in range(1, 14):
        s = -12 * q**4
        for t in range(-60, 61):
            assert root_number_f(s, t) == breakdown_f(s, t).w, (s, t)
    for t in range(-40, 41):
        assert root_number_l(7, -588, 1, t) == breakdown_l(7, -588, 1, t).w


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**4), st.integers(-10**9, 10**9))
def test_minus_3_square_route_matches_breakdown_f(r, t):
    s = -3 * r * r
    assert root_number_f(s, t) == breakdown_f(s, t).w


def test_minus_3_square_route_factors_only_s(monkeypatch):
    # neither root_number_f at s = -3 r^2 nor root_number_l at a twist
    # reducing to such an S (here S = -588 * 7^2 = -3 * 98^2) factors
    # t^2 - s: only s itself, once
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(root_number, "factorize", counted)
    root_number.primes_of_6s.cache_clear()
    for t in range(-50, 51):
        root_number_f(-972, t)
    for t in range(-20, 21):
        root_number_l(7, -588, 1, t)
    assert calls == [-972, -28812]
    with pytest.raises(ValueError, match=re.escape(
            "s and t must be integers, got s=-972, t=18.0")):
        root_number_f(-972, 18.0)


def test_minus_3_square_route_names_a_fallthrough(monkeypatch):
    # the message is w_star_hit's: the prime, the fibre and its valuations
    root_number_f(-75, 1)
    monkeypatch.setitem(TABLES, "T3", [])
    _row_hit.cache_clear()
    with pytest.raises(TableFallthrough, match=re.escape(
            "no row of T3 matched p=5, s=-75, t=1 (nu_s=2, nu_t=0, nu_d=0)")):
        root_number_f(-75, 1)
    # a window row reaches the kernel without root_number_f
    with pytest.raises(TableFallthrough, match=re.escape(
            "no row of T3 matched p=5, s=-75, t=1 (nu_s=2, nu_t=0, nu_d=0)")):
        window_signs(-75, 1, 1, 0, 0)


@pytest.mark.parametrize("s", [-972, 10])
@pytest.mark.parametrize("t", [True, False, 18.0, "18", Fraction(18)])
def test_root_number_f_refuses_a_t_that_is_not_an_int_as_breakdown_f(s, t):
    # a bool is not taken for 1 or 0 on the s = -3 r^2 route either
    with pytest.raises(Exception) as single:
        root_number_f(s, t)
    with pytest.raises(Exception) as listed:
        breakdown_f(s, t)
    assert type(single.value) is type(listed.value)
    assert str(single.value) == str(listed.value)


def test_s_primes_cache_is_bounded():
    root_number.primes_of_6s.cache_clear()
    for s in range(1, 10**4 + 1):
        got = root_number.primes_of_6s(s)
        assert type(got) is tuple
        assert got == tuple(sorted({2, 3}.union(p for p, _ in factorize(s)[1])))
    info = root_number.primes_of_6s.cache_info()
    assert info.maxsize == 256 and info.currsize == 256


def test_consumers_read_the_primes_of_6s_from_one_place(monkeypatch):
    # once primes_of_6s(s) is warm, the constancy checks, the witness
    # search, the audit and the rank-jump report factor neither s, |s|
    # nor 6|s| again; the worked examples' L row reduces to S = -28812.
    # Calls are counted through every rootno module's binding of factorize
    grid = [(-3 * r * r, a, b) for r in (1, 2, 5, 6, 7)
            for a, b in ((12, 18), (8, 6), (4, 1), (40, -15))]
    quartic = [(-12 * q**4, a, b) for q in (5, 7)
               for a, b in ((8, 2), (4 * q, q), (1, 3))]
    every_s = {s for s, _, _ in grid + quartic}.union((-972, -588, -28812,
                                                        -7500, -3))
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    for name, module in list(sys.modules.items()):
        if name == "rootno" or name.startswith("rootno."):
            for attr, value in list(vars(module).items()):
                if value is factorize:
                    monkeypatch.setattr(module, attr, counted)
    for s in every_s:
        root_number.primes_of_6s(s)
    del calls[:]
    for s, a, b in grid:
        check_f(s, a, b)
        for p in (2, 3, 5, 7, 11, 13):
            check_f_p(p, s, a, b)
        falsify_constancy(s, a, b, 50)
    for s, a, b in quartic:
        rank_jump_report(s, a, b)
    run_paper_examples()
    for s in every_s:
        assert not {s, abs(s), 6 * abs(s)} & set(calls), s
