"""Local sign tables: dispatch, hand-computed pins, coverage, invariances.

The pins were worked out by hand from the case tables (valuations, unit
residues, row lookup) before the module was written; they are the primary
guard against transcription slips. The sweep then checks that every single
row of every table is reachable, and the invariance tests exercise the
algebraic properties the tables must satisfy as a whole.
"""

import math
import random
import re

import pytest

from rootno.arith import (_int_valuation, as_minus_3_square, legendre,
                          sqrt_mod_prime_power)
from rootno.local_signs import (
    _VALUES,
    TABLES,
    LocalProfile,
    Row,
    TableFallthrough,
    _row_hit,
    _s_part,
    _sign_product,
    dispatch_table,
    w_star,
    w_star_hit,
)
from rootno.root_number import (breakdown_f, root_number_f, window_breakdowns,
                                window_signs)

RNG_SEED = 771203


# ----------------------------------------------------------------- dispatch

DISPATCH_PINS = [
    ((7, -3, 1), "T3"),
    ((3, -972, 30), "T4"),
    ((3, 162, 9), "T5"),
    ((3, 162, 3), "T6a"),
    ((3, 18, 1), "T6b"),
    ((3, 18, 3), "T7"),
    ((2, -3, 2), "T8"),
    ((2, -3, 1), "T9"),
    ((2, 2, 1), "T10a"),
    ((2, 8, 1), "T10b"),
    ((2, -972, 1), "T11"),
    ((2, -972, 18), "T12"),
]


def test_dispatch_pins():
    for (p, s, t), table in DISPATCH_PINS:
        assert w_star_hit(p, s, t).table == table, (p, s, t)


def test_profile_rejects_singular():
    with pytest.raises(ValueError):
        LocalProfile.of(5, 0, 1)
    with pytest.raises(ValueError):
        LocalProfile.of(5, 9, 3)
    with pytest.raises(ValueError):
        LocalProfile.of(4, 5, 1)  # p not prime


@pytest.mark.parametrize("s, t", [(-3, 1.5), (-3, 0.5), (-972, 18.0),
                                  (-972.0, 18), (-3, True), (True, 1),
                                  (-3, "1")])
def test_profile_rejects_an_s_or_t_that_is_not_an_int(s, t):
    # unchecked, LocalProfile.of(2, -3, 0.5) has t_u = 0.5 and d_u = 3.25,
    # w_star(2, -3, 1.5) is -1 and w_star_hit(3, -972, 18.0) a RowHit
    for p in (2, 3, 5):
        for make in (LocalProfile.of, w_star_hit, w_star):
            with pytest.raises(ValueError, match="s and t must be integers"):
                make(p, s, t)


def test_profile_of_zero_t():
    q = LocalProfile.of(5, -3, 0)
    assert q.nu_t == math.inf
    assert q.t_u is None
    assert q.nu_s == 0 and q.nu_d == 0


# --------------------------------------------------------------- value pins

SIGN_PINS = [
    # the 2-adic divergence family at s = -3 (T9, diff=2 row)
    ((2, -3, 1), -1),
    ((2, -3, 5), 1),
    ((2, -3, 3), -1),
    ((2, -3, 7), 1),
    # s = -972 on the progression 12u + 18 (T12, diff=2 row)
    ((2, -972, 18), 1),
    ((2, -972, 30), -1),
    ((2, -972, 6), 1),
    ((3, -972, 18), 1),
    ((3, -972, 30), 1),
    ((13, -972, 30), 1),
    # s = -7500 at t = 60
    ((2, -7500, 60), -1),
    ((3, -7500, 60), 1),
    ((5, -7500, 60), 1),
    ((37, -7500, 60), 1),
    # s = -28812 at t = 14
    ((2, -28812, 14), -1),
    ((3, -28812, 14), 1),
    ((7, -28812, 14), -1),
    ((37, -28812, 14), 1),
    # assorted rows hit by hand
    ((7, -3, 1), 1),       # T3 k=0, nu(d)=0: off-base prime
    ((2, -3, 2), 1),       # T8 diff=-2, s_2 = 13 mod 16, t_2 = 1 mod 4
    ((2, -3, 6), -1),      # T8 diff=-2 otherwise
    ((2, 17, 1), 1),       # T9 otherwise (diff=4), t_2 = 1 mod 4
    ((2, 65, 1), 1),       # T9 otherwise (diff=6), t_2 = 1 mod 4
    ((2, -60, 2), -1),     # T12 diff=4 otherwise: (t_2, d_2) = (1, 1) mod 8
    ((2, -316, 2), 1),     # T12 diff=4 unit row: (t_2, d_2) = (1, 5) mod 8
    ((2, 2, 1), 1),        # T10a diff=1, s_2 = 1 mod 4, t_2 = 1 mod 8
    ((2, 2, 3), -1),       # T10a diff=1 otherwise
    ((2, 6, 1), 1),        # T10a diff=1, s_2 = 3 mod 4, t_2 = 1 mod 8
    ((2, 8, 1), -1),       # T10b diff=3 otherwise
    ((2, 8, 3), 1),        # T10b diff=3, s_2 = 1 mod 4, t_2 = 3 mod 8
    ((2, 8, 5), 1),        # T10b diff=3, s_2 = 1 mod 4, t_2 = 5 mod 8
    ((2, 8, 7), -1),       # T10b diff=3 otherwise
    ((2, 24, 1), 1),       # T10b diff=3, s_2 = 3 mod 4, t_2 = 1 mod 8
    ((2, -972, 1), 1),     # T11 diff=2, s_2 = 5 mod 8, t_2 = 1 mod 8
    ((2, -972, 5), -1),    # T11 diff=2 otherwise
    ((3, 54, 1), -1),      # T4 3mod4 otherwise
    ((3, 54, 3), -1),      # T4 3mod4 diff=1: (s_3/3) with s_3 = 2
    ((3, 162, 9), -1),     # T5 diff=0 with s_3 t_3 = 2 mod 9: otherwise
    ((3, 405, 9), 1),      # T5 diff=0 unit row
    ((3, 162, 3), -1),     # T6a diff=2, nu(t) odd
    ((3, 162, 1), -1),     # T6a diff=4, nu(t) even
    ((3, 2, 9), 1),        # T6a diff=-4
    ((3, 162, 27), 1),     # T6a diff=-2, (t_3/3) = +1
    ((3, 162, 54), -1),    # T6a diff=-2, (t_3/3) = -1
    ((3, 18, 1), -1),      # T6b diff=2, t_3 = -s_3
    ((3, 18, 2), 1),       # T6b diff=2, t_3 = s_3
    ((3, 18, 9), -1),      # T6b diff=-2, t_3 = -s_3
    ((3, 18, 18), 1),      # T6b diff=-2, t_3 = s_3
    ((3, 18, 3), -1),      # T7 diff=0 with s_3 t_3 = 2 mod 9: otherwise
    ((3, 45, 3), 1),       # T7 diff=0 unit row
]


def test_sign_pins():
    for (p, s, t), expected in SIGN_PINS:
        assert w_star(p, s, t) == expected, (p, s, t)


def test_row_ids_for_pinned_divergence_cells():
    assert w_star_hit(2, -3, 1).table == "T9"
    assert w_star_hit(2, -3, 1).cell == "diff=2"
    assert w_star_hit(2, -972, 18).table == "T12"
    assert w_star_hit(2, -972, 18).cell == "diff=2"


# ------------------------------------------------------------ transcription

EXPECTED_ROW_COUNTS = {
    "T3": 21, "T4": 8, "T5": 8, "T6a": 4, "T6b": 7, "T7": 8,
    "T8": 18, "T9": 9, "T10a": 16, "T10b": 15, "T11": 16, "T12": 12,
}


def test_transcription_records():
    assert set(TABLES) == set(EXPECTED_ROW_COUNTS)
    for tid, rows in TABLES.items():
        assert len(rows) == EXPECTED_ROW_COUNTS[tid], tid
        ids = [row.row_id for row in rows]
        assert len(ids) == len(set(ids)), f"duplicate row ids in {tid}"
        for row in rows:
            assert row.vdesc


def test_printed_values_are_exactly_the_evaluated_ones():
    # no evaluator without a row that prints its value, and no printed
    # value without an evaluator
    used = {row.vdesc for rows in TABLES.values() for row in rows}
    assert used == set(_VALUES)


def test_row_refuses_an_unknown_printed_value():
    with pytest.raises(ValueError, match=r"'\+2'"):
        Row("diff=0", "", "+2", lambda q: True)


# ------------------------------------------------------------ row coverage

def _sweep_fibres():
    """Deterministic (p, s, t) families hitting every row of every table."""
    fibres = []

    # p >= 5: valuation sweeps (k < 0 and k > 0 rows of T3)
    for p in (5, 7):
        units_s = [1, 2, 3, p - 1, p + 1, 2 * p + 1]
        for e in range(0, 9):
            for su in units_s:
                for sgn in (1, -1):
                    s = sgn * su * p**e
                    for f in range(0, 4):
                        for tu in (1, 2, 3, p - 1):
                            fibres.append((p, s, tu * p**f))
                    fibres.append((p, s, 0))
    # p >= 5: equal-valuation generator (k = 0 rows, all nu classes mod 6)
    for p in (5, 7):
        for f in range(0, 6):
            for tu in (1, 2, 3):
                t = tu * p**f
                for big_m in range(2 * f, 2 * f + 14):
                    for du in (1, 2, 3, p - 1):
                        s = t * t - du * p**big_m
                        if s == 0 or s == t * t:
                            continue
                        fibres.append((p, s, t))

    # p = 3
    units3 = [1, 2, 4, 5, 7, 8, 10, 13, 17, 26]
    for e in range(0, 10):
        for su in units3:
            for sgn in (1, -1):
                s = sgn * su * 3**e
                for f in range(0, 5):
                    for tu in (1, 2, 4, 5):
                        fibres.append((3, s, tu * 3**f))
                fibres.append((3, s, 0))
    for f in range(0, 4):
        for tu in (1, 2, 4, 5, 7, 8):
            t = tu * 3**f
            for big_m in range(2 * f, 2 * f + 14):
                for du in units3:
                    s = t * t - du * 3**big_m
                    if s == 0 or s == t * t:
                        continue
                    fibres.append((3, s, t))

    # p = 2
    units2 = list(range(1, 32, 2))
    for e in range(0, 12):
        for su in units2:
            for sgn in (1, -1):
                s = sgn * su * 2**e
                for f in range(0, 5):
                    for tu in (1, 3, 5, 7, 9, 11, 13, 15):
                        fibres.append((2, s, tu * 2**f))
                fibres.append((2, s, 0))
    for f in range(0, 4):
        for tu in (1, 3, 5, 7, 9, 11, 13, 15):
            t = tu * 2**f
            for big_m in range(2 * f, 2 * f + 16):
                for du in units2:
                    s = t * t - du * 2**big_m
                    if s == 0 or s == t * t:
                        continue
                    fibres.append((2, s, t))

    return fibres


def test_every_row_reachable_and_total():
    hit: dict[str, set[int]] = {tid: set() for tid in TABLES}
    for p, s, t in _sweep_fibres():
        if s == 0 or t * t == s:
            continue
        q = LocalProfile.of(p, s, t)
        tid = dispatch_table(q)
        for i, row in enumerate(TABLES[tid]):
            if row.guard(q):
                hit[tid].add(i)
                sign = row.value(q)
                assert sign in (-1, 1)
                break
        else:
            raise AssertionError(f"fall-through: {(p, s, t)}")
    missing = {
        tid: [i for i in range(len(TABLES[tid])) if i not in hit[tid]]
        for tid in TABLES
        if len(hit[tid]) < len(TABLES[tid])
    }
    assert not missing, f"unreached rows: {missing}"


# ------------------------------------------------------------- invariances

def test_totality_fuzz_small():
    rng = random.Random(RNG_SEED)
    primes = [2, 3, 5, 7, 11, 13, 37, 101]
    for _ in range(4000):
        p = rng.choice(primes)
        e = rng.randint(0, 9)
        s = rng.choice([-1, 1]) * rng.randint(1, 400) * p**e
        t = rng.choice([0, rng.randint(-10**6, 10**6), p ** rng.randint(0, 5)])
        if s == 0 or t * t == s:
            continue
        assert w_star(p, s, t) in (-1, 1)


def test_quartic_twist_scaling():
    rng = random.Random(RNG_SEED + 1)
    primes = [2, 3, 5, 7, 13]
    for _ in range(600):
        p = rng.choice(primes)
        s = rng.choice([-1, 1]) * rng.randint(1, 300) * p ** rng.randint(0, 6)
        t = rng.choice([0, rng.randint(-3000, 3000)])
        lam = rng.choice([x for x in range(-20, 21) if x != 0])
        if s == 0 or t * t == s:
            continue
        assert w_star(p, s * lam**4, t * lam**2) == w_star(p, s, t), (p, s, t, lam)


def test_trivial_off_factor_base():
    rng = random.Random(RNG_SEED + 2)
    primes = [5, 7, 11, 13, 37, 101, 997]
    count = 0
    while count < 400:
        p = rng.choice(primes)
        s = rng.randint(-10**6, 10**6)
        t = rng.randint(-10**3, 10**3)
        if s == 0 or t * t == s:
            continue
        if s % p == 0 or (t * t - s) % p == 0:
            continue
        assert w_star(p, s, t) == 1
        count += 1


def test_minus_3_square_deep_primes_are_trivial():
    # for s = -3 r^2 and p >= 5 not dividing s, even p | t^2 - s gives +1
    # (the -3 of the shape is a square mod any such p)
    checked = 0
    for r in range(1, 12):
        s = -3 * r * r
        for t in range(-60, 61):
            d = t * t - s
            f = d
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                if f % p == 0 and s % p != 0:
                    assert w_star(p, s, t) == 1, (p, s, t)
                    checked += 1
    assert checked > 100


def test_minus_3_shape_symbol():
    # the underlying fact: p | t^2 + 3 r^2 with p coprime to 6 r forces
    # (-3/p) = +1, which is why the deep rows stay trivial
    for r in range(1, 10):
        for t in range(1, 60):
            d = t * t + 3 * r * r
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
                if d % p == 0 and (3 * r) % p != 0 and t % p != 0:
                    assert legendre(-3, p) == 1


# ----------------------------------------------------- the row-hit cache

def _walk(q):
    """(table, row_id, sign) of the first row whose guard holds, or
    (table, None, None) on a fall-through: the rows, read with no cache."""
    tid = dispatch_table(q)
    for row in TABLES[tid]:
        if row.guard(q):
            return tid, row.row_id, row.value(q)
    return tid, None, None


def test_rows_read_unit_parts_only_mod_16_9_or_p():
    # the claim LocalProfile.of's reduction rests on: moving s_u, t_u or d_u
    # by a multiple of M (16 at p = 2, 9 at p = 3, p at p >= 5) keeps the
    # table, the row and the sign, or the fall-through
    rng = random.Random(RNG_SEED + 3)
    tables = set()
    for p in (2, 3, 5, 7, 11, 13):
        mod = 16 if p == 2 else 9 if p == 3 else p
        units = [u for u in range(1, mod) if u % p]
        for _ in range(6000):
            nu_s, nu_d = rng.randint(0, 12), rng.randint(0, 12)
            nu_t = rng.choice([math.inf] + list(range(13)))
            cols = [rng.choice(units) for _ in range(3)]
            t_u = None if nu_t == math.inf else cols[1]
            base = _walk(LocalProfile(p, nu_s, cols[0], nu_t, t_u,
                                      nu_d, cols[2]))
            tables.add(base[0])
            for _ in range(3):
                moved = [c + mod * rng.randint(-10**6, 10**6) for c in cols]
                t_u = None if nu_t == math.inf else moved[1]
                got = _walk(LocalProfile(p, nu_s, moved[0], nu_t, t_u,
                                         nu_d, moved[2]))
                assert got == base, (p, nu_s, nu_t, nu_d, cols, moved)
    assert tables == set(TABLES)


def _unreduced(p, s, t):
    """The profile of the fibre with its unit parts as the valuation gives
    them, not reduced mod 16, 9 or p."""
    nu_s, s_u = _int_valuation(p, s)
    nu_t, t_u = (math.inf, None) if t == 0 else _int_valuation(p, t)
    nu_d, d_u = _int_valuation(p, t * t - s)
    return LocalProfile(p, nu_s, s_u, nu_t, t_u, nu_d, d_u)


def test_cached_hits_match_the_row_walk():
    # twice over the sweep: first into an empty cache, then out of it
    _row_hit.cache_clear()
    fibres = [f for f in _sweep_fibres() if f[1] != 0 and f[1] != f[2] ** 2]
    for _ in range(2):
        for p, s, t in fibres:
            hit = w_star_hit(p, s, t)
            assert (hit.table, hit.row_id, hit.sign) == \
                _walk(_unreduced(p, s, t)), (p, s, t)


def test_row_hit_cache_is_bounded():
    _row_hit.cache_clear()
    p = 10007
    for s in range(-1, -10**4 - 1, -1):
        # s_u = s mod p differs for each s: 10^4 distinct profiles
        assert w_star_hit(p, s, 1).sign in (-1, 1)
    info = _row_hit.cache_info()
    assert 0 < info.currsize <= info.maxsize == 1 << 12


def test_fallthrough_names_the_fibre(monkeypatch):
    w_star_hit(5, -3, 1)  # cached before the table is emptied
    monkeypatch.setitem(TABLES, "T3", [])
    _row_hit.cache_clear()
    with pytest.raises(TableFallthrough, match="p=5, s=-3, t=1 "):
        w_star_hit(5, -3, 1)


def test_a_fallthrough_is_not_cached(monkeypatch):
    # once an emptied T3 is restored, the fibre finds its row again
    hit = w_star_hit(5, -3, 1)
    with monkeypatch.context() as patch:
        patch.setitem(TABLES, "T3", [])
        _row_hit.cache_clear()
        with pytest.raises(TableFallthrough):
            w_star_hit(5, -3, 1)
    assert w_star_hit(5, -3, 1) == hit


# ------------------------------------------------------ the per-fibre kernel

def _deep_7_fibres(depth: int) -> list[int]:
    # t = 7 t' with t'^2 = -3 mod 7^depth, so nu_7(t^2 + 147) >= depth + 2
    root = sqrt_mod_prime_power(-3 % 7**depth, 7, depth)
    return [7 * root, -7 * root, 7 * (root + 7**depth), 7 * (7**depth - root)]


def _raised(f, *args):
    with pytest.raises(Exception) as exc:
        f(*args)
    return type(exc.value), str(exc.value)


def test_kernel_is_the_product_of_w_star():
    fibres = [(-3 * r * r, t) for r in range(1, 13) for t in range(-40, 41)]
    fibres += [(-147, t) for depth in (1, 3, 6, 9) for t in _deep_7_fibres(depth)]
    assert any(_int_valuation(7, t * t + 147)[0] >= 11 for s, t in fibres)
    for s, t in fibres:
        primes = [2, 3] + [p for p in (5, 7, 11) if s % p == 0]
        expected = math.prod(w_star(p, s, t) for p in primes)
        assert _sign_product(s, primes, t, t * t - s) == expected, (s, t)
        assert _sign_product(s, iter(primes), t, t * t - s) == expected, (s, t)
    assert _sign_product(-3, (), 5, 28) == 1


@pytest.mark.parametrize("s, t", [(-3, 1.5), (-972, 18.0), (-972.0, 18),
                                  (-3, True), (True, 1), (-3, "1")])
def test_kernel_rejects_an_s_or_t_that_is_not_an_int(s, t):
    # the kernel checks nothing: each route into it refuses such an s or t
    # first, with the error of the route that factors
    assert _raised(root_number_f, s, t) == _raised(breakdown_f, s, t)
    window = (s, 1, t, 0, 0)
    assert _raised(window_signs, *window) == _raised(window_breakdowns, *window)


@pytest.mark.parametrize("s, t", [(0, 1), (9, 3), (9, -3)])
def test_kernel_rejects_a_singular_fibre(s, t):
    # a singular fibre has s = t^2 >= 0, never -3 r^2, so root_number_f
    # hands it to breakdown_f, which refuses it before any sign is read
    assert as_minus_3_square(s) is None
    with pytest.raises(ValueError, match=re.escape(
            f"fibre (s={s}, t={t}) is singular")):
        root_number_f(s, t)


def test_kernel_fallthrough_names_the_fibre(monkeypatch):
    _sign_product(-3, (2, 3), 1, 4)
    monkeypatch.setitem(TABLES, "T9", [])
    _row_hit.cache_clear()
    with pytest.raises(TableFallthrough) as kernel:
        _sign_product(-3, (3, 2), 1, 4)
    with pytest.raises(TableFallthrough) as single:
        w_star_hit(2, -3, 1)
    assert str(kernel.value) == str(single.value)
    assert "p=2, s=-3, t=1 " in str(kernel.value)


def test_s_part_cache_is_bounded_and_checks_p_on_every_miss():
    _s_part.cache_clear()
    for s in range(-1, -3000, -1):
        for p in (2, 3, 5):
            assert _sign_product(s, (p,), 1, 1 - s) in (-1, 1)
    info = _s_part.cache_info()
    assert 0 < info.currsize <= info.maxsize == 1 << 10
    for _ in range(2):
        with pytest.raises(ValueError, match="p must be prime"):
            _sign_product(-3, (2, 4), 1, 4)
    # the cache is typed: (2, -3) is held, (2.0, -3) and (True, -3) are not
    assert _s_part(2, -3) == (0, 13, 16)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="p must be prime"):
            _sign_product(-3, (bad,), 1, 4)
