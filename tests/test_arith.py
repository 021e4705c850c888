"""Arithmetic kernel: valuations, residue symbols, factoring, shape tests.

Expected values here are frozen from hand computation; nothing in this file
imports from the modules under test except the public kernel API.
"""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootno import arith
from rootno.arith import (
    as_minus_3_square,
    as_minus_12_fourth,
    factorize,
    is_prime,
    jacobi,
    legendre,
    modified_jacobi,
    sqrt_mod_prime_power,
    square_full_factors,
    valuation,
    valuation_or_inf,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 101, 997]


# ---------------------------------------------------------------- valuation

def test_valuation_pins():
    assert valuation(3, -972) == (5, -4)
    assert valuation(2, 29008) == (4, 1813)
    assert valuation(7, 29008) == (2, 592)
    assert valuation(5, 1) == (0, 1)
    assert valuation(2, -1) == (0, -1)
    assert valuation(13, -28812 - 0) == (0, -28812)


def test_valuation_rationals():
    assert valuation(2, Fraction(3, 8)) == (-3, Fraction(3))
    assert valuation(3, Fraction(9, 5)) == (2, Fraction(1, 5))
    assert valuation(3, Fraction(3, 2)) == (1, Fraction(1, 2))
    assert valuation(2, Fraction(3, 2)) == (-1, Fraction(3))
    nu, unit = valuation(7, Fraction(-98, 3))
    assert (nu, unit) == (2, Fraction(-2, 3))


def test_valuation_rejects_zero_and_bad_p():
    with pytest.raises(ValueError):
        valuation(5, 0)
    with pytest.raises(ValueError):
        valuation(4, 12)
    with pytest.raises(ValueError):
        valuation(1, 12)
    # 5.0 == 5 and True == 1 pass a value test; the type test refuses them
    for p in (5.0, True):
        with pytest.raises(ValueError):
            valuation(p, 25)


@pytest.mark.parametrize("x", [4.5, 9.0, True, "9", None])
def test_valuation_rejects_an_x_that_is_not_an_int_or_fraction(x):
    # unchecked, valuation(3, 4.5) is (0, 4.5) and valuation(3, True) is
    # (0, True)
    with pytest.raises(ValueError, match="x must be an int or Fraction"):
        valuation(3, x)


def test_valuation_or_inf():
    assert valuation_or_inf(5, 0) == (math.inf, 0)
    assert valuation_or_inf(5, 50) == (2, 2)


@pytest.mark.parametrize("x", [0.0, False, 0.5])
def test_valuation_or_inf_checks_the_type_of_a_zero(x):
    # a zero that is not an int or Fraction gets valuation's error, not inf
    with pytest.raises(ValueError, match="x must be an int or Fraction"):
        valuation_or_inf(3, x)


def test_valuation_or_inf_maps_an_int_or_fraction_zero_to_inf():
    assert valuation_or_inf(3, Fraction(0)) == (math.inf, 0)
    assert valuation_or_inf(3, 0) == (math.inf, 0)
    with pytest.raises(ValueError, match="p must be prime"):
        valuation_or_inf(4, 0)


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=-10**12, max_value=10**12).filter(lambda x: x != 0),
)
def test_valuation_round_trip(p, x):
    nu, unit = valuation(p, x)
    assert p**nu * unit == x
    assert unit % p != 0


@given(
    st.sampled_from(SMALL_PRIMES),
    st.fractions(
        min_value=-1000, max_value=1000, max_denominator=10**6
    ).filter(lambda x: x != 0),
)
def test_valuation_round_trip_rational(p, x):
    nu, unit = valuation(p, x)
    assert Fraction(p) ** nu * unit == x
    assert unit.numerator % p != 0 and unit.denominator % p != 0


# ------------------------------------------------------------------ symbols

def test_legendre_pins():
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1
    assert legendre(14, 7) == 0
    assert legendre(-3, 7) == 1   # p == 1 mod 3
    assert legendre(-3, 5) == -1  # p == 2 mod 3
    assert legendre(-3, 13) == 1
    assert legendre(2, 17) == 1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(2, 9)
    with pytest.raises(ValueError):
        legendre(2, 2)
    with pytest.raises(ValueError):
        legendre(2, -7)
    with pytest.raises(ValueError):
        legendre(1, 5.0)


def test_jacobi_pins():
    assert jacobi(1001, 9907) == -1
    assert jacobi(19, 45) == 1
    assert jacobi(8, 21) == -1
    assert jacobi(0, 3) == 0
    assert jacobi(7, 1) == 1
    with pytest.raises(ValueError):
        jacobi(5, 21 * 2)
    with pytest.raises(ValueError):
        jacobi(5, -3)


@pytest.mark.parametrize("a", [2.5, 2.0, True, Fraction(2), "2"])
def test_jacobi_rejects_an_a_that_is_not_an_int(a):
    # unchecked, jacobi(2.5, 5) is 0 and jacobi(2.0, 5) is -1
    with pytest.raises(ValueError, match="jacobi needs an int a"):
        jacobi(a, 5)


@pytest.mark.parametrize("n", [5.0, 3.5, True, False, Fraction(5), "5"])
def test_jacobi_rejects_an_n_that_is_not_an_int(n):
    # unchecked, jacobi(3, 5.0) is -1 and jacobi(3, True) is 1
    with pytest.raises(ValueError, match=re.escape(
            f"jacobi needs odd positive n, got {n!r}")):
        jacobi(3, n)


@pytest.mark.parametrize("a", [2.0, 2.5, True, False, Fraction(2), "2"])
def test_legendre_rejects_an_a_that_is_not_an_int(a):
    # unchecked, legendre(True, 5) is 1 and legendre(2.0, 5) raises pow's
    # TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"legendre needs an int a, got {a!r}")):
        legendre(a, 5)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([p for p in SMALL_PRIMES if p != 2]),
)
def test_jacobi_matches_legendre_on_primes(a, p):
    assert jacobi(a, p) == legendre(a, p)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4).map(lambda n: 2 * n - 1),
    st.integers(min_value=1, max_value=10**4).map(lambda n: 2 * n - 1),
)
def test_jacobi_multiplicative_in_modulus(a, m, n):
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_modified_jacobi_pins():
    # 1872 = 2^4 * 3^2 * 13; only 13 survives delta = 6; (-1/13) = +1.
    assert modified_jacobi(-1, 1872, 6) == 1
    # 21 = 3 * 7; delta = 2 keeps both; (5/3)(5/7) = (-1)(-1) = +1.
    assert modified_jacobi(5, 21, 2) == 1
    # unit part of a is taken prime-by-prime: a = 3*5, at p=3 use 5.
    assert modified_jacobi(15, 9, 2) == legendre(5, 3) ** 2 == 1
    assert modified_jacobi(15, 3, 2) == legendre(5, 3) == -1
    with pytest.raises(ValueError):
        modified_jacobi(5, 21, 3)  # delta must be even
    with pytest.raises(ValueError):
        modified_jacobi(0, 21, 2)
    with pytest.raises(ValueError):
        modified_jacobi(5, 0, 2)


def test_modified_jacobi_equals_classical_when_coprime():
    rng = random.Random(90217)
    checked = 0
    while checked < 300:
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(1, 10**6) * 2 - 1  # odd positive
        delta = 2 * rng.randint(1, 10**4)
        if a == 0 or math.gcd(a, b) != 1 or math.gcd(b, delta) != 1:
            continue
        assert modified_jacobi(a, b, delta) == jacobi(a, b)
        checked += 1


def test_modified_jacobi_sign_of_b_irrelevant():
    assert modified_jacobi(5, -21, 2) == modified_jacobi(5, 21, 2)


# ---------------------------------------------------------------- factoring

def test_is_prime_pins():
    for p in [2, 3, 5, 7, 31, 997, 10**9 + 7, 2**31 - 1, 2**61 - 1]:
        assert is_prime(p), p
    for n in [-7, 0, 1, 4, 9, 561, 41041, 2**32, 10**18]:
        assert not is_prime(n), n
    # above the deterministic Miller-Rabin range
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert not is_prime(2**89 + 1)


def test_is_prime_matches_trial_division_below_2_16():
    # the whole small-prime table, and the first n past it
    for n in range(-2, (1 << 16) + 2):
        expected = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == expected, n
    assert not is_prime(65536) and is_prime(65537)


# the 12 prime bases that decide every n below 2^64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the smallest strong pseudoprime to each prefix 2, 3, ..., q of _BASES
# (q = 3, 5, 7, 11, 13, 17, 23), keyed to the prefix length: each is the
# bound below which that prefix decides primality
_STRONG_PSEUDOPRIMES = {
    1373653: 2,
    25326001: 3,
    3215031751: 4,
    2152302898747: 5,
    3474749660383: 6,
    341550071728321: 7,
    3825123056546413051: 9,
}


def test_is_prime_base_prefixes_stop_below_their_pseudoprime():
    for n, k in _STRONG_PSEUDOPRIMES.items():
        assert all(n % p for p in _BASES), n
        # fools its prefix, so the next prefix must take over at n
        assert arith._miller_rabin(n, _BASES[:k]), n
        assert not arith._miller_rabin(n, _BASES), n
        assert not is_prime.__wrapped__(n), n
        for m in (n - 2, n + 2):
            assert is_prime.__wrapped__(m) == arith._miller_rabin(m, _BASES), m


def test_is_prime_matches_twelve_bases_below_2_64():
    # odd n with no prime factor up to 37, so Miller-Rabin runs, at bit
    # lengths 17..64
    rng = random.Random(6464)
    primes = 0
    for _ in range(10**4):
        n = rng.getrandbits(rng.randint(17, 64)) | (1 << 16) | 1
        while any(n % p == 0 for p in _BASES):
            n += 2
        if n >= 1 << 64:
            continue
        want = arith._miller_rabin(n, _BASES)
        assert is_prime.__wrapped__(n) == want, n
        primes += want
    assert primes > 500


def test_is_prime_cache_is_bounded():
    limit = is_prime.cache_info().maxsize
    assert limit is not None
    for n in range(10**9, 10**9 + limit + 100):
        is_prime(n)
    assert is_prime.cache_info().currsize <= limit


def test_is_prime_refuses_an_n_that_is_not_an_int():
    # the type is checked ahead of the cache, so True cannot read the
    # entry that 1 leaves
    assert is_prime(1) is False
    for n in (True, 7.0, "7"):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be an int, got {n!r}")):
            is_prime(n)


def test_sqrt_mod_prime_power_every_small_prime():
    # each branch mod p (p = 3 mod 4, Atkin's p = 5 mod 8, Tonelli-Shanks
    # at p = 1 mod 8) and the lifts to p^2 and p^3, for every prime below
    # 2^12 and every square n < min(p, 64) prime to p
    for p in filter(is_prime, range(1 << 12)):
        for n in range(1, min(p, 64)):
            if p > 2 and legendre(n, p) != 1:
                continue
            for k in (1, 2, 3):
                x = sqrt_mod_prime_power(n, p, k)
                assert (x * x - n) % p**k == 0, (n, p, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_sqrt_mod_prime_power(p):
    # every unit square mod p^k up to p^k = 1024; above that every unit
    # of a window that is a square mod p (mod 8 for p = 2), which by
    # Hensel's lemma is a square mod p^k
    for k in range(1, 13):
        mod = p**k
        base = mod if mod <= 1024 else (8 if p == 2 else p)
        squares = {x * x % base for x in range(base)}
        for n in range(-min(mod, 1024), min(mod, 1024)):
            if n % p and n % base in squares:
                x = sqrt_mod_prime_power(n, p, k)
                assert (x * x - n) % mod == 0, (n, p, k)


def test_factorize_pins():
    assert factorize(29008) == (1, [(2, 4), (7, 2), (37, 1)])
    assert factorize(-972) == (-1, [(2, 2), (3, 5)])
    assert factorize(1) == (1, [])
    assert factorize(-1) == (-1, [])
    assert factorize(2**16 + 1) == (1, [(65537, 1)])
    # forces the rho path: both factors exceed the trial-division bound
    assert factorize(2**64 + 1) == (1, [(274177, 1), (67280421310721, 1)])
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("n", [True, False, 1.0, -2.0, 12.5, Fraction(12),
                               "12"])
def test_factorize_rejects_an_n_that_is_not_an_int(n):
    # unchecked, factorize(True) and factorize(1.0) are (1, []) and
    # factorize(-2.0) is (-1, [(2.0, 1)])
    with pytest.raises(ValueError, match=re.escape(
            f"n must be an int, got {n!r}")):
        factorize(n)


def test_factorize_cracks_a_balanced_semiprime():
    # both primes are far beyond rho territory; exercises the ECM path
    p = 9223372036867121527          # next prime after 2**63 + 12345677
    q = 18446744072721897307         # next prime after 2**64 - 987654321
    assert is_prime(p) and is_prime(q)
    assert factorize(p * q) == (1, [(p, 1), (q, 1)])
    assert factorize(-p * q) == (-1, [(p, 1), (q, 1)])


def test_factorize_gives_up_after_the_last_ecm_level(monkeypatch):
    # one tiny level cannot split two 40-bit primes, and rho stops at
    # about 26 bits: factoring must end with a clear error, not loop
    monkeypatch.setattr(arith, "_ECM_LEVELS", ((10, 1),))
    p = 549755826233                 # next prime after 2**39 + 12345
    q = 1099511529101                # next prime after 2**40 - 98765
    assert is_prime(p) and is_prime(q)
    with pytest.raises(ValueError, match="79-bit"):
        factorize(p * q)


def test_factorize_refuses_a_composite_cofactor_above_256_bits(monkeypatch):
    def never(*args):
        raise AssertionError("a cofactor above the limit reached rho or ECM")

    monkeypatch.setattr(arith, "_brent_rho", never)
    monkeypatch.setattr(arith, "_ecm_curve", never)
    # the next primes after 2**128 + 12345 and after 2**129 + 98765
    p = 340282366920938463463374607431768223829
    q = 680564733841876926926749214863536521729
    with pytest.raises(ValueError, match="258-bit"):
        factorize(p * q)
    # powers of two, primes and prime powers above the limit still factor
    assert factorize(3 * 2**300) == (1, [(2, 300), (3, 1)])
    r = 2**300 + 1
    while not is_prime(r):
        r += 2
    assert factorize(r) == (1, [(r, 1)])
    s = 680564733841876926926749214863536422929   # next prime after 2**129
    assert factorize(s * s) == (1, [(s, 2)])


def test_factorize_powers_of_large_primes():
    # cofactors that are powers, or carry a repeated prime, above the
    # trial-division bound
    p = 4294967311                   # next prime after 2**32
    q = 1000000000039                # next prime after 10**12
    r = 18446744073709551557         # previous prime before 2**64
    assert is_prime(p) and is_prime(q) and is_prime(r)
    assert factorize(p * p) == (1, [(p, 2)])
    assert factorize(-(p**3)) == (-1, [(p, 3)])
    assert factorize(r * r) == (1, [(r, 2)])
    assert factorize((p * q) ** 2) == (1, [(p, 2), (q, 2)])
    assert factorize(p * q * q) == (1, [(p, 1), (q, 2)])
    assert factorize(2**5 * 65537**4 * q**3) == (1, [(2, 5), (65537, 4), (q, 3)])


# --------------------------------------------- factorize's small-prime stage

def _primes_below(limit):
    flags = [True] * limit
    flags[:2] = [False, False]
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return [i for i in range(limit) if flags[i]]


_PRIMES_BELOW_2_17 = _primes_below(1 << 17)
_PRIMES_BELOW_2_16 = [p for p in _PRIMES_BELOW_2_17 if p < 1 << 16]


def _trial_division(n):
    """The factor pairs of n >= 1, dividing by each prime below 2^17 in
    turn. Exact when at most one prime factor of n, counted with
    multiplicity, is 2^17 or above: whatever is left is 1 or that prime."""
    pairs = []
    for p in _PRIMES_BELOW_2_17:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
    if n > 1:
        pairs.append((n, 1))
    return pairs


def test_factorize_blocks_cover_the_primes_below_2_16():
    assert arith._BLOCKS[0][0] == [p for p in _PRIMES_BELOW_2_16 if p < 1 << 8]
    walked = []
    for block, product in arith._BLOCKS:
        assert product == math.prod(block)
        walked += block
    assert walked == _PRIMES_BELOW_2_16


def test_factorize_matches_trial_division_below_2_17():
    for n in range(1, 1 << 17):
        assert factorize(n) == (1, _trial_division(n)), n


def test_factorize_at_block_boundaries():
    # the stage stops at the first block whose first prime squared exceeds
    # what is left of n: around that square, and around the product of a
    # block's two ends, each block is found or skipped whole
    for block, _ in arith._BLOCKS:
        first, last = block[0], block[-1]
        for m in (first * first, first * last):
            for n in (m - 1, m, m + 1):
                assert factorize(n) == (1, _trial_division(n)), n
    # the largest prime below 2^16 against the smallest above it
    for n in [65521 * 65537, 65537**2] + [65521**e for e in range(1, 6)]:
        assert factorize(n) == (1, _trial_division(n)), n


# the prime ends of every block
_BLOCK_ENDS = sorted(set().union(
    *({block[0], block[-1]} for block, _ in arith._BLOCKS)))

# the primes of a tail above the trial bound: none, one prime, or a
# semiprime above 2^32
_TAILS = [(), (65537,), (2147483647,), (4294967311,), (65537, 65539),
          (1000003, 1000003), (2147483647, 4294967311)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.sampled_from(_BLOCK_ENDS),
                                 st.sampled_from(_PRIMES_BELOW_2_16)),
                       st.integers(min_value=1, max_value=3)),
             max_size=6),
    st.sampled_from(_TAILS),
)
def test_factorize_smooth_part_times_a_tail(powers, tail):
    smooth = 1
    for p, e in powers:
        smooth *= p**e
    expected = dict(_trial_division(smooth))
    for q in tail:
        expected[q] = expected.get(q, 0) + 1
    assert factorize(smooth * math.prod(tail)) == (1, sorted(expected.items()))


def test_factorize_round_trip_random():
    rng = random.Random(5577)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        if rng.random() < 0.5:
            n = -n
        sign, pairs = factorize(n)
        prod = sign
        for p, e in pairs:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert pairs == sorted(pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=2**48))
def test_factorize_round_trip_property(n):
    sign, pairs = factorize(n)
    assert sign == 1
    prod = 1
    for p, e in pairs:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


# ------------------------------------------------------- square-full part

def _repeated(n):
    return [(p, e) for p, e in factorize(n)[1] if e > 1]


# primes above the trial bound, which the blocks cannot strip: a square
# below 2^48 is told apart by isqrt, and squares, cubes, p^2 q and p q r
# from 2^48 on go to _split_cofactor
_SQUARE_FULL_TAILS = [
    (), (65537,), (65537, 65539), (65537, 65537), (2147483647,) * 2,
    (4294967311,) * 2, (1000003,) * 3, (65537,) * 4, (65537, 65537, 65539),
    (65539, 2147483647, 2147483647), (65537, 65539, 1000003),
    (1000003, 2147483647, 4294967311)]


def test_square_full_factors_pins():
    assert square_full_factors(1) == []
    assert square_full_factors(4) == [(2, 2)]
    assert square_full_factors(29008) == [(2, 4), (7, 2)]
    assert square_full_factors(2 * 3 * 5 * 65537) == []
    assert square_full_factors(12 * 65537**2) == [(2, 2), (65537, 2)]
    assert square_full_factors(1000003**3 * 65539) == [(1000003, 3)]


@pytest.mark.parametrize("n, message", [
    (True, "n must be an int, got True"), (4.0, "n must be an int, got 4.0"),
    (Fraction(4), "n must be an int, got Fraction(4, 1)"),
    ("4", "n must be an int, got '4'"), (0, "cannot factor 0"),
    (-4, "n must be positive, got -4")])
def test_square_full_factors_refuses_what_is_not_a_positive_int(n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        square_full_factors(n)


def test_square_full_factors_at_block_boundaries():
    # the blocks stop at the first one whose first prime cubed exceeds
    # what is left: around that cube, and around the squares and products
    # of a block's two ends
    for block, _ in arith._BLOCKS:
        first, last = block[0], block[-1]
        for m in (first**3, first * first * last, first * last * last,
                  first * first, first * last, last**3):
            for n in (m - 1, m, m + 1):
                assert square_full_factors(n) == _repeated(n), n
    for n in [65521 * 65537, 65537**2, 65521**2 * 65537, 1 << 48,
              (1 << 48) - 1] + [65521**e for e in range(1, 6)]:
        assert square_full_factors(n) == _repeated(n), n


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.sampled_from(_BLOCK_ENDS),
                                 st.sampled_from(_PRIMES_BELOW_2_16)),
                       st.integers(min_value=1, max_value=4)),
             max_size=6),
    st.sampled_from(_SQUARE_FULL_TAILS),
)
def test_square_full_factors_are_the_repeated_primes_of_factorize(powers,
                                                                  tail):
    n = math.prod(p**e for p, e in powers) * math.prod(tail)
    assert square_full_factors(n) == _repeated(n)


def test_square_full_factors_split_no_cofactor_below_2_48(monkeypatch):
    # below 2^48 what the blocks leave has at most two prime factors, so
    # rho, ECM and BPSW are never asked; from 2^48 on the cofactor is the
    # one factorize splits
    split = []

    def counted(m, powers):
        split.append(m)
        real(m, powers)

    real = arith._split_cofactor
    monkeypatch.setattr(arith, "_split_cofactor", counted)
    fallbacks = 0
    for tail in _SQUARE_FULL_TAILS:
        for smooth in (1, 2**3 * 3 * 251**2, 257 * 65521):
            n = smooth * math.prod(tail)
            del split[:]
            want = _repeated(n)
            factorized = [m for m in split if m >= 1 << 48]
            del split[:]
            assert square_full_factors(n) == want, n
            assert split == factorized, n
            fallbacks += len(split)
    assert fallbacks >= 3 * 6


# -------------------------------------------------------------- shape tests

def test_as_minus_3_square():
    assert as_minus_3_square(-972) == 18
    assert as_minus_3_square(-3) == 1
    assert as_minus_3_square(-12) == 2
    assert as_minus_3_square(-7500) == 50
    assert as_minus_3_square(-28812) == 98
    for s in [12, -18, 0, -5, 3, -2]:
        assert as_minus_3_square(s) is None, s


def test_as_minus_12_fourth():
    assert as_minus_12_fourth(-12) == 1
    assert as_minus_12_fourth(-192) == 2
    assert as_minus_12_fourth(-972) == 3
    assert as_minus_12_fourth(-7500) == 5
    for s in [12, -48, 0, -3, -12 * 17]:
        assert as_minus_12_fourth(s) is None, s


@pytest.mark.parametrize("s", [-3.0, -972.0, True, False, Fraction(-3),
                               "-3"])
def test_shape_tests_refuse_an_s_that_is_not_an_int(s):
    # unchecked, a float s stops in math.isqrt with a TypeError and True
    # passes as 1
    for shape in (as_minus_3_square, as_minus_12_fourth):
        with pytest.raises(ValueError, match=re.escape(
                f"s must be an integer, got {s!r}")):
            shape(s)


def test_minus_12_fourth_is_also_minus_3_square():
    # -12 k^4 = -3 (2 k^2)^2, so every rank-jump family is constancy-eligible
    for k in range(1, 30):
        s = -12 * k**4
        assert as_minus_3_square(s) == 2 * k * k
