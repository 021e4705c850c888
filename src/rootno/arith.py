"""Integer and rational arithmetic: p-adic valuations, quadratic residue
symbols, deterministic factoring (factorize and square_full_factors: one
n; factorize_window: a window of fibres, through one remainder tree or,
on long windows, a sieve), and the two shape tests (-3*r^2, -12*k^4) the
fibre machinery keys on.

Everything here is exact integer/Fraction arithmetic; no floats except the
math.inf sentinel for the valuation of zero.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Number = Union[int, Fraction]

# Trial-division cutoff before handing composites to Brent's rho. factorize
# strips the 6542 primes below it with one gcd per block, 52 gcds at most.
_TRIAL_BOUND = 1 << 16


def _prime_flags(limit: int) -> bytearray:
    # flags[i] == 1 exactly when i <= limit is prime
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


# is_prime reads n < 2^16 from the flags; factorize and factorize_window
# walk the list
_SMALL_FLAGS = _prime_flags(_TRIAL_BOUND)
_SMALL_PRIMES = list(itertools.compress(range(_TRIAL_BOUND + 1), _SMALL_FLAGS))

# _strip_blocks takes the primes below 2^16 in blocks of consecutive primes
# with their products, so that one gcd tells which primes of a block divide n.
# The first block is the 54 primes below 2^8: nearly every n has one of
# them, and small n stop after it. The rest come _GCD_BLOCK at a time.
_GCD_BLOCK = 128
_HEAD = _SMALL_FLAGS[:1 << 8].count(1)
_BLOCKS = [(block, math.prod(block)) for block in [_SMALL_PRIMES[:_HEAD]] + [
    _SMALL_PRIMES[i:i + _GCD_BLOCK]
    for i in range(_HEAD, len(_SMALL_PRIMES), _GCD_BLOCK)]]


# --------------------------------------------------------------- primality

def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lucas_spp(n: int) -> bool:
    # Strong Lucas probable prime test with Selfridge's parameters.
    D = 5
    while True:
        g = math.gcd(abs(D), n)
        if 1 < g < n:
            return False
        if jacobi(D, n) == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    inv2 = (n + 1) // 2  # inverse of 2 mod odd n
    U, V = 0, 2
    qk = 1
    for bit in bin(d)[2:]:
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if V == 0:
            return True
    return False


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, k): below bound, the first k of _MR_BASES decide primality. Each
# bound is the smallest strong pseudoprime to those k bases (Jaeschke 1993;
# Sorenson and Webster 2017), so n < 2^64 runs only the bases it needs.
_MR_PREFIXES = ((1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6),
                (341550071728321, 7), (3825123056546413051, 9),
                (1 << 64, 12))


def is_prime(n: int) -> bool:
    """Deterministic below 2^64 (Miller-Rabin bases by size); Baillie-PSW
    above. n must be an int."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    return _is_prime(n)


# bounded so that no input grows it without limit (2^14 entries of 90-bit
# n take about 1.4 MB); it pays when the same cofactor is tested again.
# is_prime checks the type first, so the cache keys are bare ints and True
# never reads the entry of 1
@lru_cache(maxsize=1 << 14)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < _TRIAL_BOUND:
        return _SMALL_FLAGS[n] == 1
    # n is above every prime below 2^8, so sharing one makes it composite
    if math.gcd(_BLOCKS[0][1], n) > 1:
        return False
    for bound, k in _MR_PREFIXES:
        if n < bound:
            return _miller_rabin(n, _MR_BASES[:k])
    if not _miller_rabin(n, (2,)):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _lucas_spp(n)


# the cache's handles, and the uncached test behind it
is_prime.cache_info = _is_prime.cache_info
is_prime.cache_clear = _is_prime.cache_clear
is_prime.__wrapped__ = _is_prime.__wrapped__


# --------------------------------------------------------------- valuation

def valuation(p: int, x: Number) -> tuple[int, Number]:
    """(nu, unit) with x = p**nu * unit and p dividing neither side of unit.

    x must be a nonzero int or Fraction; p must be prime. For Fraction input
    nu may be negative and unit is a Fraction.
    """
    require_prime(p)
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError(f"x must be an int or Fraction, got {x!r}")
    if x == 0:
        raise ValueError("valuation of 0 is undefined here; see valuation_or_inf")
    if isinstance(x, Fraction):
        if x.denominator == 1:
            nu, unit = valuation(p, x.numerator)
            return nu, Fraction(unit)
        nn, nu_unit = _int_valuation(p, x.numerator)
        dn, de_unit = _int_valuation(p, x.denominator)
        return nn - dn, Fraction(nu_unit, de_unit)
    return _int_valuation(p, x)


def _int_valuation(p: int, x: int) -> tuple[int, int]:
    nu = 0
    while x % p == 0:
        x //= p
        nu += 1
    return nu, x


def valuation_or_inf(p: int, x: Number) -> tuple[Union[int, float], Number]:
    """Like valuation but maps an int or Fraction 0 to (math.inf, 0); any
    other zero (0.0, False) raises valuation's ValueError."""
    if x == 0 and (type(x) is int or type(x) is Fraction):
        require_prime(p)
        return math.inf, 0
    return valuation(p, x)


def require_prime(p: int) -> None:
    """Rejects bools, non-ints and integers that are not prime as p."""
    if type(p) is not int or p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


def require_nonzero_int(name: str, x: int) -> None:
    """Rejects bools, non-ints and zero as the argument called name."""
    if type(x) is not int or x == 0:
        raise ValueError("%s must be a nonzero integer" % name)


def require_positive_int(name: str, x: int) -> None:
    """Rejects bools, non-ints and integers below 1 as the argument called
    name."""
    if type(x) is not int or x < 1:
        raise ValueError("%s must be a positive integer" % name)


# ----------------------------------------------------------------- symbols

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p), int a, odd prime p: 0 if p | a, else +-1."""
    if type(a) is not int:
        raise ValueError(f"legendre needs an int a, got {a!r}")
    require_prime(p)
    if p == 2:
        raise ValueError("legendre needs an odd prime modulus, got 2")
    return _legendre(a, p)


def _legendre(a: int, p: int) -> int:
    # legendre for an odd prime p that the caller has already checked
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an int a and odd positive n (binary
    algorithm)."""
    if type(a) is not int:
        raise ValueError(f"jacobi needs an int a, got {a!r}")
    if type(n) is not int or n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi needs odd positive n, got {n!r}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def modified_jacobi(a: int, b: int, delta: int) -> int:
    """Product over primes p | b with p not dividing delta of
    legendre(a_p, p)**nu_p(b), where a_p is the p-free part of a.

    delta must be even (so the p = 2 factor never arises); a and b nonzero.
    Agrees with the classical Jacobi symbol (a/b) when b is odd positive and
    coprime to both a and delta.
    """
    if a == 0 or b == 0:
        raise ValueError("modified_jacobi needs nonzero a and b")
    if delta % 2 != 0:
        raise ValueError(f"delta must be even, got {delta!r}")
    result = 1
    for p, e in factorize(abs(b))[1]:
        if delta % p == 0:
            continue
        if e % 2 == 0:
            continue
        _, a_p = _int_valuation(p, a)
        result *= legendre(a_p, p)
    return result


def sqrt_mod_prime_power(n: int, p: int, k: int) -> int:
    """x with x*x = n (mod p**k), for n prime to the prime p and a square
    mod p**k (n = 1 mod 8 when p = 2 and k >= 3). Mod p: one power for
    p = 3 (mod 4), Atkin's formula for p = 5 (mod 8), Tonelli-Shanks for
    p = 1 (mod 8); then Newton lifting for odd p, one bit at a time for
    p = 2."""
    if p == 2:
        x = 1
        for j in range(3, k):
            if (x * x - n) % (1 << (j + 1)):
                x += 1 << (j - 1)
        return x
    if p % 4 == 3:
        x = pow(n, (p + 1) // 4, p)
    elif p % 8 == 5:
        # i = 2 n v^2 is a square root of -1, and (n v (i - 1))^2 = n
        v = pow(2 * n, (p - 5) // 8, p)
        x = n * v * (2 * n * v * v - 1) % p
    else:
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        # least non-residue z, by Euler's criterion; 2 is a square mod p
        half = (p - 1) // 2
        z = 3
        while pow(z, half, p) == 1:
            z += 1
        # x = n^((q+1)/2) and t = n^q from one power
        x = pow(n, (q - 1) // 2, p)
        t = x * x * n % p
        m, c, x = e, pow(z, q, p), x * n % p
        while t != 1:
            i, tt = 0, t
            while tt != 1:
                tt = tt * tt % p
                i += 1
            bpow = pow(c, 1 << (m - i - 1), p)
            m, c = i, bpow * bpow % p
            t, x = t * c % p, x * bpow % p
    j = 1
    while j < k:
        j = min(2 * j, k)
        mod = p**j
        x = (x - (x * x - n) * pow(2 * x, -1, mod)) % mod
    return x


# --------------------------------------------------------------- factoring

def _brent_rho(n: int, rng: random.Random, limit: int) -> int:
    # Brent's cycle variant of Pollard rho with batched gcd. Gives up,
    # returning 0, once the cycle length passes limit steps.
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if r > limit:
                return 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> tuple[int, list[tuple[int, int]]]:
    """(sign, [(p, e), ...]) with n = sign * prod(p**e), pairs sorted by p,
    for a nonzero int n: the blocks, then _settle at k = 2."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1
    if n < 0:
        sign = -1
        n = -n
    powers: dict[int, int] = {}
    _settle(_strip_blocks(n, powers, 2), powers, 2)
    return sign, sorted(powers.items())


def square_full_factors(n: int) -> list[tuple[int, int]]:
    """The (p, e) of the int n >= 1 with e >= 2, sorted by p: the blocks,
    stopping where their first prime cubed exceeds what is left, then
    _settle at k = 3."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("cannot factor 0" if n == 0 else
                         f"n must be positive, got {n!r}")
    powers: dict[int, int] = {}
    _settle(_strip_blocks(n, powers, 3), powers, 3)
    return sorted((p, e) for p, e in powers.items() if e > 1)


def _strip_blocks(n: int, powers: dict, k: int) -> int:
    """Move the block primes of n > 0 into powers, a block at a time by
    one gcd, while the block's first prime to the k-th power is at most
    what is left of n; return what is left."""
    for block, product in _BLOCKS:
        if block[0] ** k > n:
            break
        g = math.gcd(product, n)
        if g == 1:
            continue
        for p in block:
            # g's primes are p or above, so g is prime once p * p > g
            if p * p > g:
                powers[g], n = _int_valuation(g, n)
                break
            if g % p == 0:
                powers[p], n = _int_valuation(p, n)
                g //= p
    return n


def _settle(m: int, powers: dict, k: int) -> None:
    """Add to powers the primes of m, what is left of some n once the
    primes of every block before the first one whose first prime P has P^k
    above m are stripped: all of them at k = 2, at least those of exponent
    2 or more at k = 3. Every prime of m is at least P, or above the trial
    bound when no block has such a P, so m below _TRIAL_BOUND ** k is 1 or
    a prime (k = 2), or 1, p, p q or p^2 (k = 3), where one isqrt tells
    p^2 apart. A larger m goes to _split_cofactor."""
    if m >= _TRIAL_BOUND ** k:
        _split_cofactor(m, powers)
    elif k == 2:
        if m > 1:
            powers[m] = 1
    elif math.isqrt(m) ** 2 == m > 1:
        powers[math.isqrt(m)] = 2


def _product_tree(leaves: list[int]) -> list[list[int]]:
    # levels from the leaves up to the root, each node the product of the
    # two below it, an odd last one carried up alone
    tree = [leaves]
    while len(tree[-1]) > 1:
        level = tree[-1]
        tree.append([math.prod(level[i:i + 2])
                     for i in range(0, len(level), 2)])
    return tree


# The product of the first count blocks' products (1 for none), built on
# first use: all 52 make about 94 kbit, and a window's k and largest row
# pick the count
@lru_cache(maxsize=8)
def _block_prefix(count: int) -> int:
    return math.prod(_product_tree([prod for _, prod in _BLOCKS[:count]])[-1])


# _strip_window builds one tree over at most _TREE_ROWS rows at a time, so
# that a long window holds no tree above about 100 kbit a level. Its leaves
# are runs of _LEAF_ROWS rows: gcd(m, P mod M) = gcd(m, P) for any multiple
# M of m, so the levels below them need not be built or descended.
_TREE_ROWS = 1024
_LEAF_ROWS = 16


def _strip_window(rest: list[int], k: int) -> list[Optional[dict[int, int]]]:
    """{p: e} for each m of rest, None where m is 0: at k = 2 every prime
    of m, as factorize gives them, and at k = 3 at least the p^e with
    e >= 2, as square_full_factors gives them. It takes the blocks
    _strip_blocks takes on the largest m, those whose first prime to the
    k-th power is at most it, which leaves every row a cofactor that
    _settle can take. Their product P comes down one product tree of the
    rows as remainders (Bernstein's remainder tree), so that g = gcd(m, P)
    is the product of the block primes dividing m; dividing g out of m
    until they are gone leaves the cofactor, and _strip_blocks splits the
    part of m above it. Rows are settled in order, so an unfactorable one
    raises _settle's ValueError at the first such m."""
    out: list[Optional[dict[int, int]]] = []
    for i in range(0, len(rest), _TREE_ROWS):
        chunk = rest[i:i + _TREE_ROWS]
        top = max(chunk)
        count = sum(block[0] ** k <= top for block, _ in _BLOCKS)
        leaves = [math.prod(m or 1 for m in chunk[j:j + _LEAF_ROWS])
                  for j in range(0, len(chunk), _LEAF_ROWS)]
        rems = [_block_prefix(count)]
        for level in reversed(_product_tree(leaves)):
            rems = [rems[j // 2] % m for j, m in enumerate(level)]
        for j, m in enumerate(chunk):
            if m == 0:
                out.append(None)
                continue
            cofactor = m
            g = math.gcd(m, rems[j // _LEAF_ROWS])
            while g > 1:
                cofactor //= g
                g = math.gcd(cofactor, g)
            powers: dict[int, int] = {}
            # what the blocks leave of m's block part is 1 or a prime
            q = _strip_blocks(m // cofactor, powers, 2)
            if q > 1:
                powers[q] = 1
            _settle(cofactor, powers, k)
            out.append(powers)
    return out


def _split_cofactor(n: int, powers: dict) -> None:
    """Add the prime factorization of the cofactor n > 1 to powers. Every
    divisor of n above 1 and below 2^32 must be prime: so it is when n has
    no prime factor below the trial bound, or when n < (L + 1)^2 has none
    up to some L. Raises ValueError as _find_factor does."""
    rng = None
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            powers[m] = powers.get(m, 0) + e
            continue
        root = _perfect_power(m)
        if root is not None:
            stack.append((root[0], e * root[1]))
            continue
        if rng is None:
            rng = random.Random(n)
        d = _find_factor(m, rng)
        stack.append((d, e))
        stack.append((m // d, e))


# Below this many rows a window goes through _strip_window. The sieve's
# set-up costs an Euler test per prime up to its bound (about |t|, at most
# 2^16) and a square root for every other one, while the tree's cost grows
# with rows times the bits of the blocks' product. On 2 cores (README
# "Factoring") the tree leads through 1024 rows at |t| ~ 1e6, 1e5 and 1e3,
# the two tie at 2048 rows at |t| ~ 1e6 and between 1024 and 2048 at
# |t| ~ 1e3, and the sieve leads at 10^4 rows. So 512 is low; moving it is
# a performance change, to be measured on windows either side of it.
_SIEVE_ROWS = 512


def factorize_window(s: int, a: int, b: int, u_min: int,
                     u_max: int) -> list[Optional[dict[int, int]]]:
    """{p: e} for |t^2 - s| at t = a u + b, u = u_min..u_max; None where it
    is 0. Below _SIEVE_ROWS rows, _strip_window at k = 2: one remainder
    tree strips the primes below the trial bound from every row. From
    _SIEVE_ROWS rows on, a sieve: p divides t^2 - s exactly when t is a
    square root of s mod p, so the rows each prime divides form at most two
    residue classes of u. Either way rows are settled in order of u, so an
    unfactorable one raises factorize's ValueError at the first such u."""
    rest = [abs((a * u + b) ** 2 - s) for u in range(u_min, u_max + 1)]
    if len(rest) < _SIEVE_ROWS:
        return _strip_window(rest, 2)
    # _split_cofactor's precondition holds with L = bound
    bound = min(_TRIAL_BOUND, math.isqrt(max(rest)))
    hits: list[list[int]] = [[] for _ in rest]
    for p in _SMALL_PRIMES[:bisect.bisect_right(_SMALL_PRIMES, bound)]:
        if a % p == 0:
            # t = b (mod p) on every row
            if (b * b - s) % p == 0:
                for primes in hits:
                    primes.append(p)
            continue
        sp = s % p
        if sp == 0 or p == 2:
            roots = (sp,)
        elif pow(sp, (p - 1) // 2, p) != 1:
            continue
        else:
            r = sqrt_mod_prime_power(sp, p, 1)
            roots = (r, p - r)
        inv = pow(a, -1, p)
        for r in roots:
            for i in range(((r - b) * inv - u_min) % p, len(rest), p):
                hits[i].append(p)
    out: list[Optional[dict[int, int]]] = []
    for m, primes in zip(rest, hits):
        if m == 0:
            out.append(None)
            continue
        powers: dict[int, int] = {}
        for p in primes:
            powers[p], m = _int_valuation(p, m)
        if m > 1:
            _split_cofactor(m, powers)
        out.append(powers)
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 (integer Newton from above)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int) -> Optional[tuple[int, int]]:
    # (r, k) with n = r**k, k > 1, for n free of primes below the trial
    # bound (so k <= log2(n) / 16), or None
    for k in _SMALL_PRIMES:
        if k > n.bit_length() // 16:
            return None
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


# Rho finds prime factors up to about 2 * log2(_RHO_LIMIT) bits within the
# limit; past it ECM is cheaper.
_RHO_LIMIT = 1 << 13

# ECM levels as (B1, curves), with B2 = 100 * B1: B1 is the usual choice
# for prime factors of about 10, 12, 15, 20 and 25 digits. The small levels
# run fewer curves than it takes to find such a factor two times in three,
# so larger factors reach their level sooner. Each level runs once: a
# cofactor that survives the last one raises ValueError.
_ECM_LEVELS = ((150, 6), (500, 15), (2000, 30), (11000, 90), (50000, 200))

# Largest composite cofactor, in bits, that factoring tries to split. A
# larger one is refused at once: with no factor in reach of the last ECM
# level it would run the whole schedule, minutes, before failing anyway.
_SPLIT_BITS = 256


def _find_factor(n: int, rng: random.Random) -> int:
    """A proper divisor of the composite n, which has no prime factor below
    the trial bound: capped rho first, then each ECM level once. Raises
    ValueError when n has more than _SPLIT_BITS bits or every level fails."""
    if n.bit_length() > _SPLIT_BITS:
        raise ValueError("refusing to split a %d-bit composite cofactor: the "
                         "limit is %d bits" % (n.bit_length(), _SPLIT_BITS))
    d = _brent_rho(n, rng, _RHO_LIMIT)
    if 1 < d < n:
        return d
    for B1, curves in _ECM_LEVELS:
        for _ in range(curves):
            d = _ecm_curve(n, rng.randrange(6, n - 1), B1)
            if 1 < d < n:
                return d
    raise ValueError("cannot split a %d-bit composite cofactor: its prime "
                     "factors are beyond the last ECM level" % n.bit_length())


@lru_cache(maxsize=len(_ECM_LEVELS))
def _ecm_plan(B1: int) -> tuple[int, int, int, list[array]]:
    # Stage-1 multiplier k (every prime power up to B1), the stage-2 giant
    # step D, the first giant index m0, and per giant m*D (m >= m0,
    # m*D <= B2 + D) the baby indices j // 2 of the odd j < D/2 such that
    # m*D - j or m*D + j is prime. D (2*3*5*7 or 2*3*5*7*11) is the one
    # that needs fewer baby plus giant steps, about D/4 + B2/D.
    B2 = 100 * B1
    D = 210 if B1 <= 500 else 2310
    flags = _prime_flags(B2 + 2 * D)
    k = 1
    for p in itertools.compress(range(B1 + 1), flags):
        q = p
        while q * p <= B1:
            q *= p
        k *= q
    m0 = max(B1 // D, 1)
    giants = [
        array("H", (j // 2 for j in range(1, D // 2, 2)
                    if flags[m * D - j] or flags[m * D + j]))
        for m in range(m0, B2 // D + 2)
    ]
    return k, D, m0, giants


def _xmul(k: int, x0: int, a24: int, n: int) -> tuple[int, int]:
    # k * (x0 : 1) for k >= 1 on the Montgomery curve with constant a24,
    # in projective (X : Z), by the x-only Montgomery ladder
    x1, z1 = x0, 1
    s = (x0 + 1) ** 2 % n
    d = (x0 - 1) ** 2 % n
    t = s - d
    x2, z2 = s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        s1, d1, s2, d2 = x1 + z1, x1 - z1, x2 + z2, x2 - z2
        a = d1 * s2 % n
        b = s1 * d2 % n
        xs, zs = (a + b) ** 2 % n, x0 * (a - b) ** 2 % n
        if bit == "1":
            s = s2 * s2 % n
            d = d2 * d2 % n
            t = s - d
            x1, z1 = xs, zs
            x2, z2 = s * d % n, t * (d + a24 * t) % n
        else:
            s = s1 * s1 % n
            d = d1 * d1 % n
            t = s - d
            x2, z2 = xs, zs
            x1, z1 = s * d % n, t * (d + a24 * t) % n
    return x1, z1


def _xadd(px: int, pz: int, qx: int, qz: int, dx: int, dz: int, n: int) -> tuple[int, int]:
    # P + Q given P - Q = (dx : dz), x-only
    a = (px - pz) * (qx + qz) % n
    b = (px + pz) * (qx - qz) % n
    return dz * (a + b) ** 2 % n, dx * (a - b) ** 2 % n


def _ecm_curve(n: int, sigma: int, B1: int) -> int:
    # One curve of Lenstra's ECM (Suyama's parametrisation, Montgomery
    # form, standard stage-2 continuation to 100 * B1). Returns a gcd with
    # n: a proper divisor on success, 1 or n on failure.
    k, D, m0, giants = _ecm_plan(B1)
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3, v3 = pow(u, 3, n), pow(v, 3, n)
    # one inversion gives both a24 = (v-u)^3 (3u+v) / (16 u^3 v) and the
    # affine start x = u^3 / v^3
    den = 16 * u3 * v * v3 % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den, -1, n)
    a24 = pow(v - u, 3, n) * (3 * u + v) * v3 * inv % n
    x, z = _xmul(k, 16 * u3 * u3 * v * inv % n, a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g
    q = x * pow(z, -1, n) % n
    # baby steps: j * Q for odd j < D/2, at index j // 2
    bx, bz = [q], [1]
    x2, z2 = _xmul(2, q, a24, n)
    px, pz = q, 1
    cx, cz = _xadd(x2, z2, q, 1, q, 1, n)
    for _ in range(D // 4 - 1):
        bx.append(cx)
        bz.append(cz)
        px, pz, (cx, cz) = cx, cz, _xadd(cx, cz, x2, z2, px, pz, n)
    # giant steps m * D * Q, each paired with the babies of its primes
    wx, wz = _xmul(D, q, a24, n)
    px, pz = _xmul(m0 * D, q, a24, n)
    cx, cz = _xmul((m0 + 1) * D, q, a24, n)
    acc = 1
    for js in giants:
        for j in js:
            acc = acc * (px * bz[j] - bx[j] * pz) % n
        px, pz, (cx, cz) = cx, cz, _xadd(cx, cz, wx, wz, px, pz, n)
    return math.gcd(acc, n)


# ------------------------------------------------------------- shape tests

def as_minus_3_square(s: int) -> Optional[int]:
    """r >= 1 with s = -3 * r**2, or None; s must be an int."""
    if type(s) is not int:
        raise ValueError(f"s must be an integer, got {s!r}")
    if s >= 0 or s % 3 != 0:
        return None
    m = -s // 3
    r = math.isqrt(m)
    return r if r * r == m and r >= 1 else None


def as_minus_12_fourth(s: int) -> Optional[int]:
    """k >= 1 with s = -12 * k**4 = -3 * (2 * k**2)**2, or None."""
    r = as_minus_3_square(s)
    if r is None or r % 2:
        return None
    k = math.isqrt(r // 2)
    return k if k * k == r // 2 else None
