"""Independent reference checks for the benchmark, written from the
mathematics alone: nothing here imports ``rootno``.

(a) ``is_probable_prime``: Miller-Rabin, deterministic below 3.3e24 and a
    strong probable-prime test with 24 bases above.
(b) ``factor_base_problems``: the reported primes of 6 s (t^2 - s) divide
    |t^2 - s| down to 1 and include every prime of 6 s.
(c) ``rohrlich_sign``: w_p for p >= 5 from the minimal c4, c6 and Delta of
    y^2 = x^3 + 3t x^2 + 3s x + s t (Rohrlich, "Variation of the root number
    in families of elliptic curves", Compositio Math. 87, 1993), times the
    Hilbert symbol (-1, t^2 - s)_p = (-1/p)^nu_p(t^2 - s) that normalises the
    package's tables.
(d) ``scaled_fibre``: (s, t) -> (s l^4, t l^2) gives an isomorphic curve,
    so W must not change; with l = 2 and 3 this reaches the primes 2 and 3,
    where no classical formula is built in.
(e) ``sign_problems``: W = -prod of the local signs.

Each ``*_problems`` function returns a list of messages, empty when the
output passes.
"""

from __future__ import annotations

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
             59, 61, 67, 71, 73, 79, 83, 89)
_PRIMES_TO_100 = tuple(p for p in range(2, 100)
                       if all(p % q for q in range(2, p)))


def is_probable_prime(n: int) -> bool:
    """(a) Miller-Rabin; no answer is cached or shared with the package."""
    if n < 2:
        return False
    for p in _PRIMES_TO_100:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def nu(p: int, x: int) -> int:
    """p-adic valuation of a nonzero integer."""
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def factor_base_problems(s: int, t: int, primes) -> list[str]:
    """(a) + (b): every reported prime is prime and divides 6 s (t^2 - s),
    the primes of 6 s are all there, and dividing |t^2 - s| by the reported
    primes leaves 1."""
    problems = []
    primes = list(primes)
    if primes != sorted(set(primes)):
        problems.append("primes not strictly ascending: %r" % primes[:8])
    d = abs(t * t - s)
    six_s = abs(6 * s)
    for p in primes:
        if not is_probable_prime(p):
            problems.append("reported factor %d is not prime" % p)
        elif six_s % p and d % p:
            problems.append("reported prime %d divides neither 6s nor t^2-s" % p)
    rest = six_s
    for p in primes:
        while p > 1 and rest % p == 0:
            rest //= p
    if rest != 1:
        problems.append("primes of 6s missing: cofactor %d" % rest)
    for p in primes:
        while p > 1 and d % p == 0:
            d //= p
    if d != 1:
        problems.append("|t^2-s| not covered: cofactor %d" % d)
    return problems


def invariants(s: int, t: int) -> tuple[int, int, int]:
    """(c4, c6, Delta) of y^2 = x^3 + a2 x^2 + a4 x + a6 with
    (a2, a4, a6) = (3t, 3s, st), from the general Weierstrass formulas."""
    a2, a4, a6 = 3 * t, 3 * s, s * t
    b2, b4, b6 = 4 * a2, 2 * a4, 4 * a6
    b8 = 4 * a2 * a6 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, delta


def rohrlich_sign(p: int, s: int, t: int) -> int:
    """(c) The package's normalised local sign at a prime p >= 5."""
    if p < 5:
        raise ValueError("the classical formula here is for p >= 5")
    c4, c6, delta = invariants(s, t)
    v4 = nu(p, c4) if c4 else None
    v6 = nu(p, c6) if c6 else None
    vd = nu(p, delta)
    # minimal model at p >= 5: strip p^12 while c4, c6 stay integral
    while vd >= 12 and (v4 is None or v4 >= 4) and (v6 is None or v6 >= 6):
        vd -= 12
        v4 = None if v4 is None else v4 - 4
        v6 = None if v6 is None else v6 - 6
        c6 //= p ** 6
    if vd == 0:
        w = 1                                    # good reduction
    elif v4 == 0:
        w = -legendre(-c6, p)                    # multiplicative
    elif v4 is not None and 3 * v4 < vd:
        w = legendre(-1, p)                      # potentially multiplicative
    else:
        e = 12 // _gcd(12, vd)                   # potentially good
        if e in (2, 6):
            w = legendre(-1, p)
        elif e == 3:
            w = legendre(-3, p)
        elif e == 4:
            w = legendre(-2, p)
        else:
            raise ValueError("unexpected semistability defect e=%d" % e)
    if nu(p, t * t - s) % 2:
        w *= legendre(-1, p)
    return w


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def rohrlich_problems(s: int, t: int, factors: dict) -> list[str]:
    """(c) on every reported local sign at p >= 5."""
    return ["w_%d = %+d but Rohrlich gives %+d at s=%d t=%d"
            % (p, w, rohrlich_sign(p, s, t), s, t)
            for p, w in factors.items()
            if p >= 5 and w != rohrlich_sign(p, s, t)]


def scaled_fibre(s: int, t: int, lam: int) -> tuple[int, int]:
    """(d) The isomorphic fibre (s l^4, t l^2)."""
    return s * lam ** 4, t * lam * lam


def scaling_problems(s: int, t: int, w: int, scaled: dict) -> list[str]:
    """(d) W at every scaled fibre {l: W(s l^4, t l^2)} equals W(s, t)."""
    return ["W(s*%d^4, t*%d^2) = %+d but W(s, t) = %+d at s=%d t=%d"
            % (lam, lam, wl, w, s, t)
            for lam, wl in sorted(scaled.items()) if wl != w]


def sign_problems(w: int, signs) -> list[str]:
    """(e) W = -prod of the local signs, each of them +1 or -1."""
    product = -1
    for sign in signs:
        if sign not in (1, -1):
            return ["local sign %r is not +1 or -1" % (sign,)]
        product *= sign
    if w != product:
        return ["W = %r but -prod(local signs) = %+d" % (w, product)]
    return []
