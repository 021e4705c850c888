"""Global root number of a fibre: W = -prod of the local signs w_p*.

The product runs over the factor base (primes dividing 6 s (t^2 - s)); at
every other prime the local sign is +1, so the finite product is the whole
story. Twisted fibres (w, s, v; t) reduce to F-parameters first and must
land on integers.

Only the primes of 6 s go through the tables, all by one kernel,
``local_signs._sign_product`` (``_local_sign`` for one prime), which
reads most signs from one byte per class t mod p^K, p^K <= 2^8, of a
table kept per (p, s). At any other prime p of the factor base, p
divides t^2 - s but not s, so nu(s) = nu(t) = 0 and T3 is read at k = 0,
nu(t) = 0 mod 6: w_p* = (-3/p) when e = nu_p(t^2 - s) is 2 or 4 mod 6,
else +1. So a prime with e = 1 never changes W: ``root_number_f`` and
``window_signs`` read only the square-full part of t^2 - s
(arith.square_full_factors, or for a window arith._strip_window at
k = 3). ``breakdown_f``, which lists every prime, factors t^2 - s in
full.

When s = -3 r^2, such a p divides t^2 + 3 r^2 and not 3 r, so -3 is a
square mod p and (-3/p) = +1: every sign off 6 s is +1. ``root_number_f``
then factors nothing, not even t^2 - s, nor does ``root_number_l`` when
S = -3 r^2: W is read at the primes of 6 s alone. ``primes_of_6s``, the
one place those primes are derived, keeps them for the last 256 values of
s. ``window_breakdowns`` factors the rows of a window by
arith.factorize_window, which takes a short window through one remainder
tree rather than row by row; ``window_signs`` gives the same W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from rootno.arith import (_strip_window, as_minus_3_square, factorize,
                          factorize_window, require_nonzero_int,
                          square_full_factors)
from rootno.families import is_singular, l_to_f
from rootno.local_signs import _local_sign, _require_ints, _sign_product

Sign = int
Number = Union[int, Fraction]


@dataclass(frozen=True)
class Breakdown:
    """Root number of one fibre with its per-prime local signs."""

    s: int
    t: int
    w: Sign
    factors: dict[int, Sign]  # keyed by the factor-base primes, ascending


@lru_cache(maxsize=256)
def primes_of_6s(s: int) -> tuple[int, ...]:
    """The primes of 6 s, ascending."""
    return tuple(sorted({2, 3}.union(p for p, _ in factorize(s)[1])))


def _breakdown(s: int, t: int, s_primes: tuple[int, ...],
               powers: dict[int, int]) -> Breakdown:
    """The Breakdown of the nonsingular int fibre (s, t), given the primes
    of 6 s and the exponent map of t^2 - s. The tables give the sign at the
    primes of 6 s, through _local_sign with t^2 - s computed once; at
    any other prime p the sign is T3's at nu(s) = nu(t) = 0, which is -1
    exactly when nu_p(t^2 - s) is 2 or 4 mod 6 and (-3/p) = -1, that is
    p = 2 mod 3."""
    d = t * t - s
    factors = {p: _local_sign(p, s, t, d) if p in s_primes else
               -1 if powers[p] % 6 in (2, 4) and p % 3 == 2 else 1
               for p in sorted(powers.keys() | s_primes)}
    return Breakdown(s, t, -math.prod(factors.values()), factors)


def _w(s: int, s_primes: tuple[int, ...], t: int, powers) -> Sign:
    """_breakdown's W of the nonsingular int fibre (s, t), s not -3 r^2,
    from the primes of 6 s and powers, (p, e) pairs that hold at least the
    square-full part of t^2 - s: a pair with e = 1 changes nothing."""
    w = -1
    for p, e in powers:
        if p % 3 == 2 and e % 6 in (2, 4) and p not in s_primes:
            w = -w
    return w * _sign_product(s, s_primes, t, t * t - s)


def _require_nonsingular(s: int, t: int) -> None:
    _require_ints(s, t)
    if is_singular(s, t):
        raise ValueError(f"fibre (s={s}, t={t}) is singular")


def breakdown_f(s: int, t: int) -> Breakdown:
    """The Breakdown of the fibre (s, t); rejects non-int s or t before
    any factoring, then singular fibres."""
    _require_nonsingular(s, t)
    return _breakdown(s, t, primes_of_6s(s), dict(factorize(t * t - s)[1]))


def factor_base(s: int, t: int) -> list[int]:
    """Ascending primes dividing 6 s (t^2 - s); rejects singular fibres."""
    return list(breakdown_f(s, t).factors)


def root_number_f(s: int, t: int) -> Sign:
    """W of the fibre y^2 = x^3 + 3t x^2 + 3s x + s t, with breakdown_f's
    checks and errors. For s = -3 r^2 only the primes of 6 s are read, so
    t^2 - s is not factored; for any other s only its square-full part."""
    if (type(s) is not int or type(t) is not int
            or as_minus_3_square(s) is None):
        _require_nonsingular(s, t)
        return _w(s, primes_of_6s(s), t, square_full_factors(abs(t * t - s)))
    # s < 0 <= t^2, so the fibre is nonsingular
    return -_sign_product(s, primes_of_6s(s), t, t * t - s)


def _reduce_l(w: Number, s: Number, v: Number, t: Number) -> tuple[int, int]:
    """(S, T) of the twisted fibre; rejects a non-integral reduction. Only
    arguments that are not ints become Fractions, so an all-int twist is
    reduced in ints."""
    S, T = l_to_f(*(x if type(x) is int else Fraction(x) for x in (w, s, v, t)))
    for x, what in ((S, "s*w^2"), (T, "w*(t^2+v)")):
        if x.denominator != 1:
            raise ValueError(f"{what} = {x} is not an integer")
    return S.numerator, T.numerator


def breakdown_l(w: Number, s: Number, v: Number, t: Number) -> Breakdown:
    """Breakdown of the twisted fibre via its reduction (S, T) = (s w^2, w (t^2+v)).

    The reduction must be integral and nonsingular.
    """
    return breakdown_f(*_reduce_l(w, s, v, t))


def root_number_l(w: Number, s: Number, v: Number, t: Number) -> Sign:
    """W of the twisted fibre by root_number_f of its reduction (S, T), which
    must be integral and nonsingular."""
    return root_number_f(*_reduce_l(w, s, v, t))


def _require_window(s: int, a: int, b: int, u_min: int, u_max: int) -> None:
    require_nonzero_int("s", s)
    require_nonzero_int("a", a)
    for name, x in (("b", b), ("u_min", u_min), ("u_max", u_max)):
        if type(x) is not int:
            raise ValueError("%s must be an integer" % name)


def window_breakdowns(s: int, a: int, b: int, u_min: int,
                      u_max: int) -> list[Optional[Breakdown]]:
    """breakdown_f(s, a u + b) for u = u_min..u_max, None at each singular
    fibre; empty when u_min > u_max.

    s and a are nonzero ints, b, u_min and u_max ints. Fibres are settled
    in order of u, so an unfactorable one raises the ValueError that
    breakdown_f raises at the first such u.
    """
    _require_window(s, a, b, u_min, u_max)
    s_primes = primes_of_6s(s)
    return [None if powers is None else
            _breakdown(s, a * u + b, s_primes, powers) for u, powers
            in enumerate(factorize_window(s, a, b, u_min, u_max), u_min)]


def window_signs(s: int, a: int, b: int, u_min: int,
                 u_max: int) -> list[Optional[Sign]]:
    """W of the fibre (s, a u + b) for u = u_min..u_max, None at each
    singular fibre: the w of window_breakdowns, with its checks and errors.

    At s = -3 r^2 rows are signed as root_number_f signs them, and none is
    singular or can be unfactorable, as only s is factored. At any other s
    the square-full parts of the rows' t^2 - s come from one
    arith._strip_window pass at k = 3, settled in order of u, so the first
    unfactorable row raises what root_number_f raises there.
    """
    _require_window(s, a, b, u_min, u_max)
    s_primes = primes_of_6s(s)
    ts = range(a * u_min + b, a * (u_max + 1) + b, a)
    if as_minus_3_square(s) is None:
        rows = _strip_window([abs(t * t - s) for t in ts], 3)
        return [None if powers is None else
                _w(s, s_primes, t, powers.items())
                for t, powers in zip(ts, rows)]
    return [-_sign_product(s, s_primes, t, t * t - s) for t in ts]


def average_root_number_window(s: int, a: int, b: int, radius: int) -> Fraction:
    """Average of W(t) over t = a u + b, u in [-radius, radius].

    s and a are nonzero ints, b an int and radius a non-negative int.
    Singular fibres are skipped and excluded from the denominator.
    """
    if type(radius) is not int or radius < 0:
        raise ValueError("radius must be a non-negative integer")
    signs = [w for w in window_signs(s, a, b, -radius, radius)
             if w is not None]
    if not signs:
        raise ValueError("window contains no nonsingular fibre")
    return Fraction(sum(signs), len(signs))
