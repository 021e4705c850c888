"""Global root number of a fibre: W = -prod of the local signs w_p*.

The product runs over the factor base (primes dividing 6 s (t^2 - s)); at
every other prime the local sign is +1, so the finite product is the whole
story. Twisted fibres (w, s, v; t) reduce to F-parameters first and must
land on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from rootno.arith import factorize, require_nonzero_int
from rootno.families import is_singular, l_to_f
from rootno.local_signs import w_star

Sign = int
Number = Union[int, Fraction]


@dataclass(frozen=True)
class Breakdown:
    """Root number of one fibre with its per-prime local signs."""

    s: int
    t: int
    w: Sign
    factors: dict[int, Sign]  # keyed by the factor-base primes, ascending


def factor_base(s: int, t: int) -> list[int]:
    """Ascending primes dividing 6 s (t^2 - s); rejects singular fibres."""
    if is_singular(s, t):
        raise ValueError(f"fibre (s={s}, t={t}) is singular")
    primes = {2, 3}
    primes.update(p for p, _ in factorize(s)[1])
    primes.update(p for p, _ in factorize(t * t - s)[1])
    return sorted(primes)


def breakdown_f(s: int, t: int) -> Breakdown:
    factors = {p: w_star(p, s, t) for p in factor_base(s, t)}
    w = -1
    for sign in factors.values():
        w *= sign
    return Breakdown(s, t, w, factors)


def root_number_f(s: int, t: int) -> Sign:
    """W of the fibre y^2 = x^3 + 3t x^2 + 3s x + s t."""
    return breakdown_f(s, t).w


def _as_int(x: Number, what: str) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"{what} = {x} is not an integer")
        return x.numerator
    return x


def breakdown_l(w: Number, s: Number, v: Number, t: Number) -> Breakdown:
    """Breakdown of the twisted fibre via its reduction (S, T) = (s w^2, w (t^2+v)).

    The reduction must be integral and nonsingular.
    """
    S, T = l_to_f(Fraction(w), Fraction(s), Fraction(v), Fraction(t))
    return breakdown_f(_as_int(S, "s*w^2"), _as_int(T, "w*(t^2+v)"))


def root_number_l(w: Number, s: Number, v: Number, t: Number) -> Sign:
    return breakdown_l(w, s, v, t).w


def average_root_number_window(s: int, a: int, b: int, radius: int) -> Fraction:
    """Average of W(t) over t = a u + b, u in [-radius, radius].

    s and a are nonzero ints, b an int and radius a non-negative int.
    Singular fibres are skipped and excluded from the denominator.
    """
    require_nonzero_int("s", s)
    require_nonzero_int("a", a)
    if type(b) is not int:
        raise ValueError("b must be an integer")
    if type(radius) is not int or radius < 0:
        raise ValueError("radius must be a non-negative integer")
    total = 0
    count = 0
    for u in range(-radius, radius + 1):
        t = a * u + b
        if is_singular(s, t):
            continue
        total += root_number_f(s, t)
        count += 1
    if count == 0:
        raise ValueError("window contains no nonsingular fibre")
    return Fraction(total, count)
