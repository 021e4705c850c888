"""Local sign w_p* of a fibre (s, t): closed-form case tables.

The global root number of the fibre at (s, t) is W = -prod_p w_p*(t) over the
primes of the factor base (p | 6 s (t^2-s)); w_p* = +1 for every other prime.
Each w_p* is given by one of twelve case tables, selected by the prime class
and the valuation pattern of s and t:

  T3   p >= 5
  T4   p = 3, nu3(s) odd
  T5   p = 3, nu3(s) == 0 mod 4, 2 nu3(t) == nu3(s)
  T6a  p = 3, nu3(s) == 0 mod 4, 2 nu3(t) != nu3(s)
  T6b  p = 3, nu3(s) == 2 mod 4, 2 nu3(t) != nu3(s)
  T7   p = 3, nu3(s) == 2 mod 4, 2 nu3(t) == nu3(s)
  T8   p = 2, nu2(s) == 0 mod 4, 2 nu2(t) != nu2(s)
  T9   p = 2, nu2(s) == 0 mod 4, 2 nu2(t) == nu2(s)
  T10a p = 2, nu2(s) == 1 mod 4
  T10b p = 2, nu2(s) == 3 mod 4
  T11  p = 2, nu2(s) == 2 mod 4, 2 nu2(t) != nu2(s)
  T12  p = 2, nu2(s) == 2 mod 4, 2 nu2(t) == nu2(s)

Tables are flat row lists (cell, sub, printed value, guard) over a
LocalProfile, written as the paper prints them, cell then rows. A cell of
one row is a literal Row; a cell of several rows is written once through
_cell, which states the cell's key and its condition on the valuations
once and gives each row only its own unit condition, tested after the
cell's. First match wins, and a fall-through raises (every table is total
over its dispatch domain; the totality fuzz test exercises this).
Row keys name the first column of the table ("diff" is nu(s) - 2 nu(t) in
T4..T12, the table's own m = nu(t^2-s) - 2 nu(t) in the equal-valuation
tables T5/T7/T9/T12, and k = 2 nu(t) - nu(s) in T3). A row states its value
only as the printed string; the one evaluator of each printed value is
looked up when the row is built, and a printed value with no evaluator is
refused at import.

The rows read the unit parts of s, t and t^2 - s only mod p^u, 16 at
p = 2, 9 at p = 3 and p at p >= 5, so a LocalProfile stores them reduced
mod p^u and is the key of the one cache of row hits (``_row_hit``, up to
2^12 profiles). s's part of a profile is derived, with the check that p is
prime, once per (p, s) (``_s_part``, up to 2^10 pairs); ``_profile`` adds
t's and t^2 - s's part. ``LocalProfile.of`` builds through it, and so does
``_sign_product``, the one kernel that signs the primes of 6 s for
root_number. ``_s_part`` also holds a class table of one byte per t mod
p^K, p^K the largest power of p at most 2^8, where the kernel keeps the
sign of each class whose t all share one profile (see ``_read_sign``).

Known divergences between these tables and other published claims are
deliberately NOT patched here: the rows are kept exactly as transcribed, so
that discrepancies are reported by the audit machinery instead of silently
fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from rootno.arith import _int_valuation, _legendre, require_prime
from rootno.families import is_singular

Sign = int
INF = math.inf


class TableFallthrough(Exception):
    """A dispatch table matched no row: transcription bug, never expected."""


class LocalProfile(NamedTuple):
    """Valuations and unit parts of s, t and t^2 - s at one prime, and the
    first columns of the tables:

      k    = 2 nu(t) - nu(s): the first column of T3;
      diff = nu(s) - 2 nu(t): the first column of T4, T6, T8, T10, T11;
      m    = nu(t^2-s) - 2 nu(t): the first column of T5, T7, T9, T12.

    nu_t is math.inf and t_u is None when t = 0; every table row that
    consults t_u is unreachable in that case (guards test the valuation
    columns first). LocalProfile.of(p, s, t) is the profile of a fibre, its
    unit parts reduced mod 16 (p = 2), 9 (p = 3) or p (p >= 5).
    """

    p: int
    nu_s: int
    s_u: int
    nu_t: int | float
    t_u: int | None
    nu_d: int
    d_u: int

    @classmethod
    def of(cls, p: int, s: int, t: int) -> LocalProfile:
        require_prime(p)
        _require_ints(s, t)
        if is_singular(s, t):
            raise ValueError(f"fibre (s={s}, t={t}) is singular")
        return _profile(p, t, t * t - s, _s_part(p, s))

    k = property(lambda q: 2 * q.nu_t - q.nu_s)
    diff = property(lambda q: q.nu_s - 2 * q.nu_t)
    m = property(lambda q: q.nu_d - 2 * q.nu_t)

    def leg(self, a: int) -> Sign:
        # only the tables at odd p read a Legendre symbol
        return _legendre(a, self.p)


def _require_ints(s: int, t: int) -> None:
    """Rejects an s or t that is not an int, bools included."""
    if type(s) is not int or type(t) is not int:
        raise ValueError(f"s and t must be integers, got s={s!r}, t={t!r}")


# a class table's byte: its class unread, signed +1 or -1, or unsettled
_UNKNOWN, _PLUS, _MINUS, _UNSETTLED = range(4)
_SIGN_OF = (0, 1, -1, 0)


@lru_cache(maxsize=1 << 10, typed=True)
def _s_part(p: int, s: int) -> tuple[int, int, bytearray]:
    """(nu_p(s), s_u mod p^u, table) for a nonzero int s; table is the
    class table of (p, s), p^K bytes for p^K the largest power of p at
    most 2^8, all _UNKNOWN. p is checked here. An exception is never
    cached, so a p that is not prime raises on every call, and the typed
    cache keeps 2.0 and True off the entries of 2 and 1."""
    require_prime(p)
    nu_s, s_u = _int_valuation(p, s)
    n = max(p ** k for k in range(9) if p ** k <= 1 << 8)
    return nu_s, s_u % (16 if p == 2 else 9 if p == 3 else p), bytearray(n)


def _profile(p: int, t: int, d: int,
             s_part: tuple[int, int, bytearray]) -> LocalProfile:
    """The LocalProfile at p of a checked fibre with d = t^2 - s, given
    _s_part(p, s): only t and d are reduced here."""
    nu_s, s_u, _ = s_part
    mod = 16 if p == 2 else 9 if p == 3 else p
    # most t and d are units at p: their valuation is 0 without a call
    if t % p:
        nu_t, t_u = 0, t % mod
    elif t:
        nu_t, t_u = _int_valuation(p, t)
        t_u %= mod
    else:
        nu_t, t_u = INF, None
    nu_d, d_u = (0, d) if d % p else _int_valuation(p, d)
    # tuple.__new__ skips the generated __new__'s argument binding
    return tuple.__new__(LocalProfile, (p, nu_s, s_u, nu_t, t_u,
                                        nu_d, d_u % mod))


def _sgn4(x: int) -> Sign:
    """'x mod 4' as a sign: +1 when x == 1 mod 4, -1 when x == 3 mod 4."""
    return 1 if x % 4 == 1 else -1


# the evaluator of each printed value the tables use
_VALUES: dict[str, Callable[[LocalProfile], Sign]] = {
    "+1": lambda q: 1,
    "-1": lambda q: -1,
    "(-1/p)": lambda q: q.leg(-1),
    "(2/p)": lambda q: q.leg(2),
    "(3/p)": lambda q: q.leg(3),
    "(-3/p)": lambda q: q.leg(-3),
    "-(3t_p/p)": lambda q: -q.leg(3 * q.t_u),
    "(s_3/3)": lambda q: q.leg(q.s_u),
    "-(s_3/3)": lambda q: -q.leg(q.s_u),
    "(t_3/3)": lambda q: q.leg(q.t_u),
    "-(t_3/3)": lambda q: -q.leg(q.t_u),
    "t_2 mod 4": lambda q: _sgn4(q.t_u),
    "d_2 mod 4": lambda q: _sgn4(q.d_u),
    "-(d_2 mod 4)": lambda q: -_sgn4(q.d_u),
}


@dataclass(frozen=True)
class Row:
    cell: str                                  # printed first-column key
    sub: str                                   # distinguishing unit condition
    vdesc: str                                 # printed value
    guard: Callable[[LocalProfile], bool]
    value: Callable[[LocalProfile], Sign] = field(init=False, repr=False)
    row_id: str = field(init=False, repr=False)

    def __post_init__(self):
        if self.vdesc not in _VALUES:
            raise ValueError(f"no evaluator for printed value {self.vdesc!r}")
        object.__setattr__(self, "value", _VALUES[self.vdesc])
        object.__setattr__(self, "row_id", f"{self.cell} & {self.sub}"
                           if self.sub else self.cell)


def _cell(cell: str, guard: Callable[[LocalProfile], bool],
          *rows: tuple) -> list[Row]:
    """The rows of one printed cell, each given as (sub, printed value, own
    guard or None): a row's guard is the cell's guard, then its own."""
    return [Row(cell, sub, vdesc, guard if own is None
                else lambda q, own=own: guard(q) and own(q))
            for sub, vdesc, own in rows]


# --------------------------------------------------------------------- T3

T3 = [
    # nu(s) odd
    *_cell("s odd & k<0", lambda q: q.nu_s % 2 == 1 and q.k < 0,
           ("nu(t) even", "-(3t_p/p)", lambda q: q.nu_t % 2 == 0),
           ("nu(t) odd", "(-1/p)", None)),
    Row("s odd & k>0", "", "(2/p)",
        lambda q: q.nu_s % 2 == 1 and q.k > 0),
    # nu(s) == 0 mod 4
    *_cell("s 0mod4 & k<0", lambda q: q.nu_s % 4 == 0 and q.k < 0,
           ("nu(t) even", "-(3t_p/p)", lambda q: q.nu_t % 2 == 0),
           ("nu(t) odd", "(-1/p)", None)),
    Row("s 0mod4 & k>0", "", "+1",
        lambda q: q.nu_s % 4 == 0 and q.k > 0),
    *_cell("s 0mod4 & k=0", lambda q: q.nu_s % 4 == 0 and q.k == 0,
           ("nu(t)=0 mod 6, nu(d)=2,4 mod 6", "(-3/p)",
            lambda q: q.nu_t % 6 == 0 and q.nu_d % 6 in (2, 4)),
           ("nu(t)=0 mod 6, otherwise", "+1", lambda q: q.nu_t % 6 == 0),
           ("nu(t)=2 mod 6, nu(d)=0,2 mod 6", "(-3/p)",
            lambda q: q.nu_t % 6 == 2 and q.nu_d % 6 in (0, 2)),
           ("nu(t)=2 mod 6, otherwise", "+1", lambda q: q.nu_t % 6 == 2),
           ("nu(t)=4 mod 6, nu(d)=0,4 mod 6", "(-3/p)",
            lambda q: q.nu_t % 6 == 4 and q.nu_d % 6 in (0, 4)),
           ("nu(t)=4 mod 6, otherwise", "+1", lambda q: q.nu_t % 6 == 4)),
    # nu(s) == 2 mod 4
    *_cell("s 2mod4 & k<0", lambda q: q.nu_s % 4 == 2 and q.k < 0,
           ("nu(t) even", "-(3t_p/p)", lambda q: q.nu_t % 2 == 0),
           ("nu(t) odd", "(-1/p)", None)),
    Row("s 2mod4 & k>0", "", "(-1/p)",
        lambda q: q.nu_s % 4 == 2 and q.k > 0),
    *_cell("s 2mod4 & k=0", lambda q: q.nu_s % 4 == 2 and q.k == 0,
           ("nu(t)=1 mod 6, nu(d)=1,3 mod 6", "(3/p)",
            lambda q: q.nu_t % 6 == 1 and q.nu_d % 6 in (1, 3)),
           ("nu(t)=1 mod 6, otherwise", "(-1/p)", lambda q: q.nu_t % 6 == 1),
           ("nu(t)=3 mod 6, nu(d)=1,5 mod 6", "(3/p)",
            lambda q: q.nu_t % 6 == 3 and q.nu_d % 6 in (1, 5)),
           ("nu(t)=3 mod 6, otherwise", "(-1/p)", lambda q: q.nu_t % 6 == 3),
           ("nu(t)=5 mod 6, nu(d)=3,5 mod 6", "(3/p)",
            lambda q: q.nu_t % 6 == 5 and q.nu_d % 6 in (3, 5)),
           ("nu(t)=5 mod 6, otherwise", "(-1/p)", lambda q: q.nu_t % 6 == 5)),
]

# --------------------------------------------------------------------- T4

T4 = [
    # nu3(s) == 1 mod 4
    Row("s 1mod4 & diff<-1", "", "+1",
        lambda q: q.nu_s % 4 == 1 and q.diff < -1),
    Row("s 1mod4 & diff=-1", "", "-(s_3/3)",
        lambda q: q.nu_s % 4 == 1 and q.diff == -1),
    Row("s 1mod4 & diff=1,3", "", "+1",
        lambda q: q.nu_s % 4 == 1 and q.diff in (1, 3)),
    Row("s 1mod4 & diff=1mod4>1", "", "-1",
        lambda q: q.nu_s % 4 == 1 and q.diff > 1 and q.diff % 4 == 1),
    Row("s 1mod4 & diff=3mod4>3", "", "-(t_3/3)",
        lambda q: q.nu_s % 4 == 1 and q.diff > 3 and q.diff % 4 == 3),
    # nu3(s) == 3 mod 4
    Row("s 3mod4 & diff=1", "", "(s_3/3)",
        lambda q: q.nu_s % 4 == 3 and q.diff == 1),
    Row("s 3mod4 & diff=1mod4>1", "", "-(t_3/3)",
        lambda q: q.nu_s % 4 == 3 and q.diff > 1 and q.diff % 4 == 1),
    Row("s 3mod4 & otherwise", "", "-1",
        lambda q: q.nu_s % 4 == 3),
]

# --------------------------------------------------------------------- T5

def _u3(q: LocalProfile) -> int:
    return q.t_u * q.d_u % 3


def _u9(q: LocalProfile) -> int:
    return q.t_u * q.d_u % 9


T5 = [
    Row("diff=0", "s_3=2 mod 3, s_3 t_3 != 2,4 mod 9", "+1",
        lambda q: q.m == 0 and q.s_u % 3 == 2
        and q.s_u * q.t_u % 9 not in (2, 4)),
    Row("diff=0mod6>0", "t_3 d_3 != 7,8 mod 9", "+1",
        lambda q: q.m > 0 and q.m % 6 == 0 and _u9(q) not in (7, 8)),
    Row("diff=1mod6", "t_3 d_3 = 2 mod 3", "+1",
        lambda q: q.m % 6 == 1 and _u3(q) == 2),
    Row("diff=2mod6", "t_3 d_3 = 1 mod 3", "+1",
        lambda q: q.m % 6 == 2 and _u3(q) == 1),
    Row("diff=3mod6", "t_3 d_3 = 1,2 mod 9", "+1",
        lambda q: q.m % 6 == 3 and _u9(q) in (1, 2)),
    Row("diff=4mod6", "t_3 d_3 = 2 mod 3", "+1",
        lambda q: q.m % 6 == 4 and _u3(q) == 2),
    Row("diff=5mod6", "t_3 d_3 = 1 mod 3", "+1",
        lambda q: q.m % 6 == 5 and _u3(q) == 1),
    Row("otherwise", "", "-1",
        lambda q: True),
]

# -------------------------------------------------------------------- T6a

T6a = [
    Row("diff<-2", "", "+1",
        lambda q: q.diff < -2),
    Row("diff=-2", "", "(t_3/3)",
        lambda q: q.diff == -2),
    *_cell("diff>0", lambda q: q.diff > 0,
           ("nu(t) even", "-1", lambda q: q.nu_t % 2 == 0),
           ("nu(t) odd", "-(t_3/3)", lambda q: q.nu_t % 2 == 1)),
]

# -------------------------------------------------------------------- T6b

T6b = [
    Row("diff<-2", "", "+1",
        lambda q: q.diff < -2),
    *_cell("diff=-2", lambda q: q.diff == -2,
           ("t_3 = s_3 mod 3", "+1", lambda q: q.t_u % 3 == q.s_u % 3),
           ("t_3 = -s_3 mod 3", "-1", lambda q: q.t_u % 3 == -q.s_u % 3)),
    *_cell("diff=2", lambda q: q.diff == 2,
           ("t_3 = s_3 mod 3", "+1", lambda q: q.t_u % 3 == q.s_u % 3),
           ("t_3 = -s_3 mod 3", "-1", lambda q: q.t_u % 3 == -q.s_u % 3)),
    Row("diff=0mod4>0", "", "-(t_3/3)",
        lambda q: q.diff > 0 and q.diff % 4 == 0),
    Row("diff=2mod4>2", "", "-1",
        lambda q: q.diff > 2 and q.diff % 4 == 2),
]

# --------------------------------------------------------------------- T7

T7 = [
    Row("diff=0", "s_3=2 mod 3, s_3 t_3 != 2,4 mod 9", "+1",
        lambda q: q.m == 0 and q.s_u % 3 == 2
        and q.s_u * q.t_u % 9 not in (2, 4)),
    Row("diff=0mod6>0", "t_3 d_3 != 1,2 mod 9", "+1",
        lambda q: q.m > 0 and q.m % 6 == 0 and _u9(q) not in (1, 2)),
    Row("diff=1mod6", "t_3 d_3 = 1 mod 3", "+1",
        lambda q: q.m % 6 == 1 and _u3(q) == 1),
    Row("diff=2mod6", "t_3 d_3 = 2 mod 3", "+1",
        lambda q: q.m % 6 == 2 and _u3(q) == 2),
    Row("diff=3mod6", "t_3 d_3 = 7,8 mod 9", "+1",
        lambda q: q.m % 6 == 3 and _u9(q) in (7, 8)),
    Row("diff=4mod6", "t_3 d_3 = 1 mod 3", "+1",
        lambda q: q.m % 6 == 4 and _u3(q) == 1),
    Row("diff=5mod6", "t_3 d_3 = 2 mod 3", "+1",
        lambda q: q.m % 6 == 5 and _u3(q) == 2),
    Row("otherwise", "", "-1",
        lambda q: True),
]

# --------------------------------------------------------------------- T8

T8 = [
    *_cell("diff<-4", lambda q: q.diff < -4,
           ("s_2 = 1,3,7,13,15 mod 16", "-1",
            lambda q: q.s_u % 16 in (1, 3, 7, 13, 15)),
           ("s_2 = 5,9,11 mod 16", "+1", lambda q: q.s_u % 16 in (5, 9, 11))),
    *_cell("diff=-4", lambda q: q.diff == -4,
           ("s_2 = 3,5,7,9,11,15 mod 16", "-1",
            lambda q: q.s_u % 16 in (3, 5, 7, 9, 11, 15)),
           ("s_2 = 1,13 mod 16", "+1", lambda q: q.s_u % 16 in (1, 13))),
    *_cell("diff=-2", lambda q: q.diff == -2,
           ("s_2 = 3 mod 4", "+1", lambda q: q.s_u % 4 == 3),
           ("s_2 = 1,13 mod 16, t_2 = 1 mod 4", "+1",
            lambda q: q.s_u % 16 in (1, 13) and q.t_u % 4 == 1),
           ("s_2 = 5,9 mod 16, t_2 = 3 mod 4", "+1",
            lambda q: q.s_u % 16 in (5, 9) and q.t_u % 4 == 3),
           ("otherwise", "-1", None)),
    *_cell("diff=2", lambda q: q.diff == 2,
           ("t_2 = s_2 mod 4", "+1", lambda q: q.t_u % 4 == q.s_u % 4),
           ("t_2 = -s_2 mod 4", "-1", lambda q: q.t_u % 4 == -q.s_u % 4)),
    *_cell("diff=2mod4>2", lambda q: q.diff > 2 and q.diff % 4 == 2,
           ("t_2 = 3 mod 4", "+1", lambda q: q.t_u % 4 == 3),
           ("t_2 = 1 mod 4", "-1", lambda q: q.t_u % 4 == 1)),
    *_cell("diff=4", lambda q: q.diff == 4,
           ("t_2 = 1,5 mod 8", "+1", lambda q: q.t_u % 8 in (1, 5)),
           ("s_2 = 1 mod 4, t_2 = 3 mod 8", "+1",
            lambda q: q.s_u % 4 == 1 and q.t_u % 8 == 3),
           ("s_2 = 3 mod 4, t_2 = 7 mod 8", "+1",
            lambda q: q.s_u % 4 == 3 and q.t_u % 8 == 7),
           ("otherwise", "-1", None)),
    *_cell("diff=0mod4>4", lambda q: q.diff > 4 and q.diff % 4 == 0,
           ("t_2 = 7 mod 8", "+1", lambda q: q.t_u % 8 == 7),
           ("otherwise", "-1", None)),
]

# --------------------------------------------------------------------- T9

T9 = [
    *_cell("diff=1", lambda q: q.m == 1,
           ("(t_2, d_2) mod 8 in {(1;1,7),(3;5,7),(5;3,5),(7;1,3)}", "+1",
            lambda q: (q.t_u % 8, q.d_u % 8) in
            {(1, 1), (1, 7), (3, 5), (3, 7),
             (5, 3), (5, 5), (7, 1), (7, 3)}),
           ("otherwise", "-1", None)),
    *_cell("diff=2", lambda q: q.m == 2,
           ("t_2 d_2 = 3 mod 4", "+1", lambda q: q.t_u * q.d_u % 4 == 3),
           ("otherwise", "-1", None)),
    *_cell("diff=3", lambda q: q.m == 3,
           ("(t_2, d_2) mod 8 in {(1;3,5),(3;1,3),(5;1,7),(7;5,7)}", "+1",
            lambda q: (q.t_u % 8, q.d_u % 8) in
            {(1, 3), (1, 5), (3, 1), (3, 3),
             (5, 1), (5, 7), (7, 5), (7, 7)}),
           ("otherwise", "-1", None)),
    *_cell("diff=5", lambda q: q.m == 5,
           ("(d_2, t_2) mod 8 in {(1;1,3,7),(3;1,3,5),(5;1,3,5),(7;1,5,7)}",
            "+1",
            lambda q: (q.d_u % 8, q.t_u % 8) in
            {(1, 1), (1, 3), (1, 7), (3, 1), (3, 3), (3, 5),
             (5, 1), (5, 3), (5, 5), (7, 1), (7, 5), (7, 7)}),
           ("otherwise", "-1", None)),
    Row("otherwise", "", "t_2 mod 4",
        lambda q: True),
]

# -------------------------------------------------------------------- T10a

T10a = [
    *_cell("diff<=-2", lambda q: q.diff <= -2,
           ("s_2 = 3,5 mod 8", "-1", lambda q: q.s_u % 8 in (3, 5)),
           ("s_2 = 1,7 mod 8", "+1", lambda q: q.s_u % 8 in (1, 7))),
    *_cell("diff=-1", lambda q: q.diff == -1,
           ("s_2 = 1,7 mod 8, t_2 = 1 mod 4", "+1",
            lambda q: q.s_u % 8 in (1, 7) and q.t_u % 4 == 1),
           ("s_2 = 3,5 mod 8, t_2 = 3 mod 4", "+1",
            lambda q: q.s_u % 8 in (3, 5) and q.t_u % 4 == 3),
           ("otherwise", "-1", None)),
    *_cell("diff=1", lambda q: q.diff == 1,
           ("s_2 = 1 mod 4, t_2 = 1,7 mod 8", "+1",
            lambda q: q.s_u % 4 == 1 and q.t_u % 8 in (1, 7)),
           ("s_2 = 3 mod 4, t_2 = 1,3 mod 8", "+1",
            lambda q: q.s_u % 4 == 3 and q.t_u % 8 in (1, 3)),
           ("otherwise", "-1", None)),
    *_cell("diff=5", lambda q: q.diff == 5,
           ("t_2 = 1,5,7 mod 8", "+1", lambda q: q.t_u % 8 in (1, 5, 7)),
           ("otherwise", "-1", None)),
    *_cell("diff=1mod4>5", lambda q: q.diff > 5 and q.diff % 4 == 1,
           ("t_2 = 7 mod 8", "+1", lambda q: q.t_u % 8 == 7),
           ("otherwise", "-1", None)),
    *_cell("diff=3", lambda q: q.diff == 3,
           ("s_2 = 3 mod 4", "+1", lambda q: q.s_u % 4 == 3),
           ("s_2 = 1 mod 4", "-1", lambda q: q.s_u % 4 == 1)),
    *_cell("diff=3mod4>3", lambda q: q.diff > 3 and q.diff % 4 == 3,
           ("t_2 = 3 mod 4", "+1", lambda q: q.t_u % 4 == 3),
           ("t_2 = 1 mod 4", "-1", lambda q: q.t_u % 4 == 1)),
]

# -------------------------------------------------------------------- T11

T11 = [
    *_cell("diff<-4", lambda q: q.diff < -4,
           ("s_2 = 1,3,5,9,13,15 mod 16", "+1",
            lambda q: q.s_u % 16 in (1, 3, 5, 9, 13, 15)),
           ("s_2 = 7,11 mod 16", "-1", lambda q: q.s_u % 16 in (7, 11))),
    *_cell("diff=-4", lambda q: q.diff == -4,
           ("s_2 = 1,5,7,9,11,13 mod 16", "+1",
            lambda q: q.s_u % 16 in (1, 5, 7, 9, 11, 13)),
           ("s_2 = 3,15 mod 16", "-1", lambda q: q.s_u % 16 in (3, 15))),
    *_cell("diff=-2", lambda q: q.diff == -2,
           ("s_2 = 3,7 mod 16, t_2 = 1 mod 4", "+1",
            lambda q: q.s_u % 16 in (3, 7) and q.t_u % 4 == 1),
           ("s_2 = 11,15 mod 16, t_2 = 3 mod 4", "+1",
            lambda q: q.s_u % 16 in (11, 15) and q.t_u % 4 == 3),
           ("otherwise", "-1", None)),
    *_cell("diff=0mod4>0", lambda q: q.diff > 0 and q.diff % 4 == 0,
           ("t_2 = 3 mod 4", "+1", lambda q: q.t_u % 4 == 3),
           ("t_2 = 1 mod 4", "-1", lambda q: q.t_u % 4 == 1)),
    *_cell("diff=2", lambda q: q.diff == 2,
           ("s_2 = 1 mod 8, t_2 = 3,5,7 mod 8", "+1",
            lambda q: q.s_u % 8 == 1 and q.t_u % 8 in (3, 5, 7)),
           ("s_2 = 5 mod 8, t_2 = 1,3,7 mod 8", "+1",
            lambda q: q.s_u % 8 == 5 and q.t_u % 8 in (1, 3, 7)),
           ("otherwise", "-1", None)),
    *_cell("diff=6", lambda q: q.diff == 6,
           ("t_2 = 3 mod 4", "+1", lambda q: q.t_u % 4 == 3),
           ("t_2 = 1 mod 4", "-1", lambda q: q.t_u % 4 == 1)),
    *_cell("diff=2mod4>6", lambda q: q.diff > 6 and q.diff % 4 == 2,
           ("t_2 = 7 mod 8", "+1", lambda q: q.t_u % 8 == 7),
           ("otherwise", "-1", None)),
]

# -------------------------------------------------------------------- T12

T12 = [
    Row("diff=0,1,3,5mod6 !=1,3", "", "t_2 mod 4",
        lambda q: q.m > 4 and q.m % 6 in (0, 1, 3, 5)),
    *_cell("diff=1", lambda q: q.m == 1,
           ("t_2 = 1 mod 8", "+1", lambda q: q.t_u % 8 == 1),
           ("t_2 = 3 mod 8", "d_2 mod 4", lambda q: q.t_u % 8 == 3),
           ("t_2 = 5 mod 8", "-1", lambda q: q.t_u % 8 == 5),
           ("t_2 = 7 mod 8", "-(d_2 mod 4)", lambda q: q.t_u % 8 == 7)),
    *_cell("diff=2", lambda q: q.m == 2,
           ("t_2 = 1 mod 4", "+1", lambda q: q.t_u % 4 == 1),
           ("t_2 = 3 mod 8", "-(d_2 mod 4)", lambda q: q.t_u % 8 == 3),
           ("t_2 = 7 mod 8", "-1", lambda q: q.t_u % 8 == 7)),
    Row("diff=2,4mod6>4", "", "-(d_2 mod 4)",
        lambda q: q.m > 4 and q.m % 6 in (2, 4)),
    Row("diff=3", "", "-1",
        lambda q: q.m == 3),
    *_cell("diff=4", lambda q: q.m == 4,
           ("(t_2, d_2) mod 8 in {(1;5),(5;1),(3;1,5,7),(7;1,3,5)}", "+1",
            lambda q: (q.t_u % 8, q.d_u % 8) in
            {(1, 5), (5, 1), (3, 1), (3, 5),
             (3, 7), (7, 1), (7, 3), (7, 5)}),
           ("otherwise", "-1", None)),
]

# -------------------------------------------------------------------- T10b

T10b = [
    *_cell("diff<=-2", lambda q: q.diff <= -2,
           ("s_2 = 1,7 mod 8", "-1", lambda q: q.s_u % 8 in (1, 7)),
           ("s_2 = 3,5 mod 8", "+1", lambda q: q.s_u % 8 in (3, 5))),
    *_cell("diff=-1", lambda q: q.diff == -1,
           ("s_2 = 1,3 mod 8, t_2 = 1 mod 4", "-1",
            lambda q: q.s_u % 8 in (1, 3) and q.t_u % 4 == 1),
           ("s_2 = 1,3 mod 8, t_2 = 3 mod 4", "+1",
            lambda q: q.s_u % 8 in (1, 3) and q.t_u % 4 == 3),
           ("s_2 = 5,7 mod 8, t_2 = 3 mod 4", "+1",
            lambda q: q.s_u % 8 in (5, 7) and q.t_u % 4 == 3),
           ("s_2 = 5,7 mod 8, t_2 = 1 mod 4", "-1",
            lambda q: q.s_u % 8 in (5, 7) and q.t_u % 4 == 1)),
    *_cell("diff=1", lambda q: q.diff == 1,
           ("t_2 = s_2, s_2+2 mod 8", "+1",
            lambda q: q.t_u % 8 in (q.s_u % 8, (q.s_u + 2) % 8)),
           ("otherwise", "-1", None)),
    *_cell("diff=1mod4>1", lambda q: q.diff > 1 and q.diff % 4 == 1,
           ("t_2 = 3 mod 4", "+1", lambda q: q.t_u % 4 == 3),
           ("t_2 = 1 mod 4", "-1", lambda q: q.t_u % 4 == 1)),
    *_cell("diff=3", lambda q: q.diff == 3,
           ("s_2 = 1 mod 4, t_2 = 3,5 mod 8", "+1",
            lambda q: q.s_u % 4 == 1 and q.t_u % 8 in (3, 5)),
           ("s_2 = 3 mod 4, t_2 = 1,3 mod 8", "+1",
            lambda q: q.s_u % 4 == 3 and q.t_u % 8 in (1, 3)),
           ("otherwise", "-1", None)),
    *_cell("diff=3mod4>3", lambda q: q.diff > 3 and q.diff % 4 == 3,
           ("t_2 = 7 mod 8", "+1", lambda q: q.t_u % 8 == 7),
           ("otherwise", "-1", None)),
]


TABLES: dict[str, list[Row]] = {
    "T3": T3, "T4": T4, "T5": T5, "T6a": T6a, "T6b": T6b, "T7": T7,
    "T8": T8, "T9": T9, "T10a": T10a, "T10b": T10b, "T11": T11, "T12": T12,
}


def dispatch_table(q: LocalProfile) -> str:
    p = q.p
    eq = q.nu_t != INF and q.nu_s == 2 * q.nu_t
    if p == 3:
        if q.nu_s % 2 == 1:
            return "T4"
        if q.nu_s % 4 == 0:
            return "T5" if eq else "T6a"
        return "T7" if eq else "T6b"
    if p == 2:
        r = q.nu_s % 4
        if r == 0:
            return "T9" if eq else "T8"
        if r == 1:
            return "T10a"
        if r == 2:
            return "T12" if eq else "T11"
        return "T10b"
    return "T3"


@dataclass(frozen=True)
class RowHit:
    table: str
    cell: str
    row_id: str
    sign: Sign


@lru_cache(maxsize=1 << 12)
def _row_hit(q: LocalProfile) -> RowHit:
    """The first row of q's table whose guard holds. A fall-through raises
    TableFallthrough, and an exception is never cached."""
    tid = dispatch_table(q)
    for row in TABLES[tid]:
        if row.guard(q):
            return RowHit(tid, row.cell, row.row_id, row.value(q))
    raise TableFallthrough(f"no row of {tid} matched {q}")


def _fallthrough(q: LocalProfile, s: int, t: int) -> TableFallthrough:
    return TableFallthrough(
        f"no row of {dispatch_table(q)} matched p={q.p}, s={s}, t={t} "
        f"(nu_s={q.nu_s}, nu_t={q.nu_t}, nu_d={q.nu_d})")


def w_star_hit(p: int, s: int, t: int) -> RowHit:
    """Like w_star but reports which table row produced the sign."""
    q = LocalProfile.of(p, s, t)
    try:
        return _row_hit(q)
    except TableFallthrough as exc:
        raise _fallthrough(q, s, t) from exc


def w_star(p: int, s: int, t: int) -> Sign:
    """The local sign w_p*(t) on the fibre at (s, t); always +1 or -1."""
    return w_star_hit(p, s, t).sign


def _sign_product(s: int, primes: Iterable[int], t: int, d: int) -> Sign:
    """prod of w_star(p, s, t) over primes, unchecked: s and t are ints of
    a nonsingular fibre and d = t^2 - s. _s_part checks each p, and a
    fall-through raises w_star_hit's message. Signs come from the class
    tables at t mod p^K, or from _read_sign where they hold none."""
    w = 1
    for p in primes:
        part = _s_part(p, s)
        table = part[2]
        w *= _SIGN_OF[table[t % len(table)]] or _read_sign(p, s, t, d, part)
    return w


def _local_sign(p: int, s: int, t: int, d: int) -> Sign:
    """_sign_product(s, (p,), t, d), without the one-prime tuple."""
    part = _s_part(p, s)
    table = part[2]
    return _SIGN_OF[table[t % len(table)]] or _read_sign(p, s, t, d, part)


def _read_sign(p: int, s: int, t: int, d: int,
               part: tuple[int, int, bytearray]) -> Sign:
    """The sign at p of a fibre whose class in part's table holds none.

    With unit depth u = 4, 2, 1 at p = 2, 3, >= 5 (the modulus is p^u),
    each t' = t mod p^K has t's profile q when nu_t + u <= K and nu_d + u
    <= min(nu_p(2t) + K, 2K), the least valuation of t'^2 - t^2. Such a
    settled class stores its sign, read by the uncached row walk so that
    it takes no _row_hit entry; any other, t = 0's too, is marked
    unsettled and read through _row_hit. A fall-through stores nothing."""
    q = _profile(p, t, d, part)
    table = part[2]
    c, k = t % len(table), _int_valuation(p, len(table))[0]
    u = 4 if p == 2 else 2 if p == 3 else 1
    settled = (table[c] != _UNSETTLED and q.nu_t + u <= k
               and q.nu_d + u <= min(q.nu_t + (p == 2) + k, 2 * k))
    try:
        sign = (_row_hit.__wrapped__ if settled else _row_hit)(q).sign
    except TableFallthrough as exc:
        raise _fallthrough(q, s, t) from exc
    table[c] = (_PLUS if sign == 1 else _MINUS) if settled else _UNSETTLED
    return sign
