"""Closed-form constancy checks for root numbers on arithmetic progressions.

For s = -3*r**2 (r a nonzero integer) the root number of the fibre family
y^2 = x^3 + 3tx^2 + 3sx + st restricted to t = a*u + b is constant in u
exactly when a short list of valuation conditions holds, one block per
prime dividing 6s.  ``check_f`` evaluates that list and reports a verdict
with the matched condition ids; ``check_f_p`` isolates a single prime.

``check_f_table1`` is a deliberately independent second route for the
2-adic block, transcribed as a twelve-row lookup keyed on
(nu2(a)-nu2(b), nu2(s) mod 4, nu2(s)-2*nu2(a), b2 mod 4).  The two routes
are kept separate so their disagreements stay visible: the condition
lane C3b has no counterpart row, and enumeration shows C3b is itself
wrong when nu2(s) % 4 == 0 (see the audit module) and on some
progressions when nu2(s) % 4 == 2 (s = -12, t = 8u + 6).  Neither route
is patched to match the other.

``check_l_corollary`` and ``check_l_lemma`` are sufficiency checks for
the twisted family w*y^2 = x^3 + 3(t^2+v)x^2 + 3sx + s(t^2+v) with
s = -3*r**2: when satisfied they report the claimed constant sign, when
not satisfied they say nothing about non-constancy.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import (
    as_minus_3_square,
    factorize,
    legendre,
    require_nonzero_int,
    require_prime,
    valuation,
    valuation_or_inf,
)
from .local_signs import w_star
from .root_number import primes_of_6s, root_number_f, root_number_l

Rational = Union[int, Fraction]

NOT_MINUS_3_SQUARE = "s not of form -3r^2"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a constancy decision (exact, both directions)."""

    constant: bool
    sign: Optional[int]
    matched: tuple
    reason: Optional[str] = None

    def __str__(self) -> str:
        if self.constant:
            return "Constant(%+d) [%s]" % (self.sign, ", ".join(self.matched))
        return "NonConstant: %s" % self.reason


@dataclass(frozen=True)
class Sufficiency:
    """Outcome of a one-directional (sufficient-only) condition list."""

    satisfied: bool
    matched: tuple
    sign: Optional[int]
    failed: Optional[str] = None

    def __str__(self) -> str:
        if self.satisfied:
            return "satisfied(%+d) [%s]" % (self.sign, ", ".join(self.matched))
        return "not satisfied: %s" % self.failed


def _nu(p: int, x: int) -> int:
    return valuation(p, x)[0]


def require_progression(a: int, b: int) -> int:
    """|a| of the progression t = a*u + b; rejects bools, non-ints, zeros."""
    require_nonzero_int("a", a)
    require_nonzero_int("b", b)
    return abs(a)


def _condition_p5(p: int, s: int, a: int, b: int) -> Optional[str]:
    nu_s, nu_a, nu_b = _nu(p, s), _nu(p, a), _nu(p, b)
    if nu_b < nu_a:
        return "P5.1(p=%d)" % p
    if nu_s <= 2 * nu_a and nu_a <= nu_b:
        return "P5.2(p=%d)" % p
    return None


def _condition_p3(s: int, a: int, b: int) -> Optional[str]:
    nu_s, nu_a, nu_b = _nu(3, s), _nu(3, a), _nu(3, b)
    if nu_b < nu_a:
        return "P3.1"
    if nu_s - 3 <= 2 * nu_a and nu_a <= nu_b:
        return "P3.2"
    return None


def _condition_c3(s: int, a: int, b: int) -> Optional[str]:
    nu_s = _nu(2, s)
    nu_a = _nu(2, a)
    nu_b, b2 = valuation(2, b)
    diff = nu_s - 2 * nu_b
    if nu_b + 2 < nu_a:
        return "C3a"
    if nu_b + 2 == nu_a:
        if 2 * nu_b == nu_s:
            return "C3b"
        if nu_s % 4 == 0:
            if diff < 0 \
                    or (diff > 0 and diff % 4 == 2) \
                    or (diff > 0 and diff % 4 == 0 and b2 % 4 == 1):
                return "C3c"
        else:
            if diff < 0 \
                    or (diff == 2 and b2 % 4 == 3) \
                    or (diff > 0 and diff % 4 == 0) \
                    or diff == 6 \
                    or (diff > 6 and diff % 4 == 2 and b2 % 4 == 1):
                return "C3d"
        return None
    if nu_b + 1 == nu_a and 2 * nu_b != nu_s:
        if diff <= -4 or (diff == -2 and nu_s % 4 == 2):
            return "C3e"
        return None
    if nu_a <= nu_b:
        if nu_s + 6 <= 2 * nu_a:
            return "C3f"
        if 2 * nu_a == nu_s + 4 and nu_s % 4 == 2:
            return "C3g"
    return None


def _condition(p: int, s: int, a: int, b: int) -> tuple[Optional[str], str]:
    """The condition id that holds at p (None if none does), and the reason
    a verdict gives when none does."""
    if p >= 5:
        return _condition_p5(p, s, a, b), "P5:p=%d" % p
    if p == 3:
        return _condition_p3(s, a, b), "P3"
    return _condition_c3(s, a, b), "C3"


def check_f(s: int, a: int, b: int) -> Verdict:
    """Decide whether W on the fibres t = a*u + b is constant in u.

    Requires nonzero integer a, b.  When s is not -3 times a nonzero
    square the verdict is NonConstant with the gate reason.  The reported
    sign of a Constant verdict is the root number of the u = 0 fibre
    (never singular since s < 0).
    """
    a = require_progression(a, b)
    if as_minus_3_square(s) is None:
        return Verdict(False, None, (), NOT_MINUS_3_SQUARE)
    matched = []
    for p in primes_of_6s(s)[2:] + (3, 2):
        hit, reason = _condition(p, s, a, b)
        if hit is None:
            return Verdict(False, None, tuple(matched), reason)
        matched.append(hit)
    return Verdict(True, root_number_f(s, b), tuple(matched), None)


def check_f_p(p: int, s: int, a: int, b: int) -> Verdict:
    """Single-prime constancy of the local sign on t = a*u + b.

    The sign of a Constant verdict is the (shared) local sign at u = 0.
    Unlike check_f this raises for s outside the -3r^2 gate, because the
    per-prime condition lists are only defined there.
    """
    a = require_progression(a, b)
    require_prime(p)
    if as_minus_3_square(s) is None:
        raise ValueError("check_f_p requires s = -3*r^2 with r nonzero")
    if p not in primes_of_6s(s):
        # local sign is identically +1 off the primes of 6s
        return Verdict(True, w_star(p, s, b), ())
    hit, reason = _condition(p, s, a, b)
    if hit is None:
        return Verdict(False, None, (), reason)
    return Verdict(True, w_star(p, s, b), (hit,))


# Independent 2-adic route: twelve rows, first match wins, keyed on the
# column order (nu2(a)-nu2(b), nu2(s) mod 4, nu2(s)-2*nu2(a), b2 mod 4).
# An empty cell means no constraint.
_TABLE1_ROWS = (
    (1, lambda gap, blk, th, b2: gap > 2),
    (2, lambda gap, blk, th, b2: gap == 2 and blk == 0 and th < -4),
    (3, lambda gap, blk, th, b2: gap == 2 and blk == 0 and th % 4 == 2 and th > -4),
    (4, lambda gap, blk, th, b2: gap == 2 and blk == 0 and th % 4 == 0 and th > -4
        and b2 % 4 == 1),
    (5, lambda gap, blk, th, b2: gap == 2 and blk == 2 and th < -4),
    (6, lambda gap, blk, th, b2: gap == 2 and blk == 2 and th == -2 and b2 % 4 == 3),
    (7, lambda gap, blk, th, b2: gap == 2 and blk == 2 and th % 4 == 0 and th > -4),
    (8, lambda gap, blk, th, b2: gap == 2 and blk == 2 and th == 2),
    (9, lambda gap, blk, th, b2: gap == 2 and blk == 2 and th % 4 == 2 and th > 2
        and b2 % 4 == 1),
    (10, lambda gap, blk, th, b2: gap <= 1 and blk == 0 and th <= -6),
    (11, lambda gap, blk, th, b2: gap <= 1 and blk == 2 and th <= -6),
    (12, lambda gap, blk, th, b2: gap <= 1 and blk == 2 and th == -4),
)


def check_f_table1(s: int, a: int, b: int) -> Optional[str]:
    """Row id ("T1.row-<k>") of the 2-adic lookup route, or None.

    A row firing asserts the 2-adic local sign is constant on t = a*u+b.
    This is intentionally not derived from check_f_p(2, ...): the two
    routes are compared against each other in tests and in the audit.
    """
    a = require_progression(a, b)
    if as_minus_3_square(s) is None:
        raise ValueError("check_f_table1 requires s = -3*r^2 with r nonzero")
    nu_s = _nu(2, s)
    nu_a = _nu(2, a)
    nu_b, b2 = valuation(2, b)
    gap = nu_a - nu_b
    blk = nu_s % 4
    th = nu_s - 2 * nu_a
    for k, guard in _TABLE1_ROWS:
        if guard(gap, blk, th, b2):
            return "T1.row-%d" % k
    return None


def _as_fraction(name: str, x: Rational) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError("%s must be an integer or Fraction" % name)
    x = Fraction(x)
    if x == 0:
        raise ValueError("%s must be nonzero" % name)
    return x


def _primes_of(q: Fraction):
    ps = {p for p, _ in factorize(q.numerator)[1]}
    ps.update(p for p, _ in factorize(q.denominator)[1])
    return sorted(ps)


def check_l_corollary(w: Rational, r: Rational, v: Rational) -> Sufficiency:
    """Sufficient conditions for the twisted family with rational data.

    Applies to w*y^2 = x^3 + 3(t^2+v)x^2 - 9r^2 x - 3r^2 (t^2+v) read
    through its integral model: requires w, w*v and -3*(r*w)**2 to be
    integers.  When satisfied, the root number is claimed constant on
    t = a*u + b for every integer progression, with the reported sign
    taken from the t = 0 fibre.
    """
    w = _as_fraction("w", w)
    r = _as_fraction("r", r)
    v = _as_fraction("v", v)
    if w.denominator != 1 or (w * v).denominator != 1 \
            or (3 * (r * w) ** 2).denominator != 1:
        raise ValueError("w, w*v and -3*(r*w)**2 must all be integers")
    matched = []
    for p in _primes_of(r * w):
        if p < 5:
            continue
        cid = "L-COR.1(p=%d)" % p
        nu_r = valuation(p, r)[0]
        nu_v = valuation(p, v)[0]
        if nu_v < 0 or (nu_r <= 0 <= nu_v):
            matched.append(cid)
        else:
            return Sufficiency(False, tuple(matched), None, cid)
    nu3_r = valuation(3, r)[0]
    nu3_v = valuation(3, v)[0]
    if nu3_v < 0 or (nu3_r - 1 <= 0 <= nu3_v):
        matched.append("L-COR.2")
    else:
        return Sufficiency(False, tuple(matched), None, "L-COR.2")
    nu2_r = valuation(2, r)[0]
    nu2_v = valuation(2, v)[0]
    nu2_w = valuation(2, w)[0]
    if nu2_v <= -2:
        matched.append("L-COR.3a")
    elif nu2_v == -1 and (nu2_r <= -2 or (nu2_r == -1 and nu2_w % 2 == 0)):
        matched.append("L-COR.3b")
    elif nu2_r + 3 <= 0 <= nu2_v:
        matched.append("L-COR.3c")
    elif nu2_r + 2 == 0 <= nu2_v:
        matched.append("L-COR.3d")
    else:
        return Sufficiency(False, tuple(matched), None, "L-COR.3")
    sign = root_number_l(w, -3 * r * r, v, 0)
    return Sufficiency(True, tuple(matched), sign)


def check_l_lemma(w: int, r: int, v: int, a: int, b: int) -> Sufficiency:
    """Sufficient conditions, integer data, for the progression t = a*u+b.

    Covers the twisted family with s = -3*r**2.  The reported sign of a
    satisfied check is the root number at u = 0.
    """
    for name, x in (("w", w), ("r", r), ("v", v)):
        require_nonzero_int(name, x)
    if type(a) is not int or type(b) is not int:
        raise ValueError("progression parameters a, b must be integers")
    matched = []
    for p, _ in factorize(r)[1]:
        if p < 5:
            continue
        cid = "L-LEM.1(p=%d)" % p
        ok = valuation(p, v)[0] == 0 \
            and valuation_or_inf(p, a)[0] == 0 \
            and valuation_or_inf(p, b)[0] == 0 \
            and valuation(p, w)[0] % 2 == 1 \
            and legendre(-v, p) == -1
        if not ok:
            return Sufficiency(False, tuple(matched), None, cid)
        matched.append(cid)
    if valuation_or_inf(3, a)[0] > 0 and valuation_or_inf(3, b)[0] > 0 \
            and valuation(3, v)[0] == 0:
        matched.append("L-LEM.2")
    else:
        return Sufficiency(False, tuple(matched), None, "L-LEM.2")
    if valuation_or_inf(2, a)[0] > 1 and valuation_or_inf(2, b)[0] > 0 \
            and valuation(2, v)[0] == 0:
        matched.append("L-LEM.3")
    else:
        return Sufficiency(False, tuple(matched), None, "L-LEM.3")
    sign = root_number_l(w, -3 * r * r, v, b)
    return Sufficiency(True, tuple(matched), sign)
