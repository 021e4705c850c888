"""Forced local signs and minimum-rank prediction on progressions.

For s = -12*k**4 the family y^2 = x^3 + 3tx^2 + 3sx + st carries a
section of infinite order, so its generic rank over Q(t) is 1; for every
other nonzero s it is 0.  On a progression t = a*u + b the local sign at
a prime p | 6s is frequently the same for every u, for valuation and
residue-class reasons alone.  ``forced_sign`` decides that from a closed
condition list (one block per prime class) and returns +1, -1, or None
when no condition applies.

``forced_sign_kq`` is the single-prime specialization s = -12*q**4
transcribed as its own per-prime lists.  It is a second route to the
same answers and is tested against ``forced_sign`` rather than merged
with it.

``rank_jump_report`` turns the forced signs into a predicted minimum
rank for every fibre on the progression, conditional on the parity
conjecture (the prediction also ignores the finitely many fibres where
specialization can drop rank).  When a prime is left unforced the report
falls back to the progression constancy checker; if that fails too the
prediction is "unknown".

The condition lists are transcribed as printed even where enumeration
of the sign tables disagrees (a deep 2-adic lane and the even-valuation
legendre lanes at p = 1 mod 4 carry flipped signs; two b2-class lanes at
2-adic gap exactly 2 are not actually constant).  The divergences are
pinned in the tests and surfaced by the audit module, not patched here.
"""

from typing import Optional

from .arith import (
    as_minus_12_fourth,
    is_prime,
    legendre,
    require_nonzero_int,
    require_prime,
    valuation,
)
from .constancy import check_f, require_progression
from .root_number import primes_of_6s

BANNER = "conditional on the parity conjecture"


def _require_quartic(s: int) -> int:
    require_nonzero_int("s", s)
    k = as_minus_12_fourth(s)
    if k is None:
        raise ValueError("s must be of the form -12*k**4")
    return k


def generic_rank(s: int) -> int:
    """Rank of the generic fibre over Q(t): 1 iff s = -12*k**4, else 0."""
    require_nonzero_int("s", s)
    return 1 if as_minus_12_fourth(s) is not None else 0


def _offset_class(b2: int, s2: int) -> int:
    """Mod-4 class of the odd part of b2**2 - s2 (both arguments odd)."""
    return valuation(2, b2 * b2 - s2)[1] % 4


def _forced_sign_p5(p: int, s: int, a: int, b: int) -> Optional[int]:
    nu_s, nu_a = valuation(p, s)[0], valuation(p, a)[0]
    nu_b, b_unit = valuation(p, b)
    if nu_b < nu_a:
        if nu_s <= 2 * nu_b:
            lane = "shallow"
        elif nu_b % 2 == 0:
            lane = "nonresidue" if legendre(b_unit, p) == -1 else "residue"
        else:
            lane = "odd"
    elif nu_s <= 2 * nu_a:
        lane = "deep-a"
    else:
        return None
    if p % 4 == 1:
        return -1 if lane == "residue" else 1
    return -1 if lane in ("nonresidue", "odd") else 1


def _forced_sign_p3(s: int, a: int, b: int) -> Optional[int]:
    nu_s, nu_a = valuation(3, s)[0], valuation(3, a)[0]
    nu_b, b_unit = valuation(3, b)
    if nu_b < nu_a:
        if nu_s <= 2 * nu_b + 3:
            return 1
        d = nu_s - (2 * nu_b + 3)
        if d > 0 and d % 4 == 0:
            return 1 if b_unit % 3 == 2 else -1
        d = nu_s - (2 * nu_b + 1)
        if d > 0 and d % 4 == 0:
            return -1
        return None
    if nu_s <= 2 * nu_a + 3:
        return 1
    return None


def _forced_sign_p2(s: int, a: int, b: int) -> Optional[int]:
    nu_s, s2 = valuation(2, s)
    nu_a = valuation(2, a)[0]
    nu_b, b2 = valuation(2, b)
    gap = nu_a - nu_b
    if gap <= 0:
        return 1 if nu_s <= 2 * nu_a - 4 else None
    diff = nu_s - 2 * nu_b
    if gap == 1:
        if diff <= -4:
            return 1
        if diff == -2:
            return -1
        return None
    if gap == 2:
        if diff <= -4:
            return 1
        if diff == -2:
            return -1
        if diff == 0:
            if b2 % 4 == 1:
                return 1
            if b2 % 8 == 3:
                return 1 if _offset_class(b2, s2) == 3 else -1
            return -1
        if diff == 2:
            return 1 if b2 % 4 == 3 else None
        if diff == 6:
            return 1 if b2 % 4 == 3 else -1
        if diff % 4 == 0:
            return 1 if b2 % 4 == 3 else -1
        return -1 if b2 % 4 == 1 else None
    # gap > 2
    if diff < -4:
        return -1
    if diff == -4:
        return 1
    if diff == -2:
        return -1
    if diff == 0:
        if b2 % 4 == 1:
            return 1
        if b2 % 8 == 3:
            return 1 if _offset_class(b2, s2) == 3 else -1
        return -1
    if diff == 2:
        return 1 if b2 % 8 in (1, 3, 7) else -1
    if diff == 6:
        return 1 if b2 % 4 == 3 else -1
    if diff % 4 == 0:
        return 1 if b2 % 4 == 3 else -1
    return 1 if b2 % 8 == 7 else -1


def forced_sign(p: int, s: int, a: int, b: int) -> Optional[int]:
    """Forced value of the local sign at p on t = a*u + b, or None.

    Requires s = -12*k**4.  A returned sign means every fibre on the
    progression carries that local sign according to the condition
    lists; None means they are silent (the sign may still be constant).
    """
    require_prime(p)
    _require_quartic(s)
    require_progression(a, b)
    if p == 2:
        return _forced_sign_p2(s, a, b)
    if p == 3:
        return _forced_sign_p3(s, a, b)
    return _forced_sign_p5(p, s, a, b)


def _kq_at_q(q: int, a: int, b: int) -> Optional[int]:
    nu_a, nu_b = valuation(q, a)[0], valuation(q, b)[0]
    if q % 4 == 1:
        if nu_a <= nu_b and nu_b >= 2 and nu_a >= 2:
            return 1
        if 1 <= nu_b < nu_a:
            return 1
        if 0 == nu_b < nu_a:
            return 1 if legendre(b, q) == -1 else -1
        return None
    if nu_a <= nu_b and nu_b >= 2 and nu_a >= 2:
        return 1
    if 2 <= nu_b < nu_a:
        return 1
    if 0 == nu_b < nu_a:
        return 1 if legendre(b, q) == 1 else -1
    if 1 == nu_b < nu_a:
        return -1
    return None


def _kq_at_2(s: int, a: int, b: int) -> Optional[int]:
    nu_a = valuation(2, a)[0]
    nu_b, b2 = valuation(2, b)
    if 3 <= nu_a <= nu_b:
        return 1
    if nu_b >= 3 and nu_a == nu_b + 2:
        return 1
    if nu_b >= 3 and nu_a == nu_b + 1:
        return 1
    if nu_b == 3 and nu_a > 5:
        return 1
    if nu_b > 3 and nu_a > nu_b + 2:
        return -1
    if nu_b == 2 and nu_a >= 3:
        return -1
    if nu_b == 1 and nu_a >= 3:
        if b2 % 4 == 1:
            return 1
        if b2 % 8 == 3:
            return 1 if _offset_class(b2, valuation(2, s)[1]) == 3 else -1
        return -1
    if nu_b == 0 and nu_a > 2:
        return 1 if b2 % 8 in (1, 3, 7) else -1
    if nu_b == 0 and nu_a == 2:
        return 1 if b2 % 4 == 3 else None
    return None


def forced_sign_kq(q: int, a: int, b: int) -> dict:
    """Per-prime forced signs for s = -12*q**4 (q prime, q >= 5).

    Returns {2: sign-or-None, 3: 1, q: sign-or-None}.  Independent
    transcription of the single-prime condition lists; must agree with
    forced_sign everywhere (property-tested).
    """
    if not isinstance(q, int) or q < 5 or not is_prime(q):
        raise ValueError("q must be a prime >= 5")
    require_progression(a, b)
    s = -12 * q**4
    return {2: _kq_at_2(s, a, b), 3: 1, q: _kq_at_q(q, a, b)}


def rank_jump_report(s: int, a: int, b: int) -> dict:
    """Predicted minimum rank for every fibre on t = a*u + b.

    The prediction compares the forced root number with the parity of
    the generic rank; it is conditional on the parity conjecture and on
    discarding the finitely many fibres where specialization may lose
    rank.  rank_jump_predicted is True/False when the root number is
    pinned on the whole progression and "unknown" otherwise.
    """
    generic = generic_rank(s)
    require_progression(a, b)
    report = {"s": s, "a": a, "b": b, "generic_rank": generic}
    forced_w = None
    if generic == 1:
        per_prime = {p: forced_sign(p, s, a, b) for p in primes_of_6s(s)}
        report["per_prime"] = per_prime
        if all(w is not None for w in per_prime.values()):
            product = 1
            for w in per_prime.values():
                product *= w
            forced_w = -product
    if forced_w is None:
        verdict = check_f(s, a, b)
        if verdict.constant:
            forced_w = verdict.sign
    report["forced_W"] = forced_w
    if forced_w is None:
        report["predicted_min_rank"] = generic
        report["rank_jump_predicted"] = "unknown"
    else:
        jump = forced_w != (-1) ** generic
        report["predicted_min_rank"] = generic + 1 if jump else generic
        report["rank_jump_predicted"] = jump
    report["banner"] = BANNER
    report["flags"] = {
        "parity_conjecture": True,
        "silverman_finite_exceptions": True,
    }
    return report
