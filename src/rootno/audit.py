"""Cross-checks between the closed-form condition lists, the sign
tables, and the worked examples shipped with them.

``falsify_constancy`` looks for two fibres with opposite global sign on
t = a*u + b, skipping singular fibres: it walks u outward from 0 for
budget values, then budget more ascending from budget//2 + 1.

``probe_set`` builds a finite set of u values on t = a*u + b that
reaches every guard the local sign tables can read at p: the full
residue block mod p^J (capped), representatives of each reachable
t-valuation in each unit class, and 2-adic/Hensel-lifted solutions of
t^2 = s for the deep rows.  Only the tests call it, as the enumeration
oracle for ``check_f_p``.

``run_paper_examples`` re-checks each row of ``EXAMPLES`` (the paper's
worked examples and one synthetic cross-check) with its family's
checker.  A checker enumerates |u| <= 60 outward from u = 0 up to the
first sign flip, with the walk ``falsify_constancy`` uses, and emits:

- ``table-vs-paper-example`` (F) when enumeration shows both signs, or
  one sign other than the claimed one;
- ``theorem-vs-table`` (F) when ``check_f`` says Constant while
  enumeration shows both signs, with ``theorem-vs-table1`` beside it
  saying what ``check_f_table1`` gives;
- ``lemma-vs-example`` (L) when ``check_l_lemma`` does not give the
  claimed sign or enumeration does not stay at it.

An F record's prime is the smallest p | 6s at which the two opposing
fibres' local signs differ (for s = -3r^2 every other prime gives +1),
and its condition id is ``check_f``'s condition at that prime.  Records
are plain dicts; ``ledger_json`` serializes the result deterministically
so repeated runs are byte-identical.

``classical_local_root_number`` and ``classical_cross_check`` read
externally supplied local root number data; no data ships with the
package, so without the ROOTNO_CLASSICAL_DATA environment variable they
raise FeatureDisabled.
"""

import json
import os
from functools import partial
from itertools import chain
from typing import Optional

from .arith import (as_minus_3_square, legendre,
                    require_nonzero_int, require_positive_int, require_prime,
                    sqrt_mod_prime_power, valuation)
from .constancy import (_condition, check_f, check_f_table1, check_l_lemma,
                        require_progression)
from .families import is_singular
from .local_signs import w_star, w_star_hit
from .root_number import (breakdown_f, breakdown_l, primes_of_6s, root_number_f,
                          root_number_l)

_BLOCK_CAP = 2048
_UNIT_CAP = 64


class FeatureDisabled(RuntimeError):
    """Raised when an optional data-backed feature has no data."""


def probe_set(p: int, s: int, a: int, b: int) -> list:
    """u values whose fibres exercise every table guard at p.

    Contains a full residue block mod p^J (p^J <= 2048), constructed
    representatives for every reachable t-valuation up to
    nu_p(a) + nu_p(s) + 8 in each small unit class, and deep t^2 = s
    approximations where they exist.
    """
    require_prime(p)
    require_nonzero_int("s", s)
    a = require_progression(a, b)

    vs, s_unit = valuation(p, s)
    va, a_unit = valuation(p, a)
    vb = valuation(p, b)[0]
    span = vs + 8

    block = 1
    while block * p <= _BLOCK_CAP:
        block *= p
    us = set(range(block))

    if p == 2:
        units = range(1, 16, 2)
        extra = 4
    elif p == 3:
        units = (1, 2, 4, 5, 7, 8)
        extra = 2
    else:
        units = range(1, min(p, _UNIT_CAP + 1))
        extra = 1

    if va <= vb:
        b_over = b // p**va
        for depth in range(span + 1):
            mod = p ** (depth + extra)
            inv = pow(a_unit, -1, mod)
            for c in units:
                us.add((inv * (p**depth * c - b_over)) % mod)

    if vs % 2 == 0:
        solvable = (s_unit % 8 == 1) if p == 2 else (legendre(s_unit, p) == 1)
        if solvable:
            root = sqrt_mod_prime_power(s_unit, p, span + 2)
            t0 = p ** (vs // 2) * root
            for depth in range(vs, vs + 9):
                for target in (t0, -t0):
                    c0 = target - b
                    if c0 == 0 or valuation(p, c0)[0] < va:
                        continue
                    mod = p ** max(depth - va, 1)
                    u0 = (c0 // p**va) * pow(a_unit, -1, mod) % mod
                    us.add(u0)
                    us.add(u0 + mod)

    return sorted(us)


def _scan_order(budget: int):
    yield 0
    produced = 1
    k = 1
    while produced < budget:
        yield k
        produced += 1
        if produced < budget:
            yield -k
            produced += 1
        k += 1


def _sign_flip(sign_of, us) -> tuple:
    """Walk us in order, skipping each u where sign_of(u) is None (a
    singular fibre).  Returns (first, flip): the first signed fibre (u, W)
    and the first later one of the opposite sign, or None for flip when
    the sign never changes."""
    first = None
    for u in us:
        w = sign_of(u)
        if w is None:
            continue
        if first is None:
            first = (u, w)
        elif w != first[1]:
            return first, (u, w)
    return first, None


def _f_sign(s: int, a: int, b: int):
    """u -> W of the fibre t = a*u + b, None where that fibre is singular."""
    def sign_of(u):
        t = a * u + b
        return None if is_singular(s, t) else root_number_f(s, t)
    return sign_of


def falsify_constancy(s: int, a: int, b: int, budget: int = 1000) -> Optional[tuple]:
    """Search for two fibres on t = a*u + b with opposite root number.

    Walks u = 0, 1, -1, 2, -2, ... for budget values, then budget more
    ascending from budget//2 + 1, skipping singular fibres: the window
    -(budget-1)//2 .. budget//2 + budget.  Returns ((u1, W1), (u2, W2))
    for the first opposing pair found, or None if the budget is exhausted.
    budget is a positive int.  When s is not -3 r^2, a fibre whose t^2 - s
    cannot be factored raises ValueError; for s = -3 r^2 root_number_f
    factors no fibre.
    """
    require_nonzero_int("s", s)
    require_progression(a, b)
    require_positive_int("budget", budget)

    half = budget // 2
    us = chain(_scan_order(budget), range(half + 1, half + 1 + budget))
    first, flip = _sign_flip(_f_sign(s, a, b), us)
    return None if flip is None else (first, flip)


# The worked examples the audit re-checks, one row each: the family, its
# curve (s for F; w, s, v for L), the progression t = a*u + b, the claimed
# constant W (None for the synthetic s = -3 cross-check, which claims
# nothing) and how many fibres from u = 0 a record shows.
EXAMPLES = (
    ("F", {"s": -972}, 12, 18, -1, 6),
    ("L", {"w": 7, "s": -588, "v": 1}, 12, 6, 1, 4),
    ("L", {"w": 7, "s": -588, "v": 1}, 4, 2, 1, 4),
    ("F", {"s": -7500}, 6000, 60, 1, 4),
    ("F", {"s": -3}, 4, 1, None, 4),
)

# the checkers enumerate |u| <= _RADIUS outward from u = 0
_RADIUS = 60
_WINDOW = tuple(_scan_order(2 * _RADIUS + 1))


def _span_text(first: tuple, flip: Optional[tuple]) -> str:
    return "enumeration over |u| <= %d gives %s" % (
        _RADIUS, [first[1]] if flip is None else [-1, 1])


def _fibres(breakdown, a: int, b: int, us) -> list:
    """The fibres t = a*u + b a record shows: u, t, W and the local signs."""
    shown = []
    for u in us:
        bd = breakdown(a * u + b)
        shown.append({"u": u, "t": a * u + b, "W": bd.w,
                      "factors": dict(bd.factors)})
    return shown


def _check_f(row: dict, claim: Optional[int], shown: int) -> list:
    """The table-vs-paper-example and theorem-vs-table(1) records of an F
    example (see the module docstring)."""
    s, a, b = row["s"], row["a"], row["b"]
    fibres = partial(_fibres, partial(breakdown_f, s), a, b)
    first, flip = _sign_flip(_f_sign(s, a, b), _WINDOW)
    if flip is not None:
        (u1, w1), (u2, w2) = first, flip
        prime = next(p for p in primes_of_6s(s)
                     if w_star(p, s, a * u1 + b) != w_star(p, s, a * u2 + b))
        pair = "u=%d gives W=%+d, u=%d gives W=%+d" % (u1, w1, u2, w2)
    records = []
    if claim is not None and not (flip is None and first[1] == claim):
        rec = dict(row, kind="table-vs-paper-example",
                   claim="W = %+d for every integer u" % claim,
                   fibres=fibres(range(shown)))
        if flip is None:
            rec["observed"] = _span_text(first, flip)
        else:
            hit = w_star_hit(prime, s, a * u1 + b)
            rec.update(prime=prime, table_row="%s:%s" % (hit.table, hit.cell),
                       observed="both signs occur: " + pair)
        records.append(rec)
    verdict = check_f(s, a, b)
    if verdict.constant and flip is not None:
        shared = dict(row, prime=prime, condition_id=_condition(prime, s, a, b)[0],
                      claim=str(verdict))
        t1_row = check_f_table1(s, a, b)
        records.append(dict(shared, kind="theorem-vs-table",
                            observed="enumeration alternates: " + pair,
                            fibres=fibres(range(shown))))
        records.append(dict(shared, kind="theorem-vs-table1",
                            observed=("no dual-route row matches the progression "
                                      "while the condition route claims constancy"
                                      if t1_row is None else
                                      "dual-route row %s fires while enumeration "
                                      "alternates" % t1_row),
                            fibres=fibres((u1, u2))))
    return records


def _check_l(row: dict, claim: int, shown: int) -> list:
    """The lemma-vs-example record of an L example, if it has one."""
    w, s, v, a, b = (row[k] for k in ("w", "s", "v", "a", "b"))
    suff = check_l_lemma(w, as_minus_3_square(s), v, a, b)
    first, flip = _sign_flip(lambda u: root_number_l(w, s, v, a * u + b), _WINDOW)
    agrees = flip is None and first[1] == claim
    if suff.satisfied and suff.sign == claim and agrees:
        return []
    lemma = ("sufficiency check: %s" % suff if suff.satisfied else
             "sufficiency conditions do not apply (%s)" % suff.failed)
    return [dict(row, kind="lemma-vs-example", condition_id=suff.failed,
                 claim="W = %+d for every integer u" % claim,
                 observed="%s; %s%s" % (lemma, _span_text(first, flip),
                                        ", agreeing with the claimed sign"
                                        if agrees else ""),
                 fibres=_fibres(partial(breakdown_l, w, s, v), a, b,
                                range(shown)))]


def run_paper_examples() -> dict:
    """Re-check each row of EXAMPLES with its family's checker."""
    checked = []
    records = []
    for family, curve, a, b, claim, shown in EXAMPLES:
        checked.append("%s: %s, t=%du%+d, %s" % (
            family, ", ".join("%s=%d" % kv for kv in curve.items()), a, b,
            "synthetic constancy cross-check" if claim is None
            else "claimed constant W=%+d" % claim))
        check = _check_f if family == "F" else _check_l
        records += check(dict(family=family, **curve, a=a, b=b), claim, shown)
    return {"suite": "paper-examples", "checked": checked, "records": records}


def ledger_json(result: dict) -> str:
    """Deterministic serialization: sorted keys, two-space indent."""
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def _classical_data() -> dict:
    """The "p:s:t" -> sign map in $ROOTNO_CLASSICAL_DATA/local_signs.json;
    FeatureDisabled without it, so callers can skip with a reason."""
    root = os.environ.get("ROOTNO_CLASSICAL_DATA")
    if not root:
        raise FeatureDisabled(
            "classical oracle disabled: set ROOTNO_CLASSICAL_DATA to a "
            "directory containing local_signs.json")
    path = os.path.join(root, "local_signs.json")
    if not os.path.exists(path):
        raise FeatureDisabled(
            "classical oracle disabled: %s has no local_signs.json" % root)
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) \
            or any(type(v) is not int or v not in (1, -1) for v in data.values()):
        raise ValueError('%s must map "p:s:t" keys to +1 or -1' % path)
    return data


def classical_local_root_number(p: int, s: int, t: int) -> int:
    """Local root number from externally supplied classical data."""
    data = _classical_data()
    key = "%d:%d:%d" % (p, s, t)
    if key not in data:
        raise KeyError("no classical datum for %s" % key)
    return data[key]


def classical_cross_check(out: dict) -> None:
    """Add to a run_paper_examples result one classical-vs-table record per
    nonsingular datum whose sign the tables contradict, and a checked line.
    Malformed data (not a JSON object of +1/-1 values, a key other than
    "p:s:t" with p prime) raises ValueError."""
    data = _classical_data()
    compared = 0
    for key in sorted(data):
        p, s, t = (int(x) for x in key.split(":"))
        if is_singular(s, t):
            continue
        hit = w_star_hit(p, s, t)
        compared += 1
        if hit.sign != data[key]:
            out["records"].append({
                "kind": "classical-vs-table",
                "p": p, "s": s, "t": t,
                "classical": data[key], "table": hit.sign,
                "table_row": "%s:%s" % (hit.table, hit.row_id),
            })
    out["checked"].append("classical oracle: compared %d local signs" % compared)
