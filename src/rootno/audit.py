"""Cross-checks between the closed-form condition lists, the sign
tables, and the worked examples shipped with them.

``probe_set`` builds a finite set of u values on t = a*u + b that
reaches every guard the local sign tables can read at p: the full
residue block mod p^J (capped), representatives of each reachable
t-valuation in each unit class, and 2-adic/Hensel-lifted solutions of
t^2 = s for the deep rows.  ``falsify_constancy`` scans a progression
(skipping singular fibres) and then walks those probes looking for two
fibres with opposite global sign.

``run_paper_examples`` re-derives the worked-example claims and emits a
divergence record wherever a claim, a condition list, or a table route
disagrees with enumeration.  Records are plain dicts; ``ledger_json``
serializes the result deterministically so repeated runs are
byte-identical.

``classical_local_root_number`` and ``classical_cross_check`` read
externally supplied local root number data; no data ships with the
package, so without the ROOTNO_CLASSICAL_DATA environment variable they
raise FeatureDisabled.
"""

import json
import os
from typing import Optional

from .arith import (_require_prime, factorize, legendre, sqrt_mod_prime_power,
                    valuation)
from .constancy import (check_f, check_f_table1, check_l_lemma,
                        require_nonzero_int, require_progression)
from .families import is_singular
from .local_signs import w_star_hit
from .root_number import breakdown_f, breakdown_l, root_number_f, root_number_l

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
    _require_prime(p)
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
        units = [c for c in range(1, min(p, _UNIT_CAP + 1)) if c % p]
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


def falsify_constancy(s: int, a: int, b: int, budget: int = 1000) -> Optional[tuple]:
    """Search for two fibres on t = a*u + b with opposite root number.

    Scans u outward from 0 (skipping singular fibres), then walks the
    per-prime probe sets.  Returns ((u1, W1), (u2, W2)) for the first
    opposing pair found, or None if the budget is exhausted.  A fibre
    whose t^2 - s cannot be factored raises ValueError.
    """
    require_nonzero_int("s", s)
    require_progression(a, b)

    first = None

    def look(u):
        nonlocal first
        t = a * u + b
        if is_singular(s, t):
            return None
        w = root_number_f(s, t)
        if first is None:
            first = (u, w)
            return None
        if w != first[1]:
            return (first, (u, w))
        return None

    scanned = set()
    for u in _scan_order(budget):
        scanned.add(u)
        hit = look(u)
        if hit:
            return hit

    candidates = set()
    for prm, _ in factorize(6 * abs(s))[1]:
        candidates.update(probe_set(prm, s, a, b))
    for u in sorted(candidates - scanned, key=lambda x: (abs(x), x))[:budget]:
        hit = look(u)
        if hit:
            return hit
    return None


def _fibre_f(s: int, a: int, b: int, u: int) -> dict:
    bd = breakdown_f(s, a * u + b)
    return {"u": u, "t": a * u + b, "W": bd.w, "factors": dict(bd.factors)}


def _fibre_l(w: int, s: int, v: int, a: int, b: int, u: int) -> dict:
    bd = breakdown_l(w, s, v, a * u + b)
    return {"u": u, "t": a * u + b, "W": bd.w, "factors": dict(bd.factors)}


def run_paper_examples() -> dict:
    """Re-check the worked-example claims; emit records for divergences."""
    checked = []
    records = []

    # progression with a deep 3-part: claimed constant W = -1
    checked.append("F: s=-972, t=12u+18, claimed constant W=-1")
    witness = falsify_constancy(-972, 12, 18, 200)
    if witness is not None:
        (u1, w1), (u2, w2) = witness
        hit = w_star_hit(2, -972, 12 * u1 + 18)
        records.append({
            "kind": "table-vs-paper-example",
            "family": "F",
            "s": -972,
            "a": 12,
            "b": 18,
            "prime": 2,
            "table_row": "%s:%s" % (hit.table, hit.cell),
            "claim": "W = -1 for every integer u",
            "observed": "both signs occur: u=%d gives W=%+d, u=%d gives W=%+d"
                        % (u1, w1, u2, w2),
            "fibres": [_fibre_f(-972, 12, 18, u) for u in range(0, 6)],
        })

    # twisted family on the 12u+6 progression: claimed constant W = +1
    checked.append("L: w=7, s=-588, v=1, t=12u+6, claimed constant W=+1")
    suff = check_l_lemma(7, 14, 1, 12, 6)
    span = {root_number_l(7, -588, 1, 12 * u + 6) for u in range(-60, 61)}
    if not (suff.satisfied and suff.sign == 1 and span == {1}):
        records.append({
            "kind": "lemma-vs-example",
            "family": "L",
            "w": 7,
            "s": -588,
            "v": 1,
            "a": 12,
            "b": 6,
            "condition_id": suff.failed,
            "claim": "W = +1 for every integer u",
            "observed": "sufficiency check: %s; enumeration over |u| <= 60 "
                        "gives %s" % (suff, sorted(span)),
            "fibres": [_fibre_l(7, -588, 1, 12, 6, u) for u in range(0, 4)],
        })

    # same family on 4u+2: the example claims +1 there too
    checked.append("L: w=7, s=-588, v=1, t=4u+2, claimed constant W=+1")
    suff = check_l_lemma(7, 14, 1, 4, 2)
    span = {root_number_l(7, -588, 1, 4 * u + 2) for u in range(-60, 61)}
    if not (suff.satisfied and suff.sign == 1 and span == {1}):
        records.append({
            "kind": "lemma-vs-example",
            "family": "L",
            "w": 7,
            "s": -588,
            "v": 1,
            "a": 4,
            "b": 2,
            "condition_id": suff.failed,
            "claim": "W = +1 for every integer u",
            "observed": "sufficiency conditions do not apply (%s); enumeration "
                        "over |u| <= 60 gives %s, agreeing with the claimed "
                        "sign" % (suff.failed, sorted(span)),
            "fibres": [_fibre_l(7, -588, 1, 4, 2, u) for u in range(0, 4)],
        })

    # the quartic-shape example: claimed constant W = +1
    checked.append("F: s=-7500, t=6000u+60, claimed constant W=+1")
    verdict = check_f(-7500, 6000, 60)
    span = {root_number_f(-7500, 6000 * u + 60) for u in range(-60, 61)}
    if not (verdict.constant and verdict.sign == 1 and span == {1}):
        records.append({
            "kind": "table-vs-paper-example",
            "family": "F",
            "s": -7500,
            "a": 6000,
            "b": 60,
            "claim": "W = +1 for every integer u",
            "observed": "checker says %s; enumeration over |u| <= 60 gives %s"
                        % (verdict, sorted(span)),
            "fibres": [_fibre_f(-7500, 6000, 60, u) for u in range(0, 4)],
        })

    # synthetic cross-check: the 2-adic equal-depth lane claims constancy
    # the tables do not deliver
    checked.append("F: s=-3, t=4u+1, synthetic constancy cross-check")
    verdict = check_f(-3, 4, 1)
    witness = falsify_constancy(-3, 4, 1, 100)
    if verdict.constant and witness is not None:
        (u1, w1), (u2, w2) = witness
        lane = next(m for m in verdict.matched if m.startswith("C3"))
        records.append({
            "kind": "theorem-vs-table",
            "family": "F",
            "s": -3,
            "a": 4,
            "b": 1,
            "prime": 2,
            "condition_id": lane,
            "claim": str(verdict),
            "observed": "enumeration alternates: u=%d gives W=%+d, u=%d gives "
                        "W=%+d" % (u1, w1, u2, w2),
            "fibres": [_fibre_f(-3, 4, 1, u) for u in range(0, 4)],
        })
        row = check_f_table1(-3, 4, 1)
        records.append({
            "kind": "theorem-vs-table1",
            "family": "F",
            "s": -3,
            "a": 4,
            "b": 1,
            "prime": 2,
            "condition_id": lane,
            "claim": str(verdict),
            "observed": ("no dual-route row matches the progression while the "
                         "condition route claims constancy"
                         if row is None else
                         "dual-route row %s fires while enumeration alternates"
                         % row),
            "fibres": [_fibre_f(-3, 4, 1, u) for u in range(0, 2)],
        })

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
