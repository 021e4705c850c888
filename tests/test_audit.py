"""Pins for the audit machinery: probe sets, constancy falsification,
the worked-example cross-checks, and the disabled classical oracle.

The expected spans and witnesses below were frozen from w_star /
root_number_f enumeration before the audit code existed.
"""

import hashlib
import json

import pytest

from rootno import arith, audit, root_number
from rootno.audit import (
    FeatureDisabled,
    classical_cross_check,
    classical_local_root_number,
    falsify_constancy,
    ledger_json,
    probe_set,
    run_paper_examples,
)
from rootno.constancy import check_f, check_f_p
from rootno.families import is_singular
from rootno.local_signs import w_star
from rootno.root_number import breakdown_f, root_number_f


# ---------------------------------------------------------------------------
# falsify_constancy
# ---------------------------------------------------------------------------

def test_falsify_witness_pins():
    assert falsify_constancy(-3, 4, 1, 100) == ((0, 1), (1, -1))
    assert falsify_constancy(-28812, 7, 7, 1000) == ((0, 1), (1, -1))
    assert falsify_constancy(-972, 12, 18, 100) == ((0, -1), (1, 1))


def test_falsify_constant_progressions_return_none():
    assert falsify_constancy(-3, 8, 1, 200) is None
    assert falsify_constancy(-7500, 6000, 60, 200) is None
    assert falsify_constancy(-12, 8, 2, 200) is None


def test_falsify_skips_singular_fibres():
    # s = 4: t = 2u + 2 passes through the singular fibres t = 2 (u=0)
    # and t = -2 (u=-2); the scan steps over them
    assert falsify_constancy(4, 2, 2, 60) == ((1, -1), (3, 1))


def test_falsify_raises_on_an_unfactorable_fibre(monkeypatch):
    # s = -2 is not -3 r^2, so each fibre factors t^2 - s; with one tiny
    # ECM level the u = 0 fibre's t^2 + 2 leaves a 95-bit cofactor that
    # cannot be split, and skipping it would hide that the scan did not
    # cover u = 0
    monkeypatch.setattr(arith, "_ECM_LEVELS", ((10, 1),))
    with pytest.raises(ValueError, match="95-bit"):
        falsify_constancy(-2, 1, 870968805654166597, 5)


def test_falsify_at_minus_3_square_needs_no_factoring_of_fibres(monkeypatch):
    # the same cut schedule: for s = -3 r^2 the signs are read at the
    # primes of 6s alone, so the 85-bit cofactor of t^2 + 3 at u = 0 is
    # never split
    monkeypatch.setattr(arith, "_ECM_LEVELS", ((10, 1),))
    with pytest.raises(ValueError, match="85-bit"):
        arith.factorize(896031015877463607 ** 2 + 3)
    assert falsify_constancy(-3, 1, 896031015877463607, 5) == ((0, -1), (1, 1))


@pytest.mark.parametrize("s, a, b, expected", [
    (-972, 12, 18, ((0, -1), (1, 1))),
    (-7500, 6000, 60, None),      # the whole scan and every probe
])
def test_falsify_factors_s_once_and_no_fibre(monkeypatch, s, a, b, expected):
    calls = []

    def counted(n):
        calls.append(n)
        return arith.factorize(n)

    monkeypatch.setattr(root_number, "factorize", counted)
    root_number.primes_of_6s.cache_clear()
    assert falsify_constancy(s, a, b, 200) == expected
    assert calls.count(s) <= 1
    assert set(calls) <= {s, 6 * abs(s)}, calls


# the benchmark's progression grid: s = -3 r^2, t = a u + b
_GRID = [(-3 * r * r, a, b)
         for r in (1, 2, 3, 4, 5, 6, 7, 10, 12, 18, 25, 50)
         for a in (1, 2, 3, 4, 8, 12, 20, 40)
         for b in (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 15, -15)]


def test_witness_search_over_the_progression_grid():
    # the counts the witness search gives with check_f's verdicts over the
    # whole grid at the CLI's budget; the two known divergences are
    # Constant verdicts with a witness (all C3b) and NonConstant ones
    # without (P5 at s = -1875 and -7500)
    constant = witnessed = constant_witnessed = unwitnessed = 0
    for s, a, b in _GRID:
        verdict = check_f(s, a, b)
        witness = falsify_constancy(s, a, b, 200)
        constant += verdict.constant
        witnessed += witness is not None
        if verdict.constant and witness is not None:
            assert "C3b" in verdict.matched, (s, a, b)
            constant_witnessed += 1
        if not verdict.constant and witness is None:
            assert verdict.reason.startswith("P5"), (s, a, b, verdict)
            unwitnessed += 1
    assert len(_GRID) == 1152
    assert (constant, witnessed, constant_witnessed, unwitnessed) == \
        (302, 906, 66, 10)


def test_falsify_validation():
    with pytest.raises(ValueError):
        falsify_constancy(0, 1, 1, 10)
    with pytest.raises(ValueError):
        falsify_constancy(-3, 0, 1, 10)
    with pytest.raises(ValueError):
        falsify_constancy(-3, 1, 0, 10)


@pytest.mark.parametrize("budget", [0, -1, True, 1.0, 2.5, "200", None])
def test_falsify_rejects_a_budget_that_is_not_a_positive_int(budget):
    # unchecked, a budget of -1 walks the single fibre u = 0 on
    # t = 6000u + 60 and answers None as if it had searched; budget=1
    # computes 2
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        falsify_constancy(-7500, 6000, 60, budget)
    assert falsify_constancy(-7500, 6000, 60, 1) is None


@pytest.mark.parametrize("budget", [1, 2, 7, 200, 1365, 1366])
def test_falsify_walks_outward_then_one_ascending_run(monkeypatch, budget):
    # W is constant on t = 6000u + 60 and no fibre is singular, so every u
    # of the window is computed, in walk order
    seen = []

    def recording(s, t):
        seen.append((t - 60) // 6000)
        return root_number_f(s, t)

    monkeypatch.setattr(audit, "root_number_f", recording)
    assert falsify_constancy(-7500, 6000, 60, budget) is None
    outward = [0] + [u for k in range(1, budget) for u in (k, -k)]
    half = budget // 2
    assert seen == outward[:budget] + list(range(half + 1, half + 1 + budget))
    assert (min(seen), max(seen)) == (-((budget - 1) // 2), half + budget)


# ---------------------------------------------------------------------------
# probe_set: the probes must see every sign the progression can produce
# ---------------------------------------------------------------------------

PROBE_SPAN_PINS = [
    (2, -972, 12, 18, [-1, 1]),
    (2, -3, 4, 1, [-1, 1]),
    (2, -12, 8, 2, [1]),
    (3, -972, 12, 18, [1]),
    (5, -7500, 6000, 60, [1]),
    (7, -28812, 7, 7, [-1, 1]),
    (13, -507, 1, 1, [-1, 1]),      # deep t^2 - s lane, 13 = 1 mod 3
    (7, -588, 49, 21, [-1]),        # deep lane with varying depth, one sign
]


@pytest.mark.parametrize(
    "p,s,a,b,span",
    PROBE_SPAN_PINS,
    ids=["p%d_s%d_a%d_b%d" % (p, s, a, b) for p, s, a, b, _ in PROBE_SPAN_PINS],
)
def test_probe_set_reaches_frozen_span(p, s, a, b, span):
    us = probe_set(p, s, a, b)
    assert us == sorted(set(us))
    assert len(us) <= 4608
    assert sorted({w_star(p, s, a * u + b) for u in us}) == span
    window = {w_star(p, s, a * u + b) for u in range(-300, 301)}
    assert window <= set(span)


def test_probe_set_contains_full_residue_block():
    us = set(probe_set(3, -972, 12, 18))
    assert set(range(3**6)) <= us
    us = set(probe_set(5, -75, 1, 1))
    assert set(range(5**4)) <= us


def test_probe_set_agrees_with_closed_form_smoke():
    # smaller version of the acceptance sweep: for gated s and odd p, a
    # per-prime Constant verdict must pin the local sign on every probe.
    # The converse is NOT asserted: a failing per-prime condition only
    # promises that the global product varies, not that this particular
    # local sign does (see test_per_prime_condition_is_not_locally_sharp).
    import random
    rng = random.Random(777)
    n_const = n_nonconst = n_vary = 0
    for _ in range(60):
        r = (2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
             * 5 ** rng.randint(0, 2) * rng.choice((1, 7, 13)))
        s = -3 * r * r
        p = rng.choice((3, 5, 7))
        a = (2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
             * 5 ** rng.randint(0, 2) * rng.choice((1, 7)))
        b = (2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
             * 5 ** rng.randint(0, 2) * rng.choice((1, 5, 11)))
        verdict = check_f_p(p, s, a, b)
        span = {w_star(p, s, a * u + b) for u in probe_set(p, s, a, b)}
        assert span <= {-1, 1} and span, (p, s, a, b)
        if verdict.constant:
            n_const += 1
            assert span == {verdict.sign}, (p, s, a, b)
        else:
            n_nonconst += 1
            if span == {-1, 1}:
                n_vary += 1
    # frozen distribution for this seed; a drop in n_vary means the probe
    # set stopped reaching rows it used to reach
    assert (n_const, n_nonconst, n_vary) == (39, 21, 17)


def test_per_prime_condition_is_not_locally_sharp():
    # ν₅(s)=4 with the reduced part of s a non-residue mod 5 pins every
    # reachable table row at +1, so the local sign at 5 is constant even
    # though the p=5 progression condition fails.  The constancy verdict
    # is still correct globally: another prime carries the variation.
    s, a, b = -1267500, 210, 4950
    verdict = check_f_p(5, s, a, b)
    assert not verdict.constant
    assert "P5:p=5" in str(verdict)
    span = {w_star(5, s, a * u + b) for u in probe_set(5, s, a, b)}
    assert span == {1}
    assert falsify_constancy(s, a, b, 400) is not None


def test_probe_set_validation():
    with pytest.raises(ValueError):
        probe_set(4, -972, 12, 18)
    with pytest.raises(ValueError):
        probe_set(2, 0, 12, 18)
    with pytest.raises(ValueError):
        probe_set(2, -972, 0, 18)
    with pytest.raises(ValueError):
        probe_set(2, -972, 12, 0)


# ---------------------------------------------------------------------------
# run_paper_examples: the worked-example audit suite
# ---------------------------------------------------------------------------

def test_audit_suite_shape_and_kinds():
    out = run_paper_examples()
    assert out["suite"] == "paper-examples"
    assert len(out["checked"]) == 5
    assert [r["kind"] for r in out["records"]] == [
        "table-vs-paper-example",
        "lemma-vs-example",
        "theorem-vs-table",
        "theorem-vs-table1",
    ]
    for rec in out["records"]:
        for key in ("kind", "family", "s", "a", "b", "claim", "observed", "fibres"):
            assert key in rec, (rec["kind"], key)
        for fibre in rec["fibres"]:
            assert set(fibre) == {"u", "t", "W", "factors"}
            assert fibre["t"] == rec["a"] * fibre["u"] + rec["b"]
            prod = 1
            for w in fibre["factors"].values():
                prod *= w
            assert fibre["W"] == -prod


def test_audit_record_progression_claim():
    rec = run_paper_examples()["records"][0]
    assert rec["family"] == "F"
    assert (rec["s"], rec["a"], rec["b"]) == (-972, 12, 18)
    assert rec["prime"] == 2
    assert rec["table_row"] == "T12:diff=2"
    assert rec["claim"] == "W = -1 for every integer u"
    ws = [f["W"] for f in rec["fibres"]]
    assert -1 in ws and 1 in ws


def test_audit_record_lemma_gap():
    rec = run_paper_examples()["records"][1]
    assert rec["family"] == "L"
    assert (rec["s"], rec["a"], rec["b"]) == (-588, 4, 2)
    assert rec["w"] == 7 and rec["v"] == 1
    assert rec["condition_id"] == "L-LEM.2"
    assert rec["claim"] == "W = +1 for every integer u"
    assert all(f["W"] == 1 for f in rec["fibres"])


def test_audit_record_synthetic_divergence():
    records = run_paper_examples()["records"]
    thm = records[2]
    assert (thm["s"], thm["a"], thm["b"]) == (-3, 4, 1)
    assert thm["prime"] == 2
    assert thm["condition_id"] == "C3b"
    assert thm["claim"] == "Constant(+1) [P3.2, C3b]"
    ws = [f["W"] for f in thm["fibres"]]
    assert -1 in ws and 1 in ws
    t1 = records[3]
    assert t1["condition_id"] == "C3b"
    assert (t1["s"], t1["a"], t1["b"]) == (-3, 4, 1)
    assert "no" in t1["observed"] and "row" in t1["observed"]


def test_audit_record_constant_progression_with_the_wrong_claim(monkeypatch):
    # W = +1 on every fibre of t = 6000u + 60 at s = -7500: a claim of -1 is
    # refuted by the enumeration alone, so the record names no prime
    monkeypatch.setattr(audit, "EXAMPLES",
                        (("F", {"s": -7500}, 6000, 60, -1, 4),))
    records = run_paper_examples()["records"]
    assert len(records) == 1
    rec = records[0]
    assert rec["kind"] == "table-vs-paper-example"
    assert rec["observed"] == "enumeration over |u| <= 60 gives [1]"
    assert "prime" not in rec


def _no_floats(x):
    if isinstance(x, float):
        return False
    if isinstance(x, dict):
        return all(_no_floats(k) and _no_floats(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return all(_no_floats(v) for v in x)
    return True


def test_audit_json_is_byte_stable():
    first = ledger_json(run_paper_examples())
    second = ledger_json(run_paper_examples())
    assert first == second
    assert first.endswith("\n")
    parsed = json.loads(first)
    assert parsed["suite"] == "paper-examples"
    assert _no_floats(parsed)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_audit_ledger_golden():
    # the whole ledger, pinned: a change to any record, fibre or checked
    # line shows here, not only a change between two runs of the same code
    assert _sha256(ledger_json(run_paper_examples())) == \
        "2a50f77ad0602a12f405ecdc8db46f806c509ef84d92a98c8e9f15a0297bcdd1"


def test_audit_ledger_golden_with_classical_oracle(tmp_path, monkeypatch):
    # the synthetic data of the acceptance test for criterion 10: the
    # tables' own signs with the sign at p = 2 of (s, t) = (-972, 30)
    # flipped, so the oracle adds one classical-vs-table record
    data = {}
    for s in (-3, -75, -972, -7500, -28812):
        for t in range(-50, 51):
            if is_singular(s, t):
                continue
            for p, sign in breakdown_f(s, t).factors.items():
                data["%d:%d:%d" % (p, s, t)] = sign
    data["2:-972:30"] = -data["2:-972:30"]
    (tmp_path / "local_signs.json").write_text(json.dumps(data))
    monkeypatch.setenv("ROOTNO_CLASSICAL_DATA", str(tmp_path))
    out = run_paper_examples()
    classical_cross_check(out)
    assert _sha256(ledger_json(out)) == \
        "b5f016340d6678b88bcdc6f6cff1d313ff446bb84022021162f01293db00e21d"


# ---------------------------------------------------------------------------
# classical oracle: disabled unless pointed at a data directory
# ---------------------------------------------------------------------------

def test_classical_oracle_disabled_without_env(monkeypatch):
    monkeypatch.delenv("ROOTNO_CLASSICAL_DATA", raising=False)
    with pytest.raises(FeatureDisabled):
        classical_local_root_number(2, -972, 18)


def test_classical_oracle_disabled_without_data(monkeypatch, tmp_path):
    monkeypatch.setenv("ROOTNO_CLASSICAL_DATA", str(tmp_path))
    with pytest.raises(FeatureDisabled):
        classical_local_root_number(2, -972, 18)


def test_classical_oracle_reads_vendored_data(monkeypatch, tmp_path):
    (tmp_path / "local_signs.json").write_text(
        json.dumps({"2:-972:18": 1, "2:-972:30": -1}))
    monkeypatch.setenv("ROOTNO_CLASSICAL_DATA", str(tmp_path))
    assert classical_local_root_number(2, -972, 18) == 1
    assert classical_local_root_number(2, -972, 30) == -1
    with pytest.raises(KeyError):
        classical_local_root_number(2, -972, 42)
