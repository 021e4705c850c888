"""The rootno benchmark: one command per workload, run from the root of a
checkout.

    python3 bench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Workloads (README.md gives the inputs and why each was chosen):

  scan          rootno scan windows and single fibres at |t| in [1e5, 1e6]
  large-t       single fibres with t in [1e12, 1e14) (and the twist
                (7, -588, 1) at t in [1e6, 1e7))
  progressions  constancy decisions with witness searches over a grid of
                progressions, rank-jump reports, the audit, and small
                fibres along the progressions

Every workload runs the same four kinds of operation, each on its own
inputs: scan windows (text, JSON and CSV views of one window, through
rootno.cli.main in-process), single fibres each timed on its own,
progression decisions, and the audit. The inputs are fixed per workload
and ordered by the seed (see make_inputs). A round runs every operation
once, and rounds repeat until --seconds have passed (at least MIN_ROUNDS
of them). Each timing metric is built from each operation's upper
quartile of its times over the rounds (see upper_quartile).

The first round's outputs are checked, outside the timed regions, against
the independent checks of reference.py and the progression checks below;
later rounds must reproduce them exactly. The last line of stdout is one
JSON object: correct, attempted, failed and metrics (end-to-end with
--trace 0, per-layer with --trace 1). The line before it reports the
divergences tallied in the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import reference as ref  # noqa: E402  (bench/ is on sys.path as the script dir)

WITNESS_BUDGET = 200      # what `rootno check` uses
MIN_ROUNDS = 3            # untraced runs: each quartile is over 3+ rounds

# The progression grid: s = -3 r^2 for r in GRID_R (the s of the worked
# examples among them), t = a*u + b for (a, b) in GRID_A x GRID_B.
GRID_R = (1, 2, 3, 4, 5, 6, 7, 10, 12, 18, 25, 50)
GRID_A = (1, 2, 3, 4, 8, 12, 20, 40)
GRID_B = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 15, -15)
GRID = [(-3 * r * r, a, b) for r in GRID_R for a in GRID_A for b in GRID_B]

# The rank-jump grid: s = -12 q^4, with a and b carrying powers of 2 and q
# so the deep lanes of the forced-sign lists are reached.
QUARTIC = [(q, 2 ** i * q ** j, c * q ** k)
           for q in (5, 7, 11, 13)
           for i in (0, 2, 3, 5) for j in (0, 1, 2)
           for c in (1, -1, 2, 3, -3, 4, 6, 8, 12, 24) for k in (0, 1)]

# What one round of each workload runs, besides three audits: scan windows
# (count and rows), single F and L fibres, progression decisions of
# s = -3r^2 and rank-jump reports of s = -12q^4 (taken evenly from the
# grids). Every workload runs every kind, so it reports every metric; its
# purpose sets which kind does most of the work.
WORKLOADS = {
    "scan": dict(windows=2, rows=500, f_fibres=200, l_fibres=0,
                 progressions=32, quartic=32),
    "large-t": dict(windows=3, rows=4, f_fibres=80, l_fibres=20,
                    progressions=32, quartic=32),
    "progressions": dict(windows=4, rows=50, f_fibres=100, l_fibres=0,
                         progressions=len(GRID) // 3, quartic=len(QUARTIC) // 3),
}


# ----------------------------------------------------------------- inputs

def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if ref.is_probable_prime(n):
            return n


def big_s(rng: random.Random) -> int:
    """A negative s whose |s| has a prime factor above 2^16."""
    return -rng.choice((1, 2, 3, 5, 6, 7, 10)) * _prime_between(rng, 1 << 17, 1 << 22)


def grid_part(grid: list, count: int) -> list:
    """count entries of grid spread evenly over it (all of it at len(grid))."""
    step = len(grid) / count
    return [grid[int(i * step)] for i in range(count)]


def make_inputs(workload: str, seed: int) -> dict:
    """The operations of one round, the same in every round of the run.

    The windows and fibres are a fixed draw per workload, and the grids are
    fixed; the seed orders every list of operations. A seeded draw would
    move the metrics more than their bounds: with the least time of each
    fibre measured on the same machine at the same moment, the median time
    of 200 scan fibres moves by 19% (quartile spread) from one seed to the
    next, and resampling measured large-t fibre times shows 10% for a draw
    of 1000 (their cost is heavy-tailed, from ECM).
    """
    cfg = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    draw = random.Random("%s inputs" % workload)
    progs = grid_part(GRID, cfg["progressions"])
    rows = cfg["rows"]
    windows, fibres = [], []
    for i in range(cfg["windows"]):
        if workload == "progressions":
            # along a progression of the grid: |t| up to about 2000
            s, a, b = draw.choice(GRID)
        else:
            s = -972 if i % 2 == 0 else big_s(draw)
            if workload == "large-t":
                a, b = 1, draw.randrange(10**12, 10**14 - rows)
            else:
                a = draw.randrange(1, 41)
                b = draw.randrange(10**5, 10**6 - a * rows)
        windows.append((s, a, b, 0, rows - 1))
    lo, hi = (10**12, 10**14) if workload == "large-t" else (10**5, 10**6)
    for i in range(cfg["f_fibres"]):
        if workload == "progressions":
            s, a, b = draw.choice(GRID)
            fibres.append(("f", s, a * draw.randrange(100) + b))
        else:
            s = -972 if i % 2 else big_s(draw)
            fibres.append(("f", s, draw.randrange(lo, hi)))
    for _ in range(cfg["l_fibres"]):
        fibres.append(("l", 7, -588, 1, draw.randrange(10**6, 10**7)))
    quartic = grid_part(QUARTIC, cfg["quartic"])
    for ops in (windows, fibres, progs, quartic):
        rng.shuffle(ops)
    return {
        "windows": windows,
        "fibres": fibres,
        "progressions": progs,
        "quartic": quartic,
        "sample": random.Random(rng.random()),
    }


# -------------------------------------------------------------- the run

class Run:
    """Timings, check results and divergence tallies of one run."""

    def __init__(self, rn, tracer=None):
        self.rn = rn
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # seconds of every operation in every round, keyed by (kind, inputs)
        self.seconds: dict[tuple, list] = {}
        # first-round answer of every operation, which later rounds repeat
        self.answers: dict[tuple, object] = {}
        self.tally = {"c3b_constant_witnessed": 0,
                      "nonconstant_without_witness": 0,
                      "constant_verdicts": 0, "witness_pairs": 0,
                      "checked_local_signs_p5": 0, "scaled_fibres": 0}

    # -- timing ---------------------------------------------------------
    def timed(self, key: tuple, fn, *args):
        """Run one operation, record its seconds under key and return its
        result. An operation that raises is counted as failed and gives
        None; it does not make the run incorrect, since correctness speaks
        of the operations that completed."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on = True
        begin = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted as failed, reported, not fatal
            self.failed += 1
            print("failed: %r raised %s: %s" % (key, type(exc).__name__, exc),
                  file=sys.stderr)
            result = None
        finally:
            elapsed = time.perf_counter() - begin
            if tracer is not None:
                tracer.on = False
        if result is not None:
            self.seconds.setdefault(key, []).append(elapsed)
        return result

    def repeat(self, key: tuple, answer) -> bool:
        """Record the first answer of key; on later rounds check it is
        reproduced. True when the answer still has to be checked."""
        if key not in self.answers:
            self.answers[key] = answer
            return True
        if self.answers[key] != answer:
            self.note("%r gave a different answer than in the first round"
                      % (key,))
        return False

    def quartile_s(self, kind: str) -> dict:
        """Each operation of a kind, with the upper quartile of its seconds
        over the rounds."""
        return {key: upper_quartile(v) for key, v in self.seconds.items()
                if key[0] == kind}

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            print("problem: " + message, file=sys.stderr)
        self.problems.append(message)

    def check(self, problems) -> None:
        for message in problems:
            self.note(message)

    # -- independent checks on one fibre ----------------------------------
    def check_fibre(self, s: int, t: int, w: int, factors: dict,
                    scale: bool) -> None:
        primes = sorted(factors)
        self.check(ref.factor_base_problems(s, t, primes))
        self.check(ref.sign_problems(w, factors.values()))
        self.check(ref.rohrlich_problems(s, t, factors))
        self.tally["checked_local_signs_p5"] += sum(p >= 5 for p in primes)
        if scale:
            self.check_scaling(s, t, w)

    def check_scaling(self, s: int, t: int, w: int) -> None:
        scaled = {lam: self.rn.root_number_f(*ref.scaled_fibre(s, t, lam))
                  for lam in (2, 3)}
        self.tally["scaled_fibres"] += 2
        self.check(ref.scaling_problems(s, t, w, scaled))

    # -- operation kinds -----------------------------------------------
    def scan_window(self, window: tuple, sample: set) -> None:
        s, a, b, u_min, u_max = window
        views = {}
        for fmt, flag in (("text", []), ("json", ["--json"]), ("csv", ["--csv"])):
            argv = ["scan", "--s", str(s), "--a", str(a), "--b", str(b),
                    "--u-min", str(u_min), "--u-max", str(u_max)] + flag
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    return self.rn.cli.main(argv)
            code = self.timed((fmt, window), call)
            if code is None:
                continue
            if self.tracer is not None:
                self.tracer.stdout_bytes += len(out.getvalue())
            if code != 0:
                self.note("scan %s exited %r: %s" % (fmt, code, err.getvalue()[:200]))
                continue
            views[fmt] = (out.getvalue(), err.getvalue())
        digest = hashlib.sha256()
        for fmt in sorted(views):
            for text in views[fmt]:
                digest.update(text.encode())
        digest = digest.hexdigest()
        if self.repeat(("window", window), digest) and len(views) == 3:
            self.check(self.window_problems(s, a, b, u_min, u_max, views, sample))

    def window_problems(self, s, a, b, u_min, u_max, views, sample) -> list:
        problems = []
        doc = json.loads(views["json"][0])
        rows = doc["rows"]
        if [r["u"] for r in rows] != list(range(u_min, u_max + 1)):
            return ["JSON scan rows do not cover u in [%d, %d]" % (u_min, u_max)]
        for r in rows:
            if r["t"] != a * r["u"] + b or r["singular"]:
                problems.append("JSON row %r has the wrong t or is singular" % r["u"])
                continue
            factors = {int(p): w for p, w in r["factors"].items()}
            self.check_fibre(s, r["t"], r["W"], factors, r["u"] in sample)
        # text view: one line per row, then the summary
        lines = views["text"][0].splitlines()
        expect = ["u=%d t=%d W=%s" % (r["u"], r["t"], "+1" if r["W"] == 1 else "-1")
                  for r in rows]
        plus = sum(r["W"] == 1 for r in rows)
        minus = len(rows) - plus
        average = str(Fraction(plus - minus, plus + minus))
        expect.append("summary: plus=%d minus=%d singular=0 average=%s"
                      % (plus, minus, average))
        if lines != expect:
            problems.append("text scan disagrees with the JSON view at s=%d a=%d b=%d"
                            % (s, a, b))
        if doc["summary"] != {"plus": plus, "minus": minus, "singular": 0,
                              "average": average}:
            problems.append("JSON summary disagrees with its rows")
        # CSV view: W = -prod(every w column), and each column is the row's
        # local sign (+1 off its factor base)
        table = csv.reader(io.StringIO(views["csv"][0]))
        header = next(table)
        cols = [int(h[2:]) for h in header[4:]]
        if header[:4] != ["u", "t", "singular", "W"]:
            return problems + ["CSV header is wrong"]
        index = {p: i for i, p in enumerate(cols)}
        count = 0
        for r, line in zip(rows, table):
            count += 1
            cells = line[4:]
            negative = cells.count("-1")
            if cells.count("1") + negative != len(cells):
                problems.append("CSV row u=%d has a sign that is not +1 or -1"
                                % r["u"])
                continue
            if line[3] != str(-(-1) ** negative):
                problems.append("CSV row u=%d: W = %s but -prod(w columns) = %+d"
                                % (r["u"], line[3], -(-1) ** negative))
            minus_at = sorted(int(p) for p, w in r["factors"].items() if w == -1)
            found, at = [], -1
            for _ in range(negative):
                at = cells.index("-1", at + 1)
                found.append(cols[at])
            if line[:4] != [str(r["u"]), str(r["t"]), "false", str(r["W"])] \
                    or found != minus_at \
                    or any(int(p) not in index for p in r["factors"]):
                problems.append("CSV row u=%d disagrees with the JSON view" % r["u"])
        if count != len(rows) or next(table, None) is not None:
            problems.append("CSV row count is wrong")
        if views["csv"][1].strip() != expect[-1]:
            problems.append("CSV summary on stderr disagrees with the rows")
        return problems

    def single_fibre(self, fibre: tuple, scale: bool) -> None:
        rn = self.rn
        if fibre[0] == "f":
            _, s, t = fibre
            bd = self.timed(("fibre", fibre), rn.breakdown_f, s, t)
            S, T = s, t
        else:
            _, w, s, v, t = fibre
            bd = self.timed(("fibre", fibre), rn.breakdown_l, w, s, v, t)
            S, T = s * w * w, w * (t * t + v)
        if bd is None or not self.repeat(("fibre", fibre), bd):
            return
        if (bd.s, bd.t) != (S, T):
            self.note("breakdown reduced to (%d, %d), expected (%d, %d)"
                      % (bd.s, bd.t, S, T))
        self.check_fibre(S, T, bd.w, bd.factors, scale)

    def decide(self, s, a, b):
        """What `rootno check --table1` computes (the verdict, the lookup
        route, a witness search), with the search run on every verdict:
        on a Constant one it must come back empty."""
        verdict = self.rn.check_f(s, a, b)
        row = self.rn.check_f_table1(s, a, b)
        return verdict, row, self.rn.falsify_constancy(s, a, b, WITNESS_BUDGET)

    def progression(self, s, a, b) -> None:
        got = self.timed(("decision", s, a, b), self.decide, s, a, b)
        if got is None:
            return
        verdict, row, witness = got
        if not self.repeat(("decision", s, a, b), (str(verdict), row, witness)):
            return
        if verdict.constant:
            self.tally["constant_verdicts"] += 1
            if witness is not None:
                if "C3b" in verdict.matched:
                    self.tally["c3b_constant_witnessed"] += 1
                else:
                    self.note("check_f(%d, %d, %d) = %s, yet %r is a witness"
                              % (s, a, b, verdict, witness))
        elif witness is None:
            self.tally["nonconstant_without_witness"] += 1
        if witness is not None:
            self.tally["witness_pairs"] += 1
            (_, w1), (_, w2) = witness
            if w1 == w2:
                self.note("witness pair %r has equal signs" % (witness,))
            for u, w in witness:
                bd = self.rn.breakdown_f(s, a * u + b)
                if bd.w != w:
                    self.note("witness W=%+d at u=%d, but W=%+d" % (w, u, bd.w))
                self.check_fibre(s, a * u + b, w, bd.factors, True)

    def rank_jump(self, q, a, b) -> None:
        rn = self.rn
        s = -12 * q ** 4

        def op():
            report = rn.rank_jump_report(s, a, b)
            general = {p: rn.forced_sign(p, s, a, b) for p in (2, 3, q)}
            return report, general, rn.forced_sign_kq(q, a, b)
        got = self.timed(("decision", q, a, b), op)
        if got is None or not self.repeat(("decision", q, a, b), got):
            return
        report, general, kq = got
        if general != kq:
            self.note("forced_sign %r != forced_sign_kq %r at q=%d a=%d b=%d"
                      % (general, kq, q, a, b))
        if report.get("per_prime") != general or report["generic_rank"] != 1:
            self.note("rank_jump_report(%d, %d, %d) disagrees with forced_sign"
                      % (s, a, b))

    def audit(self) -> None:
        rn = self.rn
        ledger = self.timed(("audit",),
                            lambda: rn.ledger_json(rn.run_paper_examples()))
        if ledger is not None:
            # the ledger must be byte-identical on every repeat in the run
            self.repeat(("audit",), ledger)

    def round(self, inputs: dict) -> None:
        # start each round from a collected heap, so a full collection of
        # the previous round's garbage does not land in a timed operation
        gc.collect()
        # the audits run between the other kinds, so their quartile is
        # taken over moments spread across the round
        self.audit()
        for window in inputs["windows"]:
            _, _, _, u_min, u_max = window
            sample = set(inputs["sample"].sample(range(u_min, u_max + 1), 2))
            self.scan_window(window, sample)
        self.audit()
        for i, fibre in enumerate(inputs["fibres"]):
            self.single_fibre(fibre, scale=i % 10 == 0)
        self.audit()
        for s, a, b in inputs["progressions"]:
            self.progression(s, a, b)
        for q, a, b in inputs["quartic"]:
            self.rank_jump(q, a, b)


# -------------------------------------------------------------- metrics

def upper_quartile(seconds: list) -> float:
    """The time an operation takes in a typical stretch of the run.

    On the shared machine the benchmark was built on, every operation runs
    about 1.8x faster in quick stretches that come and go over tens of
    seconds to minutes, and how much of a run falls in them varies from
    run to run.
    An operation's least time over the rounds depends on whether the run
    caught a quick stretch at all, and its median on whether half of the
    run did. The upper quartile moves only when three quarters of a run is
    quick. Over 25 runs of 35 s (ten each of scan and progressions, five
    of large-t), the timing metrics built from least times spread by
    0.10-0.30 of their median (quartile distance), from medians by
    0.05-0.16, and from upper quartiles by 0.02-0.09.
    """
    return statistics.quantiles(seconds, n=4, method="inclusive")[2]


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports rootno and builds the
    CLI parser (rootno --help)."""
    code = ("from rootno.cli import main\n"
            "try:\n    main(['--help'])\nexcept SystemExit:\n    pass\n")
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=SRC),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - begin


def end_to_end(run: Run, setup_s: float) -> dict:
    def rows_per_s(fmt):
        quartile = run.quartile_s(fmt)
        rows = sum(key[1][4] - key[1][3] + 1 for key in quartile)
        return rows / sum(quartile.values())

    fibre_ms = sorted(v * 1e3 for v in run.quartile_s("fibre").values())
    deciles = statistics.quantiles(fibre_ms, n=10)
    decisions = run.quartile_s("decision")
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "fibres_per_s": (rows_per_s("text"), "fibres/s"),
        "json_fibres_per_s": (rows_per_s("json"), "fibres/s"),
        "csv_rows_per_s": (rows_per_s("csv"), "rows/s"),
        "fibre_ms_p50": (statistics.median(fibre_ms), "ms"),
        "fibre_ms_p90": (deciles[8], "ms"),
        "progressions_per_s": (len(decisions) / sum(decisions.values()), "1/s"),
        "audit_s": (upper_quartile(run.seconds[("audit",)]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, rounds: int) -> dict:
    agg = tracer.aggregate()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return agg.get(name, empty)

    le, gt = span("arith.factorize.le64"), span("arith.factorize.gt64")
    falsify = span("audit.falsify_constancy")
    values = {
        "arith.factorize.calls": (le["calls"] + gt["calls"], "calls/round"),
        "arith.factorize.s": (le["s"] + gt["s"], "s/round"),
        "arith.factorize.le64.calls": (le["calls"], "calls/round"),
        "arith.factorize.le64.s": (le["s"], "s/round"),
        "arith.factorize.gt64.calls": (gt["calls"], "calls/round"),
        "arith.factorize.gt64.s": (gt["s"], "s/round"),
        "arith.is_prime.calls": (span("arith.is_prime")["calls"], "calls/round"),
        "arith.is_prime.s": (span("arith.is_prime")["s"], "s/round"),
        "arith.valuation.calls": (span("arith.valuation")["calls"], "calls/round"),
        "arith.valuation.s": (span("arith.valuation")["s"], "s/round"),
        "arith.legendre.calls": (span("arith.legendre")["calls"], "calls/round"),
        "arith.legendre.s": (span("arith.legendre")["s"], "s/round"),
        "families.l_to_f.calls": (span("families.l_to_f")["calls"], "calls/round"),
        "local_signs.w_star.calls": (span("local_signs.w_star")["calls"],
                                     "calls/round"),
        "local_signs.w_star.self_s": (span("local_signs.w_star")["self_s"],
                                      "s/round"),
        "root_number.factor_base.calls": (span("root_number.factor_base")["calls"],
                                          "calls/round"),
        "root_number.factor_base.self_s": (
            span("root_number.factor_base")["self_s"], "s/round"),
        "root_number.breakdown_f.self_s": (
            span("root_number.breakdown_f")["self_s"], "s/round"),
        "root_number.breakdown_l.calls": (span("root_number.breakdown_l")["calls"],
                                          "calls/round"),
        "constancy.check_f.calls": (span("constancy.check_f")["calls"],
                                    "calls/round"),
        "constancy.check_f.s": (span("constancy.check_f")["s"], "s/round"),
        "constancy.check_f_table1.s": (span("constancy.check_f_table1")["s"],
                                       "s/round"),
        "rank_jump.rank_jump_report.calls": (
            span("rank_jump.rank_jump_report")["calls"], "calls/round"),
        "rank_jump.rank_jump_report.s": (
            span("rank_jump.rank_jump_report")["s"], "s/round"),
        "audit.falsify_constancy.calls": (falsify["calls"], "calls/round"),
        "audit.falsify_constancy.self_s": (falsify["self_s"], "s/round"),
        "audit.probe_set.calls": (span("audit.probe_set")["calls"], "calls/round"),
        "audit.probe_set.s": (span("audit.probe_set")["s"], "s/round"),
        "audit.run_paper_examples.s": (span("audit.run_paper_examples")["s"],
                                       "s/round"),
        "cli.main.self_s": (span("cli.main")["self_s"], "s/round"),
        "cli.stdout_bytes": (tracer.stdout_bytes, "B/round"),
    }
    out = {k: {"value": v / rounds, "unit": u} for k, (v, u) in values.items()}
    info = tracer.is_prime_cache.cache_info()
    lookups = info.hits + info.misses
    out["arith.is_prime.hit_ratio"] = {
        "value": info.hits / lookups if lookups else 0.0, "unit": "ratio"}
    out["arith.is_prime.cache_entries"] = {"value": info.currsize, "unit": "count"}
    out["audit.falsify_constancy.fibres"] = {
        "value": agg["audit.falsify_constancy.fibres"] / falsify["calls"]
        if falsify["calls"] else 0.0, "unit": "fibres/call"}
    for table, hits in tracer.table_hits.items():
        out["local_signs.table.%s.hits" % table] = {"value": hits / rounds,
                                                    "unit": "hits/round"}
    return out


# ----------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rootno", "__init__.py")):
        print("bench: no rootno source under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rootno
    import rootno.cli

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup_seconds()  # warm-up: not counted

    inputs = make_inputs(args.workload, args.seed)
    run = Run(rootno, tracer)
    rounds = 0
    begin = time.perf_counter()
    if tracer is not None:
        # every round runs the same operations, so the traced run records
        # one: its counts and seconds are the per-layer metrics
        run.round(inputs)
        rounds = 1
    else:
        # one set-up after every round, so the set-up times are spread over
        # the run like the operations' times, not taken in one stretch
        setups = []
        while rounds < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
            run.round(inputs)
            rounds += 1
            setups.append(setup_seconds())

    if tracer is not None:
        metrics = per_layer(tracer, rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, "%s.spans" % args.workload))
    else:
        metrics = end_to_end(run, statistics.median(setups))
    # the timed operations' seconds per round, traced or not: the ratio of
    # the two is the tracing overhead
    op_s = sum(sum(v) for v in run.seconds.values()) / rounds
    report = dict(run.tally, rounds=rounds, problems=len(run.problems),
                  op_seconds_per_round=round(op_s, 4))
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
