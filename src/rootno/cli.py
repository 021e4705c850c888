"""Command line front end.

Subcommands: root-number (one fibre, with per-prime breakdown), check
(constancy of the sign on t = a*u + b), scan (a window of fibres as
text/CSV/JSON), rank-jump (conditional rank prediction for the quartic
shape), audit (re-derive the worked-example claims and print the
divergence ledger), search (constant progressions in a box).

scan's text view prints only W, so it takes its rows from window_signs,
which factors no t^2 - s in full; the JSON and CSV views list every prime
of t^2 - s and take window_breakdowns.

Exit codes: 0 success, constant verdict, or empty audit ledger;
1 non-constant verdict; 2 singular fibre; 3 audit ledger has records;
64 usage or malformed arguments, an unfactorable fibre, or malformed
oracle data: every ValueError reaches ``main``, which prints it. The
parser is built once per process.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .arith import as_minus_3_square, require_nonzero_int, require_positive_int
from .audit import (FeatureDisabled, classical_cross_check, falsify_constancy,
                    ledger_json, run_paper_examples)
from .constancy import check_f, check_f_table1
from .families import is_singular, l_to_f
from .rank_jump import rank_jump_report
from .root_number import breakdown_f, window_breakdowns, window_signs

EXIT_OK = 0
EXIT_NONCONSTANT = 1
EXIT_SINGULAR = 2
EXIT_RECORDS = 3
EXIT_USAGE = 64

_WITNESS_BUDGET = 200


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _sign_text(w) -> str:
    return "+1" if w == 1 else "-1"


def _print_factors(factors) -> None:
    for p in sorted(factors):
        print("  %d: %s" % (p, _sign_text(factors[p])))


# ---------------------------------------------------------------------------
# root-number
# ---------------------------------------------------------------------------

def cmd_root_number(args) -> int:
    if args.family == "l":
        if args.w is None or args.v is None:
            raise ValueError("--family l needs --w and --v")
        S, T = l_to_f(args.w, args.s, args.v, args.t)
    else:
        if args.w is not None or args.v is not None:
            raise ValueError("--w/--v only apply to --family l")
        S, T = args.s, args.t
    if is_singular(S, T):
        print("singular fibre (s=%d, t=%d)" % (S, T), file=sys.stderr)
        return EXIT_SINGULAR
    bd = breakdown_f(S, T)
    if args.json:
        record = {"family": args.family, "s": args.s, "t": args.t}
        if args.family == "l":
            record["w"] = args.w
            record["v"] = args.v
            record["reduced_s"] = S
            record["reduced_t"] = T
        record["W"] = bd.w
        record["factors"] = bd.factors
        print(json.dumps(record))
        return EXIT_OK
    print("W = %s" % _sign_text(bd.w))
    if args.family == "l":
        print("reduced: s = %d, t = %d" % (S, T))
    _print_factors(bd.factors)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    require_nonzero_int("s", args.s)
    verdict = check_f(args.s, args.a, args.b)
    row = None
    if args.table1 and as_minus_3_square(args.s) is not None:
        row = check_f_table1(args.s, args.a, args.b)
    witnesses = None
    if not verdict.constant:
        pair = falsify_constancy(args.s, args.a, args.b, _WITNESS_BUDGET)
        if pair is not None:
            witnesses = [
                {"u": u, "t": args.a * u + args.b, "W": w} for u, w in pair
            ]
    if args.json:
        record = {
            "constant": verdict.constant,
            "sign": verdict.sign,
            "matched": list(verdict.matched),
            "reason": verdict.reason,
            "witnesses": witnesses,
        }
        if args.table1:
            record["table1_row"] = row
        print(json.dumps(record))
        return EXIT_OK if verdict.constant else EXIT_NONCONSTANT
    print(str(verdict))
    if args.table1:
        print("table route: %s" % (row if row is not None else "no matching row"))
    if verdict.constant:
        return EXIT_OK
    if witnesses is not None:
        for rec in witnesses:
            print("witness: W = %s at u=%d (t=%d)"
                  % (_sign_text(rec["W"]), rec["u"], rec["t"]))
    else:
        print("no witness fibre found within the search budget")
    print("see: rootno audit --suite paper-examples")
    return EXIT_NONCONSTANT


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    if args.u_min > args.u_max:
        raise ValueError("--u-min must not exceed --u-max")
    require_positive_int("--jobs", args.jobs)
    us = range(args.u_min, args.u_max + 1)
    # only the JSON and CSV views list the primes of each row; the text
    # view needs W alone, which window_signs reads without factoring t^2 - s
    # in full
    listed = args.json or args.csv
    window = window_breakdowns if listed else window_signs
    # a fork pool starts every worker at once: none beyond the rows or CPUs
    n = min(args.jobs, len(us), os.cpu_count() or 1)
    if n == 1:
        fibres = window(args.s, args.a, args.b, args.u_min, args.u_max)
    else:
        # imported here: the process pool costs about 15 ms of start-up
        from concurrent.futures import ProcessPoolExecutor
        # one contiguous sub-window per worker, each settled on its own;
        # the ordered map keeps the output byte-identical for any job count
        cuts = [args.u_min + len(us) * i // n for i in range(n + 1)]
        with ProcessPoolExecutor(max_workers=n) as pool:
            fibres = [bd for part in pool.map(
                window, [args.s] * n, [args.a] * n, [args.b] * n,
                cuts[:-1], [c - 1 for c in cuts[1:]]) for bd in part]
    signs = [bd and bd.w for bd in fibres] if listed else fibres
    plus, minus = signs.count(1), signs.count(-1)
    singular = signs.count(None)
    average = Fraction(plus - minus, plus + minus) if plus + minus else None
    summary = ("summary: plus=%d minus=%d singular=%d average=%s"
               % (plus, minus, singular,
                  average if average is not None else "n/a"))
    if not listed:
        write = sys.stdout.write
        for u, w in zip(us, signs):
            if w is None:
                write("u=%d t=%d singular\n" % (u, args.a * u + args.b))
            else:
                write("u=%d t=%d W=%s\n"
                      % (u, args.a * u + args.b, _sign_text(w)))
        print(summary)
        return EXIT_OK
    rows = [{"u": u, "t": args.a * u + args.b, "singular": True, "W": None,
             "factors": {}} if bd is None else
            {"u": u, "t": bd.t, "singular": False, "W": bd.w,
             "factors": bd.factors}
            for u, bd in zip(us, fibres)]
    if args.json:
        doc = {
            "s": args.s, "a": args.a, "b": args.b,
            "u_min": args.u_min, "u_max": args.u_max,
            "rows": rows,
            "summary": {"plus": plus, "minus": minus, "singular": singular,
                        "average": str(average) if average is not None else None},
        }
        print(json.dumps(doc))
        return EXIT_OK
    base = sorted({p for r in rows for p in r["factors"]})
    col = {p: i for i, p in enumerate(base)}
    # a union prime outside this fibre's base does not divide
    # 6 s (t^2 - s), so its local sign is +1: a row sets only its -1s
    ones = ["1"] * len(base)
    # every field is an int, true/false, empty or w_<p>, so no cell
    # needs quoting; each line is written as it is made, never the
    # whole document, which reaches 200 MB at 10^4 rows
    write = sys.stdout.write
    write(",".join(["u", "t", "singular", "W"]
                   + ["w_%d" % p for p in base]) + "\n")
    for r in rows:
        if r["singular"]:
            write("%d,%d,true,%s\n" % (r["u"], r["t"], "," * len(base)))
            continue
        cells = ones.copy()
        for p, sign in r["factors"].items():
            if sign == -1:
                cells[col[p]] = "-1"
        write("%d,%d,false,%d,%s\n"
              % (r["u"], r["t"], r["W"], ",".join(cells)))
    print(summary, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank-jump / audit / search
# ---------------------------------------------------------------------------

def cmd_rank_jump(args) -> int:
    report = rank_jump_report(args.s, args.a, args.b)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_audit(args) -> int:
    out = run_paper_examples()
    if args.with_classical_oracle:
        try:
            classical_cross_check(out)
        except FeatureDisabled:
            print("rootno: classical oracle has no data; skipping oracle rows",
                  file=sys.stderr)
    sys.stdout.write(ledger_json(out))
    return EXIT_RECORDS if out["records"] else EXIT_OK


def cmd_search(args) -> int:
    require_nonzero_int("s", args.s)
    require_positive_int("--a-max", args.a_max)
    require_positive_int("--b-max", args.b_max)
    for a in range(1, args.a_max + 1):
        for b in range(1, args.b_max + 1):
            verdict = check_f(args.s, a, b)
            if verdict.constant:
                print("a=%d b=%d %s" % (a, b, verdict))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rootno", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    progression = argparse.ArgumentParser(add_help=False)
    for flag in ("--s", "--a", "--b"):
        progression.add_argument(flag, type=int, required=True)

    p = sub.add_parser("root-number", help="root number of one fibre")
    p.add_argument("--family", choices=("f", "l"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--w", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_root_number)

    p = sub.add_parser("check", help="constancy of the sign on t = a*u + b",
                       parents=[progression])
    p.add_argument("--table1", action="store_true",
                   help="also print the table-lookup route")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="scan a window of fibres",
                       parents=[progression])
    p.add_argument("--u-min", type=int, required=True)
    p.add_argument("--u-max", type=int, required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default: 1)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("rank-jump", help="conditional rank-jump report",
                       parents=[progression])
    p.set_defaults(func=cmd_rank_jump)

    p = sub.add_parser("audit", help="re-derive worked-example claims")
    p.add_argument("--suite", choices=("paper-examples",), required=True)
    p.add_argument("--with-classical-oracle", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("search", help="constant progressions in a box")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a-max", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("rootno: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
