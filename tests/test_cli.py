"""End-to-end tests of the `rootno` CLI.

The tests drive `rootno.cli` as `python -m rootno.cli` through the running
interpreter, so they need no install step.  The child process imports the
same `rootno` as this one: the directory holding the imported package goes
first on its PYTHONPATH.  One test checks the installed `rootno` console
script against that route, and skips where no such script is on PATH.
"""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootno
from rootno import arith, cli, root_number
from rootno.root_number import breakdown_f, root_number_f, window_breakdowns

PACKAGE_ROOT = str(Path(rootno.__file__).resolve().parents[1])


def cli_env(env=None):
    merged = dict(os.environ)
    merged.pop("ROOTNO_CLASSICAL_DATA", None)
    if env:
        merged.update(env)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_ROOT, merged.get("PYTHONPATH"))))
    return merged


def run_cli(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "rootno.cli", *argv],
                          capture_output=True, text=True, env=cli_env(env))


# ---------------------------------------------------------------------------
# root-number
# ---------------------------------------------------------------------------

def test_root_number_fibre_text():
    r = run_cli("root-number", "--family", "f", "--s", "-972", "--t", "18")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "W = -1"
    assert "  2: +1" in lines
    assert "  3: +1" in lines


def test_root_number_singular_fibre():
    r = run_cli("root-number", "--family", "f", "--s", "4", "--t", "2")
    assert r.returncode == 2
    assert "singular" in r.stderr


def test_root_number_twist_json_carries_reduction():
    r = run_cli("root-number", "--family", "l", "--w", "7", "--s", "-588",
                "--v", "1", "--t", "6", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["family"] == "l"
    assert doc["reduced_s"] == -28812
    assert doc["reduced_t"] == 259
    assert doc["W"] == 1
    assert doc["factors"]["7"] == -1


def test_root_number_usage_errors():
    assert run_cli("root-number", "--family", "f", "--s", "-3").returncode == 64
    assert run_cli("root-number", "--family", "l", "--s", "-588",
                   "--t", "6").returncode == 64
    assert run_cli("root-number", "--family", "f", "--s", "-3", "--t", "1",
                   "--w", "7").returncode == 64


@pytest.mark.parametrize("argv", [
    ("root-number", "--family", "f", "--t", "1"),
    ("scan", "--a", "1", "--b", "1", "--u-min", "0", "--u-max", "1"),
    ("check", "--a", "1", "--b", "1"),
])
def test_unfactorable_fibre_is_a_usage_error(monkeypatch, capsys, argv):
    # in-process, so the ECM schedule can be cut to one tiny level: s is
    # a product of two 40-bit primes that no level then splits
    monkeypatch.setattr(arith, "_ECM_LEVELS", ((10, 1),))
    s = -549755826233 * 1099511529101
    assert cli.main([*argv, "--s", str(s)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("rootno: error: cannot split a 79-bit")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_constant_progression():
    r = run_cli("check", "--s", "-7500", "--a", "6000", "--b", "60")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "Constant(+1) [P5.1(p=5), P3.2, C3d]"


def test_check_rejects_ungated_s_as_nonconstant():
    r = run_cli("check", "--s", "12", "--a", "1", "--b", "1")
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "NonConstant: s not of form -3r^2"


def test_check_nonconstant_prints_witness_fibres():
    r = run_cli("check", "--s", "-972", "--a", "12", "--b", "18")
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "NonConstant: C3"
    assert "witness: W = -1 at u=0 (t=18)" in lines
    assert "witness: W = +1 at u=1 (t=30)" in lines
    assert lines[-1] == "see: rootno audit --suite paper-examples"


def test_check_table1_route_is_printed_separately():
    r = run_cli("check", "--s", "-7500", "--a", "6000", "--b", "60",
                "--table1")
    assert r.returncode == 0
    assert "table route: T1.row-5" in r.stdout.splitlines()
    # the known divergence: the condition route says constant, the
    # table route finds no matching row; both must stay visible
    r = run_cli("check", "--s", "-3", "--a", "4", "--b", "1", "--table1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "Constant(+1) [P3.2, C3b]"
    assert "table route: no matching row" in lines
    # outside the -3r^2 gate the table route has no row, and the verdict
    # and witnesses are printed as without --table1
    r = run_cli("check", "--s", "12", "--a", "1", "--b", "1", "--table1")
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[:2] == ["NonConstant: s not of form -3r^2",
                         "table route: no matching row"]
    assert "witness: W = +1 at u=0 (t=1)" in lines
    r = run_cli("check", "--s", "12", "--a", "1", "--b", "1", "--table1",
                "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["reason"] == "s not of form -3r^2"
    assert doc["table1_row"] is None
    assert doc["witnesses"] == [{"u": 0, "t": 1, "W": 1},
                                {"u": 1, "t": 2, "W": -1}]


def test_check_json_shape():
    r = run_cli("check", "--s", "-972", "--a", "12", "--b", "18", "--json")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["constant"] is False
    assert doc["sign"] is None
    assert doc["reason"] == "C3"
    assert doc["witnesses"] == [
        {"u": 0, "t": 18, "W": -1},
        {"u": 1, "t": 30, "W": 1},
    ]
    r = run_cli("check", "--s", "-7500", "--a", "6000", "--b", "60",
                "--json", "--table1")
    doc = json.loads(r.stdout)
    assert doc["constant"] is True
    assert doc["sign"] == 1
    assert doc["matched"] == ["P5.1(p=5)", "P3.2", "C3d"]
    assert doc["witnesses"] is None
    assert doc["table1_row"] == "T1.row-5"


def test_check_zero_arguments_are_usage_errors():
    assert run_cli("check", "--s", "0", "--a", "1", "--b", "1").returncode == 64
    assert run_cli("check", "--s", "-3", "--a", "0", "--b", "1").returncode == 64
    assert run_cli("check", "--s", "-3", "--a", "1", "--b", "0").returncode == 64


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_constant_window():
    r = run_cli("scan", "--s", "-7500", "--a", "6000", "--b", "60",
                "--u-min", "-50", "--u-max", "50")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    rows = [ln for ln in lines if ln.startswith("u=")]
    assert len(rows) == 101
    assert all(ln.endswith("W=+1") for ln in rows)
    assert lines[-1] == "summary: plus=101 minus=0 singular=0 average=1"


def test_scan_rows_match_single_fibre_route():
    r = run_cli("scan", "--s", "-972", "--a", "12", "--b", "18",
                "--u-min", "0", "--u-max", "1")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "u=0 t=18 W=-1",
        "u=1 t=30 W=+1",
        "summary: plus=1 minus=1 singular=0 average=0",
    ]


def test_scan_csv_is_rectangular_and_agrees_with_library():
    r = run_cli("scan", "--s", "-3", "--a", "1", "--b", "1",
                "--u-min", "0", "--u-max", "3", "--csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["u", "t", "singular", "W"]
    base = [int(col[2:]) for col in header[4:]]
    assert base == sorted(base)
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == len(header)
        u, t = int(cells[0]), int(cells[1])
        assert t == u + 1
        assert cells[2] == "false"
        bd = breakdown_f(-3, t)
        assert int(cells[3]) == bd.w
        for p, cell in zip(base, cells[4:]):
            # a union prime outside this fibre's base carries sign +1
            assert int(cell) == bd.factors.get(p, 1)
    assert "summary:" in r.stderr


def test_scan_csv_leaves_singular_cells_empty():
    r = run_cli("scan", "--s", "4", "--a", "2", "--b", "0",
                "--u-min", "0", "--u-max", "3", "--csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    singular = [ln for ln in lines if ",true," in ln]
    assert len(singular) == 1
    cells = singular[0].split(",")
    assert cells[:3] == ["1", "2", "true"]
    assert all(c == "" for c in cells[3:])


def _reference_csv(s, a, b, u_min, u_max):
    """The scan CSV as the stdlib writer renders it from window_breakdowns."""
    fibres = window_breakdowns(s, a, b, u_min, u_max)
    base = sorted({p for bd in fibres if bd is not None for p in bd.factors})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["u", "t", "singular", "W"] + ["w_%d" % p for p in base])
    for u, bd in zip(range(u_min, u_max + 1), fibres):
        if bd is None:
            writer.writerow([u, a * u + b, "true", ""] + [""] * len(base))
        else:
            writer.writerow([u, bd.t, "false", bd.w]
                            + [bd.factors.get(p, 1) for p in base])
    return out.getvalue()


@st.composite
def _csv_windows(draw):
    a = draw(st.integers(1, 60)) * draw(st.sampled_from((1, -1)))
    u_min = draw(st.integers(-50, 50))
    u_max = u_min + draw(st.integers(0, 39))
    if draw(st.booleans()):
        # a prime above 2^16 in 6s puts a wide prime in every row's base
        s = -draw(st.integers(1, 30)) * draw(
            st.sampled_from((65537, 65539, 65543, 1000003)))
        b = draw(st.integers(-10**5, 10**5))
    else:
        # s = m^2: t = +-m is singular, so aim a row of the window at it
        m = draw(st.integers(1, 300))
        s = m * m
        b = (draw(st.sampled_from((m, -m))) - a * draw(st.integers(u_min, u_max))
             + draw(st.integers(-2, 2)))
    return s, a, b, u_min, u_max


@settings(max_examples=100, deadline=None)
@given(_csv_windows())
def test_scan_csv_matches_the_stdlib_writer(window):
    s, a, b, u_min, u_max = window
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["scan", "--s", str(s), "--a", str(a), "--b", str(b),
                         "--u-min", str(u_min), "--u-max", str(u_max), "--csv"])
    assert code == 0, err.getvalue()
    assert out.getvalue() == _reference_csv(s, a, b, u_min, u_max)


def test_scan_of_singular_rows_only_has_no_base_and_no_average(capsys):
    # t = 2 and s = 4: the one row is singular, so no prime has a column
    argv = ["scan", "--s", "4", "--a", "4", "--b", "2",
            "--u-min", "0", "--u-max", "0"]
    summary = "summary: plus=0 minus=0 singular=1 average=n/a\n"
    assert cli.main(argv + ["--csv"]) == 0
    assert capsys.readouterr() == ("u,t,singular,W\n0,2,true,\n", summary)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("u=0 t=2 singular\n" + summary, "")
    assert cli.main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"u": 0, "t": 2, "singular": True, "W": None,
                            "factors": {}}]
    assert doc["summary"] == {"plus": 0, "minus": 0, "singular": 1,
                              "average": None}


def test_scan_json_document():
    r = run_cli("scan", "--s", "-972", "--a", "12", "--b", "18",
                "--u-min", "0", "--u-max", "1", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["summary"] == {"plus": 1, "minus": 1, "singular": 0,
                              "average": "0"}
    assert [row["W"] for row in doc["rows"]] == [-1, 1]
    assert doc["rows"][0]["factors"] == {"2": 1, "3": 1}
    # parse(print(x)) = x
    assert json.loads(json.dumps(doc)) == doc


def test_scan_jobs_do_not_change_the_bytes():
    argv = ("scan", "--s", "-7500", "--a", "6000", "--b", "60",
            "--u-min", "-20", "--u-max", "20", "--csv")
    serial = run_cli(*argv)
    parallel = run_cli(*argv, "--jobs", "3")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


# sha256 of stdout, pinned when every row went through breakdown_f: the
# window sieve must print the same bytes
_SCAN_GOLDEN = {
    ("-972", "12", "589318", "499", ""):
        "7f47509e79bac840ea0bad7d821fed8b4569d3b103ba7c0efd4640227e8bc007",
    ("-972", "12", "589318", "499", "--json"):
        "7cbe3820061b5fbdae164ea2d3084ce22d2a692bf176446da2ee0fa65ba08cef",
    ("-972", "12", "589318", "499", "--csv"):
        "55f4c40f2244b3561a40696b0ceca0320e11ca5b14dd7f8d6b06f2c980d6c7d8",
    # two singular rows, t = +-2
    ("4", "1", "-300", "599", ""):
        "2333843cc46eb32b5ee039db34fda29c6a78e8c07c93fab6787d5cf8db16547b",
    ("4", "1", "-300", "599", "--json"):
        "106b05963e5ef37b5ef86062d2b1ad1c0e8e0f6de5cdd0965c948499a342b50e",
    ("4", "1", "-300", "599", "--csv"):
        "8cac8d6859300cacfce6bf77a4dff6d056c212180b4ff60b4f9f4d0f544c3f6c",
}


@pytest.mark.parametrize("window", sorted(_SCAN_GOLDEN))
def test_scan_window_bytes_are_pinned(window):
    s, a, b, u_max, fmt = window
    r = run_cli("scan", "--s", s, "--a", a, "--b", b, "--u-min", "0",
                "--u-max", u_max, *filter(None, [fmt]))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == _SCAN_GOLDEN[window]


def test_pooled_scan_of_a_sieved_window_prints_the_pinned_bytes(
        monkeypatch, capsys):
    # the serial run sieves these 600 rows; two workers factor 300 rows
    # each through the remainder tree, and must print the same bytes
    assert 300 < arith._SIEVE_ROWS <= 600
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(["scan", "--s", "4", "--a", "1", "--b", "-300",
                     "--u-min", "0", "--u-max", "599", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _SCAN_GOLDEN[("4", "1", "-300", "599", "")]


def test_scan_refuses_a_huge_cofactor_at_its_first_row():
    # t = b + u with |t| ~ 2^143: at u = 0, t^2 + 3 is a small-prime part
    # times a 273-bit prime; at u = 1 it leaves a 284-bit composite, which
    # the JSON and CSV views, which list the primes of t^2 - s, refuse
    # before rho or ECM starts, and nothing reaches stdout. 200 rows, and
    # the halves of 600 with two jobs, take the remainder tree; 600 rows
    # with one job take the sieve
    assert 300 < arith._SIEVE_ROWS <= 600
    for rows in (200, 600):
        argv = ("scan", "--s", "-3", "--a", "1",
                "--b", "8727963568087712425891397479476727340041450",
                "--u-min", "0", "--u-max", str(rows - 1))
        for fmt in ("--json", "--csv"):
            for jobs in ("1", "2"):
                r = run_cli(*argv, fmt, "--jobs", jobs)
                assert r.returncode == 64
                assert r.stdout == ""
                assert r.stderr == (
                    "rootno: error: refusing to split a 284-bit composite "
                    "cofactor: the limit is 256 bits\n")
        # the text view prints only W, which at s = -3 = -3 * 1^2 is read at
        # the primes of 6 s alone: no row is factored, so none is refused
        b = int(argv[6])
        for jobs in ("1", "2"):
            r = run_cli(*argv, "--jobs", jobs)
            assert r.returncode == 0, r.stderr
            assert r.stderr == ""
            lines = r.stdout.splitlines()
            assert len(lines) == rows + 1
            signs = [root_number_f(-3, b + u) for u in range(rows)]
            assert lines[:rows] == [
                "u=%d t=%d W=%s" % (u, b + u, "+1" if w == 1 else "-1")
                for u, w in enumerate(signs)]
            plus, minus = signs.count(1), signs.count(-1)
            assert lines[rows] == ("summary: plus=%d minus=%d singular=0 "
                                   "average=%s" % (plus, minus, Fraction(
                                       plus - minus, rows)))


def test_text_scan_at_minus_3_square_factors_nothing(monkeypatch, capsys):
    # once s = -972 is factored, the text view at s = -3 r^2 factors no
    # row, so it prints the pinned bytes with every factoring route broken
    # (the sieved window too, at 600 rows)
    assert arith._SIEVE_ROWS <= 600
    root_number.primes_of_6s(-972)

    def refuse(*args):
        raise AssertionError("factored %r" % (args,))

    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(arith, "factorize_window", refuse)
    monkeypatch.setattr(root_number, "factorize", refuse)
    monkeypatch.setattr(root_number, "factorize_window", refuse)
    assert cli.main(["scan", "--s", "-972", "--a", "12", "--b", "589318",
                     "--u-min", "0", "--u-max", "499"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _SCAN_GOLDEN[("-972", "12", "589318", "499", "")]
    assert cli.main(["scan", "--s", "-972", "--a", "12", "--b", "589318",
                     "--u-min", "0", "--u-max", "599"]) == 0
    assert capsys.readouterr().out.count("\n") == 601


def test_scan_jobs_are_capped_at_the_rows(monkeypatch, capsys):
    # in-process with a pool that maps serially, so no worker is started:
    # --jobs 100000 on a 3-row window asks for at most 3 workers
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["scan", "--s", "-972", "--a", "12", "--b", "18",
            "--u-min", "0", "--u-max", "2"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert workers == [3]


def test_scan_usage_errors():
    assert run_cli("scan", "--s", "-3", "--a", "1", "--b", "1",
                   "--u-min", "5", "--u-max", "2").returncode == 64
    assert run_cli("scan", "--s", "0", "--a", "1", "--b", "1",
                   "--u-min", "0", "--u-max", "1").returncode == 64
    assert run_cli("scan", "--s", "-3", "--a", "0", "--b", "1",
                   "--u-min", "0", "--u-max", "1").returncode == 64
    assert run_cli("scan", "--s", "-3", "--a", "1", "--b", "1",
                   "--u-min", "0", "--u-max", "1",
                   "--csv", "--json").returncode == 64
    assert run_cli("scan", "--s", "-3", "--a", "1", "--b", "1",
                   "--u-min", "0", "--u-max", "1",
                   "--jobs", "0").returncode == 64


# ---------------------------------------------------------------------------
# rank-jump
# ---------------------------------------------------------------------------

def test_rank_jump_report_cli():
    r = run_cli("rank-jump", "--s", "-7500", "--a", "6000", "--b", "60")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["generic_rank"] == 1
    assert doc["per_prime"] == {"2": -1, "3": 1, "5": 1}
    assert doc["forced_W"] == 1
    assert doc["predicted_min_rank"] == 2
    assert doc["rank_jump_predicted"] is True
    assert doc["banner"] == "conditional on the parity conjecture"


def test_rank_jump_off_shape_still_reports():
    r = run_cli("rank-jump", "--s", "-3", "--a", "8", "--b", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["generic_rank"] == 0
    assert "per_prime" not in doc
    assert doc["rank_jump_predicted"] is False


def test_rank_jump_usage():
    assert run_cli("rank-jump", "--s", "0", "--a", "1", "--b", "1").returncode == 64
    assert run_cli("rank-jump", "--s", "-7500", "--a", "0", "--b", "1").returncode == 64


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_reports_divergences_and_is_stable():
    first = run_cli("audit", "--suite", "paper-examples")
    second = run_cli("audit", "--suite", "paper-examples")
    assert first.returncode == 3
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    doc = json.loads(first.stdout)
    assert doc["suite"] == "paper-examples"
    assert len(doc["records"]) >= 1


def test_audit_oracle_flag_warns_when_disabled():
    plain = run_cli("audit", "--suite", "paper-examples")
    flagged = run_cli("audit", "--suite", "paper-examples",
                      "--with-classical-oracle")
    assert flagged.returncode == 3
    assert "classical oracle has no data" in flagged.stderr
    assert flagged.stdout == plain.stdout


def test_audit_oracle_cross_check_when_data_present(tmp_path):
    data = tmp_path / "local_signs.json"
    data.write_text('{"2:-972:18": -1, "2:-972:30": -1}\n')
    r = run_cli("audit", "--suite", "paper-examples",
                "--with-classical-oracle",
                env={"ROOTNO_CLASSICAL_DATA": str(tmp_path)})
    assert r.returncode == 3
    doc = json.loads(r.stdout)
    assert doc["checked"][-1] == "classical oracle: compared 2 local signs"
    clash = [rec for rec in doc["records"]
             if rec["kind"] == "classical-vs-table"]
    assert len(clash) == 1
    assert clash[0]["p"] == 2 and clash[0]["t"] == 18
    assert clash[0]["classical"] == -1 and clash[0]["table"] == 1
    # the responsible table row must be named
    assert clash[0]["table_row"].startswith("T")


@pytest.mark.parametrize("text", [
    '{"2:-972:18": -1,\n',          # not JSON
    '{"2:-3:x": 1}\n',              # key not p:s:t
    '{"4:-3:1": 1}\n',              # p not prime
    '[1, 2]\n',                     # not an object
    '{"2:-972:18": "1"}\n',         # sign not +1 or -1
])
def test_audit_malformed_oracle_data_is_a_usage_error(tmp_path, text):
    (tmp_path / "local_signs.json").write_text(text)
    r = run_cli("audit", "--suite", "paper-examples",
                "--with-classical-oracle",
                env={"ROOTNO_CLASSICAL_DATA": str(tmp_path)})
    assert r.returncode == 64
    assert r.stderr.startswith("rootno: error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_audit_usage():
    assert run_cli("audit", "--suite", "unknown").returncode == 64
    assert run_cli("audit").returncode == 64


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_streams_constant_pairs():
    r = run_cli("search", "--s", "-3", "--a-max", "8", "--b-max", "8")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert all(ln.startswith("a=") for ln in lines)
    assert "a=8 b=1 Constant(+1) [P3.2, C3a]" in lines
    assert len(lines) == 12


def test_search_usage():
    assert run_cli("search", "--s", "-3", "--a-max", "0",
                   "--b-max", "8").returncode == 64
    assert run_cli("search", "--s", "0", "--a-max", "8",
                   "--b-max", "8").returncode == 64


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_bare_invocation_is_usage_error():
    assert run_cli().returncode == 64
    assert run_cli("frobnicate").returncode == 64


def test_the_parser_is_built_once_per_process(capsys):
    # in-process calls share one parser; a bad flag after a good call
    # still exits 64 with the usage, and a good call after it still prints
    # the pinned bytes
    assert cli._build_parser() is cli._build_parser()
    key = ("-972", "12", "589318", "499", "--json")
    argv = ["scan", "--s", "-972", "--a", "12", "--b", "589318",
            "--u-min", "0", "--u-max", "499", "--json"]
    usage = cli._build_parser.__wrapped__().format_usage()
    for _ in range(2):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _SCAN_GOLDEN[key]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--frobnicate"])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == usage + (
            "rootno: error: unrecognized arguments: --frobnicate\n")
    assert cli._build_parser.cache_info().currsize == 1


@pytest.mark.skipif(shutil.which("rootno") is None,
                    reason="no rootno console script on PATH")
def test_console_script_matches_module_route():
    script = subprocess.run(
        [shutil.which("rootno"), "audit", "--suite", "paper-examples"],
        capture_output=True, env=cli_env())
    module = subprocess.run(
        [sys.executable, "-m", "rootno.cli", "audit", "--suite",
         "paper-examples"], capture_output=True, env=cli_env())
    assert script.returncode == module.returncode == 3
    assert script.stdout == module.stdout
