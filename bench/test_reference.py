"""Each independent check of the benchmark rejects one deliberately flipped
sign (or one corrupted factor) and passes the true output.

    PYTHONPATH=src python3 -m unittest discover -s bench -p 'test_*.py'

The true outputs come from the package; everything else is reference.py
and the window check of run.py.
"""

import io
import contextlib
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import rootno  # noqa: E402
import rootno.cli  # noqa: E402


def _flip(factors: dict, p: int) -> dict:
    out = dict(factors)
    out[p] = -out[p]
    return out


class ReferenceChecks(unittest.TestCase):
    def test_a_miller_rabin(self):
        self.assertTrue(ref.is_probable_prime(2 ** 89 - 1))
        # a Carmichael number and a product of two 31-bit primes
        self.assertFalse(ref.is_probable_prime(561))
        self.assertFalse(ref.is_probable_prime((2 ** 31 - 1) * 2147483629))
        self.assertEqual(
            [n for n in range(200) if ref.is_probable_prime(n)],
            [n for n in range(200) if n > 1 and all(n % d for d in range(2, n))])

    def test_b_factor_base(self):
        s, t = -972, 123457
        primes = sorted(rootno.breakdown_f(s, t).factors)
        self.assertEqual(ref.factor_base_problems(s, t, primes), [])
        for p in primes:
            if (t * t - s) % p == 0 and p > 3:
                dropped = [q for q in primes if q != p]
                self.assertTrue(ref.factor_base_problems(s, t, dropped))
                break
        self.assertTrue(ref.factor_base_problems(s, t, [q for q in primes if q != 3]))
        self.assertTrue(ref.factor_base_problems(s, t, primes + [primes[-1] + 2]))

    def test_c_rohrlich_rejects_a_flipped_sign(self):
        checked = 0
        for s in (-972, -1875, -28812, 5 * 7 ** 3, -12 * 13 ** 4):
            for t in range(1, 120):
                bd = rootno.breakdown_f(s, t)
                self.assertEqual(ref.rohrlich_problems(s, t, bd.factors), [])
                for p in bd.factors:
                    if p >= 5:
                        checked += 1
                        self.assertTrue(ref.rohrlich_problems(
                            s, t, _flip(bd.factors, p)))
        self.assertGreater(checked, 500)

    def test_d_scaling_rejects_a_flipped_sign(self):
        s, t = -972, 18
        w = rootno.root_number_f(s, t)
        scaled = {lam: rootno.root_number_f(*ref.scaled_fibre(s, t, lam))
                  for lam in (2, 3)}
        self.assertEqual(ref.scaling_problems(s, t, w, scaled), [])
        self.assertTrue(ref.scaling_problems(s, t, -w, scaled))
        self.assertTrue(ref.scaling_problems(s, t, w, {2: scaled[2], 3: -scaled[3]}))

    def test_e_product_rejects_a_flipped_sign(self):
        bd = rootno.breakdown_f(-972, 30)
        self.assertEqual(ref.sign_problems(bd.w, bd.factors.values()), [])
        self.assertTrue(ref.sign_problems(-bd.w, bd.factors.values()))
        self.assertTrue(ref.sign_problems(bd.w, _flip(bd.factors, 2).values()))


class WindowCheck(unittest.TestCase):
    """(e) across views: text, JSON and CSV of one window must agree."""

    def views(self, argv):
        out = {}
        for fmt, flag in (("text", []), ("json", ["--json"]), ("csv", ["--csv"])):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                self.assertEqual(rootno.cli.main(argv + flag), 0)
            out[fmt] = (stdout.getvalue(), stderr.getvalue())
        return out

    def problems(self, views):
        run = bench.Run(rootno)
        with contextlib.redirect_stderr(io.StringIO()):
            found = run.window_problems(-972, 12, 18, 0, 9, views, {0})
        return found + run.problems

    def test_true_views_pass(self):
        argv = ["scan", "--s", "-972", "--a", "12", "--b", "18",
                "--u-min", "0", "--u-max", "9"]
        views = self.views(argv)
        self.assertEqual(self.problems(views), [])

    def test_flipped_text_sign_is_rejected(self):
        views = self.views(["scan", "--s", "-972", "--a", "12", "--b", "18",
                            "--u-min", "0", "--u-max", "9"])
        text = views["text"][0]
        first = text.splitlines()[0]
        flipped = first.replace("W=-1", "W=+1") if "W=-1" in first \
            else first.replace("W=+1", "W=-1")
        views["text"] = (text.replace(first, flipped, 1), views["text"][1])
        self.assertTrue(self.problems(views))

    def test_flipped_csv_column_is_rejected(self):
        views = self.views(["scan", "--s", "-972", "--a", "12", "--b", "18",
                            "--u-min", "0", "--u-max", "9"])
        lines = views["csv"][0].splitlines()
        cells = lines[1].split(",")
        cells[4] = str(-int(cells[4]))
        lines[1] = ",".join(cells)
        views["csv"] = ("\n".join(lines) + "\n", views["csv"][1])
        self.assertTrue(self.problems(views))

    def test_flipped_json_local_sign_is_rejected(self):
        import json
        views = self.views(["scan", "--s", "-972", "--a", "12", "--b", "18",
                            "--u-min", "0", "--u-max", "9"])
        doc = json.loads(views["json"][0])
        row = doc["rows"][3]
        p = max(row["factors"], key=int)
        row["factors"][p] = -row["factors"][p]
        views["json"] = (json.dumps(doc), views["json"][1])
        self.assertTrue(self.problems(views))


if __name__ == "__main__":
    unittest.main()
