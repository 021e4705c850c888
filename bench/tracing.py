"""Spans around the public functions of each ``rootno`` module, installed
from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``rootno`` module that holds a reference to it (``from ... import`` binds
the name again in the importing module), so a call is seen whichever
module makes it. A span records its name, start, end and the index of its
parent span; spans are kept in flat arrays and written out by ``save``. A
span's self time is its duration minus the durations of its direct
children.

Recording happens only while ``Tracer.on`` is true; the benchmark turns it
on around the timed operations, so its own checks leave no spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, function, span name); "arith.factorize" is named by band below
TRACED = (
    ("arith", "factorize", "arith.factorize"),
    ("arith", "is_prime", "arith.is_prime"),
    ("arith", "valuation", "arith.valuation"),
    ("arith", "legendre", "arith.legendre"),
    ("families", "l_to_f", "families.l_to_f"),
    ("local_signs", "w_star_hit", "local_signs.w_star"),
    ("root_number", "factor_base", "root_number.factor_base"),
    ("root_number", "breakdown_f", "root_number.breakdown_f"),
    ("root_number", "breakdown_l", "root_number.breakdown_l"),
    ("root_number", "root_number_f", "root_number.root_number_f"),
    ("constancy", "check_f", "constancy.check_f"),
    ("constancy", "check_f_table1", "constancy.check_f_table1"),
    ("rank_jump", "rank_jump_report", "rank_jump.rank_jump_report"),
    ("audit", "falsify_constancy", "audit.falsify_constancy"),
    ("audit", "probe_set", "audit.probe_set"),
    ("audit", "run_paper_examples", "audit.run_paper_examples"),
    ("cli", "main", "cli.main"),
)

TABLES = ("T3", "T4", "T5", "T6a", "T6b", "T7", "T8", "T9", "T10a", "T10b",
          "T11", "T12")


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.table_hits = dict.fromkeys(TABLES, 0)
        self.stdout_bytes = 0
        self.is_prime_cache = None

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        if name == "arith.factorize":
            ids = (self._id(name + ".le64"), self._id(name + ".gt64"))

            def name_of(args):
                return ids[abs(args[0]).bit_length() > 64]
        else:
            fixed = self._id(name)

            def name_of(args):
                return fixed
        count_table = name == "local_signs.w_star"

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            tracer.name.append(name_of(args))
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(index)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer.start[index] = begin
                tracer.stack.pop()
            if count_table:
                tracer.table_hits[result.table] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a rootno module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "rootno" or key.startswith("rootno.")]
        for module_name, func, span in TRACED:
            original = getattr(sys.modules["rootno." + module_name], func)
            if func == "is_prime":
                self.is_prime_cache = original
            wrapper = self._wrap(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def aggregate(self) -> dict:
        """Totals per span name: calls, inclusive seconds (outermost span of
        a name only, so recursion is not counted twice), self seconds, and
        root_number_f calls made directly under each falsify_constancy."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent, name = self.parent, self.name
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        out = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in names}
        rn_f = names.index("root_number.root_number_f") \
            if "root_number.root_number_f" in names else -1
        falsify = names.index("audit.falsify_constancy") \
            if "audit.falsify_constancy" in names else -1
        falsify_fibres = 0
        for i in range(n):
            rec = out[names[name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if parent[i] < 0 or name[parent[i]] != name[i]:
                rec["s"] += dur[i]
            if name[i] == rn_f and parent[i] >= 0 and name[parent[i]] == falsify:
                falsify_fibres += 1
        out["audit.falsify_constancy.fibres"] = falsify_fibres
        return out

    def save(self, path: str) -> None:
        """One JSON header line (span names, span count, array type codes),
        then the name, parent, start and end arrays in that order as raw
        machine-order bytes, each readable with array.fromfile."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "H"], ["parent", "l"], ["start", "d"],
                             ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

