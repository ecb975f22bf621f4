"""Spans around calls into gwrev's public functions, recorded from outside.

SPANS declares the wrapped `module.function` names.  `Tracer.install`
replaces each function by a timing wrapper in every loaded gwrev module
that holds it (the CLI imports most functions by name), and `uninstall`
puts the originals back.  A declared name that the library no longer has
is dropped and listed in `Tracer.dropped`, so a refactor cannot crash the
benchmark.  Spans stay in memory until `write` saves them as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (module, function, probe).  A probe maps (args, kwargs, result) to
# counters added up per span name.
SPANS = (
    ("cli", "main", None),
    ("cli", "cmd_check", None),
    ("cli", "cmd_construct", None),
    ("cli", "cmd_parametrize", None),
    ("cli", "cmd_cover", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_verify", None),
    ("checker", "run_checks", None),
    ("checker", "build_balance_graph",
     lambda a, k, g: {"nodes": len(g.nodes), "edges": len(g.ratio) // 2}),
    ("checker", "propagate_potentials", None),
    ("constructor", "construct_measure", None),
    ("constructor", "verify_reversibility", None),
    ("parametrizer", "validate_template", None),
    ("parametrizer", "assemble_measure", None),
    ("parametrizer", "solve_root_weights", None),
    ("norelabel", "run_plain_checks", None),
    ("norelabel", "check_plain_cycles", None),
    ("norelabel", "plain_connected", None),
    ("norelabel", "construct_plain_measure", None),
    ("norelabel", "multinomial_dist", lambda a, k, d: {"terms": len(d)}),
    ("covers", "label_vertices", lambda a, k, r: {"vertices": a[0].vertex_count}),
    ("covers", "lift_measure", None),
    ("simulator", "estimate_flow", lambda a, k, r: {"trials": r[0].trials}),
    ("simulator", "mass_transport_check", lambda a, k, r: {"trials": r[0].trials}),
    ("simulator", "trial_generator", None),
    ("fileformats", "load_json", None),
    ("fileformats", "load_spec", None),
    ("fileformats", "load_measure", None),
    ("fileformats", "save_measure", None),
    ("fileformats", "save_json", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
)


PACKAGE = "gwrev"


class Tracer:
    """Records spans as [name, start, end, parent index] lists."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.dropped = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, probe):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                for key, value in probe(args, kwargs, result).items():
                    counters[name][key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        self.dropped = []
        for module_name, attr, probe in SPANS:
            name = f"{module_name}.{attr}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.dropped.append(name)
                continue
            if name not in self.names:
                self.names.append(name)
            wrapper = self._wrap(name, original, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- aggregates --------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).  Self time
        is a span's duration minus that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[k]
        return out

    def outermost(self, names):
        """Inclusive seconds of the spans named in `names` that have no
        ancestor named in `names`."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def descendants_per_ancestor(self, child, ancestor):
        """Mean number of `child` spans under each `ancestor` span that has
        at least one; 0 when none has."""
        per = defaultdict(int)
        for name, _, _, parent in self.spans:
            if name != child:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                per[parent] += 1
        return sum(per.values()) / len(per) if per else 0.0

    def write(self, path) -> None:
        """Save every span (times in microseconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        index = {name: k for k, name in enumerate(self.names)}
        doc = {
            "names": self.names,
            "dropped": self.dropped,
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [index[name], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for name, s, e, p in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
