"""Spans at the layer boundaries of levy_transience, recorded from outside.

`Tracer.install` wraps each function in `SPANNED` (and counts each call to
a function in `COUNTED`) on its defining module and on every package module
that imported it by name, so calls inside the package are seen too. Spans
are kept in memory as (id, name, start, end, parent, op, work) and written
out once, when the run ends. `layer_metrics` turns a span file into the
per-layer table. The program itself is not modified.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute) -> layer name. A dotted attribute names a method.
SPANNED = {
    ("quadrature", "jump_symbol_value"): "quadrature.jump_symbol_value",
    ("quadrature", "oscillatory_tail_integral"):
        "quadrature.oscillatory_tail_integral",
    ("quadrature", "integrate_origin"): "quadrature.integrate_origin",
    ("quadrature", "integrate_tail"): "quadrature.integrate_tail",
    ("quadrature", "tail_cumulative"): "quadrature.tail_cumulative",
    ("densities", "RadialLevyDensity.jump_symbol"): "densities.jump_symbol",
    ("densities", "RadialLevyDensity.__post_init__"): "densities.construct",
    ("symbols", "load_model"): "symbols.load_model",
    ("symbols", "envelope_profile"): "symbols.envelope_profile",
    ("symbols", "sector_check"): "symbols.sector_check",
    ("symbols", "symmetry_check"): "symbols.symmetry_check",
    ("verdicts", "verdict_from_radial_integrand"):
        "verdicts.verdict_from_radial_integrand",
    ("cf_integrals", "weak_integral_kappa"): "cf_integrals.weak_integral_kappa",
    ("cf_integrals", "strong_integral_kappa"):
        "cf_integrals.strong_integral_kappa",
    ("levy_tails", "tail_test_weak"): "levy_tails.tail_test_weak",
    ("levy_tails", "tail_test_strong"): "levy_tails.tail_test_strong",
    ("levy_tails", "split_tail_tests"): "levy_tails.split_tail_tests",
    ("levy_tails", "quadratic_growth_floor"): "levy_tails.quadratic_growth_floor",
    ("levy_tails", "cos_moment_condition"): "levy_tails.cos_moment_condition",
    ("index_rules", "pruitt_indices"): "index_rules.pruitt_indices",
    ("index_rules", "moment_rules"): "index_rules.moment_rules",
    ("index_rules", "shape_diagnostic"): "index_rules.shape_diagnostic",
    ("classifier", "classify"): "classifier.classify",
    ("classifier", "transience_gate"): "classifier.transience_gate",
    ("classifier", "kappa_boundary"): "classifier.kappa_boundary",
    ("montecarlo", "occupation_integral_estimate"):
        "montecarlo.occupation_integral_estimate",
    ("montecarlo", "sample_levy_marginal"): "montecarlo.sample_levy_marginal",
    ("montecarlo", "ecf_check"): "montecarlo.ecf_check",
    ("montecarlo", "_euler_sweep"): "montecarlo.euler_sweep",
}
# One Gauss block per call and tens of thousands of calls: counted, no span.
COUNTED = {("quadrature", "integrate_log"): "quadrature.integrate_log"}
CLI_COMMAND = "cli.command"
PACKAGE = "levy_transience"


def _euler_path_steps(args, kwargs):
    # _euler_sweep(model, T, h, seed, path_indices, x0, observer)
    _, T, h, _, paths = args[:5]
    return len(paths) * int(round(T / h))


WORK = {"montecarlo.euler_sweep": _euler_path_steps}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = -1
        self.spans = []
        self.counts = Counter()
        self.missing = []          # layers the program no longer has
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # Spans in worker threads hang under the span that started them.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else -1)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                try:
                    work = work_of(args, kwargs) if work_of else 0
                except (TypeError, ValueError):
                    work = 0       # the function's signature has changed
                self.spans.append((sid, name, t0, t1, parent, self.op, work))

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for (mod_name, attr), layer in table.items():
                *path, leaf = attr.split(".")
                owner = modules.get(f"{PACKAGE}.{mod_name}")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(layer)
                    continue
                wrapped = make(layer, original)
                setattr(owner, leaf, wrapped)
                if path:
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        cli = modules[f"{PACKAGE}.cli"]
        for command in cli.main.commands.values():
            command.callback = self._span(CLI_COMMAND, command.callback)

    def write(self, out_dir: Path) -> Path:
        """Write spans and counts as tab-separated lines; return the path."""
        path = out_dir / "spans.tsv"
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun_id\top\twork\n")
            for sid, name, t0, t1, parent, op, work in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t"
                         f"{self.run_id}\t{op}\t{work}\n")
            for name, n in sorted(self.counts.items()):
                fh.write(f"-1\t{name}\t0.0\t0.0\t-1\t{self.run_id}\t-1\t{n}\n")
        return path


# ---------------------------------------------------------------------------
# Per-layer table from a span file.
# ---------------------------------------------------------------------------

def read_spans(path: Path):
    spans, counts = [], Counter()
    with open(path) as fh:
        next(fh)
        for line in fh:
            sid, name, t0, t1, parent, _, op, work = line.rstrip("\n").split("\t")
            if sid == "-1":
                counts[name] += int(work)
            else:
                spans.append((int(sid), name, float(t0), float(t1),
                              int(parent), int(op), int(work)))
    return spans, counts


def union(intervals):
    """Total length covered by (start, end) intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_table(spans, counts):
    """calls, busy_s (time covered by at least one span of the layer) and
    self_s (span time not covered by a wrapped child) per layer, plus
    the work each layer reported."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "work": 0})
    intervals = defaultdict(list)
    for sid, name, t0, t1, _, _, work in spans:
        row = table[name]
        row["calls"] += 1
        row["work"] += work
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        row["self_s"] += (t1 - t0) - union(k for k in kids if k[1] > k[0])
        intervals[name].append((t0, t1))
    for name, ivs in intervals.items():
        table[name]["busy_s"] = union(ivs)
    for name, n in counts.items():
        table[name]["calls"] += n
    return table, by_id


def _has_ancestor(span, name, by_id):
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[1] == name:
            return True
        parent = by_id.get(parent[4])
    return False


def layer_metrics(spans, counts, threads2_op=None):
    """The per-layer metrics of one traced repetition, by metric name, and
    the layer table they come from.

    Spans of `threads2_op` (the two-thread Euler rerun) feed only
    montecarlo.euler_path_steps_per_busy_s.threads2.
    """
    main = [s for s in spans if s[5] != threads2_op]
    table, by_id = layer_table(main, counts)

    def get(layer, key):
        if layer in table:
            return table[layer][key]
        return 0 if key == "calls" else 0.0

    out = {}
    for layer, keys in METRICS.items():
        for key in keys:
            out[f"{layer}.{key}"] = get(layer, key)
    jvs = get("quadrature.jump_symbol_value", "calls")
    js = get("densities.jump_symbol", "calls")
    out["densities.jump_symbol.hit_ratio"] = 1.0 - jvs / js if js else 0.0
    boundaries = get("classifier.kappa_boundary", "calls")
    probes = sum(1 for s in main if s[1] == "classifier.classify"
                 and _has_ancestor(s, "classifier.kappa_boundary", by_id))
    out["classifier.probes_per_boundary"] = (probes / boundaries
                                             if boundaries else 0.0)
    out["montecarlo.euler_path_steps_per_busy_s"] = _steps_per_busy(table)
    if threads2_op is not None:
        t2, _ = layer_table([s for s in spans if s[5] == threads2_op], {})
        out["montecarlo.euler_path_steps_per_busy_s.threads2"] = \
            _steps_per_busy(t2)
    else:
        out["montecarlo.euler_path_steps_per_busy_s.threads2"] = 0.0
    return out, table


def _steps_per_busy(table):
    row = table.get("montecarlo.euler_sweep")
    return row["work"] / row["busy_s"] if row and row["busy_s"] > 0 else 0.0


# Layer -> which of calls / busy_s / self_s are reported.
METRICS = {
    "quadrature.jump_symbol_value": ("calls", "busy_s"),
    "quadrature.oscillatory_tail_integral": ("self_s",),
    "quadrature.integrate_origin": ("calls", "busy_s"),
    "quadrature.integrate_tail": ("calls", "busy_s"),
    "quadrature.tail_cumulative": ("calls", "busy_s"),
    "quadrature.integrate_log": ("calls",),
    "densities.jump_symbol": ("calls",),
    "densities.construct": ("busy_s",),
    "symbols.load_model": ("busy_s",),
    "symbols.envelope_profile": ("calls", "busy_s"),
    "symbols.sector_check": ("busy_s",),
    "symbols.symmetry_check": ("busy_s",),
    "verdicts.verdict_from_radial_integrand": ("calls", "self_s"),
    "cf_integrals.weak_integral_kappa": ("busy_s",),
    "cf_integrals.strong_integral_kappa": ("busy_s",),
    "levy_tails.tail_test_weak": ("busy_s",),
    "levy_tails.tail_test_strong": ("busy_s",),
    "levy_tails.split_tail_tests": ("busy_s",),
    "levy_tails.quadratic_growth_floor": ("busy_s",),
    "levy_tails.cos_moment_condition": ("busy_s",),
    "index_rules.pruitt_indices": ("busy_s",),
    "index_rules.moment_rules": ("busy_s",),
    "index_rules.shape_diagnostic": ("busy_s",),
    "classifier.classify": ("calls", "self_s"),
    "classifier.transience_gate": ("busy_s",),
    "classifier.kappa_boundary": ("busy_s",),
    "montecarlo.occupation_integral_estimate": ("busy_s",),
    "montecarlo.sample_levy_marginal": ("calls", "busy_s"),
    "montecarlo.ecf_check": ("busy_s",),
    "cli.command": ("self_s",),
}
