"""Spans around the library's public functions, recorded from outside it.

Each traced function is replaced, in its defining module and in every
``deontic`` module that imported it, by one wrapper that appends a span
(name, start, end, parent, op, arguments, result) to a list kept in
memory.  A function calling itself through its module name (``expand_pw``)
is folded into the outer span.  Input properties (tautology units, lines
checked, search counters) are computed from the stored arguments and
results after the run, outside every span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from deontic.formula import And, Atom, Bottom, Iff, Implies, Not, Obl, Or, PermS, PermW, Top

# Traced functions as "<module>.<function>", where deontic.<module> defines the function.
# The end-to-end metric each layer should move, and on which workload:
#   formula.is_tautology            ops_per_s, latency_tail_ms on proofs; idle on exhaustive
#   other formula.*, proof.*        latency_p50_ms on proofs
#   model.truth_set                 ops_per_s on exhaustive's formula search
#   frames.*                        ops_per_s, latency_p50_ms on exhaustive
#   search.find_countermodel        ops_per_s, latency_p50_ms, latency_tail_ms on exhaustive
#   search.compute_remainder        latency_p50_ms on proofs
#   bundled.*                       setup_s on every workload
SPANS = (
    "formula.is_tautology", "formula.parse", "formula.expand_pw", "formula.match_schema",
    "formula.render",
    "proof.parse_proof_script", "proof.check_proof",
    "model.truth_set",
    "frames.check_property", "frames.schema_valid_on_frame", "frames.rule_valid_on_frame",
    "search.find_countermodel", "search.compute_remainder",
    "bundled.fixture_text", "bundled.load_fixture_model",
)

NAME, START, END, PARENT, OP, ARGS, RESULT = range(7)


class Tracer:
    """Installs the wrappers; records spans while ``active``, tagged with ``op``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.op = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "deontic" or name.startswith("deontic."))]
        for span in SPANS:
            layer, func = span.split(".")
            original = getattr(sys.modules[f"deontic.{layer}"], func)
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)
                    self._patched.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patched):
            setattr(module, func, original)
        self._patched.clear()

    def _wrap(self, name, original):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if not self.active or (stack and spans[stack[-1]][NAME] == name):
                return original(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, args, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                record[RESULT] = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            return record[RESULT]

        return traced


def _units(f, acc: set) -> None:
    # Atoms and maximal modal subformulas are the tautology check's alphabet.
    if isinstance(f, (Atom, Obl, PermS, PermW)):
        acc.add(f)
    elif isinstance(f, Not):
        _units(f.operand, acc)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _units(f.left, acc)
        _units(f.right, acc)
    elif not isinstance(f, (Top, Bottom)):
        raise TypeError(f"not a formula: {f!r}")


UNIT_BUCKETS = (("le5", 0, 5), ("6to7", 6, 7), ("8to11", 8, 11), ("ge12", 12, 10 ** 9))


def layer_metrics(spans: list[list], passes: int, op_seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics per pass of the op list, bundled fixtures per set-up.

    Returns the metrics, name -> (value, unit), and the full histogram of
    tautology units for printing.
    """
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            self_s[s[PARENT]] -= s[END] - s[START]
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    in_ops: defaultdict = defaultdict(list)
    for s, own in zip(spans, self_s):
        key = (s[OP] == "setup", s[NAME])
        calls[key] += 1
        busy[key] += own
        if s[OP] != "setup":
            in_ops[s[NAME]].append(s)

    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / passes

    def timing(name, with_calls=True, setup=False):
        scale = 1.0 if setup else per
        if with_calls:
            out[f"{name}.calls"] = (calls[setup, name] * scale, "count")
        out[f"{name}.self_ms"] = (busy[setup, name] * 1000.0 * scale, "ms")

    def share(part, whole):
        return part / whole if whole else 0.0

    timing("formula.is_tautology")
    hist: Counter = Counter()
    for s in in_ops["formula.is_tautology"]:
        acc: set = set()
        _units(s[ARGS][0], acc)
        hist[len(acc)] += 1
    out["formula.is_tautology.rows"] = (sum(2 ** u * c for u, c in hist.items()) * per, "count")
    for label, lo, hi in UNIT_BUCKETS:
        count = sum(c for u, c in hist.items() if lo <= u <= hi)
        out[f"formula.is_tautology.units_share.{label}"] = (share(count, sum(hist.values())), "ratio")
    for name in ("formula.parse", "formula.expand_pw", "formula.match_schema", "formula.render",
                 "proof.parse_proof_script", "proof.check_proof"):
        timing(name)
    lines = 0
    for s in in_ops["proof.check_proof"]:
        result = s[RESULT]
        if result is None:  # raised
            continue
        lines += len(s[ARGS][0].lines) if result.valid or result.line is None else result.line
    out["proof.check_proof.lines"] = (lines * per, "count")
    timing("model.truth_set")
    timing("frames.check_property")
    checks = in_ops["frames.check_property"]
    violated = sum(1 for s in checks if s[RESULT] is not None)
    out["frames.check_property.violated_share"] = (share(violated, len(checks)), "ratio")
    for name in ("frames.schema_valid_on_frame", "frames.rule_valid_on_frame",
                 "search.find_countermodel"):
        timing(name)
    reports = [s[RESULT] for s in in_ops["search.find_countermodel"] if s[RESULT] is not None]
    examined = sum(r.examined for r in reports)
    pruned = sum(r.pruned_by_property for r in reports)
    out["search.examined"] = (examined * per, "count")
    out["search.pruned_by_property"] = (pruned * per, "count")
    out["search.useful_ratio"] = (share(examined - pruned, examined), "ratio")
    timing("search.compute_remainder")
    # Bundled fixtures are read during set-up only, which is traced once.
    timing("bundled.fixture_text", setup=True)
    timing("bundled.load_fixture_model", with_calls=False, setup=True)
    top = sum(s[END] - s[START] for s in spans if s[PARENT] is None and s[OP] != "setup")
    out["other.self_ms"] = (max(op_seconds - top, 0.0) * 1000.0 * per, "ms")
    return out, dict(sorted(hist.items()))
