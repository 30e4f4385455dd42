"""Spans around hssatlas's public functions, recorded from outside.

A ``Tracer`` wraps each function named in ``TARGETS`` and installs the
wrapper on every binding a caller can look up: the modules use
``from .x import y``, so ``hssatlas.atlas.degree`` and
``hssatlas.invariants.degree`` are separate names for one function, and
``hssatlas.cli`` reaches the renderers through dictionaries.  Each call
records a span (name, start, end, parent span, op id) in memory; the
benchmark writes them out when the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter
from typing import Callable

# (layer, defining module, attribute).  "Class.method" names a method;
# a missing name is skipped, and its metrics then read 0.
TARGETS = (
    ("spaces.parse", "hssatlas.spaces", "parse"),
    ("spaces.canonicalize", "hssatlas.spaces", "SpaceExpr.canonicalize"),
    ("arith.eval_ratio_direct", "hssatlas.arith", "eval_ratio_direct"),
    ("arith.eval_ratio_legendre", "hssatlas.arith", "eval_ratio_legendre"),
    ("invariants.degree", "hssatlas.invariants", "degree"),
    ("atlas.classify", "hssatlas.atlas", "classify"),
    ("atlas.report", "hssatlas.atlas", "report"),
    ("atlas.threshold_scan", "hssatlas.atlas", "threshold_scan"),
    ("atlas.refinements.load", "hssatlas.atlas", "RefinementTable.resolve"),
    ("atlas.refinements.lookup", "hssatlas.atlas", "RefinementTable.lookup"),
    ("oracle.count_syt_bruteforce", "hssatlas.oracle", "count_syt_bruteforce"),
    ("oracle.count_syt_hook", "hssatlas.oracle", "count_syt_hook"),
    ("oracle.check_type_i_degree", "hssatlas.oracle", "check_type_i_degree"),
    ("cli.main", "hssatlas.cli", "main"),
)
RENDER_MODULE = "hssatlas.render"  # every render_* function is layer "render"

SETUP_OP = -1


def _degrees(value) -> list[int]:
    """Degrees carried by a render argument (a report or a scan)."""
    if hasattr(value, "rows"):
        return [row.degree for row in value.rows]
    return [value.degree] if hasattr(value, "degree") else []


class Tracer:
    def __init__(self) -> None:
        # span: (name, start, end, parent index, op id, ok)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.ratios: Counter = Counter()  # (num args, den args) -> op calls
        self.tableaux = 0
        self.lookup_hits = 0
        self.loaded_entries: list[int] = []
        self.render_bytes = 0
        self.render_digits = 0

    def observe(self, name: str, args: tuple, result) -> None:
        """Counts taken at the layer boundary, outside the span."""
        if name == "atlas.refinements.load":
            self.loaded_entries.append(len(result.entries))
        if self.op == SETUP_OP:
            return
        if name == "arith.eval_ratio_direct":
            ratio = args[0]
            self.ratios[(tuple(ratio.numerator_factorials), tuple(ratio.denominator_factorials))] += 1
        elif name == "oracle.count_syt_bruteforce":
            self.tableaux += result
        elif name == "atlas.refinements.lookup":
            self.lookup_hits += result is not None
        elif name == "render":
            self.render_bytes += len(result.encode())
            digits = [len(str(d)) for d in _degrees(args[0])]
            self.render_digits = max([self.render_digits, *digits])

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, ok)
            self.observe(name, args, result)
            return result

        return wrapper

    def install(self) -> Callable[[], None]:
        """Wrap every target on every binding; returns the undo."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "hssatlas" or n.startswith("hssatlas.")]
        undo: list[Callable[[], None]] = []
        targets = list(TARGETS)
        render = sys.modules.get(RENDER_MODULE)
        if render is not None:
            targets += [("render", RENDER_MODULE, n) for n in sorted(vars(render)) if n.startswith("render_")]
        for layer, module_name, attr in targets:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(layer, raw.__func__))
                else:
                    replacement = self.wrap(layer, raw)
                setattr(owner, method, replacement)
                undo.append(functools.partial(setattr, owner, method, raw))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(layer, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        undo.append(functools.partial(setattr, mod, key, fn))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
                                undo.append(functools.partial(value.__setitem__, k, fn))

        def restore() -> None:
            for step in reversed(undo):
                step()

        return restore

    @contextlib.contextmanager
    def active(self, op: int):
        """Spans on for one operation (or for set-up)."""
        self.op = op
        restore = self.install()
        try:
            yield
        finally:
            restore()

    def dump(self) -> dict:
        """Everything a parent process needs to merge this tracer."""
        return {
            "spans": self.spans,
            "ratios": [[list(num), list(den), n] for (num, den), n in self.ratios.items()],
            "tableaux": self.tableaux,
            "lookup_hits": self.lookup_hits,
            "loaded_entries": self.loaded_entries,
            "render_bytes": self.render_bytes,
            "render_digits": self.render_digits,
        }

    def merge(self, data: dict, op: int) -> None:
        """Append a child process's dump, its spans re-labelled as op."""
        offset = len(self.spans)
        for name, start, end, parent, span_op, ok in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op if span_op >= 0 else span_op, ok))
        for num, den, n in data["ratios"]:
            self.ratios[(tuple(num), tuple(den))] += n
        self.tableaux += data["tableaux"]
        self.lookup_hits += data["lookup_hits"]
        self.loaded_entries += data["loaded_entries"]
        self.render_bytes += data["render_bytes"]
        self.render_digits = max(self.render_digits, data["render_digits"])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, ok in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "ok": ok}) + "\n")

    def layer_metrics(self, ops: int, operand_bits: Callable[[tuple, tuple], int]) -> dict[str, float]:
        """Per-layer totals over the traced ops (setup spans excluded,
        except for the refinement load, which may happen only there)."""
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        total_ms: Counter = Counter()
        failed: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        loads = []
        for index, (name, start, end, parent, op, ok) in enumerate(self.spans):
            if name == "atlas.refinements.load":
                loads.append((end - start) * 1e3)
            if op == SETUP_OP:
                continue
            calls[name] += 1
            total_ms[name] += (end - start) * 1e3
            self_ms[name] += (end - start - child_s[index]) * 1e3
            failed[name] += not ok
        lookups = calls["atlas.refinements.lookup"]
        metrics = {
            "spaces.parse.self_ms": self_ms["spaces.parse"],
            "spaces.canonicalize.calls_per_op": calls["spaces.canonicalize"] / ops,
            "arith.eval_ratio_direct.self_ms": self_ms["arith.eval_ratio_direct"],
            "arith.eval_ratio_direct.calls_per_op": calls["arith.eval_ratio_direct"] / ops,
            "arith.eval_ratio_direct.operand_bits": sum(operand_bits(num, den) * n for (num, den), n in self.ratios.items()),
            "arith.eval_ratio_legendre.self_ms": self_ms["arith.eval_ratio_legendre"],
            "invariants.degree.calls_per_op": calls["invariants.degree"] / ops,
            "invariants.degree.self_ms": self_ms["invariants.degree"],
            "atlas.classify.self_ms": self_ms["atlas.classify"],
            "atlas.report.self_ms": self_ms["atlas.report"],
            "atlas.threshold_scan.self_ms": self_ms["atlas.threshold_scan"],
            "atlas.refinements.load_ms": statistics.mean(loads) if loads else 0.0,
            "atlas.refinements.entries": statistics.mean(self.loaded_entries) if self.loaded_entries else 0.0,
            "atlas.refinements.lookup_calls": lookups,
            "atlas.refinements.lookup_ms": total_ms["atlas.refinements.lookup"],
            "atlas.refinements.hit_ratio": self.lookup_hits / lookups if lookups else 0.0,
            "render.self_ms": self_ms["render"],
            "render.output_bytes": self.render_bytes,
            "render.max_digits": self.render_digits,
            "render.failed": failed["render"],
            "oracle.count_syt_bruteforce.self_ms": self_ms["oracle.count_syt_bruteforce"],
            "oracle.count_syt_bruteforce.tableaux": self.tableaux,
            "oracle.count_syt_hook.self_ms": self_ms["oracle.count_syt_hook"],
            "oracle.check_type_i_degree.self_ms": self_ms["oracle.check_type_i_degree"],
            "cli.main.self_ms": self_ms["cli.main"],
        }
        return metrics
