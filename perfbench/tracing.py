"""Spans around the public entry points of every ``uuqc`` module.

``Tracer.install`` replaces each wrapped function with a recording wrapper
wherever a module holds a binding to it: modules import names directly
(``from .channels import apply``), so patching only the defining module
would miss most calls.  Each span records its name, start, end, parent span
and job id in memory; ``summary`` turns them into per-function call counts
and inclusive times, and per-module self time (span time minus the time
its child spans cover) and error counts.

Microsecond helpers (``dagger``, ``frobenius``, ``tensor_product``) are not
wrapped: their cost is charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter

MODULES = ("linalg", "channels", "unambiguous", "entanglement", "qec", "densecode", "formats", "cli")

WRAPPED = {
    "linalg": ("partial_trace", "factor_as_tensor", "shift_clock_unitaries"),
    "channels": ("apply", "is_physical", "choi_state", "compose"),
    "unambiguous": ("certify_uum", "certify_uuqc", "refine"),
    "entanglement": (
        "schmidt",
        "is_rank_d_ues",
        "uuqc_to_ues",
        "ues_to_uuqc",
        "teleport_probability_pure",
        "check_mixed_nonzero",
        "search_mixed_nonzero",
    ),
    "qec": (
        "kl_check",
        "diagonalize_errors",
        "standard_recovery",
        "verify_correction_uuqc",
        "noise_choi_state",
        "meets_certainty_condition",
        "unambiguous_correction_probability",
    ),
    "densecode": ("optimal_protocol", "optimal_receiver", "simulate", "verify_protocol_bound"),
    "formats": (
        "load_json",
        "dump_json",
        "doc_to_matrix",
        "doc_to_ket",
        "doc_to_channel",
        "doc_to_code",
        "matrix_to_doc",
        "ket_to_doc",
        "channel_to_doc",
    ),
    "cli": ("dispatch",),
}

# Span fields.
NAME, START, END, PARENT, JOB, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.counters = Counter()
        self._patches = []
        self._hooks = {
            "qec.unambiguous_correction_probability": self._count_method,
            "formats.load_json": self._count_bytes_in,
            "formats.dump_json": self._count_bytes_out,
        }

    def _count_method(self, args, result):
        self.counters["ec_prob.calls"] += 1
        self.counters["ec_prob.exact"] += result[1] == "pure-exact"

    def _count_bytes_in(self, args, result):
        self.counters["formats.bytes_in"] += os.path.getsize(args[0])

    def _count_bytes_out(self, args, result):
        self.counters["formats.bytes_out"] += len(result.encode("utf-8"))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [importlib.import_module("uuqc")]
        modules += [importlib.import_module(f"uuqc.{m}") for m in MODULES]
        for layer, names in WRAPPED.items():
            home = importlib.import_module(f"uuqc.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-function ``calls``/``ms`` and per-module ``self_ms``/``errors``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out = {}
        for layer, names in WRAPPED.items():
            out[f"{layer}.self_ms"] = 0.0
            out[f"{layer}.errors"] = 0
            for name in names:
                out[f"{layer}.{name}.calls"] = 0
                out[f"{layer}.{name}.ms"] = 0.0
        for span, inside in zip(self.spans, child):
            layer = span[NAME].split(".", 1)[0]
            duration = (span[END] - span[START]) * 1e3
            out[f"{span[NAME]}.calls"] += 1
            out[f"{span[NAME]}.ms"] += duration
            out[f"{layer}.self_ms"] += duration - inside * 1e3
            out[f"{layer}.errors"] += span[ERROR]
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "error"], "spans": self.spans}, fh)
