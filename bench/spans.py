"""Per-layer tracing of a harness run, installed from outside the program.

The tracer replaces, for the length of a traced round, the names that
``cmdreason.harness`` imports from each layer, plus the cache and backend
methods, with wrappers that record one span per call: layer name, start and
end (``perf_counter_ns``), and a tag for the call's result.  Spans stay in
memory; ``layer_metrics`` turns one round's spans into the per-layer numbers.
A wrapped name that the program no longer has is listed in ``absent`` and its
metrics read zero.

Spans in worker threads include the time spent waiting for the interpreter
lock, which is why the benchmark records process CPU time beside them.
"""
from __future__ import annotations

import functools
import importlib
import time

# (module, attribute or "Class.method", layer span name, result tagger)
TARGETS = (
    ("cmdreason.harness", "load_dataset", "dataset.load", None),
    ("cmdreason.harness", "build_transcript", "prompt.build", None),
    ("cmdreason.harness", "cache_key", "backend.key", None),
    ("cmdreason.backend", "cache_key", "backend.key", None),
    ("cmdreason.harness", "parse_response", "parser.parse", "parse"),
    ("cmdreason.harness", "evaluate", "metrics.evaluate", None),
    ("cmdreason.backend", "ResponseCache.get", "backend.cache_get", "hit"),
    ("cmdreason.backend", "ResponseCache.put", "backend.cache_put", None),
    ("cmdreason.backend", "ChatBackend.complete", "backend.complete", None),
)


def _tag(kind: str | None, result) -> str | None:
    if kind == "parse":
        return getattr(result, "method", None) or "failed"
    if kind == "hit":
        return "miss" if result is None else "hit"
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, path, span, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, span, kind))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str, kind: str | None):
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span, start, clock(), "error"))
                raise
            spans.append((span, start, clock(), _tag(kind, result)))
            return result

        return traced


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def layer_metrics(
    spans: list[tuple[str, int, int, str | None]],
    start_ns: int,
    end_ns: int,
    commands: int,
) -> dict[str, float]:
    """Per-layer numbers for one round whose top-level call ran start..end."""
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    tags: dict[tuple[str, str | None], int] = {}
    for name, start, stop, tag in spans:
        total[name] = total.get(name, 0) + stop - start
        calls[name] = calls.get(name, 0) + 1
        tags[name, tag] = tags.get((name, tag), 0) + 1

    def per_cmd_us(name: str) -> float:
        return total.get(name, 0) / commands / 1e3

    def per_call_us(name: str) -> float:
        return total.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

    self_ns = end_ns - start_ns - _covered_ns([(s, e) for _, s, e, _ in spans], start_ns, end_ns)
    return {
        "dataset.load_us_per_cmd": per_cmd_us("dataset.load"),
        "prompt.build_us_per_cmd": per_cmd_us("prompt.build"),
        "backend.key_us_per_cmd": per_cmd_us("backend.key"),
        "backend.key_calls_per_cmd": calls.get("backend.key", 0) / commands,
        "backend.cache_get_us": per_call_us("backend.cache_get"),
        "backend.cache_hits": tags.get(("backend.cache_get", "hit"), 0),
        "backend.cache_misses": tags.get(("backend.cache_get", "miss"), 0),
        "backend.cache_put_us": per_call_us("backend.cache_put"),
        "backend.complete_us": per_call_us("backend.complete"),
        "parser.parse_us_per_cmd": per_cmd_us("parser.parse"),
        "parser.bracket": tags.get(("parser.parse", "bracket"), 0),
        "parser.step_fallback": tags.get(("parser.parse", "step_fallback"), 0),
        "parser.failed": tags.get(("parser.parse", "failed"), 0),
        "metrics.evaluate_us_per_cmd": per_cmd_us("metrics.evaluate"),
        "harness.self_us_per_cmd": self_ns / commands / 1e3,
    }
