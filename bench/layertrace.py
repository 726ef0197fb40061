"""Outside-in tracing of the tunneltimes layers.

The package calls its layers through module attributes (`stationary.
amplitudes`, `wavepacket.synthesize_amplitude`, ...) or through names bound
by `from .x import y`.  `Tracer.install` replaces every such binding of each
public function of the layer modules with a wrapper that records a span, so
the package itself is untouched.  Private helpers are not wrapped: their
time is self time of the public function that calls them.

A span is (name, start_ns, end_ns, parent, op, error, work); spans stay in
memory and are reduced per pass.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("stationary", "times", "numerics", "wavepacket", "spectral", "cli")

SYNTH = "wavepacket.synthesize_amplitude"
ARRIVAL = "wavepacket.arrival_time_of_max"
SCAN = "wavepacket.scan_arrival"


def _work(name: str, args, result) -> dict:
    """Implementation-independent work counts of one call."""
    if name == SYNTH:
        famp, times = args[0], args[2]
        return {"samples": len(times), "node_samples": len(famp.grid) * len(times)}
    if name in ("wavepacket.spectral_amplitude", "wavepacket.free_spectral_amplitude"):
        return {"nodes": len(result.grid)}
    if name == "stationary.amplitudes":
        eps = args[2]
        return {"nodes": int(getattr(eps, "size", 1))}
    if name == "spectral.barrier_k_spectrum":
        return {"k_samples": len(result.k), "parseval_max": result.parseval_rel_err}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                work = _work(name, args, result) if error is None else {}
                spans[index] = (name, start, end, parent, self.op, error, work)

        return traced

    def install(self) -> int:
        """Wrap every public function of the layer modules; return the count."""
        import tunneltimes  # noqa: F401  (loads the package modules)

        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tunneltimes.{layer}")
            if module is None:
                __import__(f"tunneltimes.{layer}")
                module = sys.modules[f"tunneltimes.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "tunneltimes" and not name.startswith("tunneltimes."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return len(originals)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def reduce_spans(spans: list) -> dict:
    """Per-function calls, self time and work counts of one pass.

    Also counts scan_arrival attempts (spectral amplitudes built directly
    under a scan) and the synthesis self time spent inside arrival searches
    that ended in WindowError, i.e. in windows that were thrown away.
    """
    child_ns = [0] * len(spans)
    synth_ns = [0] * len(spans)  # synthesis self time in each span's subtree
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, _, _ = spans[i]
        own = end - start - child_ns[i]
        if name == SYNTH:
            synth_ns[i] += own
        if parent >= 0:
            child_ns[parent] += end - start
            synth_ns[parent] += synth_ns[i]
    stats: dict[str, dict] = {}
    wasted_ns = 0
    attempts = 0
    for i, (name, start, end, parent, _, error, work) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_ns": 0})
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[i]
        for key, value in work.items():
            if key == "parseval_max":
                s[key] = max(s.get(key, 0.0), value)
            else:
                s[key] = s.get(key, 0) + value
        if name == ARRIVAL and error == "WindowError":
            wasted_ns += synth_ns[i]
        if name == "wavepacket.spectral_amplitude" and parent >= 0 and spans[parent][0] == SCAN:
            attempts += 1
    root_ns = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    return {"functions": stats, "scan_attempts": attempts,
            "wasted_synth_ns": wasted_ns, "root_ns": root_ns}


def counts_of(reduced: dict) -> dict:
    """The parts of a reduced pass that must repeat exactly for one seed."""
    return {"scan_attempts": reduced["scan_attempts"],
            "functions": {name: {k: v for k, v in s.items() if k != "self_ns"}
                          for name, s in sorted(reduced["functions"].items())}}


def combine(parts: list[dict]) -> dict:
    """Sum reduced passes (or the commands of one pass) into one record."""
    total = {"functions": {}, "scan_attempts": 0, "wasted_synth_ns": 0, "root_ns": 0}
    for reduced in parts:
        for key in ("scan_attempts", "wasted_synth_ns", "root_ns"):
            total[key] += reduced[key]
        for name, s in reduced["functions"].items():
            t = total["functions"].setdefault(name, {})
            for key, value in s.items():
                if key == "parseval_max":
                    t[key] = max(t.get(key, 0.0), value)
                else:
                    t[key] = t.get(key, 0) + value
    return total


def span_records(spans: list) -> list[dict]:
    return [{"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "op": op, "error": error, **work}
            for name, start, end, parent, op, error, work in spans]
