"""Spans around the public entry points of each tscat2d layer.

A ``Tracer`` replaces each wrapped function by a recording wrapper at every
place the original is bound: the defining module, the package namespace and
every module that imported the name (``cli`` and ``formulations`` hold their
own imported names, ``operators`` looks ``specfun.hankel1`` up through the
module).  Spans are kept in memory and turned into per-pass statistics at the
end; ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct child
spans.  Busy time of a name is the summed duration of its outermost spans.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# layer -> [(function, span name)]
WRAPPED = {
    "specfun": [
        ("hankel1", "specfun.hankel1"),
        ("bessel_j", "specfun.bessel_j"),
        ("hankel1_seq", "specfun.hankel1_seq"),
        ("bessel_j_seq", "specfun.bessel_j_seq"),
    ],
    "operators": [("boundary_operator_set", "operators.opset")],
    "formulations": [("assemble", "formulations.assemble")],
    "solver": [
        ("gmres", "solver.gmres"),
        ("lu_solve", "solver.lu_solve"),
        ("norm2_estimate", "solver.norm2_estimate"),
        ("sigma_min_estimate", "solver.sigma_min_estimate"),
    ],
    "postprocess": [("far_field", "postprocess.far_field")],
    "analytic": [("mie_solve", "analytic.mie_solve")],
    "cli": [("main", "cli.main")],
}


@dataclass
class Span:
    name: str
    parent: int
    pass_index: int
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _work(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counts of one call, computed from its argument and result sizes."""
    a = bound.arguments
    if name in ("specfun.hankel1", "specfun.bessel_j"):
        return {"points": int(getattr(a["z"], "size", 1))}
    if name == "operators.opset":
        fine = a["oversample"] * a["grid"].n
        return {"fine_entries": fine * fine, "real": complex(a["k"]).imag == 0}
    if name == "postprocess.far_field":
        return {"entries": len(a["angles"]) * a["grid"].n}
    if name == "solver.gmres":
        return {"iters": result.iterations}
    return {}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.pass_index = -1  # < 0: not recording
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for layer, funcs in WRAPPED.items():
            module = getattr(self.package, layer)
            for fname, span_name in funcs:
                orig = getattr(module, fname)
                wrapper = self._wrap(orig, span_name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, orig, name):
        sig = inspect.signature(orig)
        measure_alloc = name == "operators.opset"

        def wrapper(*args, **kwargs):
            if self.pass_index < 0:
                return orig(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, self.pass_index, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    span.work["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.work.update(_work(name, bound, result))
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "pass": s.pass_index,
             "start": s.start, "end": s.end, **s.work}
            for s in self.spans
        ]


def pass_stats(spans: list[Span], pass_index: int) -> dict[str, dict]:
    """Per-name calls, busy and self time and summed work of one pass.

    Operator-set spans are also split by wavenumber into ``<name>_real`` and
    ``<name>_complex`` entries.  ``peak_alloc_bytes`` is a maximum, every other
    work count a sum.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    stats: dict[str, dict] = {}

    def entry(name):
        return stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    for i, s in enumerate(spans):
        if s.pass_index != pass_index:
            continue
        outermost = True
        p = s.parent
        while p >= 0:
            if spans[p].name == s.name:
                outermost = False
                break
            p = spans[p].parent
        names = [s.name]
        if "real" in s.work:
            names.append(s.name + ("_real" if s.work["real"] else "_complex"))
        for name in names:
            st = entry(name)
            st["calls"] += 1
            st["self_s"] += s.duration - child_time[i]
            if outermost:
                st["busy_s"] += s.duration
        st = stats[s.name]
        for key, value in s.work.items():
            if key == "real":
                continue
            if key == "peak_alloc_bytes":
                st[key] = max(st.get(key, 0), value)
            else:
                st[key] = st.get(key, 0) + value
    return stats
