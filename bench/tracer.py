"""Outside-in tracing of the toolkit, installed from the benchmark's files.

:class:`Tracer` wraps, without touching ``src/``, every public module-level
function and every public method of the classes defined in the traced
modules, plus the arithmetic operators of ``Poly`` and ``ChartFunction``.
Each wrapped call is a span; a span's self time is its duration minus the
time its child spans cover.  ``GaussianRational`` operators are too small
to time one by one, so they are only counted, and every
``GR_SAMPLE_EVERY``-th call keeps its operands so that
:meth:`Tracer.replay_gr_ops` can time the same operations untraced.

Spans are aggregated in memory per name; nothing is written until the
benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("algebra", "fields", "classify", "intervals", "blowup", "resolve",
           "integrals", "dynamics", "expressions", "cli")
SPAN_DUNDERS = {"Poly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__"),
                "ChartFunction": ("__add__", "__sub__", "__neg__", "__mul__")}
GR_BINARY = ("__add__", "__sub__", "__mul__", "__truediv__")
GR_UNARY = ("__neg__",)
GR_SAMPLE_EVERY = 61
GR_SAMPLE_CAP = 40000

PROBE = "resolve.detect_persistent_nilpotent"
MATCH = "resolve.match_persistent_normal_form"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, self seconds, total seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.gr_ops = [0]
        self.gr_samples: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._gr_class = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"foliations.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._span(f"{short}.{name}", obj)
                    wrappers[id(obj)] = wrapper
                    self._set(module, name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    if name == "GaussianRational":
                        self._wrap_scalar(obj)
                    else:
                        self._wrap_class(short, obj)
        # rebind names other modules imported with ``from .m import f``
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "foliations" or modname.startswith("foliations.")):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(module, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, short: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in SPAN_DUNDERS.get(cls.__name__, ()):
                continue
            span = f"{short}.{cls.__name__}.{name}"
            if isinstance(member, staticmethod):
                self._set(cls, name, staticmethod(self._span(span, member.__func__)))
            elif isinstance(member, classmethod):
                self._set(cls, name, classmethod(self._span(span, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, name, self._span(span, member))

    def _wrap_scalar(self, cls) -> None:
        self._gr_class = cls
        ops, samples = self.gr_ops, self.gr_samples
        every, cap = GR_SAMPLE_EVERY, GR_SAMPLE_CAP

        def binary(fn):
            def wrapper(a, b):
                n = ops[0] = ops[0] + 1
                if n % every == 0 and len(samples) < cap:
                    samples.append((fn, a, b))
                return fn(a, b)
            return wrapper

        def unary(fn):
            def wrapper(a):
                n = ops[0] = ops[0] + 1
                if n % every == 0 and len(samples) < cap:
                    samples.append((fn, a))
                return fn(a)
            return wrapper

        for name in GR_BINARY:
            self._set(cls, name, binary(vars(cls)[name]))
        for name in GR_UNARY:
            self._set(cls, name, unary(vars(cls)[name]))

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        observe = {"classify.classify_singularity": self._observe_classify,
                   PROBE: self._observe_probe}.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if name == MATCH and stack and stack[-1][1] == PROBE:
                counts["probe_germs"] += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_classify(self, report) -> None:
        if report.eigen is None:
            return
        self.counts["classified_with_eigen"] += 1
        if all(isinstance(v, self._gr_class) for v, _ in report.eigen.roots):
            self.counts["classified_exact"] += 1

    def _observe_probe(self, report) -> None:
        self.counts["probes"] += 1
        self.counts["probe_hits"] += bool(report.matched)

    # -- reporting -----------------------------------------------------------

    def replay_gr_ops(self, repeats: int = 3) -> float:
        """Median seconds per sampled scalar operation, replayed untraced."""
        samples = self.gr_samples
        if not samples:
            return 0.0
        binary = [s for s in samples if len(s) == 3]
        unary = [s for s in samples if len(s) == 2]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for fn, a, b in binary:
                fn(a, b)
            for fn, a in unary:
                fn(a)
            times.append(time.perf_counter() - start)
        times.sort()
        return times[len(times) // 2] / len(samples)

    def module_totals(self) -> dict[str, list]:
        """module -> [span calls, self seconds]."""
        out = {m: [0, 0.0] for m in MODULES}
        for name, (calls, self_s, _total) in self.spans.items():
            entry = out[name.split(".", 1)[0]]
            entry[0] += calls
            entry[1] += self_s
        return out
