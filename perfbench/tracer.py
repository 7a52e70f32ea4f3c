"""Spans around the public functions of each ``grouphess`` module.

The wrappers live in the benchmark, not in the program: ``install`` replaces
each traced function by a timing wrapper in every ``grouphess`` module that
holds it.  ``optimizers``, ``summaries`` and ``cli`` bind functions such as
``gradient`` or ``pseudo_hessian`` by name at import time, so patching only
the defining module would leave most calls untraced.

A span is ``(name, start, end, parent, passes)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``passes`` is the engine pass count
spent inside the span, recorded for the functions that need it.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# (module, function) pairs wrapped by the traced run.
TARGETS = (
    ("engine", "evaluate"),
    ("engine", "gradient"),
    ("engine", "gradient_of_nested"),
    ("engine", "nested_directional"),
    ("partition", "mask"),
    ("partition", "group_sum"),
    ("partition", "broadcast"),
    ("summaries", "pseudo_hessian"),
    ("summaries", "summary_tensor"),
    ("summaries", "taylor_term"),
    ("optimizers", "solve_pseudo_system"),
    ("optimizers", "partitioned_newton_step"),
    ("optimizers", "run"),
    ("problems", "make_mlp"),
    ("problems", "synth_dataset"),
    ("cli", "main"),
)

MODULES = ("engine", "partition", "summaries", "optimizers", "problems", "cli")

# spans whose engine pass count is recorded
COUNT_PASSES = {"summaries.pseudo_hessian"}


def _span_name(module: str, func: str, args, kwargs) -> str:
    """``gradient_of_nested`` with one direction is a Hessian-vector product;
    it gets its own span name so that HVPs can be told apart from the deeper
    nested gradients of the order-3 summaries."""
    if func == "gradient_of_nested":
        dirs = args[2] if len(args) > 2 else kwargs["dirs"]
        return "engine.hvp" if len(dirs) == 1 else f"engine.gradient_of_nested[{len(dirs)}]"
    return f"{module}.{func}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.counter = package.engine.counter
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        for module_name, func_name in TARGETS:
            original = getattr(getattr(self.package, module_name), func_name)
            wrapper = self._wrap(module_name, func_name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def off(self):
        """Run the enclosed code with the original, unwrapped functions."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, module_name, func_name, fn):
        spans, stack, counter = self.spans, self._stack, self.counter
        fixed_name = f"{module_name}.{func_name}"
        count = fixed_name in COUNT_PASSES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _span_name(module_name, func_name, args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            before = counter.snapshot().passes if count else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                passes = counter.snapshot().passes - before if count else 0
                stack.pop()
                spans[index] = (name, start, end, parent, passes)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one whole step."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, 0)

    # -- summarising ------------------------------------------------------
    def summary(self, first: int = 0) -> dict:
        """Per span name: calls, total and self seconds, and passes, over the
        spans recorded from index ``first`` on."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "passes": 0})
        for offset, (name, start, end, _, passes) in enumerate(self.spans[first:]):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[first + offset]
            row["passes"] += passes
        return dict(out)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, passes."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
