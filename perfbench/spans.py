"""In-memory span recorder that wraps oaasim's public functions.

A traced run replaces every function named in ``oaasim.__all__`` (plus a
few named private helpers, see ``EXTRA_TARGETS``) at each ``oaasim.*``
module attribute bound to it, so inner calls such as
``oblivious_aa -> apply_circuit`` or ``polar_symmetric -> sym_eigen`` are
recorded too. Each call becomes one span: name, start, end, parent span,
thread id, op id, and a dimension and count read from the arguments.
Spans stay in memory until the run ends.

A name that does not exist (a later refactor removed it) is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
from dataclasses import astuple, dataclass, fields
from time import perf_counter

# Helpers outside oaasim.__all__ that the per-layer table names, as
# "<module>.<attribute>". They may disappear in a refactor.
EXTRA_TARGETS = ("cli.main", "experiments._run_trial", "svgplot.line_chart")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None
    dim: int | None = None
    # computed bytes for apply_circuit, k for oblivious_aa, stages for
    # chained_product_circuit
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dim_of(value):
    """Embedded dimension of a circuit, state or square matrix argument."""
    m_dim = getattr(value, "m_dim", None)
    if isinstance(m_dim, int):
        return m_dim
    shape = getattr(value, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    return None


def _describe(label, args, kwargs):
    """Span name, dimension and count for one call of the function `label`
    ("<module>.<function>")."""
    name, dim, count = label, None, None
    if args:
        dim = _dim_of(args[0])
    if label == "circuit.apply_circuit":
        inverse = kwargs.get("inverse", args[2] if len(args) > 2 else False)
        name = "circuit.apply_inv" if inverse else "circuit.apply_fwd"
        if dim is not None and hasattr(args[0], "n_dim"):
            # computed, not measured: read input state, reflector vectors,
            # write output state, 8 bytes per float
            count = 24 * args[0].m_dim * args[0].n_dim
    elif label == "experiments._run_trial" and len(args) > 1:
        dim = int(args[1])
    elif label == "amplification.oblivious_aa":
        k = kwargs.get("k", args[2] if len(args) > 2 else None)
        count = int(k) if k is not None else None
    elif label == "matfunc.chained_product_circuit" and args:
        count = len(getattr(args[0], "factors", ()))
    return name, dim, count


class Tracer:
    """Records spans for wrapped oaasim functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self.wrapped: list = []
        self.absent: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, dim, count = _describe(label, args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = Span(sid, name, start, end, parent,
                                         threading.get_ident(), tracer.op_id,
                                         dim, count)

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions and EXTRA_TARGETS at every
        package module attribute bound to them."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        targets = {}
        for name in getattr(package, "__all__", ()):
            fn = getattr(package, name, None)
            if fn is None:
                self.absent.append(name)
            elif inspect.isfunction(fn):
                targets[fn] = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        for dotted in EXTRA_TARGETS:
            module_name, attr = dotted.split(".")
            module = sys.modules.get(f"{prefix}.{module_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if inspect.isfunction(fn):
                targets[fn] = dotted
            else:
                self.absent.append(dotted)
        wrappers = {fn: self.wrap(label, fn) for fn, label in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self.wrapped = sorted(targets.values())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        """Gzipped JSON lines: the field names, then one list per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps([f.name for f in fields(Span)]) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(astuple(span)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its child spans.

    Children are recorded from a per-thread stack, so a span's children
    always ran on its own thread; spans running at the same moment on
    another thread never reduce its self time.
    """
    child_time: dict = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - child_time.get(span.id, 0.0) for span in spans}


def uncovered(outer, inner) -> float:
    """Time inside `outer`'s interval not covered by any span in `inner`,
    whatever thread those ran on."""
    pieces = sorted((max(s.start, outer.start), min(s.end, outer.end))
                    for s in inner if s.end > outer.start and s.start < outer.end)
    covered, cursor = 0.0, outer.start
    for lo, hi in pieces:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return outer.duration - covered
