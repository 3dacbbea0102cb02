"""Outside-in tracing: time each layer's public functions from the caller's side.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces the
module globals (and one class attribute) that the callers resolve at run
time with timing wrappers, keeps one span per call in memory, and puts
every original back when the ``installed()`` block exits.  The current
span lives in a context variable, so concurrent asyncio requests each
nest their own spans.  A layer's self time is its span's duration minus
the wrapped calls made inside it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import time
import types

#: (module, attribute, layer, module whose code must look the attribute up).
#: Modules are reached through ``importlib.import_module``: an ``import
#: repro.core.rcm_serial as m`` yields the *function*, which the package
#: re-exports under the module's name.  ``filtered_unique`` is bound twice:
#: ``bfs_multi`` imports it at module load, the numpy backend re-imports
#: it from ``frontier`` on every call.
BINDINGS = (
    ("repro.core.rcm_serial", "cm_serial", "core.cm_serial", None),
    ("repro.core.rcm_serial", "find_pseudo_peripheral", "core.pseudo_peripheral", None),
    ("repro.core.rcm_serial", "gather_rows", "core.sweep.gather", None),
    ("repro.core.bfs_multi", "filtered_unique", "backends.frontier.dedup", None),
    ("repro.backends.frontier", "filtered_unique", "backends.frontier.dedup",
     "repro.backends.numpy_backend"),
    ("repro.distributed.rcm", "DistSparseMatrix.from_csr", "distributed.distribute", None),
    ("repro.distributed.rcm", "distributed_pseudo_peripheral",
     "distributed.pseudo_peripheral", None),
    ("repro.distributed.rcm", "d_first_index_where", "distributed.first_index_where", None),
    ("repro.distributed.rcm", "dist_spmspv", "distributed.spmspv", None),
    ("repro.distributed.rcm", "dist_spmspv_pull", "distributed.spmspv", None),
    ("repro.distributed.rcm", "d_sortperm", "distributed.sortperm", None),
    ("repro.distributed.rcm", "d_read_dense", "distributed.vector_ops", None),
    ("repro.distributed.rcm", "d_select", "distributed.vector_ops", None),
    ("repro.distributed.rcm", "d_set_dense", "distributed.vector_ops", None),
    ("repro.distributed.rcm", "d_nnz", "distributed.vector_ops", None),
    ("repro.distributed.rcm", "d_fill_values", "distributed.vector_ops", None),
    ("repro.distributed.rcm", "d_reduce_argmin", "distributed.vector_ops", None),
    ("repro.service.server", "request_key", "service.hash", None),
)

#: Every layer a traced run must reach; zero calls means a wrapper sat
#: on a binding that nothing used.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in BINDINGS))


def _count_bfs(counts, args, out):
    counts["bfs_sweeps"] = counts.get("bfs_sweeps", 0) + out.bfs_count


def _count_candidates(counts, args, out):
    counts["candidates"] = counts.get("candidates", 0) + len(out)


def _count_dedup(counts, args, out):
    counts["in"] = counts.get("in", 0) + len(args[0])
    counts["out"] = counts.get("out", 0) + len(out)


def _count_vertices(counts, args, out):
    counts["vertices"] = counts.get("vertices", 0) + args[0].nrows


#: Per-layer counters read off each call's arguments and result.
COUNTERS = {
    "core.pseudo_peripheral": _count_bfs,
    "core.sweep.gather": _count_candidates,
    "backends.frontier.dedup": _count_dedup,
    "core.cm_serial": _count_vertices,
}


class LayerStat:
    """Calls, inclusive seconds, self seconds and counters of one layer."""

    __slots__ = ("calls", "seconds", "self_seconds", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counts: dict[str, int] = {}


class _Frame:
    __slots__ = ("id", "name", "t0", "child", "parent", "op")

    def __init__(self, span_id, name, t0, parent, op) -> None:
        self.id = span_id
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.parent = parent
        self.op = op


class Op:
    """One timed entry-point call and the layer stats recorded inside it."""

    __slots__ = ("name", "seconds", "self_seconds", "layers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.layers: dict[str, LayerStat] = {}

    def stat(self, layer: str) -> LayerStat:
        return self.layers.get(layer) or LayerStat()


class NoPatchError(RuntimeError):
    """A wrapper would sit on a binding that no caller resolves."""


def _code_objects(module):
    """Every code object of the functions and methods defined in ``module``."""
    stack = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            stack.extend(vars(obj).values())
        else:
            stack.append(obj)
    found = []
    while stack:
        item = stack.pop()
        obj = getattr(item, "__func__", item)
        if isinstance(obj, types.CodeType):
            code = obj
        elif isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            code = obj.__code__
        else:
            continue
        found.append(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.ops: list[Op] = []
        self.binding_calls = {f"{m}.{a}": 0 for m, a, _, _ in BINDINGS}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._next_id = 0
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, op: Op | None) -> _Frame:
        parent = self._current.get()
        self._next_id += 1
        if op is None and parent is not None:
            op = parent.op
        return _Frame(self._next_id, name, time.perf_counter(), parent, op)

    def _close(self, frame: _Frame) -> tuple[float, float]:
        t1 = time.perf_counter()
        seconds = t1 - frame.t0
        if frame.parent is not None:
            frame.parent.child += seconds
        self.spans.append(
            (frame.id, frame.parent.id if frame.parent else 0, frame.name,
             frame.t0 - self._origin, t1 - self._origin)
        )
        return seconds, seconds - frame.child

    @contextlib.contextmanager
    def op(self, name: str):
        """A benchmark-side span around one public entry-point call."""
        op = Op(name)
        frame = self._open(name, op)
        token = self._current.set(frame)
        try:
            yield op
        finally:
            self._current.reset(token)
            op.seconds, op.self_seconds = self._close(frame)
            self.ops.append(op)

    def ops_named(self, name: str) -> list[Op]:
        return [op for op in self.ops if op.name == name]

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for op in self.ops:
            for layer, stat in op.layers.items():
                calls[layer] += stat.calls
        return calls

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, layer: str, binding: str):
        count = COUNTERS.get(layer)
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(layer, None)
            token = current.set(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                current.reset(token)
                seconds, own = self._close(frame)
                self.binding_calls[binding] = self.binding_calls.get(binding, 0) + 1
                stat = None
                if frame.op is not None:
                    stat = frame.op.layers.get(layer)
                    if stat is None:
                        stat = frame.op.layers[layer] = LayerStat()
                    stat.calls += 1
                    stat.seconds += seconds
                    stat.self_seconds += own
            if count is not None and stat is not None:
                count(stat.counts, args, out)
            return out

        traced.wrapped_by_perfbench = True
        return traced

    @contextlib.contextmanager
    def installed(self, bindings=BINDINGS):
        """Wrap every binding; restore all originals on exit, even on error."""
        # check every binding before patching any, so the look-up check
        # reads the callers' own code rather than earlier wrappers
        plan = []
        for module_name, attr, layer, caller in bindings:
            module = importlib.import_module(module_name)
            owner, _, name = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            original = vars(target).get(name)
            if original is None:
                raise NoPatchError(f"{module_name}.{attr} is not bound there")
            fn = getattr(original, "__func__", original)
            if getattr(fn, "wrapped_by_perfbench", False):
                raise NoPatchError(f"{module_name}.{attr} is already wrapped")
            looked_up = importlib.import_module(caller or module_name)
            if not any(name in code.co_names for code in _code_objects(looked_up)):
                raise NoPatchError(
                    f"nothing in {looked_up.__name__} looks up {name!r}: "
                    f"wrapping {module_name}.{attr} would time nothing"
                )
            plan.append((target, name, original, fn, layer, f"{module_name}.{attr}"))
        undo = []
        try:
            for target, name, original, fn, layer, binding in plan:
                wrapper = self._wrap(fn, layer, binding)
                if isinstance(original, classmethod):
                    wrapper = classmethod(wrapper)
                setattr(target, name, wrapper)
                undo.append((target, name, original))
            yield self
        finally:
            for target, name, original in reversed(undo):
                setattr(target, name, original)

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span once, as tab-separated lines, when the run ends."""
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{i}\t{p}\t{name}\t{t0:.9f}\t{t1:.9f}\n" for i, p, name, t0, t1 in self.spans
            )
