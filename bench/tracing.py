"""Layer spans and counts, taken from outside the program by wrapping its functions.

``Tracer.install`` replaces selected public functions and methods of the
modules ``lattice``, ``trees``, ``flow``, ``dt``, ``algebra`` and
``scattering`` with wrappers that record a span (id, parent id, name,
start, end) and bump counters, then call the original and return its
result unchanged.  A function imported by value into another module (for
example ``flow_tree_scalar`` into ``dt``, ``cli`` and ``checks``) is
replaced in every module that binds it, so calls through any name are
seen.  ``uninstall`` puts the originals back.  A function the program no
longer has is skipped, and its metrics read 0.

Self time is a span's duration minus the time covered by its child
spans, accumulated per name as spans close.  Starts and ends are read
on the thread's CPU clock.  Generators (tree and decomposition
enumeration) are timed per resume: each ``next`` is a frame on the
stack, so their self time is the time spent producing items, and one
span per generator covers its life from creation to exhaustion.

Only layer entry points are wrapped.  Small helpers called millions of
times (``mask_sum``, ``pair_masks``, ``kappa``, ``LaurentPoly`` arithmetic)
are not: a wrapper would cost more than the helper, and their time shows
as self time of the layer that calls them.  ``BiLaurent.__mul__`` only
counts calls and records no span, so its time stays with its caller.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

import workloads  # noqa: F401  (puts src/ on sys.path)
from quiverdt import algebra as qalg
from quiverdt import dt as qdt
from quiverdt import flow as qflow
from quiverdt import lattice as qlat
from quiverdt import scattering as qsc
from quiverdt import trees as qtrees

SAMPLE_OMEGA = "lattice.sample_omega"
FLOW_CONDITIONS = "flow.flow_conditions_hold"
ENUMERATE_TREES = "trees.enumerate_trees"
SUPPORTED_TREES = "flow.kappa_supported_trees"
FLOW_TREE_SCALAR = "flow.flow_tree_scalar"
ASSEMBLE_DT = "dt.assemble_dt"
DECOMPOSITIONS = "dt.enumerate_decompositions"
UNIVERSAL = "dt.universal_coefficient"
KEY_FOR = "dt.fcache.key_for"
CACHE_GET = "dt.fcache.get"
CACHE_PUT = "dt.fcache.put"
DT_INTEGER = "dt.dt_integer_value"
RATFUNC = "algebra.ratfunc"
RECONSTRUCT = "scattering.reconstruct_rank2"

# Span times are CPU times of the calling thread, like the end-to-end times
# (see run.py): on a shared virtual machine the host's steal bursts would
# otherwise land on whichever layer happened to be running.
clock = time.thread_time_ns

RATFUNC_OPS = (
    "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__",
    "substitute_power", "to_bilaurent", "is_polynomial", "inverse",
)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._name_index: dict = {}
        # Flat records of five integers: id, parent id (-1 at top), name index, start, end.
        self.spans = array("q")
        self.self_ns: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _parent(self) -> int:
        stack = self._stack()
        return stack[-1][1] if stack else -1

    def _enter(self, name: str, span_id: int, parent: int) -> list:
        # frame: name, span id, parent id, start, time covered by children
        frame = [name, span_id, parent, clock(), 0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, record: bool) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        name, span_id, parent, start, covered = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - covered
            if record:
                self._record(span_id, parent, name, start, end)

    def _record(self, span_id, parent, name, start, end) -> None:
        index = self._name_index.setdefault(name, len(self._name_index))
        self.spans.extend((span_id, parent, index, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def parent_name(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    # -- wrappers --------------------------------------------------------------

    def call_wrapper(self, name, fn, after=None):
        """Span around each call; ``after(args, result)`` may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, self._new_id(), self._parent())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, record=True)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator_wrapper(self, name, fn, item_counter):
        """Span per generator, frame per resume, one count per item yielded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._traced_items(name, fn(*args, **kwargs), item_counter)

        return wrapper

    def _traced_items(self, name, items, item_counter):
        span_id, parent, start = self._new_id(), self._parent(), clock()
        while True:
            frame = self._enter(name, span_id, parent)
            try:
                item = next(items)
            except StopIteration:
                self._exit(frame, record=False)
                break
            except BaseException:
                self._exit(frame, record=False)
                raise
            self._exit(frame, record=False)
            self.count(item_counter)
            yield item
        with self._lock:
            self._record(span_id, parent, name, start, clock())

    def counting_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_function(self, module, attr, wrapper_for):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = wrapper_for(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("quiverdt"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def _replace_method(self, cls, attr, wrapper_for, static=False):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        function = original.__func__ if static else original
        wrapped = wrapper_for(function)
        setattr(cls, attr, staticmethod(wrapped) if static else wrapped)
        self._patched.append((cls, attr, original))

    def install(self) -> None:
        def rejected(args, result):
            if result is False:
                self.count("flow.flow_conditions_hold.rejected")

        def weighed(args, result):
            # Trees the evaluator walks: the supported list it fetches.
            if self.parent_name() == FLOW_TREE_SCALAR:
                self.count("flow.trees_weighed", len(result))

        call = self.call_wrapper
        self._replace_function(qlat, "sample_omega", lambda f: call(SAMPLE_OMEGA, f))
        self._replace_function(qtrees, "enumerate_trees",
                               lambda f: self.generator_wrapper(ENUMERATE_TREES, f, "trees.trees_enumerated"))
        self._replace_function(qflow, "flow_conditions_hold", lambda f: call(FLOW_CONDITIONS, f, rejected))
        self._replace_function(qflow, "kappa_supported_trees", lambda f: call(SUPPORTED_TREES, f, weighed))
        self._replace_function(qflow, "flow_tree_scalar", lambda f: call(FLOW_TREE_SCALAR, f))
        self._replace_function(qdt, "assemble_dt", lambda f: call(ASSEMBLE_DT, f))
        self._replace_function(qdt, "enumerate_decompositions",
                               lambda f: self.generator_wrapper(DECOMPOSITIONS, f, "dt.decompositions"))
        self._replace_function(qdt, "universal_coefficient", lambda f: call(UNIVERSAL, f))
        self._replace_function(qdt, "dt_integer_value", lambda f: call(DT_INTEGER, f))
        self._replace_function(qsc, "reconstruct_rank2", lambda f: call(RECONSTRUCT, f))
        self._replace_method(qdt.FCache, "key_for", lambda f: call(KEY_FOR, f), static=True)
        self._replace_method(qdt.FCache, "get", self._cache_get_wrapper)
        self._replace_method(qdt.FCache, "put", lambda f: call(CACHE_PUT, f))
        self._replace_method(qalg.RatFunc, "__init__", lambda f: call(RATFUNC, f))
        for attr in RATFUNC_OPS:
            self._replace_method(qalg.RatFunc, attr, self._ratfunc_op_wrapper)
        self._replace_method(qalg.BiLaurent, "__mul__",
                             lambda f: self.counting_wrapper("algebra.bilaurent.mul.calls", f))

    def _ratfunc_op_wrapper(self, fn):
        traced = self.call_wrapper(RATFUNC, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("algebra.ratfunc.ops")
            return traced(*args, **kwargs)

        return wrapper

    def _cache_get_wrapper(self, fn):
        traced = self.call_wrapper(CACHE_GET, fn)

        @functools.wraps(fn)
        def wrapper(cache, key):
            # The tier is read off FCache's memory dict before the lookup fills it.
            in_memory = key in getattr(cache, "memory", ())
            value = traced(cache, key)
            if in_memory:
                self.count("dt.fcache.memory_hits")
            elif value is not None:
                self.count("dt.fcache.disk_hits")
            else:
                self.count("dt.fcache.misses")
            return value

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        def self_s(name):
            return self.self_ns.get(name, 0) / 1e9

        counts = dict(self.counts)
        lookups = sum(counts.get(f"dt.fcache.{t}", 0) for t in ("memory_hits", "disk_hits", "misses"))
        hits = counts.get("dt.fcache.memory_hits", 0) + counts.get("dt.fcache.disk_hits", 0)
        return {
            "lattice.sample_omega.calls": self.calls.get(SAMPLE_OMEGA, 0),
            "lattice.sample_omega.self_s": self_s(SAMPLE_OMEGA),
            "flow.flow_conditions_hold.calls": self.calls.get(FLOW_CONDITIONS, 0),
            "flow.flow_conditions_hold.rejected": counts.get("flow.flow_conditions_hold.rejected", 0),
            "flow.flow_conditions_hold.self_s": self_s(FLOW_CONDITIONS),
            "trees.trees_enumerated": counts.get("trees.trees_enumerated", 0),
            "trees.enumerate_trees.self_s": self_s(ENUMERATE_TREES),
            "flow.kappa_supported_trees.self_s": self_s(SUPPORTED_TREES),
            "flow.flow_tree_scalar.calls": self.calls.get(FLOW_TREE_SCALAR, 0),
            "flow.flow_tree_scalar.self_s": self_s(FLOW_TREE_SCALAR),
            "flow.trees_weighed": counts.get("flow.trees_weighed", 0),
            "dt.assemble_dt.calls": self.calls.get(ASSEMBLE_DT, 0),
            "dt.assemble_dt.self_s": self_s(ASSEMBLE_DT),
            "dt.decompositions": counts.get("dt.decompositions", 0),
            "dt.universal_coefficient.calls": self.calls.get(UNIVERSAL, 0),
            "dt.fcache.memory_hits": counts.get("dt.fcache.memory_hits", 0),
            "dt.fcache.disk_hits": counts.get("dt.fcache.disk_hits", 0),
            "dt.fcache.misses": counts.get("dt.fcache.misses", 0),
            "dt.fcache.hit_ratio": hits / lookups if lookups else 0.0,
            "dt.fcache.key_for.self_s": self_s(KEY_FOR),
            "dt.fcache.get.self_s": self_s(CACHE_GET),
            "dt.fcache.put.self_s": self_s(CACHE_PUT),
            "dt.dt_integer_value.self_s": self_s(DT_INTEGER),
            "algebra.ratfunc.ops": counts.get("algebra.ratfunc.ops", 0),
            "algebra.ratfunc.self_s": self_s(RATFUNC),
            "algebra.bilaurent.mul.calls": counts.get("algebra.bilaurent.mul.calls", 0),
            "scattering.reconstruct_rank2.calls": self.calls.get(RECONSTRUCT, 0),
            "scattering.reconstruct_rank2.self_s": self_s(RECONSTRUCT),
        }

    def write(self, path) -> None:
        names = sorted(self._name_index, key=self._name_index.get)
        spans = self.spans.tolist()
        with open(path, "w") as handle:
            json.dump(
                {
                    "span_fields": ["id", "parent", "name", "start_cpu_ns", "end_cpu_ns"],
                    "names": names,
                    "spans": [spans[i:i + 5] for i in range(0, len(spans), 5)],
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                    "counts": self.counts,
                },
                handle,
            )
