"""Layer tracer: wraps each layer's public entry points from outside.

The program is not modified.  :class:`Patcher` replaces every entry
point named in :data:`layers.TARGETS` with a timing wrapper for the
duration of one traced repetition and restores the originals after.
The wrappers feed one :class:`LayerTrace`, which keeps a stack of open
spans and charges each span's *self time* (its duration minus the time
its child spans cover) to the span's layer.  ``Environment.run`` is the
root span, so code the map leaves untimed is charged to the kernel.

Two rules decide where a wrapper goes:

- a name imported into another module is rebound there, so a module
  function is replaced in every ``repro`` module that binds it;
- a generator entry point is timed per resumption (each ``send`` or
  ``throw``), never when the generator object is created.

Spans are kept in memory, up to :data:`SPAN_CAP` of them, and written
out as a Chrome trace-event file when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import layers as layer_map


#: Spans kept for the trace file; later spans are counted, not kept.
SPAN_CAP = 50_000


class LayerTrace:
    """Span stack, per-layer self time and per-target entry counts."""

    def __init__(self) -> None:
        self.layers = list(layer_map.LAYERS)
        #: target name -> index; filled by :meth:`target`.
        self.target_ids: dict[str, int] = {}
        self.target_layer: list[int] = []
        self.tallies: list[int] = []
        self.reset()

    def target(self, name: str, layer: str) -> int:
        tid = self.target_ids.get(name)
        if tid is None:
            tid = self.target_ids[name] = len(self.target_layer)
            self.target_layer.append(self.layers.index(layer))
            self.entries.append([0] * (len(self.layers) + 1))
            self.tallies.append(0)
            self.created.append(0)
            self.returned.append(0)
        return tid

    def reset(self) -> None:
        n = len(self.layers)
        #: frame = [layer id, start, child time]; the base frame (layer
        #: -1) collects the time covered by top-level spans.
        self.base = [-1, 0.0, 0.0]
        self.stack = [self.base]
        self.self_s = [0.0] * n
        self.calls = [0] * n
        #: entries[tid][parent layer + 1]: calls of one target by the
        #: layer it was called from (index 0 = outside every span).
        self.entries = [[0] * (n + 1) for _ in self.target_layer]
        #: per-target counts a target's ``tally`` adds at call time;
        #: zeroed in place because the wrappers hold this list.
        self.tallies[:] = [0] * len(self.target_layer)
        #: generator objects created, and run to a normal return, per
        #: generator target.
        self.created: list[int] = [0] * len(self.target_layer)
        self.returned: list[int] = [0] * len(self.target_layer)
        self.spans = 0
        self.span_tid = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open_index = [-1]
        self.t0 = perf_counter()

    # -- span bookkeeping (the hot path) -----------------------------------
    def enter(self, tid: int) -> list:
        lid = self.target_layer[tid]
        parent = self.stack[-1]
        self.entries[tid][parent[0] + 1] += 1
        if parent[0] != lid:
            self.calls[lid] += 1
        self.spans += 1
        if len(self.span_tid) < SPAN_CAP:
            self.span_tid.append(tid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self._open_index[-1])
            self._open_index.append(len(self.span_tid) - 1)
        else:
            self._open_index.append(-1)
        frame = [lid, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        self.stack[-1][2] += duration
        index = self._open_index.pop()
        if index >= 0:
            self.span_start[index] = frame[1]
            self.span_end[index] = end

    # -- results -----------------------------------------------------------
    def covered_s(self) -> float:
        """Host time inside top-level spans (the sum of all self times)."""
        return self.base[2]

    def entries_of(self, name: str, parent: str | None = None) -> int:
        tid = self.target_ids.get(name)
        if tid is None:
            return 0
        row = self.entries[tid]
        if parent is None:
            return sum(row)
        return row[self.layers.index(parent) + 1]

    def tally_of(self, name: str) -> int:
        tid = self.target_ids.get(name)
        return 0 if tid is None else self.tallies[tid]

    def created_of(self, name: str) -> int:
        tid = self.target_ids.get(name)
        return 0 if tid is None else self.created[tid]

    def returned_of(self, name: str) -> int:
        tid = self.target_ids.get(name)
        return 0 if tid is None else self.returned[tid]

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON of the spans kept (one per line)."""
        names = {tid: name for name, tid in self.target_ids.items()}
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i in range(len(self.span_tid)):
                tid = self.span_tid[i]
                event = {
                    "name": names[tid],
                    "cat": self.layers[self.target_layer[tid]],
                    "ph": "X", "pid": 1, "tid": 1,
                    "ts": round((self.span_start[i] - self.t0) * 1e6, 3),
                    "dur": round((self.span_end[i] - self.span_start[i])
                                 * 1e6, 3),
                    "args": {"span": i, "parent": self.span_parent[i]},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap_function(trace: LayerTrace, tid: int, fn, tally=None):
    enter, leave = trace.enter, trace.exit
    tallies = trace.tallies

    def timed(*args, **kwargs):
        frame = enter(tid)
        try:
            if tally is not None:
                tallies[tid] += tally(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            leave(frame)

    return timed


def _wrap_generator(trace: LayerTrace, tid: int, fn, tally=None):
    tallies = trace.tallies

    def timed(*args, **kwargs):
        trace.created[tid] += 1
        if tally is not None:
            tallies[tid] += tally(*args, **kwargs)
        return _timed_resumptions(fn(*args, **kwargs), trace, tid)

    return timed


def _timed_resumptions(gen, trace: LayerTrace, tid: int):
    """Drive *gen*, timing every resumption as one span."""
    enter, leave = trace.enter, trace.exit
    value = None
    error = None
    while True:
        frame = enter(tid)
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            trace.returned[tid] += 1
            return stop.value
        finally:
            leave(frame)
        try:
            value = yield item
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen on next turn
            value, error = None, exc


def wrap(trace: LayerTrace, tid: int, fn, tally=None):
    maker = (_wrap_generator if inspect.isgeneratorfunction(fn)
             else _wrap_function)
    return maker(trace, tid, fn, tally)


# ---------------------------------------------------------------------------
# Installing and restoring
# ---------------------------------------------------------------------------

class Patcher:
    """Installs the layer wrappers; :meth:`restore` undoes every one."""

    def __init__(self, trace: LayerTrace) -> None:
        self.trace = trace
        self._undo: list = []
        #: targets that did not resolve at this commit (reported, and
        #: failed on by the benchmark's own test).
        self.missing: list[str] = []

    def install(self) -> None:
        for spec in layer_map.TARGETS:
            try:
                self._install_one(spec)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(spec.name)
        try:
            self._install_codec()
        except (ImportError, AttributeError):
            self.missing.append("repro.orb.compiled:OperationCodec")

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        if had:
            self._undo.append(lambda: setattr(owner, attr, old))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def _install_one(self, spec) -> None:
        module_name, qualname = spec.name.split(":")
        module = importlib.import_module(module_name)
        parts = qualname.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        tid = self.trace.target(spec.name, spec.layer)
        if inspect.isclass(owner):
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                timed = wrap(self.trace, tid, raw.__func__, spec.tally)
                self._set(owner, attr, type(raw)(timed))
            else:
                self._set(owner, attr, wrap(self.trace, tid, raw,
                                            spec.tally))
            return
        original = getattr(owner, attr)
        timed = wrap(self.trace, tid, original, spec.tally)
        self._set(owner, attr, timed)
        # Rebind every ``from module import name`` copy as well.
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, timed)

    def _install_codec(self) -> None:
        """Per-operation codecs are memoized on each OperationDef with
        their plan functions pre-bound, so the codec layer is wrapped by
        swapping in a codec class whose plan handles are timed, and by
        setting the memoized codecs aside until :meth:`restore`."""
        from repro.orb import compiled

        trace = self.trace
        original_cls = compiled.OperationCodec
        memo = compiled._MEMOIZED_ODEFS
        saved = {}
        for odef in list(memo):
            saved[odef] = odef._codec
            object.__delattr__(odef, "_codec")
        memo.clear()

        def handle(fn, plan, what):
            tier = "codegen" if plan.tier == "codegen" else "plan"
            tid = trace.target(f"codec.{what}/{tier}", "orb.codec")
            return wrap(trace, tid, fn)

        class _TimedPlan:
            __slots__ = ("encode", "decode", "tier", "plan")

            def __init__(self, plan) -> None:
                self.plan = plan
                self.tier = plan.tier
                self.encode = handle(plan.encode, plan, "encode")
                self.decode = handle(plan.decode, plan, "decode")

            def __getattr__(self, name):
                return getattr(self.plan, name)

        class TimedOperationCodec(original_cls):
            __slots__ = ()

            def __init__(self, odef) -> None:
                super().__init__(odef)
                self.in_plans = tuple(map(_TimedPlan, self.in_plans))
                self.out_plans = tuple(map(_TimedPlan, self.out_plans))
                self.result_plan = _TimedPlan(self.result_plan)
                if self.in1_encode is not None:
                    self.in1_encode = self.in_plans[0].encode
                    self.in1_decode = self.in_plans[0].decode
                self.result_decode = self.result_plan.decode

        compiled.OperationCodec = TimedOperationCodec

        def undo() -> None:
            compiled.OperationCodec = original_cls
            for odef in list(memo):
                object.__delattr__(odef, "_codec")
            memo.clear()
            for odef, codec in saved.items():
                object.__setattr__(odef, "_codec", codec)
                memo.add(odef)

        self._undo.append(undo)
