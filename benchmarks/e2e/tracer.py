"""Span tracing from outside the program: timing wrappers on entry points.

:meth:`Tracer.install` replaces each function named in a table of
``(owner, attribute, span name, options)`` with a wrapper that records a
span -- name, layer (the name's first dotted part), start, end and parent
-- on a per-thread stack.  A layer's *self time* is its span's duration
minus the part its child spans cover.  Nothing under ``src/`` changes and
:meth:`Tracer.uninstall` puts the originals back.

Spans are grouped into *ops*.  The runner opens one around each operation
with :meth:`begin_op` / :meth:`end_op`; on a thread nobody opened an op on
(the server's executor, worker and event-loop threads) a span that starts
on an empty stack opens one itself, named after the span.  Spans of one op
share the op's id: an ``op_from`` option reads ``(id, class)`` from the
wrapped call's arguments (the request id, on both sides of the wire) and
``tag_arg`` stamps both on a callable handed to another thread.

Per-(op class, span name) aggregates stay in memory; the span trees of the
first :data:`SAMPLED_OPS` ops of each class are kept for writing out.
"""

from __future__ import annotations

import functools
import threading
import time

SAMPLED_OPS = 200

_clock = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "by_class", "agg", "op_class", "op_id", "buffer",
                 "thread")

    def __init__(self) -> None:
        self.stack: list = []       # open spans, each [child_ns]
        self.by_class: dict = {}    # op class -> span name -> [calls, total, self, units]
        self.agg: dict = {}
        self.op_class = None
        self.op_id = None
        self.buffer = None          # finished spans of a sampled op, post-order
        self.thread = threading.current_thread().name


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._sampled: dict = {}    # op class -> ops sampled so far
        self._patched: list = []
        self.spans: list[dict] = []

    # -- installing ------------------------------------------------------------

    def install(self, table) -> None:
        for owner, attr, name, options in table:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, **options))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not measured)."""
        with self._lock:
            for state in self._states:
                state.by_class = {}
                state.agg = state.by_class.setdefault(state.op_class, {})
            self._sampled.clear()
            self.spans.clear()

    # -- ops --------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _open(self, state: _ThreadState, op_class, op_id) -> None:
        state.op_class, state.op_id = op_class, op_id
        state.agg = state.by_class.setdefault(op_class, {})
        with self._lock:
            seen = self._sampled.get(op_class, 0)
            self._sampled[op_class] = seen + 1
        state.buffer = [] if seen < SAMPLED_OPS else None

    def _close(self, state: _ThreadState) -> None:
        if state.buffer:
            self._keep(state)
        state.buffer = None
        state.op_id = None

    def begin_op(self, op_class: str, op_id) -> None:
        state = self._state()
        self._open(state, op_class, op_id)
        state.stack.append([0, _clock()])

    def end_op(self) -> None:
        end = _clock()
        state = self._local.state
        child_ns, start = state.stack.pop()
        self._record(state, "bench.op", start, end, child_ns, 0)
        self._close(state)

    @staticmethod
    def _record(state, name, start, end, child_ns, depth, units=0) -> None:
        duration = end - start
        try:
            rec = state.agg[name]
        except KeyError:
            rec = state.agg[name] = [0, 0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_ns
        rec[3] += units
        if state.buffer is not None:
            state.buffer.append((name, start, end, depth))

    def _keep(self, state: _ThreadState) -> None:
        """Move a sampled op's spans out, resolving each span's parent."""
        waiting: dict[int, list[int]] = {}
        parents = {}
        for index, (_, _, _, depth) in enumerate(state.buffer):
            for child in waiting.pop(depth + 1, ()):
                parents[child] = index
            waiting.setdefault(depth, []).append(index)
        with self._lock:
            base = len(self.spans)
            for index, (name, start, end, _) in enumerate(state.buffer):
                parent = parents.get(index)
                self.spans.append({
                    "op": state.op_id, "class": state.op_class,
                    "thread": state.thread, "span": base + index,
                    "parent": None if parent is None else base + parent,
                    "name": name, "layer": name.split(".", 1)[0],
                    "start_ns": start, "end_ns": end,
                })

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, name, op_from=None, tag_arg=None, units=None):
        get_state, record = self._state, self._record
        open_op, close_op = self._open, self._close

        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            implicit = not stack
            if implicit:
                open_op(state, name, None)
            if op_from is not None:
                op_id, op_class = op_from(args)
                if op_id is not None:
                    state.op_id = op_id
                if op_class is not None:
                    state.op_class = op_class
                    state.agg = state.by_class.setdefault(op_class, {})
            if tag_arg is not None:
                try:
                    args[tag_arg].trace_op = (state.op_id, state.op_class)
                except AttributeError:
                    pass            # not every callable takes attributes
            frame = [0]
            stack.append(frame)
            measured = 0
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    measured = units(args, result)
                return result
            finally:
                end = _clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                record(state, name, start, end, frame[0], len(stack), measured)
                if implicit:
                    close_op(state)

        return functools.wraps(fn)(traced)

    # -- reading -------------------------------------------------------------------

    def aggregates(self) -> dict:
        """{(op class, span name): [calls, total_ns, self_ns, units]}, all threads."""
        merged: dict = {}
        with self._lock:
            for state in self._states:
                for op_class, names in state.by_class.items():
                    for name, rec in names.items():
                        out = merged.setdefault((op_class, name), [0, 0, 0, 0])
                        for i in range(4):
                            out[i] += rec[i]
        return merged

    def aggregates_json(self) -> list:
        return [[c, n, *rec] for (c, n), rec in self.aggregates().items()]
