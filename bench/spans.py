"""In-memory span recorder that traces dstsp_lab from outside the package.

Every module of the package calls the others through module attributes
(``dyn.steer``, ``hcs.build_hcs``, ``hcp.HcpInstance``, ...), and calls within
a module go through its globals, which are the same attributes. Replacing a
public attribute with a timing wrapper therefore sees every call, with no
change to the package. ``Recorder.restore`` puts the originals back.

A span is (id, name, start, end, parent, extra). ``extra`` is whatever the
wrapper's ``count`` function derived from the call (segments returned, cells
built, samples drawn, ...). Spans opened in a worker thread with no open span
of their own take the main thread's innermost open span as parent, so the
CLI's pool work hangs under ``cli.main``.
"""

import itertools
import threading
import time


class Recorder:
    """Wraps module attributes and keeps every finished span in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, count=None):
        """Replace module.attr by a wrapper recording one span per call."""
        original = getattr(module, attr)
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent = stack[-1]
            else:
                main = recorder._main_stack
                parent = main[-1] if main else 0
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, name, start, end, parent, None))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = count(args, kwargs, result) if count is not None else None
            recorder.spans.append((sid, name, start, end, parent, extra))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Spans as CSV: id, name, start and end (s), parent id, extra."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,extra\n")
            for sid, name, start, end, parent, extra in self.spans:
                if isinstance(extra, tuple):
                    extra = "/".join(str(v) for v in extra)
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},"
                         f"{'' if extra is None else extra}\n")


def capture(module, attr, sink):
    """Replace module.attr, for the rest of the process, by a wrapper that
    appends (args, kwargs, result) of every call to sink."""
    original = getattr(module, attr)

    def captured(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, kwargs, result))
        return result

    setattr(module, attr, captured)


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTable:
    """Per-name totals over a list of spans, with self time and ancestry."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {}
        self._by_name = {}
        self._children = {}
        for s in spans:
            self.by_id[s[0]] = s
            self._by_name.setdefault(s[1], []).append(s)
            self._children.setdefault(s[4], []).append((s[2], s[3]))

    def named(self, name):
        return self._by_name.get(name, [])

    def calls(self, name):
        return len(self.named(name))

    def total(self, name):
        """Summed duration; exceeds wall time when worker threads overlap."""
        return sum((s[3] - s[2] for s in self.named(name)), 0.0)

    def self_time(self, name):
        """Summed duration minus the part covered by each span's children."""
        out = 0.0
        for sid, _, start, end, _, _ in self.named(name):
            covered = _union_length(self._children.get(sid, ()), start, end)
            out += (end - start) - covered
        return out

    def extra_sum(self, name, index=None):
        vals = (s[5] for s in self.named(name) if s[5] is not None)
        if index is None:
            return sum(vals)
        return sum(v[index] for v in vals)

    def under(self, name, ancestor):
        """Spans called name that have an ancestor span called ancestor."""
        out = []
        for s in self.named(name):
            parent = self.by_id.get(s[4])
            while parent is not None:
                if parent[1] == ancestor:
                    out.append(s)
                    break
                parent = self.by_id.get(parent[4])
        return out
