"""Outside-in span tracer for the socfem layers.

The tracer patches public functions of the program from the outside: it
never edits ``src/``.  A hook names a target as ``"module:qualname"``; the
wrapper replaces the function everywhere it is bound across the ``socfem.*``
module namespaces (``control_response`` is bound in ``socfem.spde`` and in
``socfem.optimizer``, ``assemble`` in ``socfem.fem``, ``socfem.analysis``
and the package itself).  Methods are patched once on their class.

Each call records a span: name, start, end, parent span and the run id.
Spans stay in memory and are written out by ``Tracer.dump`` at the end.
Self time is a span's duration minus the durations of its direct children.
A generator function is timed per resume, so work the consumer does
between two resumes is charged to the consumer, not to the generator.

A target that no longer exists (say, after a rename) is recorded in
``Tracer.absent`` and skipped; installing never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

_INHERITED = object()


@dataclass(frozen=True)
class Hook:
    """One traced target.

    ``name`` is the span name; ``label(args, kwargs)``, if given, appends a
    suffix per call, so one target can feed separate aggregates (solves
    with one right-hand side and with many).  ``count(args, kwargs,
    result)`` returns extra counters added to the span's aggregate, e.g.
    right-hand-side columns for a solve.  For a generator, ``result`` is
    ``(first, item)`` for each resume.
    """

    target: str
    name: str
    count: Callable[[tuple, dict, object], dict] | None = None
    label: Callable[[tuple, dict], str] | None = None


@dataclass
class Aggregate:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with per-(name, parent name) aggregates."""

    def __init__(self, run_id: str, clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        # spans as parallel lists: name, start, end, parent index (-1 = root)
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.aggregates: dict[tuple[str, str], Aggregate] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span; returns the frame handed back to ``end``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.names)
        self.names.append(name)
        self.starts.append(0)
        self.ends.append(0)
        self.parents.append(parent[0] if parent else -1)
        # frame: index, name, parent name, start, child time
        frame = [index, name, parent[1] if parent else "", 0, 0]
        stack.append(frame)
        frame[3] = self.starts[index] = self.clock()
        return frame

    def end(self, frame: list, counters: dict | None = None) -> None:
        stop = self.clock()
        index, name, parent_name, start, child_ns = frame
        stack = self._stack()
        stack.pop()
        duration = stop - start
        self.ends[index] = stop
        if stack:
            stack[-1][4] += duration
        agg = self.aggregates.get((name, parent_name))
        if agg is None:
            agg = self.aggregates[(name, parent_name)] = Aggregate()
        agg.calls += 1
        agg.total_ns += duration
        agg.self_ns += duration - child_ns
        if counters:
            for key, value in counters.items():
                agg.counters[key] = agg.counters.get(key, 0) + value

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, hook: Hook):
        """Traced stand-in for ``fn``; generators are timed per resume."""
        tracer = self
        name, label = hook.name, hook.label
        count = hook.count or (lambda args, kwargs, result: None)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        frame = tracer.begin(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer.end(frame)
                            return
                        except BaseException:
                            tracer.end(frame)
                            raise
                        tracer.end(frame, count(args, kwargs, (first, item)))
                        first = False
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name + label(args, kwargs) if label else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(frame, count(args, kwargs, result))

        return wrapper

    def install(self, hooks: list[Hook], prefix: str = "socfem") -> None:
        """Patch every hook target; missing targets go to ``absent``."""
        for hook in hooks:
            module_name, _, qualname = hook.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(hook.name)
                continue
            if not callable(original):
                self.absent.append(hook.name)
                continue
            wrapped = self.wrap(original, hook)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
            else:
                modules = {id(owner): owner}
                for mod_name, module in list(sys.modules.items()):
                    if module is not None and (
                        mod_name == prefix or mod_name.startswith(prefix + ".")
                    ):
                        modules[id(module)] = module
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def totals(self, name: str, exclude_parents: tuple = ()) -> Aggregate:
        """Aggregate over all parents of ``name`` except the excluded ones."""
        out = Aggregate()
        for (span, parent), agg in self.aggregates.items():
            if span != name or parent in exclude_parents:
                continue
            out.calls += agg.calls
            out.total_ns += agg.total_ns
            out.self_ns += agg.self_ns
            for key, value in agg.counters.items():
                out.counters[key] = out.counters.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        """Write every span as CSV: id, name, start_ns, end_ns, parent."""
        with open(path, "w") as fh:
            fh.write(f"# run_id={self.run_id}\n")
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n")
