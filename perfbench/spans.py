"""In-memory spans around the calls into akregime's modules, and call
counters for the recursions inside them.

Both work by rebinding every module-level name in the akregime package that
refers to a wrapped function, so a call is seen whichever module's binding
it goes through (`cli.block_partition` as well as `blocks.block_partition`,
and a recursion that calls itself through its module global).  Spans are
kept in a list and only aggregated or written out after the timed pass.
"""

import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT = range(4)


def _rebind(wrappers):
    """Replace each function in `wrappers` (id -> (function, wrapper)) at
    every akregime binding; returns what `_restore` needs to undo it."""
    replaced = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "akregime" and not module_name.startswith("akregime."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                replaced.append((module, attr, value))
    return replaced


def _restore(replaced):
    for module, attr, value in reversed(replaced):
        setattr(module, attr, value)


def count_calls(counted, replay):
    """Run `replay()` with every function in `counted` (name -> function)
    wrapped in a call counter; returns {name: calls}."""
    counts = dict.fromkeys(counted, 0)

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    replaced = _rebind({id(fn): (fn, counter(name, fn)) for name, fn in counted.items()})
    try:
        replay()
    finally:
        _restore(replaced)
    return counts


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: dict[str, list] = {}  # recorded arguments, by span name
        self._stack: list[int] = []
        self._replaced: list[tuple] = []

    def _open(self, name):
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one per query."""
        record = self._open(name)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn, calls):
        open_span, stack = self._open, self._stack

        def wrapper(*args, **kwargs):
            if calls is not None:
                calls.append(args)
            record = open_span(name)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def install(self, spanned, recorded=()):
        """Wrap each function in `spanned` (name -> function) in a span; for
        the names in `recorded`, also keep each call's positional arguments
        in `self.calls[name]`."""
        wrappers = {}
        for name, fn in spanned.items():
            calls = self.calls.setdefault(name, []) if name in recorded else None
            wrappers[id(fn)] = (fn, self._spanned(name, fn, calls))
        self._replaced = _rebind(wrappers)

    def uninstall(self):
        _restore(self._replaced)
        self._replaced = []

    def aggregate(self, root_name):
        """Per span name, over spans below a root span called `root_name`:
        {name: [calls, total seconds, self seconds]}.  Self time is the
        duration less the time covered by direct child spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root = [0] * len(spans)
        for idx, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root[idx] = root[parent]  # parents are recorded first
            else:
                root[idx] = idx
        out: dict[str, list] = {}
        for idx, (name, start, end, _) in enumerate(spans):
            if spans[root[idx]][NAME] != root_name:
                continue
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[idx]
        return out

    def children_of(self, parent_name, child_names) -> int:
        """Number of spans named in `child_names` whose direct parent span
        is named `parent_name`."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent in spans
            if name in child_names and parent >= 0 and spans[parent][NAME] == parent_name
        )
