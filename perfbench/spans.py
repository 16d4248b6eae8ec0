"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: ``[name, start, end,
parent, op, note]`` with ``perf_counter`` times, the index of the
enclosing span (``-1`` at top level), the id of the workload operation
that caused it, and an optional dict of counts observed at the boundary
(instructions run, bytes emitted, ...).  Spans stay in a list until the
run ends; :func:`dump` writes them out as JSON lines.

The recorder is inert while ``active`` is false, so wrappers can stay
installed across untraced blocks at the cost of one attribute test.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

NAME, START, END, PARENT, OP, NOTE = range(6)


class SpanRecorder:
    """Nested span stack plus the flat list of finished spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> int:
        """Start a new workload operation; later spans carry its id."""
        self.op += 1
        return self.op

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.op, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    def note(self, index: int, counts: dict) -> None:
        self.spans[index][NOTE] = counts



def dump(spans: list[list], path: Path) -> None:
    """Write ``spans`` as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded
    and spans nest), so the covered time is the sum of their durations.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def within(spans: list[list], names: frozenset) -> list[bool]:
    """For each span, whether it or an ancestor is named in ``names``.

    Parents are recorded before their children, so one forward pass
    suffices."""
    flags: list[bool] = []
    for s in spans:
        inherited = flags[s[PARENT]] if s[PARENT] >= 0 else False
        flags.append(inherited or s[NAME] in names)
    return flags
