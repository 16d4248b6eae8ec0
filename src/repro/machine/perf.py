"""Performance counters for the simulated machine.

``cycles`` is the headline number every benchmark reports; the rest
exist so experiments can explain *why* a variant is faster (fewer loads,
fewer call pairs, fewer branches) the way the paper's prose does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter, sub


@dataclass
class PerfCounters:
    """Cycle/instruction/memory/branch counters for one CPU."""
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    calls: int = 0
    rets: int = 0
    #: Surcharge cycles paid to special segments (e.g. remote nodes).
    remote_cycles: int = 0
    remote_accesses: int = 0
    by_segment_loads: dict[str, int] = field(default_factory=dict)
    by_segment_stores: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter."""
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.by_segment_loads = {}
        self.by_segment_stores = {}

    def snapshot(self) -> "PerfCounters":
        """An independent copy, for later delta()."""
        return PerfCounters(
            *_counters(self),
            dict(self.by_segment_loads),
            dict(self.by_segment_stores),
        )

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier`` (a snapshot)."""
        return PerfCounters(
            *map(sub, _counters(self), _counters(earlier)),
            _dict_delta(self.by_segment_loads, earlier.by_segment_loads),
            _dict_delta(self.by_segment_stores, earlier.by_segment_stores),
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "calls": self.calls,
            "rets": self.rets,
            "remote_cycles": self.remote_cycles,
            "remote_accesses": self.remote_accesses,
        }


#: The integer counters, in field order (every field but the two dicts,
#: which come last).
_COUNTERS = tuple(f.name for f in fields(PerfCounters) if f.type == "int")
_counters = attrgetter(*_COUNTERS)


def _dict_delta(now: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in now.items()}
