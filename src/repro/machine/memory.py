"""Segmented flat memory for the simulated machine.

Segments carry permissions and an ``extra_cost`` per access — that is
how simulated remote-node memory (PGAS experiments) charges its latency
without special-casing anything in the CPU.  All multi-byte accesses are
little-endian; doubles are IEEE-754 binary64.

Memory transactions (:meth:`Memory.begin` / :meth:`Memory.rollback` /
:meth:`Memory.commit`) journal the pre-image of every writable page the
first time a store lands in it, so a scratch execution can be undone by
restoring only the pages it touched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Flag as EnumFlag, auto

from repro.errors import MemoryError_, SegmentationFault

#: Journal granularity of memory transactions: pages are ``PAGE_SIZE``
#: bytes, counted from each segment's base.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT


class Perm(EnumFlag):
    """Segment permissions."""

    R = auto()
    W = auto()
    X = auto()
    RW = R | W
    RX = R | X
    RWX = R | W | X


@dataclass
class Segment:
    """One contiguous mapped region."""

    name: str
    base: int
    size: int
    perms: Perm = Perm.RW
    #: Extra cycles charged per access (remote-node memory, etc.).
    extra_cost: int = 0
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise ValueError("backing buffer size mismatch")
        # precomputed so hot paths skip the enum-flag membership test
        self.executable = Perm.X in self.perms
        self.writable = Perm.W in self.perms

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


class Memory:
    """The address space: an ordered collection of segments."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        # Access counters per segment name, maintained for the perf report.
        self.loads: dict[str, int] = {}
        self.stores: dict[str, int] = {}
        #: The open transaction's journal — page address -> (segment,
        #: pre-image) for every writable page stored into since
        #: :meth:`begin` — or None outside a transaction.  Every store
        #: path tests it for None and calls :meth:`journal_write` only
        #: when it is set.
        self.journal: dict[int, tuple[Segment, bytes]] | None = None
        #: Enclosing journals and the counters saved by each open begin().
        self._open: list[tuple[dict | None, dict[str, int], dict[str, int]]] = []

    # -- mapping ----------------------------------------------------------
    def map_segment(self, segment: Segment) -> Segment:
        """Add a segment; overlaps with existing mappings are rejected."""
        for existing in self.segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise MemoryError_(
                    f"segment {segment.name!r} overlaps {existing.name!r}"
                )
        self.segments.append(segment)
        self.segments.sort(key=lambda s: s.base)
        self.loads.setdefault(segment.name, 0)
        self.stores.setdefault(segment.name, 0)
        return segment

    def segment_for(self, addr: int, length: int = 1) -> Segment:
        for segment in self.segments:
            if segment.contains(addr, length):
                return segment
        raise SegmentationFault(
            f"access to unmapped address 0x{addr:x} (+{length})", addr
        )

    def segment_by_name(self, name: str) -> Segment:
        for segment in self.segments:
            if segment.name == name:
                return segment
        raise MemoryError_(f"no segment named {name!r}")

    # -- transactions -----------------------------------------------------
    def begin(self) -> None:
        """Open a transaction (nests): later stores journal their pages'
        pre-images until the matching :meth:`rollback` or :meth:`commit`."""
        self._open.append((self.journal, dict(self.loads), dict(self.stores)))
        self.journal = {}

    def journal_write(self, seg: Segment, off: int, length: int) -> None:
        """Save the pre-image of each page of ``seg`` that bytes
        ``[off, off+length)`` fall in, unless already saved.  Call it
        before the write, only while a transaction is open.  Only
        writable segments journal: stores into code go through the
        code-write listeners instead and are not undone."""
        if not seg.writable:
            return
        journal = self.journal
        data = seg.data
        for page in range(off >> PAGE_SHIFT, ((off + length - 1) >> PAGE_SHIFT) + 1):
            start = page << PAGE_SHIFT
            addr = seg.base + start
            if addr not in journal:
                journal[addr] = (seg, bytes(data[start : start + PAGE_SIZE]))

    def dirty_pages(self) -> dict[int, tuple[Segment, bytes]]:
        """The open transaction's journal: page address -> (segment,
        pre-image), for every page stored into since :meth:`begin`."""
        if self.journal is None:
            raise MemoryError_("no open memory transaction")
        return self.journal

    def rollback(self) -> None:
        """Close the transaction, restoring every journaled page and the
        load/store counters to their state at :meth:`begin`."""
        for addr, (seg, pre) in self.dirty_pages().items():
            start = addr - seg.base
            seg.data[start : start + len(pre)] = pre
        self.journal, loads, stores = self._open.pop()
        self.loads.clear()
        self.loads.update(loads)
        self.stores.clear()
        self.stores.update(stores)

    def commit(self) -> None:
        """Close the transaction, keeping its writes; an enclosing
        transaction inherits the pre-images it has not saved itself."""
        journal = self.dirty_pages()
        self.journal = self._open.pop()[0]
        if self.journal is not None:
            for addr, entry in journal.items():
                self.journal.setdefault(addr, entry)

    # -- raw access --------------------------------------------------------
    def read_bytes(self, addr: int, length: int, *, count: bool = True) -> bytes:
        """Permission-checked read; ``count=False`` skips the counters."""
        seg = self.segment_for(addr, length)
        if Perm.R not in seg.perms:
            raise MemoryError_(f"read from non-readable segment {seg.name!r}", addr)
        if count:
            self.loads[seg.name] += 1
        off = addr - seg.base
        return bytes(seg.data[off : off + length])

    def write_bytes(self, addr: int, data: bytes, *, count: bool = True) -> None:
        """Permission-checked write; ``count=False`` skips the counters."""
        seg = self.segment_for(addr, len(data))
        if Perm.W not in seg.perms:
            raise MemoryError_(f"write to non-writable segment {seg.name!r}", addr)
        if count:
            self.stores[seg.name] += 1
        off = addr - seg.base
        if self.journal is not None:
            self.journal_write(seg, off, len(data))
        seg.data[off : off + len(data)] = data

    # -- typed access -------------------------------------------------------
    def read_u64(self, addr: int, *, count: bool = True) -> int:
        return struct.unpack("<Q", self.read_bytes(addr, 8, count=count))[0]

    def read_i64(self, addr: int, *, count: bool = True) -> int:
        return struct.unpack("<q", self.read_bytes(addr, 8, count=count))[0]

    def write_u64(self, addr: int, value: int, *, count: bool = True) -> None:
        self.write_bytes(addr, struct.pack("<Q", value & ((1 << 64) - 1)), count=count)

    def read_f64(self, addr: int, *, count: bool = True) -> float:
        return struct.unpack("<d", self.read_bytes(addr, 8, count=count))[0]

    def write_f64(self, addr: int, value: float, *, count: bool = True) -> None:
        self.write_bytes(addr, struct.pack("<d", value), count=count)

    def access_cost(self, addr: int) -> int:
        """Cycle surcharge for touching ``addr`` (0 for plain segments)."""
        return self.segment_for(addr).extra_cost

    def reset_counters(self) -> None:
        for key in self.loads:
            self.loads[key] = 0
        for key in self.stores:
            self.stores[key] = 0
