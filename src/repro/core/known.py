"""The known/unknown value lattice and the *known-world state*.

Terminology follows the paper (Sec. III.F): the known-world state is
"the state of all known-ness as well as the values themselves if known",
maintained over registers, condition flags, and memory.

Value kinds
-----------

* :class:`KnownInt` — a concrete 64-bit value (canonical unsigned);
* :class:`KnownFloat` — a concrete double (XMM lane 0);
* :class:`StackRel` — a *symbolic* stack address, ``entry_rsp + offset``.
  The traced function's stack frame cannot have a concrete address at
  rewrite time, so stack addressing is tracked relative to the value of
  ``rsp`` on entry; emitted memory operands are rewritten to be
  rsp-relative (the emitted code never moves the runtime ``rsp`` except
  around non-inlined calls, so ``runtime rsp == entry rsp`` holds
  throughout a rewritten body);
* ``None`` — unknown: the *runtime location* holds the live value.

The central invariant: a location marked known is **stale at runtime**
(every use was folded); a location marked unknown is **live at
runtime**.  Converting known→unknown therefore requires *materialization*
(compensation code, Sec. III.F), which is what
:func:`repro.core.compensation.materialize` emits.

Memory cells
------------

``mem`` maps cells (8-byte granules, keyed symbolically for the stack
and absolutely otherwise) to values.  A value of ``None`` means
*dirty*: the cell was overwritten with an unknown value, so it must not
be folded from the image even if it lies inside a ``brew_setmem`` range.
An *absent* key means untracked: reads fold from the image iff the
address is inside a declared known range, else they are unknown.

Flags are deliberately **excluded** from block identity and migration:
compiler-generated code never keeps condition flags live across basic
block boundaries (the flag consumer directly follows its producer), the
same assumption binary translators like QEMU/Dynamo make.  Within one
traced region flags are tracked normally so known comparisons fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.isa.flags import Flag
from repro.isa.registers import GPR, XMM

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class KnownInt:
    """A concrete integer/pointer value (canonical unsigned 64-bit)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & MASK64)

    def __repr__(self) -> str:
        return f"KnownInt(0x{self.value:x})"


@dataclass(frozen=True)
class KnownFloat:
    """A concrete double (compared by bit pattern so -0.0 != 0.0)."""

    value: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnownFloat):
            return NotImplemented
        import struct

        return struct.pack("<d", self.value) == struct.pack("<d", other.value)

    def __hash__(self) -> int:
        import struct

        return hash(struct.pack("<d", self.value))


@dataclass(frozen=True)
class StackRel:
    """A symbolic stack address: ``entry_rsp + offset`` (offset signed)."""

    offset: int


@dataclass(frozen=True)
class RegSnapshot:
    """A *deferred spill*: the cell holds "whatever register ``reg``'s
    runtime content was at generation ``gen``".

    Used to elide save/restore pairs (callee-saved push/pop, parameter
    spill/reload): when an unknown register is stored to a stack cell,
    the store is deferred; a later load folds to the register itself,
    and the store only materializes if the register's *runtime* content
    is about to change (i.e. an emitted instruction writes it — folded
    writes never touch runtime contents).

    Snapshots are strictly block-local: the tracer flushes them before
    any block boundary, so they never appear in world digests.
    """

    reg: object  # GPR or XMM
    gen: int
    is_float: bool = False


Value = Union[KnownInt, KnownFloat, StackRel, RegSnapshot, None]

#: Memory cell key: ``("s", offset)`` for stack cells (offset relative to
#: the entry rsp), ``("a", address)`` for absolute cells.
MemKey = tuple[str, int]

_ABSENT = object()


class CowMem:
    """Copy-on-write mapping backing :attr:`World.mem`.

    The tracer snapshots the whole known-world at every block enqueue
    (unknown conditional branches fork *both* paths), so a plain
    ``dict(mem)`` copy made forking O(world).  A ``CowMem`` instead
    layers a small private overlay (``_delta`` writes, ``_dead``
    deletions) over an immutable shared ``_base``; :meth:`fork` copies
    only the overlay, so forking costs O(cells touched since the last
    fork).

    Invariants:

    * ``_base`` is never mutated in place once shared — :meth:`_flatten`
      *replaces* it with a freshly merged dict, leaving other holders'
      view intact;
    * ``_dead`` only ever holds keys present in ``_base``;
    * a key in both ``_dead`` and ``_delta`` was deleted and then
      re-added — it iterates at the *end*, exactly where a plain dict
      would put it (overwrites without an intervening delete keep their
      base position, also dict semantics).

    :meth:`snapshot_items` additionally caches the sorted item tuple the
    world digest needs, invalidated on mutation and inherited across
    forks — repeated enqueue digests of an unchanged world are O(1).
    """

    __slots__ = ("_base", "_delta", "_dead", "_snap")

    #: Overlay size at which :meth:`fork` folds the overlay into a new
    #: base.  Keeps per-fork copies bounded while amortizing the O(world)
    #: merge over at least this many mutations.
    FLATTEN_THRESHOLD = 64

    def __init__(self, initial: dict | None = None) -> None:
        self._base: dict = dict(initial) if initial else {}
        self._delta: dict = {}
        self._dead: set = set()
        self._snap: tuple | None = None

    # -- lookups -----------------------------------------------------------
    def __getitem__(self, key):
        value = self._delta.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if key in self._dead:
            raise KeyError(key)
        return self._base[key]

    def get(self, key, default=None):
        """``dict.get`` semantics over the layered view."""
        value = self._delta.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if key in self._dead:
            return default
        return self._base.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._delta or (key in self._base and key not in self._dead)

    def __len__(self) -> int:
        overlap = sum(
            1 for k in self._delta if k in self._base and k not in self._dead
        )
        return len(self._base) - len(self._dead) + len(self._delta) - overlap

    # -- mutation ----------------------------------------------------------
    def __setitem__(self, key, value) -> None:
        self._delta[key] = value
        self._snap = None

    def __delitem__(self, key) -> None:
        if key in self._delta:
            del self._delta[key]
            if key in self._base:
                self._dead.add(key)
        elif key in self._base and key not in self._dead:
            self._dead.add(key)
        else:
            raise KeyError(key)
        self._snap = None

    def pop(self, key, *default):
        """``dict.pop`` semantics over the layered view."""
        try:
            value = self[key]
        except KeyError:
            if default:
                return default[0]
            raise
        del self[key]
        return value

    def clear(self) -> None:
        """Drop every cell (detaches from any shared base)."""
        self._base = {}
        self._delta = {}
        self._dead = set()
        self._snap = None

    # -- iteration ---------------------------------------------------------
    def _merged(self) -> dict:
        merged = dict(self._base)
        for key in self._dead:
            merged.pop(key, None)
        merged.update(self._delta)
        return merged

    def __iter__(self):
        return iter(self._merged())

    def keys(self):
        return self._merged().keys()

    def values(self):
        return self._merged().values()

    def items(self):
        return self._merged().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CowMem):
            return self._merged() == other._merged()
        if isinstance(other, dict):
            return self._merged() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"CowMem({self._merged()!r})"

    # -- forking -----------------------------------------------------------
    def _flatten(self) -> None:
        self._base = self._merged()
        self._delta = {}
        self._dead = set()

    def fork(self) -> "CowMem":
        """A mutation-independent copy in O(overlay), not O(world)."""
        if len(self._delta) + len(self._dead) >= self.FLATTEN_THRESHOLD:
            self._flatten()
        child = CowMem.__new__(CowMem)
        child._base = self._base
        child._delta = dict(self._delta)
        child._dead = set(self._dead)
        child._snap = self._snap
        return child

    def snapshot_items(self) -> tuple:
        """Sorted ``(key, value)`` tuple, cached until the next mutation
        (and shared with forks taken while unchanged)."""
        snap = self._snap
        if snap is None:
            snap = self._snap = tuple(sorted(self._merged().items()))
        return snap


def stack_key(offset: int) -> MemKey:
    """Cell key for the stack cell at entry-rsp-relative ``offset``."""
    return ("s", offset)


def abs_key(addr: int) -> MemKey:
    """Cell key for the absolute address ``addr``."""
    return ("a", addr & MASK64)


class World:
    """One known-world state.  Mutable during tracing; ``digest()``
    snapshots it hashably for block identity."""

    __slots__ = ("regs", "xmm", "flags", "mem", "escaped")

    def __init__(self) -> None:
        self.regs: dict[GPR, Value] = {r: None for r in GPR}
        self.xmm: dict[XMM, KnownFloat | None] = {x: None for x in XMM}
        self.flags: dict[Flag, bool | None] = {f: None for f in Flag}
        # value None here means *dirty* (see module doc); absent = untracked
        self.mem: CowMem = CowMem()
        #: Frame escape flag: False while no address of this frame has
        #: become reachable outside the tracer's knowledge (stored to
        #: absolute memory, passed to a kept call, or demoted from
        #: StackRel to unknown).  While False, stores through *unknown*
        #: pointers provably cannot alias callee-frame cells (offset <
        #: 0): the frame did not exist when the caller formed its
        #: pointers, and every in-frame address is still tracked
        #: symbolically — so frame cells survive such stores.
        self.escaped: bool = False

    @classmethod
    def entry_world(cls) -> "World":
        """World at the entry of the function being rewritten: everything
        unknown except ``rsp``, which is the symbolic stack base."""
        w = cls()
        w.regs[GPR.RSP] = StackRel(0)
        return w

    # ------------------------------------------------------------- copying
    def copy(self) -> "World":
        """A mutation-independent copy (dict-shallow: values are frozen;
        memory forks copy-on-write, so this is O(cells touched since the
        last copy) rather than O(world))."""
        w = World.__new__(World)
        w.regs = dict(self.regs)
        w.xmm = dict(self.xmm)
        w.flags = dict(self.flags)
        w.mem = self.mem.fork()
        w.escaped = self.escaped
        return w

    # -------------------------------------------------------------- digest
    def digest(self) -> tuple:
        """Hashable identity of this world (flags excluded; see module doc)."""
        regs = tuple(self.regs[r] for r in GPR)
        xmm = tuple(self.xmm[x] for x in XMM)
        mem = self.mem.snapshot_items()
        assert all(
            v.gen == 0 for _, v in mem if isinstance(v, RegSnapshot)
        ), "register snapshots must be normalized (gen 0) at block boundaries"
        return (regs, xmm, mem, self.escaped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, World):
            return NotImplemented
        return self.digest() == other.digest()

    def __hash__(self) -> int:  # worlds are dict keys via digest
        return hash(self.digest())

    # --------------------------------------------------------------- stats
    @property
    def known_count(self) -> int:
        """How many locations carry knowledge (migration distance metric)."""
        count = sum(1 for v in self.regs.values() if v is not None)
        count += sum(1 for v in self.xmm.values() if v is not None)
        count += sum(1 for v in self.mem.values() if v is not None)
        return count

    # ------------------------------------------------------------ mutation
    def kill_flags(self) -> None:
        for f in Flag:
            self.flags[f] = None

    def kill_mem_overlapping(self, key: MemKey) -> None:
        """Remove tracked cells overlapping an 8-byte access at ``key``
        (conservative partial-overlap handling for unaligned stores)."""
        kind, pos = key
        for other in [k for k in self.mem if k[0] == kind and abs(k[1] - pos) < 8]:
            if other != key:
                del self.mem[other]

    def taint_all_memory(self) -> None:
        """After a store through an unknown pointer: every aliasable
        tracked cell becomes dirty (the caller must have materialized
        those cells first — see tracer.flush_known_memory).

        While the frame has not escaped, callee-frame cells (stack
        offsets below the entry rsp) cannot be aliased by an unknown
        pointer and keep their knowledge (see the ``escaped`` field)."""
        for key in list(self.mem):
            kind, pos = key
            if not self.escaped and kind == "s" and pos < 0:
                continue
            self.mem[key] = None


# --------------------------------------------------------------- migration
def _reg_loc(world: "World", snap: RegSnapshot):
    return world.xmm[snap.reg] if snap.is_float else world.regs[snap.reg]


def migration_compatible(src: "World", dst: "World") -> bool:
    """Can ``src`` migrate into ``dst``?  Stops at the first problem.

    Migration src→dst is possible when dst's knowledge is a subset of
    src's: every location dst knows must be known-equal in src.
    Locations src knows but dst doesn't just need materialization.

    One extra rule for snapshot cells (deferred spills): a dst cell that
    aliases register ``r`` stays valid only if the migration edge will
    not *materialize* ``r`` (i.e. src must not know ``r`` while dst
    forgets it) — materialization overwrites the runtime content the
    alias refers to.
    """
    for r in GPR:
        d = dst.regs[r]
        if d is not None and d != src.regs[r]:
            return False
    for x in XMM:
        d = dst.xmm[x]
        if d is not None and d != src.xmm[x]:
            return False
    if src.escaped and not dst.escaped:
        # dst's code assumed the frame cannot be aliased; on this path
        # a frame address is already loose — unsound to merge
        return False
    for key, dval in dst.mem.items():
        if dval is None:
            # dst expects the runtime cell live; src: known -> will be
            # materialized; dirty/absent -> already live.  Always fine.
            continue
        if src.mem.get(key, "absent") != dval:
            return False
        if isinstance(dval, RegSnapshot):
            if _reg_loc(src, dval) is not None and _reg_loc(dst, dval) is None:
                return False
    # src cells that dst does not track: if the address is inside a known
    # range, dst would fold reads from the image; src's runtime/known
    # value must equal the image value — we cannot verify that here, the
    # tracer checks it with the image at hand.
    return True


def generalize(a: "World", b: "World") -> "World":
    """The join: keep only knowledge ``a`` and ``b`` agree on.  Repeated
    application terminates at the all-unknown world (paper, Sec. III.F).

    Demoting a StackRel value to unknown makes a frame address
    runtime-live outside the tracer's knowledge, so the join is marked
    escaped in that case (and whenever either input already was)."""
    out = World()
    out.escaped = a.escaped or b.escaped
    for r in GPR:
        if a.regs[r] is not None and a.regs[r] == b.regs[r]:
            out.regs[r] = a.regs[r]
        elif isinstance(a.regs[r], StackRel) or isinstance(b.regs[r], StackRel):
            out.escaped = True  # a frame address goes runtime-live
    for x in XMM:
        if a.xmm[x] is not None and a.xmm[x] == b.xmm[x]:
            out.xmm[x] = a.xmm[x]
    keys = set(a.mem) | set(b.mem)
    for key in keys:
        av = a.mem.get(key, "absent")
        bv = b.mem.get(key, "absent")
        if av == bv and av != "absent":
            if isinstance(av, RegSnapshot) and _reg_loc(a, av) != _reg_loc(b, av):
                # the register the cell aliases will be materialized on at
                # least one incoming edge; the alias does not survive
                out.mem[key] = None
            else:
                out.mem[key] = av  # type: ignore[assignment]
        else:
            # disagreement (or tracked on one side only): the cell must be
            # runtime-live and unfoldable -> dirty
            out.mem[key] = None
            if isinstance(av, StackRel) or isinstance(bv, StackRel):
                out.escaped = True  # a frame address goes runtime-live
    return out


def materialization_needs(src: "World", dst: "World") -> tuple[list, list, list]:
    """Locations known in ``src`` that are unknown/dirty in ``dst`` and
    therefore need materializing on the src→dst edge.

    Returns ``(gprs, xmms, mem_keys)``.
    """
    gprs = [r for r in GPR
            if src.regs[r] is not None and dst.regs[r] is None and r is not GPR.RSP]
    xmms = [x for x in XMM if src.xmm[x] is not None and dst.xmm[x] is None]
    mem_keys = []
    for key, sval in src.mem.items():
        if sval is None:
            continue
        dval = dst.mem.get(key, "absent")
        if dval is None or (dval == "absent" and key[0] == "s"):
            # dst expects the cell live (dirty), or it's an untracked
            # stack cell dst would read from runtime memory
            mem_keys.append(key)
        elif dval == "absent" and key[0] == "a":
            # absolute cell untracked in dst: dst folds it from the image
            # iff it's in a known range, else reads it live.  Either way a
            # store keeps runtime memory consistent; the tracer decides
            # whether the image value already matches.
            mem_keys.append(key)
    return gprs, xmms, mem_keys
