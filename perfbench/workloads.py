"""The three benchmark workloads: seeded generators plus their runners.

Every workload is a closed loop with one client and no threads.  Its
operations come in blocks; block ``i`` of seed ``s`` is a pure function
of ``(s, i)``, so two runs at one seed see the same inputs.  Each
runner drives the program only through its public entry points with
default settings (``StencilLab``, ``PgasLab``, the labs' supervisors
and ``attach_service``) and checks every output against the labs'
pure-Python oracles.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import time
from dataclasses import dataclass, field

from repro.core import BREW_KNOWN, BREW_PTR_TO_KNOWN, brew_init_conf, brew_setpar
from repro.core.shadowexec import DEFAULT_SHADOW_INTERVAL
from repro.errors import ReproError
from repro.models.pgas import PgasLab
from repro.models.stencil import StencilLab, StencilSpec

now = time.perf_counter

#: Grid edge of the stencil labs (the paper uses 48 and larger).
GRID = 32
#: stencil_sweep: passes of the second plain and grouped rewrite.
SWEEP_PASSES = ("dce", "redundant-load", "peephole")
#: stencil_sweep: seeded cells per block on which each of the five
#: ``apply`` kernels is called once.
SWEEP_CELLS = 200
#: stencil_sweep: cells between two host calibrations.
SWEEP_TICK_CELLS = 50
#: Elements of the PGAS labs' global array (``PgasLab``'s default).
NELEMS = 4096
#: Stencil offsets stay within this distance, so cells this far from
#: the border are valid inputs.
REACH = 2
#: Coefficients of generated stencils.
COEFFS = (0.25, 0.5, -1.0, 2.0, 0.125, -0.5)
#: Pass lists given to the generated small rewrites that use passes.
PASS_SETS = (("dce", "redundant-load", "peephole"), ("dce",), ("redundant-load", "reorder"))

#: specialize_churn: per block, small stencil sizes and large range lengths.
CHURN_SMALL_POINTS = tuple(3 + (j * 9) // 15 for j in range(16))
CHURN_SMALL_WITH_PASSES = 4
#: Cells each small variant runs on; the first ``CHURN_RATIO_CELLS``
#: also run the original for the cycle ratio.
CHURN_SMALL_CELLS = 100
CHURN_RATIO_CELLS = 3
CHURN_LARGE_SIZES = (64, 96, 96, 128)
CHURN_LARGE_PUTS = 2
#: ``variant_threshold`` of the large rewrites: high enough that the
#: reduction loop unrolls completely.
UNROLL_THRESHOLD = 1 << 16

#: service_mix: key population, Zipf exponent and per-block op counts.
SERVICE_STENCIL_POINTS = (3, 4, 5, 6, 8, 9, 10, 12)
SERVICE_DESCRIPTORS = 6
ZIPF_S = 1.1
#: Per block: stencil calls, PGAS calls, data writes, known writes.
SERVICE_COUNTS = (72, 16, 10, 2)
#: service_mix: operations between two host calibrations.
SERVICE_TICK_OPS = 5
#: Calls a run needs so that 10 samples lie beyond ``call_ms.p99``.
SERVICE_MIN_CALLS = 1000
SERVICE_RANGE = (4, 32)
#: Bytes of the PGAS ``struct GA`` descriptor.
GA_BYTES = 56
#: Metrics histograms that hold host time, not simulated quantities.
HOST_TIME_HISTOGRAMS = ("supervisor.rewrite_micros",)


class OracleMismatch(Exception):
    """An output differs from its pure-Python oracle."""


class DeterminismMismatch(Exception):
    """A repeated operation produced different simulated counts."""


def check_close(got: float, want: float, what: str) -> None:
    """Fail the run unless ``got`` matches the oracle ``want``."""
    if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
        raise OracleMismatch(f"{what}: got {got!r}, want {want!r}")


def check_matrix(got: list[float], want: list[float], what: str) -> None:
    """Fail the run unless every cell matches ``reference_sweep``."""
    for i, (g, w) in enumerate(zip(got, want)):
        check_close(g, w, f"{what} cell {i}")


@dataclass
class Samples:
    """Everything a run measures outside the span recorder."""

    rewrite_s: list = field(default_factory=list)
    call_ms: list = field(default_factory=list)
    #: ``perf_counter`` start and end of each ``rewrite_s`` and
    #: ``call_ms`` sample.
    rewrite_at: list = field(default_factory=list)
    call_at: list = field(default_factory=list)
    #: Variant/original simulated-cycle ratios from the fixed blocks.
    ratios: list = field(default_factory=list)
    #: Simulated counts and emitted bytes from the fixed blocks.
    fingerprint: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add_rewrite(self, start: float, end: float) -> None:
        self.rewrite_at.append((start, end))
        self.rewrite_s.append(end - start)

    def add_call(self, start: float, end: float) -> None:
        self.call_at.append((start, end))
        self.call_ms.append((end - start) * 1e3)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.fingerprint).encode()).hexdigest()[:16]


def _rng(seed: int, workload: str, index) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def seeded_grid(seed: int, workload: str, xs: int, ys: int) -> list[float]:
    """Initial matrix values (exact binary fractions)."""
    rng = _rng(seed, workload, "grid")
    return [rng.randrange(-64, 65) / 16.0 for _ in range(xs * ys)]


def random_stencil(rng: random.Random, npoints: int) -> tuple:
    """``npoints`` distinct offsets within ``REACH`` and small coefficients."""
    offsets = [(dx, dy) for dy in range(-REACH, REACH + 1) for dx in range(-REACH, REACH + 1)]
    return tuple((rng.choice(COEFFS), dx, dy) for dx, dy in rng.sample(offsets, npoints))


def _cell(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(REACH, GRID - REACH), rng.randrange(REACH, GRID - REACH)


@dataclass(frozen=True)
class SmallRewrite:
    """Specialize ``apply`` for a fresh runtime stencil; run it on cells."""

    points: tuple
    passes: tuple
    cells: tuple


@dataclass(frozen=True)
class LargeRewrite:
    """Fully unroll ``ga_sum_range`` over ``[lo, lo+n)``; run it before
    and after writing ``puts`` into the range."""

    lo: int
    n: int
    puts: tuple


def churn_block(seed: int, index: int, nnodes: int, block: int) -> list:
    """Block ``index`` of specialize_churn: one small rewrite per entry
    of ``CHURN_SMALL_POINTS`` (a few with passes) and one large rewrite
    per entry of ``CHURN_LARGE_SIZES``, each large range inside a
    different node's slice of ``block`` elements (node 0's slice is
    local, the others remote), in seeded order."""
    rng = _rng(seed, "specialize_churn", index)
    nsmall = len(CHURN_SMALL_POINTS)
    with_passes = set(rng.sample(range(nsmall), min(CHURN_SMALL_WITH_PASSES, nsmall)))
    ops = []
    for j, npoints in enumerate(CHURN_SMALL_POINTS):
        passes = PASS_SETS[j % len(PASS_SETS)] if j in with_passes else ()
        cells = tuple(_cell(rng) for _ in range(CHURN_SMALL_CELLS))
        ops.append(SmallRewrite(random_stencil(rng, npoints), passes, cells))
    for j, n in enumerate(CHURN_LARGE_SIZES):
        # which size is local rotates with the block, not the seed
        node = (index + j) % nnodes
        lo = node * block + rng.randrange(block - n + 1)
        puts = tuple((lo + rng.randrange(n), rng.randrange(-64, 65) / 8.0)
                     for _ in range(CHURN_LARGE_PUTS))
        ops.append(LargeRewrite(lo, n, puts))
    rng.shuffle(ops)
    return ops


def _zipf(rng: random.Random, k: int) -> int:
    return rng.choices(range(k), weights=[1.0 / (r + 1) ** ZIPF_S for r in range(k)])[0]


def service_stencils(seed: int) -> list[tuple]:
    """The stencil key population of service_mix."""
    rng = _rng(seed, "service_mix", "stencils")
    return [random_stencil(rng, n) for n in SERVICE_STENCIL_POINTS]


def service_block(seed: int, index: int) -> list:
    """Block ``index`` of service_mix as tuples:

    * ``("scall", key, x, y)`` / ``("pcall", key, lo, n)`` — calls,
      Zipf-distributed over the stencil and descriptor keys;
    * ``("put", i, v)`` / ``("cell", x, y, v)`` — writes to data no
      variant depends on;
    * ``("coef", key, point, f)`` / ``("desc", key)`` — writes to known
      memory, each followed by ``invalidate_memory`` and then by a call
      to the same key, so every block re-rewrites the same number of
      variants."""
    rng = _rng(seed, "service_mix", index)
    n_scall, n_pcall, n_data, n_known = SERVICE_COUNTS
    ks = len(SERVICE_STENCIL_POINTS)

    def scall(key):
        return ("scall", key, *_cell(rng))

    def pcall(key):
        n = rng.randint(*SERVICE_RANGE)
        return ("pcall", key, rng.randrange(NELEMS - n + 1), n)

    units = []
    for j in range(n_known):
        if j % 2:
            key = _zipf(rng, SERVICE_DESCRIPTORS)
            units.append([("desc", key), pcall(key)])
            n_pcall -= 1
        else:
            key = _zipf(rng, ks)
            point = rng.randrange(SERVICE_STENCIL_POINTS[key])
            units.append([("coef", key, point, rng.choice(COEFFS)), scall(key)])
            n_scall -= 1
    units += [[scall(_zipf(rng, ks))] for _ in range(n_scall)]
    units += [[pcall(_zipf(rng, SERVICE_DESCRIPTORS))] for _ in range(n_pcall)]
    for j in range(n_data):
        v = rng.randrange(-64, 65) / 8.0
        if j % 2:
            units.append([("cell", *_cell(rng), v)])
        else:
            units.append([("put", rng.randrange(NELEMS), v)])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


# ====================================================================== runners
class _GridRig:
    """A stencil lab whose input matrix holds the seeded grid."""

    def __init__(self, seed: int, workload: str) -> None:
        self.lab = StencilLab(GRID, GRID)
        self.grid = seeded_grid(seed, workload, GRID, GRID)
        self.lab.machine.image.poke(self.lab.m1, struct.pack(f"<{len(self.grid)}d", *self.grid))
        #: What the output matrix is reset to before every sweep: the
        #: grid's border (which a sweep leaves alone) around NaN, so a
        #: sweep passes the oracle only if it stores every interior cell.
        blank = [math.nan if 0 < x < GRID - 1 and 0 < y < GRID - 1 else self.grid[y * GRID + x]
                 for y in range(GRID) for x in range(GRID)]
        self.blank = struct.pack(f"<{len(blank)}d", *blank)
        #: ``reference_sweep`` of the grid, computed on first use.
        self.want = None
        #: stencil_sweep: the first block's counts, which every later
        #: block must repeat exactly.
        self.first_counts = None


def _stencil_conf(passes=()):
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    brew_setpar(conf, 3, BREW_PTR_TO_KNOWN)
    conf.passes = passes
    return conf


def _timed_rewrite(samples: Samples, rewrite, *args):
    start = now()
    result = rewrite(*args)
    samples.add_rewrite(start, now())
    if not result.ok:
        samples.failed += 1
    return result


def _timed_call(samples: Samples, call, *args):
    start = now()
    run = call(*args)
    samples.add_call(start, now())
    return run


def _emitted(machine, result) -> str:
    return hashlib.sha256(machine.image.peek(result.entry, result.code_size)).hexdigest()[:16]


class Workload:
    """A seeded workload: ``build`` makes its labs (timed as set-up),
    ``run_block`` runs block ``index`` and records into ``samples``."""

    name = ""
    #: Blocks every run completes; cycle ratios and the determinism
    #: fingerprint come from these blocks only.
    fixed_blocks = 1

    def __init__(self, seed: int, recorder, tick) -> None:
        self.seed = seed
        self.recorder = recorder
        #: Called between operations of a block; the harness times a
        #: host calibration there.
        self.tick = tick

    def machines(self, rig) -> list:
        """The simulated machines the workload's labs own."""
        return [rig.lab.machine]

    def counters(self, rig) -> dict:
        """Cumulative program counters read at block boundaries."""
        return {}

    def enough(self, samples: Samples) -> bool:
        """Whether the percentile samples meet the workload's minimum."""
        return True

    def finish(self, rig, samples: Samples) -> None:
        """Post-loop measurements (untimed)."""


class StencilSweep(Workload):
    """Paper Sec. V on a reduced grid: specialize ``apply`` and the
    grouped ``apply``, without and with passes, then sweep with the
    generic, rewritten and grouped-rewritten kernels against
    ``reference_sweep``, then call each of the five ``apply`` kernels on
    seeded cells against ``reference_apply``."""

    name = "stencil_sweep"

    def build(self):
        return _GridRig(self.seed, self.name)

    def run_block(self, rig, index: int, samples: Samples) -> None:
        lab = rig.lab
        if rig.want is None:
            rig.want = lab.reference_sweep(rig.grid)
        m = lab.machine
        rewrites = []
        for passes in ((), SWEEP_PASSES):
            for grouped in (False, True):
                self.tick()
                self.recorder.next_op()
                samples.attempted += 1
                rewrites.append(_timed_rewrite(samples, lab.rewrite_apply, grouped, passes))
        plain, grouped, plain_passes, grouped_passes = rewrites
        kernels = (
            ("generic", "sweep", lab.s_addr, m.symbol("apply")),
            ("rewritten", "sweep", lab.s_addr, plain.entry_or_original),
            ("grouped-rewritten", "sweep_grouped", lab.sg_addr, grouped.entry_or_original),
        )
        counts = [(r.stats.traced_instructions, r.code_size) for r in rewrites]
        cycles = {}
        for label, sweep, s_addr, fn in kernels:
            self.tick()
            self.recorder.next_op()
            samples.attempted += 1
            m.image.poke(lab.m2, rig.blank)
            try:
                run = m.call(sweep, lab.m1, lab.m2, GRID, GRID, s_addr, fn)
            except ReproError:
                samples.failed += 1
                continue
            check_matrix(lab.read_matrix(lab.m2), rig.want, f"{label} sweep")
            cycles[label] = run.cycles
            counts.append((label, run.cycles, run.perf.instructions))
        self._cells(rig, index, kernels + (
            ("rewritten-with-passes", "sweep", lab.s_addr, plain_passes.entry_or_original),
            ("grouped-rewritten-with-passes", "sweep_grouped", lab.sg_addr,
             grouped_passes.entry_or_original),
        ), samples)
        if index == 0:
            rig.first_counts = counts
            if "generic" in cycles and "rewritten" in cycles:
                samples.ratios.append(cycles["rewritten"] / cycles["generic"])
            samples.fingerprint.append(counts)
            samples.fingerprint.append([_emitted(m, r) for r in rewrites if r.ok])
        elif counts != rig.first_counts:
            raise DeterminismMismatch(f"block {index}: {counts} != {rig.first_counts}")

    def _cells(self, rig, index: int, kernels, samples: Samples) -> None:
        """Call every kernel's ``apply`` once on each of ``SWEEP_CELLS``
        seeded cells, after the sweeps."""
        lab = rig.lab
        rng = _rng(self.seed, self.name, ("cells", index))
        for j in range(SWEEP_CELLS):
            if j % SWEEP_TICK_CELLS == 0:
                self.tick()
            x, y = _cell(rng)
            want = lab.spec.reference_apply(rig.grid, GRID, x, y)
            for label, _, s_addr, fn in kernels:
                self.recorder.next_op()
                samples.attempted += 1
                try:
                    run = _timed_call(samples, lab.machine.call, fn,
                                      lab.m1 + 8 * (y * GRID + x), GRID, s_addr)
                except ReproError:
                    samples.failed += 1
                    continue
                check_close(run.float_return, want, f"{label} apply at {(x, y)}")


class SpecializeChurn(Workload):
    """A seeded stream of distinct specializations through the labs'
    supervisors: mostly small runtime stencils, a minority of fully
    unrolled PGAS range reductions."""

    name = "specialize_churn"
    fixed_blocks = 5

    def build(self):
        return _GridRig(self.seed, self.name), PgasLab(nelems=NELEMS)

    def machines(self, rig) -> list:
        return [rig[0].lab.machine, rig[1].machine]

    def enough(self, samples: Samples) -> bool:
        return len(samples.rewrite_s) >= self.fixed_blocks * (
            len(CHURN_SMALL_POINTS) + len(CHURN_LARGE_SIZES))

    def run_block(self, rig, index: int, samples: Samples) -> None:
        ops = churn_block(self.seed, index, rig[1].nnodes, rig[1].block)
        for op in ops:
            self.tick()
            self.recorder.next_op()
            samples.attempted += 1
            try:
                if isinstance(op, SmallRewrite):
                    measured = self._small(rig[0], op, samples)
                else:
                    measured = self._large(rig[1], op, samples)
            except ReproError:
                samples.failed += 1
                continue
            if measured is not None and index < self.fixed_blocks:
                ratio, counts = measured
                samples.ratios.append(ratio)
                samples.fingerprint.append(counts)

    def _small(self, rig, op: SmallRewrite, samples: Samples):
        lab = rig.lab
        m = lab.machine
        spec = StencilSpec(list(op.points))
        packed = spec.pack()
        s_addr = m.image.malloc(len(packed))
        m.image.poke(s_addr, packed)
        example = lab.m1 + 8 * (REACH * GRID + REACH)
        result = _timed_rewrite(samples, lab.supervisor.rewrite, _stencil_conf(op.passes),
                                "apply", example, GRID, s_addr)
        if not result.ok:
            return None
        self.tick()
        original = m.symbol("apply")
        variant_cycles = original_cycles = 0
        for j, (x, y) in enumerate(op.cells):
            cell = lab.m1 + 8 * (y * GRID + x)
            run = _timed_call(samples, m.call, result.entry, cell, GRID, s_addr)
            check_close(run.float_return, spec.reference_apply(rig.grid, GRID, x, y),
                        f"stencil {op.points} at {(x, y)}")
            if j < CHURN_RATIO_CELLS:
                variant_cycles += run.cycles
                original_cycles += m.call(original, cell, GRID, s_addr).cycles
        return variant_cycles / original_cycles, (
            result.stats.traced_instructions, result.code_size, _emitted(m, result),
            variant_cycles, original_cycles)

    def _large(self, lab: PgasLab, op: LargeRewrite, samples: Samples):
        m = lab.machine
        getter = m.symbol("ga_get")
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
        for position in (2, 3, 4):
            brew_setpar(conf, position, BREW_KNOWN)
        conf.variant_threshold = UNROLL_THRESHOLD
        lo, hi = op.lo, op.lo + op.n
        result = _timed_rewrite(samples, lab.supervisor.rewrite, conf, "ga_sum_range",
                                lab.ga_addr, lo, hi, getter)
        if not result.ok:
            return None
        self.tick()
        variant_cycles = original_cycles = 0
        for puts in ((), op.puts):
            for i, v in puts:
                m.call("ga_put", lab.ga_addr, i, v)
            run = _timed_call(samples, m.call, result.entry, lab.ga_addr, lo, hi, getter)
            check_close(run.float_return, lab.reference_sum(lo, hi), f"sum [{lo}, {hi})")
            variant_cycles += run.cycles
            original_cycles += lab.sum_generic(lo, hi).cycles
        return variant_cycles / original_cycles, (
            result.stats.traced_instructions, result.code_size, _emitted(m, result),
            variant_cycles, original_cycles)


class _ServiceRig:
    """The two labs of service_mix, their services and key population."""

    def __init__(self, seed: int) -> None:
        grid_rig = _GridRig(seed, "service_mix")
        self.stencil, self.grid = grid_rig.lab, grid_rig.grid
        self.pgas = PgasLab(nelems=NELEMS)
        self.services = (
            self.stencil.attach_service(shadow_interval=DEFAULT_SHADOW_INTERVAL),
            self.pgas.attach_service(shadow_interval=DEFAULT_SHADOW_INTERVAL),
        )
        image = self.stencil.machine.image
        self.specs = [StencilSpec(list(points)) for points in service_stencils(seed)]
        self.s_addrs = []
        for spec in self.specs:
            packed = spec.pack()
            self.s_addrs.append(image.malloc(len(packed)))
            image.poke(self.s_addrs[-1], packed)
        image = self.pgas.machine.image
        self.ga_bytes = image.peek(self.pgas.ga_addr, GA_BYTES)
        self.descs = []
        for _ in range(SERVICE_DESCRIPTORS):
            self.descs.append(image.malloc(GA_BYTES))
            image.poke(self.descs[-1], self.ga_bytes)
        self.getter = self.pgas.machine.symbol("ga_get")


def _deterministic_snapshot(metrics) -> str:
    """The Metrics snapshot without its host-time histograms: the
    supervisor records ``supervisor.rewrite_micros`` from the wall
    clock, so that one histogram differs between any two runs."""
    snapshot = metrics.as_dict()
    for name in HOST_TIME_HISTOGRAMS:
        snapshot["histograms"].pop(name, None)
    return json.dumps(snapshot, sort_keys=True)


def _pgas_conf():
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_PTR_TO_KNOWN)
    brew_setpar(conf, 4, BREW_KNOWN)
    return conf


class ServiceMix(Workload):
    """One client against step-mode services on a PGAS lab and a
    stencil lab with shadow sampling on: Zipf calls over a key
    population, interleaved data writes and known-memory writes."""

    name = "service_mix"
    fixed_blocks = 5

    def build(self):
        return _ServiceRig(self.seed)

    def machines(self, rig) -> list:
        return [rig.stencil.machine, rig.pgas.machine]

    def enough(self, samples: Samples) -> bool:
        return len(samples.call_ms) >= SERVICE_MIN_CALLS

    def counters(self, rig) -> dict:
        out = {"evictions": 0}
        for service in rig.services:
            stats = service.stats()
            for key in ("requests", "warm_hits", "cold_misses", "withdrawn",
                        "failures", "shed", "shadow_divergences"):
                out[key] = out.get(key, 0) + stats[key]
            out["evictions"] += service.manager.evictions
        return out

    def run_block(self, rig: _ServiceRig, index: int, samples: Samples) -> None:
        ops = service_block(self.seed, index)
        calls = []
        for j, op in enumerate(ops):
            if j % SERVICE_TICK_OPS == 0:
                self.tick()
            self.recorder.next_op()
            samples.attempted += 1
            try:
                cycles = self._operate(rig, op, samples)
            except ReproError:
                samples.failed += 1
                cycles = None
            if cycles is not None:
                calls.append(cycles)
            for service in rig.services:
                start = now()
                if service.step():
                    samples.add_rewrite(start, now())
        if index < self.fixed_blocks:
            samples.fingerprint.append(calls)
        if index == self.fixed_blocks - 1:
            samples.fingerprint.extend(_deterministic_snapshot(s.metrics) for s in rig.services)

    def _operate(self, rig: _ServiceRig, op: tuple, samples: Samples):
        kind = op[0]
        s_service, p_service = rig.services
        if kind == "scall":
            _, key, x, y = op
            cell = rig.stencil.m1 + 8 * (y * GRID + x)
            run = _timed_call(samples, s_service.call, _stencil_conf(), "apply",
                              cell, GRID, rig.s_addrs[key])
            check_close(run.float_return,
                        rig.specs[key].reference_apply(rig.grid, GRID, x, y),
                        f"service stencil {key} at {(x, y)}")
            return run.cycles
        if kind == "pcall":
            _, key, lo, n = op
            run = _timed_call(samples, p_service.call, _pgas_conf(), "ga_sum_range",
                              rig.descs[key], lo, lo + n, rig.getter)
            check_close(run.float_return, rig.pgas.reference_sum(lo, lo + n),
                        f"service sum [{lo}, {lo + n})")
            return run.cycles
        if kind == "put":
            _, i, v = op
            rig.pgas.machine.call("ga_put", rig.pgas.ga_addr, i, v)
        elif kind == "cell":
            _, x, y, v = op
            rig.grid[y * GRID + x] = v
            rig.stencil.machine.image.poke(rig.stencil.m1 + 8 * (y * GRID + x),
                                           struct.pack("<d", v))
        elif kind == "coef":
            _, key, point, f = op
            spec = rig.specs[key]
            _, dx, dy = spec.points[point]
            spec.points[point] = (f, dx, dy)
            addr = rig.s_addrs[key] + 8 + 24 * point
            rig.stencil.machine.image.poke(addr, struct.pack("<d", f))
            s_service.manager.invalidate_memory(addr, addr + 8)
        elif kind == "desc":
            _, key = op
            rig.pgas.machine.image.poke(rig.descs[key], rig.ga_bytes)
            p_service.manager.invalidate_memory(rig.descs[key], rig.descs[key] + GA_BYTES)
        return None

    def finish(self, rig: _ServiceRig, samples: Samples) -> None:
        """Cycle ratio of every key's published variant against the
        original on the key's canonical arguments."""
        s_service, p_service = rig.services
        center = rig.stencil.m1 + 8 * ((GRID // 2) * GRID + GRID // 2)
        keys = [(s_service, rig.stencil, _stencil_conf, "apply", (center, GRID, s))
                for s in rig.s_addrs]
        keys += [(p_service, rig.pgas, _pgas_conf, "ga_sum_range",
                  (d, 0, SERVICE_RANGE[1], rig.getter)) for d in rig.descs]
        for service, lab, conf, fn, args in keys:
            original = lab.machine.symbol(fn)
            entry = service.request(conf(), fn, *args)
            if entry == original:
                service.drain()
                entry = service.request(conf(), fn, *args)
            if entry == original:
                continue
            variant = lab.machine.call(entry, *args)
            reference = lab.machine.call(original, *args)
            check_close(variant.float_return, reference.float_return, f"{fn} variant at {args}")
            samples.ratios.append(variant.cycles / reference.cycles)


WORKLOADS = {w.name: w for w in (StencilSweep, SpecializeChurn, ServiceMix)}
