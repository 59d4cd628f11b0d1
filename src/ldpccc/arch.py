"""Analytical and cycle-level model of the decoder hardware.

One decoding step is split into ``stages`` groups of check nodes processed
in parallel.  Edge and channel messages live in banks of small RAMs whose
depth equals the stage count (rounded up to a power of two for physical
RAM blocks) and whose width is the quantization width times the processor
count, because the homogeneous pipeline lets all processors share one
address sequence and be stacked into the word width.  The model reproduces
RAM counts, memory-bit totals, cycle schedules for single- and
multi-codeword operation, and information throughput.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ArchParams",
    "ArchReport",
    "ComplexityScores",
    "RamAccess",
    "StageEvent",
    "Schedule",
    "RamTrace",
    "derive_report",
    "complexity_estimates",
    "schedule_single",
    "schedule_multi",
    "schedule_conventional",
    "proposed_conventional_ratio",
    "ram_trace_example",
    "PRESETS",
    "FPGA_REFERENCE",
    "report_arch",
    "report_presets",
]

PROPOSED_PHASES = ("S-W", "R", "CNP", "VNP")
CONVENTIONAL_PHASES = ("S", "CNR", "CNP", "CNW", "VNR", "VNP", "VNW")


class ArchModelError(ValueError):
    """Parameter combination the hardware model cannot realize."""


@dataclass(frozen=True)
class ArchParams:
    """Hardware-model parameters for one decoder configuration."""

    z: int
    block_rows: int            # check blocks of the base grid
    block_cols: int            # variable blocks of the base grid
    stages: int                # groups per decoding step
    processors: int            # pipeline depth = decoding iterations
    quant_bits: int = 4
    clock_hz: float = 1.0e8
    stage_delay: int = 0       # extra pipeline cycles per decoding step
    codewords: int = 1

    def __post_init__(self):
        for name in ("z", "block_rows", "block_cols", "stages", "processors",
                     "quant_bits", "stage_delay", "codewords"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ArchModelError(f"{name} must be an integer, got {value!r}")
        period = math.gcd(self.block_rows, self.block_cols)
        if period < 2:
            raise ArchModelError("block_rows/block_cols give a degenerate period")
        for name in ("z", "block_rows", "block_cols", "stages", "processors",
                     "quant_bits", "codewords"):
            if getattr(self, name) < 1:
                raise ArchModelError(f"{name} must be positive")
        if self.block_cols <= self.block_rows:
            raise ArchModelError("block_cols must exceed block_rows (rate > 0)")
        if self.stage_delay < 0:
            raise ArchModelError("stage_delay must be >= 0")
        if isinstance(self.clock_hz, bool) or not isinstance(self.clock_hz, numbers.Real):
            raise ArchModelError(f"clock_hz must be a real number, got {self.clock_hz!r}")
        if not (math.isfinite(self.clock_hz) and self.clock_hz > 0):
            raise ArchModelError("clock_hz must be finite and positive")
        if not 1 <= self.codewords <= period:
            raise ArchModelError(
                f"codewords must be in [1, {period}], got {self.codewords}"
            )
        # this also splits the edge RAMs evenly: z·rows·cols / (period²·stages)
        # is checks_per_block / stages times block_cols / period
        if self.checks_per_block % self.stages != 0:
            raise ArchModelError(
                f"stages={self.stages} does not divide the "
                f"{self.checks_per_block} checks per block"
            )
        # a processor's channel RAMs hold a period of blocks
        if self.block_len % self.stages != 0:
            raise ArchModelError(
                f"stages={self.stages} does not split the channel RAMs evenly"
            )

    @property
    def period(self) -> int:
        return math.gcd(self.block_rows, self.block_cols)

    @property
    def memory(self) -> int:
        return self.period - 1

    @property
    def checks_per_block(self) -> int:
        return self.z * self.block_rows // self.period

    @property
    def block_len(self) -> int:
        return self.z * self.block_cols // self.period

    @property
    def rate(self) -> float:
        return 1.0 - self.block_rows / self.block_cols


@dataclass(frozen=True)
class ArchReport:
    params: ArchParams
    cnp_count: int
    vnp_count: int
    edge_rams: int
    channel_rams: int
    ram_depth: int
    ram_width: int
    memory_bits: int
    cycles_per_step: int
    throughput_bps: float


def _pow2_at_least(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def derive_report(p: ArchParams) -> ArchReport:
    """RAM allocation, memory bits, and throughput for one configuration.

    Physical RAM depth is the stage count rounded up to a power of two.
    Memory bits count the combined RAMs (width = quantization bits times
    processors) once per interleaved codeword; throughput counts
    information bits per decoding step over the cycles one step occupies.
    """
    rams = _RamMap(p)
    cnp = p.checks_per_block // p.stages
    vnp = p.block_len * p.checks_per_block // (p.stages * p.z)
    depth = _pow2_at_least(p.stages)
    width = p.quant_bits * p.processors
    bits = rams.per_codeword * depth * width * p.codewords
    cycles = p.stages + p.stage_delay
    info_bits_per_step = (p.block_cols - p.block_rows) * p.z / p.period
    throughput = p.codewords * info_bits_per_step * p.clock_hz / cycles
    return ArchReport(
        params=p,
        cnp_count=cnp,
        vnp_count=vnp,
        edge_rams=rams.edge_total,
        channel_rams=rams.chan_total,
        ram_depth=depth,
        ram_width=width,
        memory_bits=bits,
        cycles_per_step=cycles,
        throughput_bps=throughput,
    )


@dataclass(frozen=True)
class ComplexityScores:
    """Relative scaling scores for parameter sweeps (no absolute units)."""

    throughput_score: float    # ~ z * rate / stages
    memory_score: float        # ~ z * processors * block_cols^2 * (1 - rate)
    logic_score: float         # memory_score / stages


def complexity_estimates(p: ArchParams) -> ComplexityScores:
    mem = p.z * p.processors * p.block_cols ** 2 * (1.0 - p.rate)
    return ComplexityScores(
        throughput_score=p.z * p.rate / p.stages,
        memory_score=mem,
        logic_score=mem / p.stages,
    )


# ---------------------------------------------------------------------------
# RAM layout shared by the report, the schedules and the storage trace


class _RamMap:
    """Integer ids for the per-codeword edge and channel RAM banks.

    Edge RAMs are grouped by block-row phase, then by the phase of the
    variable block the edges touch; channel RAMs are grouped by
    variable-block phase.  Ids are 1-based to match bank labels.
    """

    def __init__(self, p: ArchParams):
        self.period = p.period
        self.edge_per_pair = p.z * p.block_rows * p.block_cols // (
            p.period ** 2 * p.stages
        )
        self.edge_per_row = self.edge_per_pair * p.period
        self.edge_total = self.edge_per_row * p.period
        self.chan_per_block = p.block_len // p.stages
        self.chan_total = self.chan_per_block * p.period
        self.per_codeword = self.edge_total + self.chan_total

    def edge(self, codeword: int, phase: int, delta: int, k: int) -> int:
        block_phase = (phase - delta) % self.period
        return (
            codeword * self.per_codeword
            + phase * self.edge_per_row
            + block_phase * self.edge_per_pair
            + k
            + 1
        )

    def edge_bank(self, codeword: int, phase: int, delta: int) -> range:
        lo = self.edge(codeword, phase, delta, 0)
        return range(lo, lo + self.edge_per_pair)

    def channel_bank(self, codeword: int, phase: int) -> range:
        lo = (
            codeword * self.per_codeword
            + self.edge_total
            + phase * self.chan_per_block
            + 1
        )
        return range(lo, lo + self.chan_per_block)


class RamAccess(NamedTuple):
    ram: int
    address: int
    op: str  # "R" or "W"


class StageEvent(NamedTuple):
    cycle: int
    step: int
    stage: int
    codeword: int
    bpu: int
    phases: tuple[str, ...]
    accesses: tuple[RamAccess, ...]


def _sorted_runs(*keys):
    """Stable lexsort order of equal-length key columns (last key primary)
    and a mask of the sorted positions that start a new key."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for k in keys:
        s = k[order]
        new[1:] |= s[1:] != s[:-1]
    return order, new


# events per write of Schedule.write_csv: about 100 KB of text on preset 1-S
_CSV_BATCH = 64


class Schedule:
    """Stage slots of ``steps`` decoding steps (default two periods) of
    ``params.codewords`` codewords, each slot running ``phases``.

    Event ``i`` runs stage ``stage[i]`` of decoding step ``step[i]`` for
    codeword ``codeword[i]`` on BPU ``bpu[i]`` in cycle ``cycle[i]``; events
    are in (cycle, bpu) order.  Its RAM traffic is the pattern of its
    codeword and row phase (``step % period``): ``ops[k]`` on RAM
    ``rams[codeword, phase, k]``, every access at address ``stage``.
    ``events`` and ``csv_rows`` expand the columns on each call.
    """

    def __init__(self, params: ArchParams, phases: tuple[str, ...], steps: int | None = None):
        p = params
        if steps is None:
            steps = 2 * p.period
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ArchModelError(f"steps must be an integer, got {steps!r}")
        if steps < 0:
            raise ArchModelError(f"steps must be >= 0, got {steps}")
        self.params, self.phases, self.steps = p, phases, steps
        ram_map = _RamMap(p)
        patterns = [[[(op, ram) for op, bank, _msg in _stage_traffic(ram_map, cw, ph)
                      for ram in bank] for ph in range(p.period)]
                    for cw in range(p.codewords)]
        self.ops = tuple(op for op, _ram in patterns[0][0])  # the same for every pattern
        self.rams = np.array([[[ram for _op, ram in pat] for pat in row] for row in patterns])
        # step-major, then stage, then codeword: cycles grow with (step, stage)
        # and the BPUs of one cycle are its codewords, so this is (cycle, bpu) order
        self.step, self.stage, self.codeword = (a.ravel() for a in np.meshgrid(
            np.arange(self.steps), np.arange(p.stages), np.arange(p.codewords), indexing="ij"))
        self.cycle = self.step * self.cycles_per_step + self.stage
        self.bpu = self.step % p.period if p.codewords == 1 else self.codeword

    @property
    def cycles_per_step(self) -> int:
        return self.params.stages + self.params.stage_delay

    @property
    def group_span(self) -> int:
        """Phase slots to decode one check group."""
        return len(self.phases)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return ((self.params, self.phases, self.steps) == (other.params, other.phases, other.steps)
                and np.array_equal(self.rams, other.rams))

    def _event_lists(self):
        """(cycle, step, stage, codeword, phase, bpu) of each event, as ints."""
        phase = self.step % self.params.period
        return zip(*(c.tolist() for c in (self.cycle, self.step, self.stage,
                                          self.codeword, phase, self.bpu)))

    @property
    def events(self) -> tuple[StageEvent, ...]:
        """One StageEvent per stage slot, with one RamAccess per access."""
        pats = self.rams.tolist()
        return tuple(
            StageEvent(cy, st, sg, cw, b, self.phases, tuple(
                RamAccess(ram, sg, op) for op, ram in zip(self.ops, pats[cw][ph])))
            for cy, st, sg, cw, ph, b in self._event_lists())

    def audit_collisions(self) -> list[str]:
        """Port conflicts: a RAM read or written twice in one stage slot.

        One message per repeated (cycle, RAM, op) key, in event and access
        order, naming the BPU of the key's first use.
        """
        n_acc = len(self.ops)
        ram = self.rams[self.codeword, self.step % self.params.period].ravel()
        write = np.tile(np.array([op == "W" for op in self.ops], dtype=bool),
                        self.cycle.size)
        order, new = _sorted_runs(write, ram, np.repeat(self.cycle, n_acc))
        first = order[np.maximum.accumulate(np.where(new, np.arange(new.size), 0))]
        pos, first = order[~new], first[~new]
        by_pos = np.argsort(pos)
        cycle, bpu = self.cycle.tolist(), self.bpu.tolist()
        return [
            f"cycle {cycle[i // n_acc]}: RAM {ram[i]} {self.ops[i % n_acc]} by BPU "
            f"{bpu[f // n_acc]} and BPU {bpu[i // n_acc]}"
            for i, f in zip(pos[by_pos].tolist(), first[by_pos].tolist())
        ]

    def bpu_busy_fraction(self) -> dict[int, float]:
        """Fraction of occupied cycles during which each BPU is active."""
        if not self.cycle.size:
            return {}
        order, new = _sorted_runs(self.cycle, self.bpu)
        busy = np.bincount(self.bpu[order[new]]).tolist()
        span = int(self.cycle.max()) + 1
        return {b: n / span for b, n in enumerate(busy) if n}

    def steps_per_cycle(self) -> float:
        """Aggregate decoding-step completion rate over the emitted window."""
        if not self.cycle.size:
            return 0.0
        _, new = _sorted_runs(self.step, self.codeword)
        return int(new.sum()) / (int(self.cycle.max()) + 1)

    def csv_rows(self) -> list[tuple]:
        """(cycle, bpu, activity, ram_id, address) rows: per event, one per
        RAM access, then one with the phase label and empty RAM fields."""
        label = "+".join(self.phases)
        pats = [[list(zip(self.ops, p)) for p in row] for row in self.rams.tolist()]
        rows = []
        for cy, _st, sg, cw, ph, b in self._event_lists():
            rows += [(cy, b, op, ram, sg) for op, ram in pats[cw][ph]]
            rows.append((cy, b, label, "", ""))
        return rows

    def write_csv(self, out) -> None:
        """Write ``csv_rows`` as CSV under the header ``cycle,bpu,activity,
        ram_id,address`` to the text file ``out``: one string per event, one
        write per ``_CSV_BATCH`` events."""
        label = "+".join(self.phases) + ",,\n"
        tails = [[[f"{op},{ram}," for op, ram in zip(self.ops, p)] + [label] for p in row]
                 for row in self.rams.tolist()]
        out.write("cycle,bpu,activity,ram_id,address\n")
        events = self._event_lists()
        while batch := "".join(f"{cy},{b}," + f"{sg}\n{cy},{b},".join(tails[cw][ph])
                               for cy, _st, sg, cw, ph, b in islice(events, _CSV_BATCH)):
            out.write(batch)

    def gantt(self) -> str:
        """Cycle-by-BPU activity grid."""
        if not self.cycle.size:
            return "(empty schedule)"
        grid = {(b, cy): f"c{cw}s{sg}" for cy, _st, sg, cw, _ph, b in self._event_lists()}
        bpus = sorted({b for b, _cy in grid})
        width = max(6, max(len(v) for v in grid.values()) + 1)
        lines = ["cycle".ljust(8) + "".join(f"BPU{b}".ljust(width) for b in bpus)]
        for cy in range(int(self.cycle.max()) + 1):
            lines.append(f"{cy}".ljust(8) + "".join(
                grid.get((b, cy), ".").ljust(width) for b in bpus))
        return "\n".join(lines)


def _stage_traffic(rams: _RamMap, codeword: int, step: int) -> list[tuple]:
    """RAM traffic of one stage of the decoding step at which check row
    u[step] enters, as ``(op, bank, message)`` per bank, reads first; every
    access goes to the address equal to the stage.

    Reads: the entering row's full bank (check update), the stored
    check-to-variable banks of the leaving block, and the leaving block's
    channel bank.  Writes: check-to-variable write-back for blocks that
    stay, the arriving block's variable-to-check messages into the banks
    freed this stage, and the arriving channel values.  A write's message
    is a tag template and the block indices it names; a read's is None.
    """
    M = rams.period
    phase = step % M
    row = [rams.edge_bank(codeword, phase, delta) for delta in range(M)]
    # the leaving block's bank in each row phase, by the block's offset j
    # from that row; the arriving block takes all of them over
    freed = [rams.edge_bank(codeword, (phase + 1 + j) % M, j) for j in range(M)]
    # freed by the leaving block, refilled by the arriving one
    chan = rams.channel_bank(codeword, (phase + 1) % M)
    return ([("R", bank, None) for bank in row + freed[:-1] + [chan]]
            + [("W", row[d], ("c2v u[{}]->v[{}]", step, step - d)) for d in range(M - 1)]
            + [("W", freed[j], ("v2c v[{}]->u[{}]", step + 1, step + 1 + j))
               for j in range(M)]
            + [("W", chan, ("ch v[{}]", step + 1))])


def schedule_single(p: ArchParams, steps: int | None = None) -> Schedule:
    """Proposed schedule for one codeword: one BPU active per decoding step."""
    return Schedule(replace(p, codewords=1), PROPOSED_PHASES, steps)


def schedule_multi(p: ArchParams, steps: int | None = None) -> Schedule:
    """Proposed schedule with up to ``period`` interleaved codewords.

    Each codeword owns one BPU and its own RAM banks; with a full set of
    codewords every BPU is busy every step and throughput scales by the
    codeword count.
    """
    return Schedule(p, PROPOSED_PHASES, steps)


def schedule_conventional(p: ArchParams, steps: int | None = None) -> Schedule:
    """Baseline schedule that runs read, update, and write as separate phases."""
    return Schedule(replace(p, codewords=1), CONVENTIONAL_PHASES, steps)


def proposed_conventional_ratio(p: ArchParams) -> Fraction:
    """Time to decode one check group, proposed over conventional: the
    ratio of their phase counts, whatever the configuration."""
    from fractions import Fraction  # imported on use: it loads decimal too

    return Fraction(len(PROPOSED_PHASES), len(CONVENTIONAL_PHASES))


# ---------------------------------------------------------------------------
# storage walkthrough


@dataclass(frozen=True)
class RamTrace:
    """Per-stage snapshots of which message kind sits in each RAM entry."""

    params: ArchParams
    edge_rams: int
    channel_rams: int
    edge_rams_per_row: int
    channel_rams_per_block: int
    snapshots: tuple[tuple[str, tuple[tuple[int, int, str], ...]], ...]

    def render(self) -> str:
        lines = [
            f"edge RAMs 1..{self.edge_rams} "
            f"({self.edge_rams_per_row} per check-node set), "
            f"channel RAMs {self.edge_rams + 1}..{self.edge_rams + self.channel_rams} "
            f"({self.channel_rams_per_block} per variable-block set), "
            f"depth {self.params.stages}",
        ]
        for label, cells in self.snapshots:
            lines.append("")
            lines.append(label)
            by_ram: dict[int, dict[int, str]] = {}
            for ram, addr, tag in cells:
                by_ram.setdefault(ram, {})[addr] = tag
            for ram in sorted(by_ram):
                entry = by_ram[ram]
                parts = [f"addr {a}: {entry[a]}" for a in sorted(entry)]
                lines.append(f"  RAM {ram:2d}  " + " | ".join(parts))
        return "\n".join(lines) + "\n"


def _t_label(offset: int) -> str:
    if offset == 0:
        return "t0"
    return f"t0{offset:+d}"


def ram_trace_example() -> RamTrace:
    """Storage walkthrough for the fixed example z=4, 2x4 grid, 2 stages.

    Shows how check-to-variable and variable-to-check messages alternate in
    the same RAM entries over one period of decoding steps, with the read
    and write address simply incrementing by one per stage.  Every entry is
    replayed from the schedules' stage writes: one period of steps before
    t0 fills the RAMs, then each snapshot follows the stages it names.
    """
    p = ArchParams(z=4, block_rows=2, block_cols=4, stages=2, processors=1)
    rams = _RamMap(p)
    every = range(p.stages)
    state: dict[tuple[int, int], str] = {}
    snapshots = []
    for label, steps, stages in (
        ("step 1: start of BPU_1 processing u[t0], v[t0-1]", range(-p.period, 0), every),
        ("step 2: after stage 1 of BPU_1 (addresses 0 written)", [0], [0]),
        ("step 3: after stage 2 of BPU_1 (addresses 1 written)", [0], [1]),
        ("after BPU_2: RAM 1-8 hold variable-to-check messages for u[t0+2]", [1], every),
    ):
        for step in steps:
            for stage in stages:
                for op, bank, message in _stage_traffic(rams, 0, step):
                    if op == "W":
                        tag = message[0].format(*map(_t_label, message[1:]))
                        state.update(((ram, stage), tag) for ram in bank)
        snapshots.append((label, tuple((r, a, t) for (r, a), t in sorted(state.items()))))
    return RamTrace(
        params=p,
        edge_rams=rams.edge_total,
        channel_rams=rams.chan_total,
        edge_rams_per_row=rams.edge_per_row,
        channel_rams_per_block=rams.chan_per_block,
        snapshots=tuple(snapshots),
    )


# ---------------------------------------------------------------------------
# built-in configurations


def _preset(z: int, processors: int, codewords: int) -> ArchParams:
    return ArchParams(
        z=z,
        block_rows=4,
        block_cols=24,
        stages=z,
        processors=processors,
        quant_bits=4,
        clock_hz=1.0e8,
        stage_delay=0,
        codewords=codewords,
    )


PRESETS: dict[str, ArchParams] = {
    "1-S": _preset(422, 18, 1),
    "2-S": _preset(512, 18, 1),
    "3-S": _preset(1024, 12, 1),
    "4-S": _preset(1024, 10, 1),
    "1-P": _preset(422, 18, 4),
    "2-P": _preset(512, 18, 4),
    "3-P": _preset(1024, 12, 4),
    "4-P": _preset(1024, 10, 4),
}

# figures measured on the reference FPGA implementation of each preset,
# used to sanity-check the model (memory bits within a couple of percent)
FPGA_REFERENCE: dict[str, dict] = {
    "1-S": {"memory_bits": 4402268, "throughput_bps": 0.5e9},
    "2-S": {"memory_bits": 4402268, "throughput_bps": 0.5e9},
    "3-S": {"memory_bits": 5829352, "throughput_bps": 0.5e9},
    "4-S": {"memory_bits": 4844140, "throughput_bps": 0.5e9},
    "1-P": {"memory_bits": 17558528, "throughput_bps": 2.0e9},
    "2-P": {"memory_bits": 17558528, "throughput_bps": 2.0e9},
    "3-P": {"memory_bits": 23283712, "throughput_bps": 2.0e9},
    "4-P": {"memory_bits": 19348480, "throughput_bps": 2.0e9},
}


# ---------------------------------------------------------------------------
# text reports


def report_arch(params: ArchParams, name: str = "custom") -> str:
    """One-configuration report with the reference-hardware comparison row."""
    rep = derive_report(params)
    ref = FPGA_REFERENCE.get(name)
    lines = [
        f"{'config':<10} {'G':>6} {'depth':>6} {'memory bits':>12} "
        f"{'clock':>9} {'throughput':>12}",
        f"{name:<10} {params.stages:>6} {rep.ram_depth:>6} {rep.memory_bits:>12} "
        f"{params.clock_hz / 1e6:>6.0f} MHz {rep.throughput_bps / 1e9:>7.2f} Gbps",
    ]
    if ref is not None:
        delta = rep.memory_bits / ref["memory_bits"] - 1.0
        lines.append(
            f"{'reference':<10} {'':>6} {'':>6} {ref['memory_bits']:>12} "
            f"{'':>9} {ref['throughput_bps'] / 1e9:>7.2f} Gbps "
            f"(model memory {delta:+.2%})"
        )
    lines.append("")
    lines.append(
        f"CNPs/BPU {rep.cnp_count}, VNPs/BPU {rep.vnp_count}, "
        f"edge RAMs {rep.edge_rams}, channel RAMs {rep.channel_rams}, "
        f"RAM width {rep.ram_width}, cycles/step {rep.cycles_per_step}"
    )
    return "\n".join(lines)


def report_presets() -> str:
    """Table of every built-in configuration, model vs reference hardware."""
    head = (
        f"{'config':<8} {'z':>5} {'I':>3} {'G':>5} {'cw':>3} {'depth':>6} "
        f"{'model bits':>11} {'ref bits':>11} {'delta':>7} {'Gbps':>6}"
    )
    lines = [head]
    for name, params in PRESETS.items():
        rep = derive_report(params)
        ref = FPGA_REFERENCE[name]
        delta = rep.memory_bits / ref["memory_bits"] - 1.0
        lines.append(
            f"{name:<8} {params.z:>5} {params.processors:>3} {params.stages:>5} "
            f"{params.codewords:>3} {rep.ram_depth:>6} {rep.memory_bits:>11} "
            f"{ref['memory_bits']:>11} {delta:>+7.2%} "
            f"{rep.throughput_bps / 1e9:>6.2f}"
        )
    return "\n".join(lines)
