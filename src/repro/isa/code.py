"""Synthetic code models: static control-flow graphs walked at run time.

A :class:`CodeModel` is the stand-in for a program's (or kernel's) text
segment.  It is a set of basic blocks laid out at consecutive program-counter
values.  Each block carries a statically generated body (a tuple of
instruction categories and dependence flags) and ends in exactly one control
transfer whose behavior (taken bias, target set) was fixed when the model was
built -- just like static code.

Walking the graph therefore produces:

* a PC stream with genuine spatial and temporal locality (hot loop regions,
  cold excursions) that drives the instruction cache and ITLB;
* branch-site streams with stable per-site biases that a real McFarling
  predictor and BTB can learn (or fail to learn);
* instruction-category sequences matching a calibrated mix.

Models may be divided into *segments* -- disjoint block ranges whose control
transfers stay inside the segment.  The kernel model uses one segment per OS
service, which reproduces the paper's locality contrast: SPECInt kernel time
concentrates in the TLB-refill segment (good I-cache locality) while Apache
spreads across many services (poor locality).

The static arrays of a model are an immutable *image* (tuples, a read-only
segment map, frozen segments) built once per process per config and shared
by every model of that config; the indirect-jump cursor, the only state
walkers mutate, belongs to each model instance.  On short runs generation
was most of the set-up cost -- about half of a 10k-instruction specint run
-- and sweeps build the same kernel and program images over and over.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from repro.isa.instruction import Instruction
from repro.isa.mix import BASE_LATENCY, InstructionMix
from repro.isa.types import InstrType, Mode

# Terminator encodings (plain ints for speed).
TERM_COND = 0
TERM_UNCOND = 1
TERM_INDIRECT = 2
TERM_CALL = 3
TERM_RETURN = 4

_TERM_ITYPE = {
    TERM_COND: InstrType.COND_BRANCH,
    TERM_UNCOND: InstrType.UNCOND_BRANCH,
    TERM_INDIRECT: InstrType.INDIRECT_JUMP,
    TERM_CALL: InstrType.CALL,
    TERM_RETURN: InstrType.RETURN,
}

#: Bimodal conditional-branch bias extremes.  The mixture weight between them
#: is solved from the mix's target taken rate.
_HI_BIAS = 0.96
_LO_BIAS = 0.06

_MAX_CALL_DEPTH = 16


@dataclass(frozen=True)
class SegmentSpec:
    """One contiguous, control-flow-closed region of a code model."""

    name: str
    n_blocks: int
    hot_blocks: int

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ValueError(f"segment {self.name!r} needs >= 2 blocks")
        if not 1 <= self.hot_blocks <= self.n_blocks:
            raise ValueError(
                f"segment {self.name!r}: hot_blocks must be in [1, n_blocks]"
            )


@dataclass(frozen=True)
class CodeModelConfig:
    """Build-time parameters of a code model."""

    name: str
    base_pc: int
    mix: InstructionMix
    segments: tuple[SegmentSpec, ...] = (SegmentSpec("main", 256, 32),)
    #: Probability that a cold block's branch leads back toward the hot set.
    return_to_hot: float = 0.6
    #: Probability that a hot block's conditional branch targets the cold
    #: region (rare excursions out of the loop nest).
    cold_excursion: float = 0.04
    #: Probability that an executed indirect jump switches to another of its
    #: static targets (drives BTB target mispredictions).
    indirect_switch: float = 0.2
    #: Per-terminator probability of a random jump within the hot set.
    #: Static random targets can form tiny absorbing orbits (two blocks
    #: whose unconditional branches point at each other); this perturbation
    #: models the data-dependent control flow a real program has and keeps
    #: the walk ergodic over the hot region.
    ergodic_jump: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("code model needs at least one segment")


@dataclass(frozen=True)
class _Segment:
    """Resolved segment: block index range plus hot sub-range."""

    name: str
    start: int
    end: int  # exclusive
    hot_end: int  # exclusive; hot blocks are [start, hot_end)


class _Stratifier:
    """Low-discrepancy weighted assignment via Bresenham credit counters.

    Each call to :meth:`next` returns the item whose accumulated credit is
    highest, then debits one unit -- so every window of N consecutive draws
    contains each item close to ``weight * N`` times.  Initial credits are
    randomly phased so different models interleave items differently.
    """

    def __init__(self, weighted_items, rng: random.Random) -> None:
        items = [(item, w) for item, w in weighted_items if w > 0]
        if not items:
            raise ValueError("stratifier needs at least one positive weight")
        total = sum(w for _, w in items)
        self._items = [item for item, _ in items]
        self._weights = [w / total for _, w in items]
        self._credits = [rng.random() * w for w in self._weights]

    def next(self):
        credits = self._credits
        weights = self._weights
        best = 0
        for i in range(len(credits)):
            credits[i] += weights[i]
            if credits[i] > credits[best]:
                best = i
        credits[best] -= 1.0
        return self._items[best]


#: The 48 distinct body slots ``(itype, dep, phys)``.  Bodies hold these
#: shared tuples instead of one fresh triple per static instruction.
_SLOTS = {
    (itype, dep, phys): (itype, dep, phys)
    for itype in InstrType for dep in (False, True) for phys in (False, True)
}

class _Image(NamedTuple):
    """The static, immutable part of a built code model."""

    segments: Mapping[str, _Segment]
    block_pc: tuple[int, ...]
    block_body: tuple[tuple[tuple[InstrType, bool, bool], ...], ...]
    term_type: tuple[int, ...]
    taken_prob: tuple[float, ...]
    target: tuple[int, ...]
    indirect_targets: tuple[tuple[int, ...], ...]
    fallthrough: tuple[int, ...]
    text_bytes: int


#: Images built in this process, keyed by ``repr(config)`` (the config holds
#: a dict, so it is not hashable; its repr spells out every field).  The
#: canonical runs of one seed share their kernel images across workloads and
#: their program images across cpu/os modes, so a worker that executes
#: several of them generates each image once.  Oldest entries go first.
_IMAGE_CACHE: dict[str, _Image] = {}
_IMAGE_CACHE_CAP = 32


def _image(config: CodeModelConfig) -> _Image:
    """The image of *config*: cached, or built and cached."""
    key = repr(config)
    image = _IMAGE_CACHE.get(key)
    if image is None:
        image = _build(config)
        if len(_IMAGE_CACHE) >= _IMAGE_CACHE_CAP:
            del _IMAGE_CACHE[next(iter(_IMAGE_CACHE))]
        _IMAGE_CACHE[key] = image
    return image


def _build(cfg: CodeModelConfig) -> _Image:
    """Generate the image of *cfg* from its seeded RNG."""
    rng = random.Random((cfg.seed ^ zlib.crc32(cfg.name.encode())) & 0xFFFFFFFF)
    mix = cfg.mix
    profile = mix.branches

    segments: dict[str, _Segment] = {}
    n_total = sum(s.n_blocks for s in cfg.segments)

    # Per-block static data.
    block_pc: list[int] = [0] * n_total
    block_body: list[tuple[tuple[InstrType, bool, bool], ...]] = [()] * n_total
    term_type: list[int] = [0] * n_total
    taken_prob: list[float] = [0.0] * n_total
    target: list[int] = [0] * n_total
    indirect_targets: list[tuple[int, ...]] = [()] * n_total
    fallthrough: list[int] = [0] * n_total

    # Solve the bimodal mixture weight for the target taken rate.
    want = min(max(profile.cond_taken, _LO_BIAS), _HI_BIAS)
    loop_frac = (want - _LO_BIAS) / (_HI_BIAS - _LO_BIAS)

    # Stratified assignment (Bresenham-style credit counters) for body
    # categories, terminator types, and conditional-branch biases.  A
    # walker visits only a segment's hot prefix, so the *composition of
    # every contiguous block window* must match the target mix; random
    # i.i.d. draws leave small, heavily-executed segments with wildly
    # skewed dynamic mixes (a 15-block TLB-refill handler could come out
    # all-loads or all-taken by chance).
    body_strat = _Stratifier(mix.body_weights(), rng)
    term_strat = _Stratifier(
        [
            (TERM_UNCOND, profile.uncond),
            (TERM_INDIRECT, profile.indirect),
            (TERM_CALL, profile.call),
            (TERM_RETURN, profile.ret),
            (TERM_COND, profile.cond),
        ],
        rng,
    )
    bias_strat = _Stratifier([(True, loop_frac), (False, 1.0 - loop_frac)], rng)

    # The body loop runs once per static instruction, so body_strat.next()
    # is inlined below (same float operations, same strict-> first-index
    # tie-break) and everything it reads is bound to locals.  Per body
    # item: its dep probability, whether it draws a phys flag, and its
    # four interned slots indexed by 2 * dep + phys.
    credits = body_strat._credits
    weights = body_strat._weights
    rest = range(1, len(credits))
    dep_probs = [mix.dep_prob.get(item, 0.3) for item in body_strat._items]
    is_mem = [item in (InstrType.LOAD, InstrType.STORE, InstrType.SYNC)
              for item in body_strat._items]
    slots = [
        (_SLOTS[item, False, False], _SLOTS[item, False, True],
         _SLOTS[item, True, False], _SLOTS[item, True, True])
        for item in body_strat._items
    ]
    random_ = rng.random
    gauss = rng.gauss
    mean_len = mix.mean_block_len
    sigma = mean_len * 0.25
    phys_frac = mix.phys_frac

    pc = cfg.base_pc
    start = 0
    for spec in cfg.segments:
        seg = _Segment(spec.name, start, start + spec.n_blocks, start + spec.hot_blocks)
        segments[spec.name] = seg
        start = seg.end

    for seg in segments.values():
        for b in range(seg.start, seg.end):
            length = max(3, round(gauss(mean_len, sigma)))
            body = []
            for _ in range(length - 1):
                best = 0
                top = credits[0] + weights[0]
                credits[0] = top
                for i in rest:
                    c = credits[i] + weights[i]
                    credits[i] = c
                    if c > top:
                        best = i
                        top = c
                credits[best] = top - 1.0
                dep = random_() < dep_probs[best]
                phys = is_mem[best] and random_() < phys_frac
                body.append(slots[best][2 * dep + phys])
            block_pc[b] = pc
            block_body[b] = tuple(body)
            pc += length * 4

            term = term_strat.next()
            term_type[b] = term
            fallthrough[b] = b + 1 if b + 1 < seg.end else seg.start
            if term == TERM_COND:
                is_loopy = bias_strat.next()
                prob = (
                    rng.uniform(_HI_BIAS - 0.03, _HI_BIAS + 0.03)
                    if is_loopy
                    else rng.uniform(_LO_BIAS - 0.04, _LO_BIAS + 0.06)
                )
                taken_prob[b] = min(0.99, max(0.01, prob))
                target[b] = _pick_target(cfg, rng, seg, b)
            elif term == TERM_UNCOND:
                target[b] = _pick_target(cfg, rng, seg, b)
            elif term == TERM_INDIRECT:
                k = max(1, profile.indirect_targets)
                indirect_targets[b] = tuple(
                    _pick_target(cfg, rng, seg, b) for _ in range(k)
                )
            elif term == TERM_CALL:
                target[b] = _pick_target(cfg, rng, seg, b)
            # TERM_RETURN needs no target: the walker's call stack decides.

    return _Image(
        MappingProxyType(segments), tuple(block_pc), tuple(block_body),
        tuple(term_type), tuple(taken_prob), tuple(target),
        tuple(indirect_targets), tuple(fallthrough), pc - cfg.base_pc,
    )


def _pick_target(cfg: CodeModelConfig, rng: random.Random, seg: _Segment,
                 block: int) -> int:
    """Choose a branch target inside *seg* with hot/cold structure."""
    in_hot = block < seg.hot_end
    hot_n = seg.hot_end - seg.start
    cold_n = seg.end - seg.hot_end
    if in_hot:
        if cold_n and rng.random() < cfg.cold_excursion:
            return rng.randrange(seg.hot_end, seg.end)
        # Uniform target over the hot set: the resulting
        # random walk visits hot blocks near-uniformly, which keeps the
        # dynamic instruction mix close to the static one.
        return rng.randrange(seg.start, seg.hot_end)
    # Cold block: usually head back toward the hot set.
    if hot_n and rng.random() < cfg.return_to_hot:
        return rng.randrange(seg.start, seg.hot_end)
    if cold_n:
        return rng.randrange(seg.hot_end, seg.end)
    return rng.randrange(seg.start, seg.hot_end)


class CodeModel:
    """A built synthetic text segment (see module docstring).

    The static arrays are the shared, immutable image of the config; only
    ``indirect_cursor`` changes while walkers run, and every model instance
    gets its own.
    """

    def __init__(self, config: CodeModelConfig) -> None:
        self.config = config
        self.name = config.name
        (self.segments, self.block_pc, self.block_body, self.term_type,
         self.taken_prob, self.target, self.indirect_targets,
         self.fallthrough, self.text_bytes) = _image(config)
        self.n_blocks = len(self.block_pc)
        self.indirect_cursor: list[int] = [0] * self.n_blocks

    # -- queries -----------------------------------------------------------

    def entry(self, segment: str = "main") -> int:
        """Entry block index of *segment*."""
        return self.segments[segment].start

    def segment_of(self, block: int) -> str:
        """Name of the segment containing *block*."""
        for seg in self.segments.values():
            if seg.start <= block < seg.end:
                return seg.name
        raise IndexError(block)


class CodeWalker:
    """Per-thread execution cursor over a :class:`CodeModel`.

    Multiple walkers may share one model (Apache's 64 server processes share
    the Apache text; every kernel thread shares the kernel text), which is
    what creates shared-text instruction-cache behavior.  Each walker owns
    its position, call stack, and data-address generator.
    """

    __slots__ = (
        "model",
        "rng",
        "data",
        "mode",
        "service",
        "thread_id",
        "asn",
        "block",
        "slot",
        "call_stack",
        "_body",
        "_seg",
    )

    def __init__(
        self,
        model: CodeModel,
        rng: random.Random,
        data,
        mode: Mode,
        service: str,
        thread_id: int,
        asn: int,
        segment: str | None = None,
    ) -> None:
        self.model = model
        self.rng = rng
        self.data = data
        self.mode = mode
        self.service = service
        self.thread_id = thread_id
        self.asn = asn
        if segment is None:
            segment = next(iter(model.segments))
        seg = model.segments[segment]
        self._seg = seg
        self.block = seg.start
        self.slot = 0
        self.call_stack: list[int] = []
        self._body = model.block_body[self.block]

    def jump_to(self, segment: str) -> None:
        """Reset the walker to the entry of *segment* (service dispatch)."""
        seg = self.model.segments[segment]
        self._seg = seg
        self.block = seg.start
        self.slot = 0
        self.call_stack.clear()
        self._body = self.model.block_body[self.block]

    def next_instruction(self) -> Instruction:
        """Emit the next dynamic instruction of this thread's walk."""
        m = self.model
        if self.slot < len(self._body):
            itype, dep, phys = self._body[self.slot]
            pc = m.block_pc[self.block] + self.slot * 4
            self.slot += 1
            addr = None
            if itype is InstrType.LOAD or itype is InstrType.STORE or itype is InstrType.SYNC:
                addr, phys = self.data.next(itype is not InstrType.LOAD, phys)
            return Instruction(
                itype,
                self.mode,
                self.service,
                pc,
                addr=addr,
                phys=phys,
                dep=dep,
                latency=BASE_LATENCY[itype],
                thread_id=self.thread_id,
                asn=self.asn,
            )
        return self._terminator()

    def _terminator(self) -> Instruction:
        m = self.model
        b = self.block
        pc = m.block_pc[b] + self.slot * 4
        term = m.term_type[b]
        taken = True
        if term == TERM_COND:
            taken = self.rng.random() < m.taken_prob[b]
            nxt = m.target[b] if taken else m.fallthrough[b]
        elif term == TERM_UNCOND:
            nxt = m.target[b]
        elif term == TERM_INDIRECT:
            targets = m.indirect_targets[b]
            if len(targets) > 1 and self.rng.random() < m.config.indirect_switch:
                m.indirect_cursor[b] = (m.indirect_cursor[b] + 1) % len(targets)
            nxt = targets[m.indirect_cursor[b]]
        elif term == TERM_CALL:
            nxt = m.target[b]
            if len(self.call_stack) < _MAX_CALL_DEPTH:
                self.call_stack.append(m.fallthrough[b])
        else:  # TERM_RETURN
            if self.call_stack:
                nxt = self.call_stack.pop()
            else:
                nxt = m.fallthrough[b]
        if self.rng.random() < m.config.ergodic_jump:
            seg = self._seg
            nxt = self.rng.randrange(seg.start, seg.hot_end)
            if term == TERM_COND:
                taken = True
        itype = _TERM_ITYPE[term]
        instr = Instruction(
            itype,
            self.mode,
            self.service,
            pc,
            taken=taken,
            target=m.block_pc[nxt],
            dep=self.rng.random() < self.model.config.mix.dep_prob.get(itype, 0.3),
            latency=1,
            thread_id=self.thread_id,
            asn=self.asn,
        )
        self.block = nxt
        self.slot = 0
        self._body = m.block_body[nxt]
        return instr
