"""Tests for synthetic code models and walkers."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import code
from repro.isa.code import (
    CodeModel,
    CodeModelConfig,
    CodeWalker,
    SegmentSpec,
    TERM_COND,
)
from repro.isa.data import DataModel, Region
from repro.isa.mix import BranchProfile, InstructionMix
from repro.isa.types import InstrType, Mode


def build_model(seed=0, n_blocks=100, hot=20, **cfg_kwargs):
    mix = InstructionMix(load=0.2, store=0.1, branch=0.15, fp=0.02)
    return CodeModel(CodeModelConfig(
        f"m{seed}", 0x1000_0000, mix,
        segments=(SegmentSpec("main", n_blocks, hot),),
        seed=seed, **cfg_kwargs,
    ))


def build_walker(model, seed=1):
    rng = random.Random(seed)
    data = DataModel([Region("d", 0x2000_0000, 8, 4)], rng)
    return CodeWalker(model, rng, data, Mode.USER, "user", 1, 2)


def test_segments_validate():
    with pytest.raises(ValueError):
        SegmentSpec("bad", 1, 1)
    with pytest.raises(ValueError):
        SegmentSpec("bad", 10, 11)


def test_block_pcs_monotone_and_aligned():
    model = build_model()
    pcs = model.block_pc
    assert all(b % 4 == 0 for b in pcs)
    assert all(pcs[i] < pcs[i + 1] for i in range(len(pcs) - 1))


def test_model_deterministic_for_same_seed():
    a, b = build_model(seed=7), build_model(seed=7)
    assert a.block_pc == b.block_pc
    assert a.term_type == b.term_type
    assert a.taken_prob == b.taken_prob


def test_models_differ_across_seeds():
    a, b = build_model(seed=7), build_model(seed=8)
    assert a.term_type != b.term_type or a.block_pc != b.block_pc


def test_control_flow_closed_within_segment():
    model = build_model(n_blocks=80, hot=16)
    seg = model.segments["main"]
    for b in range(seg.start, seg.end):
        assert seg.start <= model.fallthrough[b] < seg.end
        if model.term_type[b] != 4:  # returns use the call stack
            targets = model.indirect_targets[b] or (model.target[b],)
            for t in targets:
                assert seg.start <= t < seg.end


def test_walk_stays_in_segment():
    model = CodeModel(CodeModelConfig(
        "two-seg", 0x1000_0000, InstructionMix(),
        segments=(SegmentSpec("a", 40, 8), SegmentSpec("b", 40, 8)),
        seed=3,
    ))
    walker = build_walker(model)
    seg_a = model.segments["a"]
    for _ in range(2000):
        walker.next_instruction()
        assert seg_a.start <= walker.block < seg_a.end
    walker.jump_to("b")
    seg_b = model.segments["b"]
    for _ in range(2000):
        walker.next_instruction()
        assert seg_b.start <= walker.block < seg_b.end


def test_dynamic_mix_tracks_static_mix():
    model = build_model(n_blocks=400, hot=60, seed=5)
    walker = build_walker(model)
    counts = Counter(walker.next_instruction().itype for _ in range(40000))
    total = sum(counts.values())
    assert counts[InstrType.LOAD] / total == pytest.approx(0.20, abs=0.09)
    assert counts[InstrType.FP_ALU] / total == pytest.approx(0.02, abs=0.025)
    branchy = sum(
        counts[t] for t in (InstrType.COND_BRANCH, InstrType.UNCOND_BRANCH,
                            InstrType.INDIRECT_JUMP, InstrType.CALL,
                            InstrType.RETURN))
    assert branchy / total == pytest.approx(0.15, abs=0.07)


def test_conditional_taken_rate_matches_target():
    # A single small model's visited-site composition is noisy (which hot
    # blocks carry high-bias branches is a small-sample draw), so average
    # over several models -- as the real workloads do over 8 programs.
    mix = InstructionMix(branch=0.15,
                         branches=BranchProfile(cond_taken=0.70))
    taken = total = 0
    for seed in range(6):
        model = CodeModel(CodeModelConfig(
            f"taken{seed}", 0x1000_0000, mix,
            segments=(SegmentSpec("main", 300, 50),), seed=seed))
        walker = build_walker(model, seed=seed + 100)
        for _ in range(25000):
            instr = walker.next_instruction()
            if instr.itype is InstrType.COND_BRANCH:
                total += 1
                taken += instr.taken
    assert taken / total == pytest.approx(0.70, abs=0.12)
    assert taken / total > 0.5


def test_branch_targets_are_real_block_pcs():
    model = build_model()
    walker = build_walker(model)
    pcs = set(model.block_pc)
    for _ in range(3000):
        instr = walker.next_instruction()
        if instr.is_branch:
            assert instr.target in pcs


def test_pc_advances_by_four_within_block():
    model = build_model()
    walker = build_walker(model)
    prev = None
    for _ in range(200):
        instr = walker.next_instruction()
        if prev is not None and not prev.is_branch:
            assert instr.pc == prev.pc + 4
        prev = instr


def test_call_return_uses_stack():
    model = build_model(seed=11, n_blocks=200, hot=40)
    walker = build_walker(model)
    for _ in range(20000):
        instr = walker.next_instruction()
        if instr.itype is InstrType.CALL:
            expected_return = instr.pc + 4
            depth = len(walker.call_stack)
            if depth:  # stack may cap out
                assert model.block_pc[walker.call_stack[-1]] == expected_return
            break
    else:
        pytest.skip("no call site visited")


def test_cond_sites_have_bimodal_bias():
    model = build_model(n_blocks=300, hot=50)
    probs = [model.taken_prob[b] for b in range(model.n_blocks)
             if model.term_type[b] == TERM_COND]
    assert probs
    middling = [p for p in probs if 0.35 < p < 0.65]
    assert len(middling) < len(probs) * 0.1


def test_indirect_sites_rotate_targets():
    model = build_model(seed=13, n_blocks=400, hot=60,
                        indirect_switch=1.0)
    walker = build_walker(model)
    targets_seen: dict[int, set] = {}
    for _ in range(40000):
        instr = walker.next_instruction()
        if instr.itype is InstrType.INDIRECT_JUMP:
            targets_seen.setdefault(instr.pc, set()).add(instr.target)
    multi = [pc for pc, ts in targets_seen.items() if len(ts) > 1]
    assert multi, "indirect jumps with switch probability 1 must vary targets"


@settings(max_examples=20, deadline=None)
@given(n_blocks=st.integers(10, 150), hot=st.integers(2, 10), seed=st.integers(0, 999))
def test_any_model_walks_without_error(n_blocks, hot, seed):
    hot = min(hot, n_blocks)
    model = build_model(seed=seed, n_blocks=n_blocks, hot=hot)
    walker = build_walker(model, seed=seed + 1)
    for _ in range(300):
        instr = walker.next_instruction()
        assert instr.pc >= 0x1000_0000


# -- golden images -----------------------------------------------------------

def _image_digest(model):
    """sha256 over a model's static arrays (everything a walker reads)."""
    static = (
        [(s.name, s.start, s.end, s.hot_end) for s in model.segments.values()],
        list(model.block_pc),
        [[(t.name, d, p) for t, d, p in body] for body in model.block_body],
        list(model.term_type),
        [repr(p) for p in model.taken_prob],
        list(model.target),
        [list(t) for t in model.indirect_targets],
        list(model.fallthrough),
        model.text_bytes,
    )
    return hashlib.sha256(repr(static).encode()).hexdigest()


#: Digests of the images the canonical workloads build, per simulator seed.
#: They pin the generator's RNG draw order and stratifier tie-break: any
#: change to either changes every simulated result.
GOLDEN_IMAGES = {
    ("specint", 11): {
        "kernel": "b6275cf7d037fe0b80669081260bd624d379efc101ed1dfe27d15f83ade6a510",
        "kcopy": "523bd88228bb6e4a2ebfe9b16681795371e91e85ba060bfb4a4f76fbd5d42db2",
        "pal": "ac72cb510adb9d93763e41f1d9d733ac5e66a15dc0529755dab1a2b6c643d31b",
        "specint:gcc": "0d4139abd9ed1201831ac25745d43993395b69b8b8bd8936a29fcc22f11e23b2",
    },
    ("apache", 11): {
        "apache": "d55f56cc4ca2a0382b7051e60c4c8b2310393c46c9f620f3fafe80c8d5c10405",
    },
    ("specint", 29): {
        "kernel": "ed9c1a71335891548455727f9e7417682dab1fdfecbe743709581648b432d690",
        "kcopy": "650fc1f611c7362099c3168bb8708f831cc06b991de275940aed6339df843f51",
        "pal": "23a6b51b6da70c4669c226bc35d6d9a303527c6a8b0eba377eab1d93b46cff88",
        "specint:gcc": "d9ab931d87aaa3f0427bb5b33cc200bcc836c4cc5d63396573f57572e30f882b",
    },
    ("apache", 29): {
        "apache": "7a8ec341445a949f21b0e497519c173d6870403d0b8754349410629324212ae2",
    },
}


@pytest.mark.parametrize("workload,seed", sorted(GOLDEN_IMAGES))
def test_generated_images_match_golden_digests(workload, seed):
    from repro.analysis.experiments import build_simulation

    code._IMAGE_CACHE.clear()  # pin the generator, not a cached image
    sim = build_simulation(workload, "smt", "full", seed=seed)
    models = {m.name: m for m in (sim.os.kernel_text, sim.os.copy_text,
                                  sim.os.pal_text)}
    for thread in sim.workload.threads:
        if thread.user_walker is not None:
            models.setdefault(thread.user_walker.model.name,
                              thread.user_walker.model)
    got = {name: _image_digest(models[name])
           for name in GOLDEN_IMAGES[(workload, seed)]}
    assert got == GOLDEN_IMAGES[(workload, seed)]


class _ConstantRandom(random.Random):
    """An RNG whose draws are all mid-range: equal stratifier weights then
    start with equal credits, so every body draw meets exact ties."""

    def random(self):
        return 0.5

    def gauss(self, mu=0.0, sigma=1.0):
        return mu


def test_body_slots_break_credit_ties_toward_the_first_item(monkeypatch):
    monkeypatch.setattr(code.random, "Random", _ConstantRandom)
    monkeypatch.setattr(code, "_IMAGE_CACHE", {})
    # Exact binary fractions: load, store and int_alu weigh exactly alike.
    mix = InstructionMix(load=0.25, store=0.25, branch=0.25, fp=0.0)
    model = CodeModel(CodeModelConfig(
        "ties", 0x1000_0000, mix, segments=(SegmentSpec("main", 4, 2),)))
    got = [itype for body in model.block_body for itype, _, _ in body]
    assert got[:3] == [InstrType.LOAD, InstrType.STORE, InstrType.INT_ALU]
    reference = code._Stratifier(mix.body_weights(), _ConstantRandom())
    assert got == [reference.next() for _ in got]


# -- the per-process image cache ---------------------------------------------

def test_equal_configs_share_the_image_but_not_the_cursor():
    a, b = build_model(seed=21), build_model(seed=21)
    for name in ("segments", "block_pc", "block_body", "term_type",
                 "taken_prob", "target", "indirect_targets", "fallthrough"):
        assert getattr(a, name) is getattr(b, name)
    assert a.indirect_cursor == b.indirect_cursor
    assert a.indirect_cursor is not b.indirect_cursor


def test_images_are_immutable():
    model = build_model(seed=22)
    for name in ("block_pc", "block_body", "term_type", "taken_prob",
                 "target", "indirect_targets", "fallthrough"):
        assert isinstance(getattr(model, name), tuple)
    with pytest.raises(TypeError):
        model.segments["extra"] = model.segments["main"]
    with pytest.raises(AttributeError):
        model.segments["main"].start = 5


def test_image_cache_is_bounded():
    cap = code._IMAGE_CACHE_CAP
    models = [build_model(seed=1000 + s, n_blocks=10, hot=2)
              for s in range(cap + 5)]
    assert len(code._IMAGE_CACHE) == cap
    # Oldest out first: the newest image is still shared, the first rebuilt.
    assert build_model(seed=1000 + cap + 4, n_blocks=10,
                       hot=2).block_body is models[-1].block_body
    assert build_model(seed=1000, n_blocks=10,
                       hot=2).block_body is not models[0].block_body


def test_rebuilt_simulation_replays_a_first_build():
    """A simulation built from cached images after an identical one has
    already run (and moved its indirect-jump cursors) must replay the
    first build exactly."""
    from repro.analysis.artifact import canonical_json
    from repro.analysis.experiments import build_simulation
    from repro.analysis.snapshot import capture

    def run():
        sim = build_simulation("apache", "smt", "full", seed=31)
        sim.run(max_instructions=4_000)
        return sim, canonical_json(capture(sim)["probes"])

    code._IMAGE_CACHE.clear()
    first_sim, first = run()
    assert any(first_sim.os.kernel_text.indirect_cursor)
    assert run()[1] == first
