"""Tests for the A1/A2/A3 load-compute overlap schedulers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.scheduler import Architecture, BlockWork, ScheduleResult, schedule
from tests.reference_schedulers import REFERENCE_SCHEDULERS


def uniform_blocks(n: int, load: int, compute: int) -> list[BlockWork]:
    return [BlockWork(f"b{i}", load, compute) for i in range(n)]


class TestA1:
    def test_total_is_sum(self):
        blocks = uniform_blocks(5, 100, 40)
        result = schedule("A1", blocks)
        assert result.total_cycles == 5 * (100 + 40)

    def test_overhead_added_per_block(self):
        blocks = uniform_blocks(3, 10, 10)
        assert schedule("A1", blocks, block_overhead=5).total_cycles == 3 * 25

    def test_stall_equals_loads_after_first(self):
        blocks = uniform_blocks(4, 100, 40)
        result = schedule("A1", blocks)
        # Compute engine idles during every load except before C1 starts.
        assert result.stall_cycles == 3 * 100


class TestA2:
    def test_load_bound_hides_compute(self):
        """When loads dominate, A2 ~ sum(loads) + last compute."""
        blocks = uniform_blocks(6, 100, 10)
        result = schedule("A2", blocks)
        assert result.total_cycles == 6 * 100 + 10

    def test_compute_bound_hides_loads(self):
        """When computes dominate, A2 ~ first load + sum(computes)."""
        blocks = uniform_blocks(6, 10, 100)
        result = schedule("A2", blocks)
        assert result.total_cycles == 10 + 6 * 100

    def test_never_slower_than_a1(self):
        for load, compute in [(100, 10), (10, 100), (50, 50), (0, 10), (10, 0)]:
            blocks = uniform_blocks(8, load, compute)
            assert (
                schedule("A2", blocks).total_cycles
                <= schedule("A1", blocks).total_cycles
            )

    def test_double_buffer_constraint(self):
        """Load i cannot start before compute i-2 released its buffer."""
        blocks = uniform_blocks(4, 10, 100)
        result = schedule("A2", blocks)
        loads = result.timeline.on_engine("hbm0")
        computes = result.timeline.on_engine("compute")
        # LW3 (index 2) must start at or after C1 (index 0) ends.
        assert loads[2].start >= computes[0].end


class TestA3:
    def test_load_bound_halves_stall(self):
        """Paper: stall drops from (LW - C) to ~(LW - C)/2."""
        lw, c, n = 100, 20, 12
        a2 = schedule("A2", uniform_blocks(n, lw, c))
        a3 = schedule("A3", uniform_blocks(n, lw, c))
        # Steady-state per block: A2 pays lw, A3 pays (lw + c) / 2.
        assert a3.total_cycles < a2.total_cycles
        a2_stall_per_block = (a2.total_cycles - n * c) / n
        a3_stall_per_block = (a3.total_cycles - n * c) / n
        assert a3_stall_per_block == pytest.approx(
            (a2_stall_per_block - 0) / 2, rel=0.25
        )

    def test_compute_bound_equals_a2(self):
        """Once compute > load (s > 18 in the paper) A2 and A3 tie."""
        blocks_a2 = uniform_blocks(10, 10, 100)
        blocks_a3 = uniform_blocks(10, 10, 100)
        assert (
            schedule("A2", blocks_a2).total_cycles
            == schedule("A3", blocks_a3).total_cycles
        )

    def test_two_channels_used(self):
        result = schedule("A3", uniform_blocks(4, 50, 10))
        engines = result.timeline.engines()
        assert "hbm0" in engines and "hbm1" in engines

    def test_channel_hint_respected(self):
        blocks = [
            BlockWork("m", 50, 10, channel_hint=0),
            BlockWork("f", 50, 10, channel_hint=1),
        ]
        result = schedule("A3", blocks)
        assert [e.label for e in result.timeline.on_engine("hbm0")] == ["LW:m"]
        assert [e.label for e in result.timeline.on_engine("hbm1")] == ["LW:f"]

    def test_prefetch_waits_for_buffer(self):
        """LW_{i+2} is initiated after C_i completes (Fig 4.10)."""
        blocks = uniform_blocks(6, 10, 100)
        result = schedule("A3", blocks)
        computes = result.timeline.on_engine("compute")
        for chan in ("hbm0", "hbm1"):
            loads = result.timeline.on_engine(chan)
            for j, load in enumerate(loads[1:], start=1):
                # This channel's j-th load is global block 2j; its
                # buffer frees when compute 2j-2 ends.
                assert load.start >= computes[2 * j - 2].end - 1e-9

    def test_invalid_channel_hint(self):
        with pytest.raises(ValueError):
            schedule("A3", [BlockWork("x", 1, 1, channel_hint=2)])


class TestOrderingInvariants:
    @pytest.mark.parametrize("load,compute", [(100, 10), (10, 100), (77, 77)])
    def test_a3_fastest_a1_slowest(self, load, compute):
        n = 18
        t1 = schedule("A1", uniform_blocks(n, load, compute)).total_cycles
        t2 = schedule("A2", uniform_blocks(n, load, compute)).total_cycles
        t3 = schedule("A3", uniform_blocks(n, load, compute)).total_cycles
        assert t3 <= t2 <= t1

    def test_compute_never_before_its_load(self):
        for arch in Architecture:
            result = schedule(arch, uniform_blocks(7, 31, 17))
            load_ends = {}
            for eng in result.timeline.engines():
                if eng.startswith("hbm"):
                    for e in result.timeline.on_engine(eng):
                        load_ends[e.label.removeprefix("LW:")] = e.end
            for e in result.timeline.on_engine("compute"):
                name = e.label.removeprefix("C:")
                assert e.start >= load_ends[name] - 1e-9

    def test_no_engine_overlap(self):
        for arch in Architecture:
            result = schedule(arch, uniform_blocks(9, 13, 29))
            result.timeline.validate_no_engine_overlap()  # raises on bug


class TestDispatch:
    def test_schedule_by_name(self):
        blocks = uniform_blocks(3, 5, 5)
        assert schedule("A1", blocks).architecture is Architecture.A1
        assert schedule(Architecture.A3, blocks).architecture is Architecture.A3

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            schedule("A4", uniform_blocks(1, 1, 1))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError):
            schedule("A1", [])

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            BlockWork("x", -1, 0)

    def test_overhead_override(self):
        blocks = [
            BlockWork("a", 0, 10),
            BlockWork("b", 0, 10, overhead_override=0),
        ]
        result = schedule("A1", blocks, block_overhead=7)
        assert result.total_cycles == 10 + 7 + 10
        assert result.block_overhead_cycles == 7


class TestA3ChannelGeneralization:
    def test_more_channels_help_when_load_bound(self):
        blocks = uniform_blocks(12, 100, 10)
        t2 = schedule("A3", blocks, num_channels=2).total_cycles
        t4 = schedule("A3", blocks, num_channels=4).total_cycles
        assert t4 < t2

    def test_channels_useless_when_compute_bound(self):
        blocks = uniform_blocks(12, 10, 100)
        t2 = schedule("A3", blocks, num_channels=2).total_cycles
        t4 = schedule("A3", blocks, num_channels=4).total_cycles
        assert t4 == t2

    def test_four_channels_quarter_the_spacing(self):
        """Generalizing the paper's (LW+C)/2 steady state: with n
        channels the load-bound per-block spacing drops to (LW+C)/n
        (each channel delivers every n-th block, loads gated by the
        compute n blocks back)."""
        lw, c, n_blocks = 400, 40, 24
        blocks = uniform_blocks(n_blocks, lw, c)
        t4 = schedule("A3", blocks, num_channels=4).total_cycles
        steady = (lw + c) / 4  # per-block spacing, load-bound
        assert t4 / n_blocks == pytest.approx(steady, rel=0.1)

    def test_single_channel_equals_single_buffer_a2(self):
        """A3 keeps one weight buffer per channel, so one channel
        degrades to the single-buffered A2 (load-after-compute)."""
        blocks_a = uniform_blocks(10, 70, 30)
        blocks_b = uniform_blocks(10, 70, 30)
        assert (
            schedule("A3", blocks_a, num_channels=1).total_cycles
            == schedule("A2", blocks_b, num_weight_buffers=1).total_cycles
        )

    def test_channel_count_validation(self):
        with pytest.raises(ValueError):
            schedule("A3", uniform_blocks(2, 1, 1), num_channels=0)
        with pytest.raises(ValueError):
            schedule("A3", [BlockWork("x", 1, 1, channel_hint=3)], num_channels=2)


@st.composite
def scheduling_cases(draw):
    """A random chain with the architecture parameters it runs under:
    A2 with 1-4 buffers, A3 with 1-4 channels and at least one buffer
    per channel (``None`` buffers take each architecture's default)."""
    arch = draw(st.sampled_from(list(Architecture)))
    channels = draw(st.integers(1, 4)) if arch is Architecture.A3 else 1
    params = {}
    if arch is Architecture.A2:
        params["num_weight_buffers"] = draw(st.none() | st.integers(1, 4))
    elif arch is Architecture.A3:
        params["num_channels"] = channels
        params["num_weight_buffers"] = draw(st.none() | st.integers(channels, 6))
    # A1/A2 ignore hints, so they may name any channel there.
    hints = st.none() | st.integers(0, channels - 1 if params else 3)
    blocks = [
        BlockWork(
            f"b{i}",
            draw(st.integers(0, 5000)),
            draw(st.integers(0, 5000)),
            channel_hint=draw(hints),
            overhead_override=draw(st.none() | st.integers(0, 100)),
        )
        for i in range(draw(st.integers(1, 40)))
    ]
    params = {k: v for k, v in params.items() if v is not None}
    return arch, blocks, draw(st.integers(0, 200)), params


class TestReferenceEquivalence:
    """The one recurrence equals the three schedulers it replaced."""

    @given(scheduling_cases())
    @example(
        (Architecture.A2, [BlockWork("a", 0, 0), BlockWork("b", 7, 0)], 0, {})
    )
    @example(
        (
            Architecture.A3,
            [BlockWork(f"b{i}", 100, 10, channel_hint=i % 2) for i in range(6)],
            3,
            {"num_channels": 2, "num_weight_buffers": 4},
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_schedule_equals_reference(self, case):
        arch, blocks, overhead, params = case
        got = schedule(arch, blocks, overhead, **params)
        want = REFERENCE_SCHEDULERS[arch](blocks, overhead, **params)
        assert got.architecture is want.architecture
        assert got.total_cycles == want.total_cycles
        assert got.stall_cycles == want.stall_cycles
        assert got.load_cycles_total == want.load_cycles_total
        assert got.compute_cycles_total == want.compute_cycles_total
        assert got.block_overhead_cycles == want.block_overhead_cycles
        assert got.timeline.events == want.timeline.events
        assert all(
            type(e.start) is float and type(e.end) is float
            for e in got.timeline.events
        )
        got.timeline.validate_no_engine_overlap()


class TestIntegerInputs:
    """The recurrence is integer arithmetic, so it takes only integers."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"load_cycles": 1.5},
            {"compute_cycles": 2.0},
            {"load_cycles": True},
            {"channel_hint": True},
            {"channel_hint": 1.0},
            {"overhead_override": 0.5},
        ],
    )
    def test_block_work_rejects_non_integers(self, kwargs):
        fields = {"label": "a", "load_cycles": 1, "compute_cycles": 1, **kwargs}
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            BlockWork(**fields)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_overhead": 2.5},
            {"block_overhead": False},
            {"num_channels": True},
            {"num_weight_buffers": 2.0},
        ],
    )
    def test_schedule_rejects_non_integers(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            schedule("A3", uniform_blocks(3, 5, 5), **kwargs)

    def test_numpy_integers_convert(self):
        block = BlockWork("a", np.int64(3), np.int32(4), channel_hint=np.int8(1))
        assert type(block.load_cycles) is int and type(block.channel_hint) is int
        result = schedule("A3", [block], np.int64(2))
        assert type(result.total_cycles) is int
        assert result.total_cycles == 3 + 4 + 2


class TestTimelineOnDemand:
    def test_timeline_built_on_first_read(self):
        result = schedule("A3", uniform_blocks(5, 20, 10))
        assert "timeline" not in vars(result)
        assert result.timeline is result.timeline
        assert len(result.timeline.events) == 2 * 5

    def test_every_call_checks_double_booking(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ScheduleResult,
            "check_no_double_booking",
            lambda result: calls.append(result.architecture),
        )
        for arch in Architecture:
            result = schedule(arch, uniform_blocks(4, 9, 3))
            assert "timeline" not in vars(result)
        assert calls == list(Architecture)

    @pytest.mark.parametrize(
        "lane,engine,labels",
        [
            ("load", "hbm1", ("'LW:b1'", "'LW:b3'")),
            ("compute", "compute", ("'C:b2'", "'C:b3'")),
        ],
    )
    def test_double_booking_names_engine_and_units(self, lane, engine, labels):
        good = schedule("A3", uniform_blocks(4, 10, 30))
        starts = list(getattr(good, f"{lane}_start"))
        ends = getattr(good, f"{lane}_end")
        starts[3] = ends[1 if lane == "load" else 2] - 1
        bad = replace(good, **{f"{lane}_start": tuple(starts)})
        match = f"engine '{engine}' double-booked"
        with pytest.raises(ValueError, match=match) as err:
            bad.check_no_double_booking()
        assert all(label in str(err.value) for label in labels)

    def test_half_open_touching_intervals_pass(self):
        result = schedule("A1", uniform_blocks(3, 0, 0))
        result.check_no_double_booking()
        result.timeline.validate_no_engine_overlap()
