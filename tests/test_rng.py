"""Deterministic generator tests: frozen outputs and stream separation."""

from ahspringer.rng import Stream, _fnv1a, _mix64, stream


def test_splitmix_frozen_sequence():
    # SplitMix64 from state 0: standard first outputs for these constants
    s = Stream(0)
    values = [s.u64() for _ in range(3)]
    assert values == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_fnv1a_frozen():
    # standard FNV-1a 64-bit test vectors
    assert _fnv1a("") == 0xCBF29CE484222325
    assert _fnv1a("a") == 0xAF63DC4C8601EC8C


def test_mix64_zero():
    assert _mix64(0) == 0


def test_below_range_and_determinism():
    s1 = stream(42, "label", 0)
    s2 = stream(42, "label", 0)
    draws1 = [s1.below(7) for _ in range(200)]
    draws2 = [s2.below(7) for _ in range(200)]
    assert draws1 == draws2
    assert all(0 <= d < 7 for d in draws1)
    assert len(set(draws1)) == 7  # all residues show up in 200 draws


def test_streams_separate_by_label_and_index():
    a = stream(1, "x", 0).u64()
    b = stream(1, "y", 0).u64()
    c = stream(1, "x", 1).u64()
    d = stream(2, "x", 0).u64()
    assert len({a, b, c, d}) == 4


def test_below_rejects_nonpositive():
    import pytest

    with pytest.raises(ValueError):
        stream(0, "", 0).below(0)


# -- lanes ---------------------------------------------------------------

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ahspringer.rng import _GAMMA, below_lanes, stream_lanes, u64_lanes  # noqa: E402

SEEDS = [0, 1, 42, 2**64 - 1, -5, 2**70 + 3]
LABELS = ["", "a", "radical/(2, 1)/3/1", "eps-parabolic/5/1,2,3/bch", "a", "p-element/(6,)/2/2"]
INDICES = [0, 1, 7, 2**64 + 1, 3, 0]


def test_lane_states_are_the_stream_states():
    states = stream_lanes(SEEDS, LABELS, INDICES)
    assert states.dtype == np.uint64
    assert [int(s) for s in states] == [stream(*args).state for args in zip(SEEDS, LABELS, INDICES)]
    # one label and one seed broadcast against many indices
    assert [int(s) for s in stream_lanes(9, "x", range(4))] == [stream(9, "x", i).state for i in range(4)]


def test_u64_lanes_is_one_step_of_each_stream():
    states = stream_lanes(SEEDS, LABELS, INDICES)
    refs = [stream(*args) for args in zip(SEEDS, LABELS, INDICES)]
    assert [int(v) for v in u64_lanes(states)] == [st.u64() for st in refs]
    assert [int(s) for s in states] == [st.state for st in refs]


# 2^63 + 1 rejects about half of all draws; 2 divides 2^64, so its
# rejection limit 2^64 does not fit in uint64 and nothing is rejected
@pytest.mark.parametrize("bound", [3, 65521, 2**63 + 1, 2])
def test_below_lanes_matches_stream_below_draw_for_draw(bound):
    counts = np.array([0, 1, 5, 40, 17, 3])
    states = stream_lanes(SEEDS, LABELS, INDICES)
    got = below_lanes(states, bound, counts)[0]
    assert got.shape == (6, 40)
    for lane, args in enumerate(zip(SEEDS, LABELS, INDICES)):
        st = stream(*args)
        assert [int(v) for v in got[lane, :counts[lane]]] == [st.below(bound) for _ in range(counts[lane])]
        assert not got[lane, counts[lane]:].any()
        assert int(states[lane]) == st.state


@pytest.mark.parametrize("bound", [3, 2**63 + 1, 2])
def test_below_lanes_count_the_raw_draws_through_each_value(bound):
    # a lane's state after value j is its start + ends[j] * GAMMA, rejected
    # draws included, so the stream can stop after any value without
    # drawing it again
    counts = np.array([0, 1, 5, 40, 17, 3])
    states = stream_lanes(SEEDS, LABELS, INDICES)
    start = states.copy()
    values, ends = below_lanes(states, bound, counts)
    assert ends.shape == values.shape and ends.dtype == np.int64
    for lane, args in enumerate(zip(SEEDS, LABELS, INDICES)):
        st = stream(*args)
        for j in range(counts[lane]):
            assert st.below(bound) == int(values[lane, j])
            assert st.state == (int(start[lane]) + int(ends[lane, j]) * _GAMMA) % 2**64
        assert int(states[lane]) == st.state
        assert not ends[lane, counts[lane]:].any()
    if bound == 2**63 + 1:
        assert (ends[3, :40] > np.arange(1, 41)).any()  # rejections counted


def test_below_lanes_rejection_path_is_exercised():
    # with bound 2^63 + 1 a lane needs more draws than values
    states = stream_lanes(1, "reject", range(8))
    start = states.copy()
    below_lanes(states, 2**63 + 1, 50)
    assert all((int(b) - int(a)) % 2**64 != (50 * 0x9E3779B97F4A7C15) % 2**64
               for a, b in zip(start, states))


def test_below_lanes_rejects_bad_bounds():
    with pytest.raises(ValueError):
        below_lanes(stream_lanes(0, "", [0]), 0)
    with pytest.raises(ValueError):
        below_lanes(stream_lanes(0, "", [0]), 1 << 64)
