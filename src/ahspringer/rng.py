"""Deterministic pseudo-randomness for the verification suites.

The generator is SplitMix64 (Steele/Lea/Vigna's constants); per-case
streams are derived by folding suite labels through 64-bit FNV-1a and
the SplitMix64 finalizer.  Everything is pure 64-bit integer arithmetic,
so a (seed, label, index) triple reproduces the same sample sequence on
any platform or implementation.

``Stream`` is one stream.  The lane functions at the bottom run many
streams at once, one per lane of a numpy ``uint64`` state array, whose
arithmetic wraps mod 2^64 exactly like the masked ints above:
``stream_lanes`` derives the states ``stream`` would, and ``below_lanes``
consumes from each lane exactly the draws ``Stream.below`` would.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=None)  # the suites' labels: one hash per distinct label and process
def _fnv1a(label: str) -> int:
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & _MASK
    return h


class Stream:
    """A SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix64(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n


def stream(seed: int, label: str = "", index: int = 0) -> Stream:
    """Derive the stream for (seed, label, index)."""
    s = _mix64(seed & _MASK)
    s = _mix64(s ^ _fnv1a(label))
    s = _mix64(s ^ (index & _MASK))
    return Stream(s)


# -- lanes ---------------------------------------------------------------


def _mix64_lanes(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_lanes(seeds, labels, indices=0) -> np.ndarray:
    """States of stream(seed, label, index) lane by lane, as a uint64 array.

    seeds and indices are ints or int arrays, labels one str or a sequence
    of str; the three broadcast against each other.
    """
    if isinstance(labels, str):
        labels = [labels]
    hashes = {label: _fnv1a(label) for label in set(labels)}
    label_h = np.array([hashes[label] for label in labels], dtype=np.uint64)
    s = _mix64_lanes(_as_u64(seeds))
    s = _mix64_lanes(s ^ label_h)
    return _mix64_lanes(s ^ _as_u64(indices))


def _as_u64(values) -> np.ndarray:
    """values & _MASK as uint64; Python ints of any sign or size are masked
    the way ``stream`` masks them."""
    values = np.atleast_1d(values)
    if values.dtype != np.uint64:
        values = np.array(np.asarray(values, dtype=object) & _MASK, dtype=np.uint64)
    return values


def u64_lanes(states: np.ndarray) -> np.ndarray:
    """One raw draw per lane, as ``Stream.u64``; advances states in place."""
    states += np.uint64(_GAMMA)
    return _mix64_lanes(states)


def below_lanes(states: np.ndarray, n: int, counts=1) -> tuple[np.ndarray, np.ndarray]:
    """counts[i] uniform draws in [0, n) from lane i, as successive
    ``Stream.below(n)`` calls on that lane would give them, and the raw
    draws (rejected ones included) the lane had consumed through each.

    states (B,) uint64 is advanced in place by exactly the draws consumed,
    so the state after value j of lane i is its start + ends[i, j] * GAMMA.
    counts is an int or one int per lane; the values (B, max count) uint64
    and their ends (int64) are first in each lane's row, zeros after them.
    Each round draws, for every lane still short, as many candidates as it
    is short, so a lane never draws past its last accepted value; only
    lanes that had a candidate rejected go on to another round.
    """
    if not 0 < n < 1 << 64:
        raise ValueError("below() needs a bound in 1..2^64 - 1")
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), states.shape)
    out = np.zeros((len(states), int(counts.max(initial=0))), dtype=np.uint64)
    ends = np.zeros(out.shape, dtype=np.int64)
    # a bound dividing 2^64 (a power of two) rejects nothing
    rem = (1 << 64) % n
    limit = np.uint64((1 << 64) - rem) if rem else None
    gamma = np.uint64(_GAMMA)
    short, taken = counts.copy(), np.zeros(len(states), dtype=np.int64)
    lanes = np.flatnonzero(short)
    while lanes.size:
        need = short[lanes]
        steps = np.arange(1, int(need.max()) + 1, dtype=np.uint64)
        draws = _mix64_lanes(states[lanes, None] + steps * gamma)
        states[lanes] += need.astype(np.uint64) * gamma
        keep = steps <= need[:, None]
        if limit is not None:
            keep &= draws < limit
        if not taken.any() and keep.sum() == need.sum():  # one round, nothing rejected
            out[lanes] = np.where(keep, draws % np.uint64(n), 0)
            ends[lanes] = np.where(keep, steps, 0)
            break
        rows, cols = np.nonzero(keep)
        slots = (counts[lanes] - need)[rows] + np.cumsum(keep, axis=1)[rows, cols] - 1
        out[lanes[rows], slots] = draws[rows, cols] % np.uint64(n)
        ends[lanes[rows], slots] = taken[lanes[rows]] + cols + 1
        taken[lanes] += need
        short[lanes] -= keep.sum(axis=1)
        lanes = lanes[short[lanes] > 0]
    return out, ends
