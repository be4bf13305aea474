"""Span tracing of the ahspringer layers, installed from outside the package.

``install`` wraps the public functions and methods of every layer module
and rebinds each wrapper in every ahspringer namespace that imported the
original (``from .x import y``), so no call escapes the count.  Spans are
kept in flat in-memory arrays (name id, start, end, parent id) and are
written out once, when the run ends.  Nothing here touches ``src/``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = (
    "gf", "series", "matrices", "linalg", "groups", "rng",
    "witt", "expmaps", "parabolic", "suites", "cli",
)

# dunder methods that do arithmetic or construction work worth a span
_DUNDERS = frozenset({
    "__init__", "__eq__", "__hash__", "__bool__", "__add__", "__sub__", "__neg__",
    "__mul__", "__rmul__", "__matmul__", "__pow__", "__truediv__",
})

# Stream.u64 runs millions of times in full runs; its draws are recovered
# from stream states instead (see ``draws``).
_SKIP = frozenset({"rng.Stream.u64"})

MASK = (1 << 64) - 1


class Tracer:
    """In-memory spans of one process; ``run_id`` tags the workload run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def write_tsv(self, fh) -> None:
        names = self.names
        for sid, (n, s, e, par) in enumerate(zip(self.name, self.start, self.end, self.parent)):
            fh.write(f"{self.run_id}\t{sid}\t{par}\t{names[n]}\t{s}\t{e}\n")


def self_times(starts, ends, parents) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its direct child spans cover (overlapping children count once).

    The three sequences are indexed by span id; a root has parent -1.
    """
    n = len(starts)
    covered = [0] * n
    reach = [None] * n  # end of the covered stretch, per parent
    for i in sorted(range(n), key=starts.__getitem__):
        par = parents[i]
        if par < 0:
            continue
        s, e = max(starts[i], starts[par]), min(ends[i], ends[par])
        if reach[par] is not None:
            s = max(s, reach[par])
        if e > s:
            covered[par] += e - s
        reach[par] = e if reach[par] is None else max(reach[par], e)
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def draws(initial: int, final: int, gamma: int) -> int:
    """Number of SplitMix64 steps between two states: every step adds the
    odd constant gamma mod 2^64, so the count is (final - initial) * gamma^-1."""
    return (final - initial) * pow(gamma, -1, 1 << 64) & MASK


class Installed:
    """What ``install`` leaves behind for ``counters``."""

    def __init__(self, rng_module, series_module):
        self.streams: list = []  # (Stream, initial state)
        self.below_streams: set[int] = set()
        self.gamma = rng_module._GAMMA
        self.ah_coeffs_mod_p = series_module.ah_coeffs_mod_p
        self.ah_rational_coeffs = series_module.ah_rational_coeffs


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def install(tracer: Tracer) -> Installed:
    """Wrap every public function and method of the layer modules."""
    mods = {layer: importlib.import_module(f"ahspringer.{layer}") for layer in LAYERS}
    inst = Installed(mods["rng"], mods["series"])
    originals: dict[int, object] = {}
    wrappers: dict[int, object] = {}

    stream_fn = mods["rng"].stream

    def stream(*args, **kwargs):
        st = stream_fn(*args, **kwargs)
        inst.streams.append((st, st.state))
        return st

    below_fn = mods["rng"].Stream.below

    def below(self, n):
        inst.below_streams.add(id(self))
        return below_fn(self, n)

    special = {id(stream_fn): stream, id(below_fn): below}

    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, special)
            elif callable(obj):
                originals[id(obj)] = obj
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{name}", special.get(id(obj), obj))

    # rebind in every namespace that imported an original by name
    import ahspringer

    for mod in [ahspringer, *vars(ahspringer).values()]:
        if not inspect.ismodule(mod) or not mod.__name__.startswith("ahspringer"):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and originals[id(obj)] is obj:
                setattr(mod, name, wrappers[id(obj)])

    # run_suite dispatches through the registry, not the module names
    registry = mods["suites"].SUITES
    for suite, (anchor, fn) in list(registry.items()):
        registry[suite] = (anchor, tracer.wrap(f"suites.{suite}", fn))
    return inst


def _wrap_class(tracer: Tracer, layer: str, cls, special) -> None:
    for attr, val in list(vars(cls).items()):
        span = f"{layer}.{cls.__name__}.{attr}"
        if not _public(attr) or span in _SKIP:
            continue
        if isinstance(val, (classmethod, staticmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(span, val.__func__)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(span, special.get(id(val), val)))


def aggregate(tracer: Tracer) -> dict:
    """Per span name: [calls, inclusive ns, self ns]."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    rows = [[0, 0, 0] for _ in tracer.names]
    for nid, s, e, own_ns in zip(tracer.name, tracer.start, tracer.end, own):
        row = rows[nid]
        row[0] += 1
        row[1] += e - s
        row[2] += own_ns
    return {name: row for name, row in zip(tracer.names, rows) if row[0]}


def counters(inst: Installed) -> dict:
    """Counts that are not spans: rng draws and series cache statistics."""
    total = below_draws = 0
    for st, initial in inst.streams:
        n = draws(initial, st.state, inst.gamma)
        total += n
        if id(st) in inst.below_streams:
            below_draws += n
    mod_p = inst.ah_coeffs_mod_p.cache_info()
    rational = inst.ah_rational_coeffs.cache_info()
    return {
        "rng.draws": total,
        "rng.below_draws": below_draws,
        "series.ah_coeffs_mod_p.hits": mod_p.hits,
        "series.ah_coeffs_mod_p.misses": mod_p.misses,
        "series.ah_rational_coeffs.misses": rational.misses,
    }
