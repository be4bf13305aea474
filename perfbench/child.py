"""One measured process of the traced run.

    child.py --out RESULT.json [--trace --run-id K --spans PART.tsv] -- CLI ARGS...
        import ahspringer.cli, optionally install the span wrappers, run
        cli.main(CLI ARGS) in this process and write timings, exit code,
        captured stdout and (traced) per-span aggregates to RESULT.json.
    child.py --out RESULT.json --probes --seed N
        time the fixed kernel shapes with timeit, without wrappers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
import timeit


def run_cli(args) -> dict:
    t0 = time.perf_counter()
    from ahspringer import cli

    import_s = time.perf_counter() - t0
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        inst = tracing.install(tracer)
    buf = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(args.cli)  # the patched module attribute when traced
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    result = {
        "import_s": import_s,
        "main_s": time.perf_counter() - t1,
        "exit": code,
        "stdout": buf.getvalue(),
    }
    if args.trace:
        result["spans"] = tracing.aggregate(tracer)
        result["counters"] = tracing.counters(inst)
        with open(args.spans, "w", encoding="utf-8") as fh:
            tracer.write_tsv(fh)
    return result


# (metric, statement, calls per timing) for the ROADMAP's fixed kernel shapes
def _probes(seed: int):
    from ahspringer.expmaps import ah_exp
    from ahspringer.groups import GroupSpec, JordanType, centralizer_space, random_matrix, random_nilpotent
    from ahspringer.rng import stream
    from ahspringer.witt import WittVector, witt_add

    st = stream(seed, "perfbench/probes")
    a4, b4 = random_matrix(3, 1, 4, st), random_matrix(3, 1, 4, st)
    a8, b8 = random_matrix(3, 2, 8, st), random_matrix(3, 2, 8, st)
    # regular nilpotents, so the cost does not depend on the seed
    x4 = random_nilpotent(GroupSpec("GL", 4), JordanType((4,)), seed, 3)
    x8e2 = random_nilpotent(GroupSpec("GL", 8), JordanType((8,)), seed, 3, e=2)
    x8 = random_nilpotent(GroupSpec("GL", 8), JordanType((8,)), seed, 3)
    u = WittVector.from_ints(3, 3, [st.below(3) for _ in range(3)])
    v = WittVector.from_ints(3, 3, [st.below(3) for _ in range(3)])
    draw = stream(seed, "perfbench/below")
    return [
        ("matrices.matmul_4x4_f3.us", lambda: a4 @ b4, 2000),
        ("matrices.matmul_8x8_f9.us", lambda: a8 @ b8, 1000),
        ("expmaps.ah_exp_gl4_f3.us", lambda: ah_exp(x4), 500),
        ("expmaps.ah_exp_gl8_f9.us", lambda: ah_exp(x8e2), 100),
        ("linalg.centralizer_gl8_f3.us", lambda: centralizer_space(x8), 10),
        ("rng.below.us", lambda: draw.below(3), 20000),
        ("witt.witt_add_p3_m3.us", lambda: witt_add(u, v), 100),
    ]


PROBE_REPEATS = 7


def run_probes(seed: int) -> dict:
    out = {}
    for name, stmt, number in _probes(seed):
        stmt()  # fill the caches users would have filled by now
        times = timeit.repeat(stmt, number=number, repeat=PROBE_REPEATS)
        out[name] = statistics.median(times) / number * 1e6
    return {"probes": out}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("cli", nargs="*")
    args = parser.parse_args()
    result = run_probes(args.seed) if args.probes else run_cli(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
