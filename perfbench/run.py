"""The ahspringer benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  With --trace 0 every timed operation is a
fresh ``python -m ahspringer.cli`` process (closed loop, one client, one
child at a time) and the end-to-end metrics are printed; with --trace 1 a
fixed pass of the workload runs once untraced and once with span wrappers
in fresh processes, and the per-layer metrics are printed.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import LAYERS
from workloads import ONESHOT_LABELS, SUITES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "_out"
SETUP_REPS = 7  # fresh-interpreter imports per run; setup_s is their median
# Nominal time of the host-speed reference.  The shared host runs for tens of
# seconds at a time at up to 1.8x its usual speed, and a child's CPU time
# slows with its wall time, so every timed child is calibrated: its wall time
# times REFERENCE_MS over the reference timed just before and after it.
REFERENCE_MS = 20.0
ONESHOT_REPS = 3  # passes of fresh cli-oneshot calls behind cli.<call>.ms in a traced run

END_TO_END = {
    "wall_s.p50": "s", "wall_s.tail": "s", "cases_per_s": "1/s",
    "call_ms.p50": "ms", "call_ms.p90": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}

# per-layer metrics read off spans: prefix -> (span names, report us_per_call)
SPAN_METRICS = {
    "matrices.matmul": (("matrices.FpMatrix.__matmul__",), True),
    "matrices.add": (("matrices.FpMatrix.__add__", "matrices.FpMatrix.__sub__",
                      "matrices.FpMatrix.__neg__"), False),
    "matrices.scale": (("matrices.FpMatrix.scale",), False),
    "matrices.pow": (("matrices.FpMatrix.__pow__",), False),
    "matrices.eq": (("matrices.FpMatrix.__eq__",), False),
    "matrices.construct": (("matrices.FpMatrix.__init__",), False),
    "gf.scalar_mul": (("gf.FieldScalar.__mul__", "gf.FieldScalar.__rmul__"), False),
    "gf.scalar_inverse": (("gf.FieldScalar.inverse",), False),
    "gf.construct": (("gf.FieldScalar.__init__",), False),
    **{f"linalg.{f}": ((f"linalg.{f}",), True)
       for f in ("det", "inv", "rref_planes", "null_space_planes", "span_basis")},
    **{f"groups.{f}": ((f"groups.{f}",), True)
       for f in ("random_nilpotent", "random_group_element", "centralizer_space",
                 "nilpotency_degree", "nilpotent_order", "unipotent_order_exponent")},
    "rng.stream": (("rng.stream",), False),
    "rng.below": (("rng.Stream.below",), False),
    **{f"expmaps.{f}": ((f"expmaps.{f}",), True)
       for f in ("ah_exp", "truncated_exp", "bch", "bch_dynkin", "witt_embed")},
    "parabolic.eps_p": (("parabolic.eps_p",), True),
    "parabolic.random_p_element": (("parabolic.random_p_element",), False),
    "parabolic.random_radical_element": (("parabolic.random_radical_element",), False),
    "witt.witt_add": (("witt.witt_add",), True),
    "witt.witt_neg": (("witt.witt_neg",), False),
    "witt.witt_from_integer": (("witt.witt_from_integer",), False),
    "series.ah_coeffs_mod_p": (("series.ah_coeffs_mod_p",), False),
}
PROBES = (
    "matrices.matmul_4x4_f3.us", "matrices.matmul_8x8_f9.us", "expmaps.ah_exp_gl4_f3.us",
    "expmaps.ah_exp_gl8_f9.us", "linalg.centralizer_gl8_f3.us", "rng.below.us",
    "witt.witt_add_p3_m3.us",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for prefix, (_, timed) in SPAN_METRICS.items():
        units[f"{prefix}.calls"] = "count"
        if timed:
            units[f"{prefix}.us_per_call"] = "us"
    units.update({
        "groups.random_invertible.attempts_per_accept": "ratio",
        "rng.draws": "count",
        "rng.draws_per_below": "ratio",
        "series.ah_coeffs_mod_p.hit_ratio": "ratio",
        "series.ah_rational_coeffs.misses": "count",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for suite in SUITES:
        units[f"suites.{suite}.s"] = "s"
        units[f"suites.{suite}.us_per_case"] = "us"
    units["cli.import_s"] = "s"
    units.update({f"cli.{label}.ms": "ms" for label in ONESHOT_LABELS})
    units.update({name: "us" for name in PROBES})
    units["trace.overhead_s"] = "s"
    return units


class SetupError(Exception):
    """The program cannot be set up; no result is printed."""


@dataclass
class Child:
    wall_s: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str
    host_ms: float = REFERENCE_MS  # reference loop time beside this child

    @property
    def cal_s(self) -> float:
        """Wall time at the nominal host speed."""
        return self.wall_s * REFERENCE_MS / self.host_ms


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, errpath: Path) -> Child:
    """Run one child to completion; wall time and its own peak RSS from wait4."""
    with open(errpath, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(wall, usage.ru_maxrss, proc.returncode, out.decode(errors="replace"), stderr)


def host_probe_ms() -> float:
    """The host-speed reference: fixed pure-Python work, an integer loop plus
    sorting and hashing a few MB of tuples.  The second part slows with cache
    contention the way the program does; the loop alone tracked it poorly."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFF
    rows = sorted(((i * 7919) % 10007, str(i), i) for i in range(20_000))
    acc += sum(v[2] for v in {r[1]: r for r in rows}.values() if v[0] & 1)
    return (time.perf_counter() - t0) * 1e3


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    level; never below the median, so short runs report the median."""
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 0.5
    return xs[n - 11], (n - 10) / n


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.work = OUT / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[float] = []
        self.notes: list[str] = []
        self.calls = workloads.calls(workload, seed, self.work)

    def child(self, argv: list[str], env: dict | None = None) -> Child:
        """Run a child between two timings of the reference loop."""
        if not self.probes:
            self.probes.append(host_probe_ms())
        before = self.probes[-1]
        c = run_child(argv, env or self.env, self.work / "stderr.txt")
        self.probes.append(host_probe_ms())
        c.host_ms = (before + self.probes[-1]) / 2
        return c

    def cli(self, call) -> Child:
        return self.child([sys.executable, "-m", "ahspringer.cli", *call.argv])

    def record(self, call, code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        reasons = call.check(code, stdout)
        if reasons:
            self.failed += 1
            if stderr.strip():
                reasons.append(f"{call.label}: stderr: {stderr.strip().splitlines()[-1]}")
            self.failures.extend(reasons)

    def setup_s(self) -> float:
        argv = [sys.executable, "-c", "import ahspringer.cli"]
        first = self.child(argv)  # also writes the bytecode caches
        if first.code != 0:
            raise SetupError(f"cannot import ahspringer.cli from {ROOT / 'src'}:\n{first.stderr}")
        imports = [self.child(argv) for _ in range(SETUP_REPS)]
        self.notes.append(f"raw setup_s {statistics.median(c.wall_s for c in imports):.4f} s")
        return statistics.median(c.cal_s for c in imports)

    def measure(self, seconds: float) -> dict:
        setup = self.setup_s()
        pass_walls, call_walls, raw_passes, raw_calls, rss = [], [], [], [], []
        deadline = time.perf_counter() + seconds
        while not pass_walls or time.perf_counter() < deadline:
            children = [self.cli(call) for call in self.calls]
            for call, c in zip(self.calls, children):
                self.record(call, c.code, c.stdout, c.stderr)
                rss.append(c.rss_kb)
            call_walls += [c.cal_s for c in children]
            raw_calls += [c.wall_s for c in children]
            pass_walls.append(sum(c.cal_s for c in children))
            raw_passes.append(sum(c.wall_s for c in children))
        p50 = statistics.median(pass_walls)
        tail_s, tail_q = tail(pass_walls)
        cases = sum(call.cases for call in self.calls)
        self.notes += [
            f"{len(pass_walls)} passes of {len(self.calls)} call(s), {len(call_walls)} processes",
            f"wall_s.tail is p{100 * tail_q:.0f} of {len(pass_walls)} passes",
            f"cases per pass: {cases}",
            f"raw wall_s.p50 {statistics.median(raw_passes):.4f} s, "
            f"raw call_ms.p50 {statistics.median(raw_calls) * 1e3:.2f} ms",
        ]
        return {
            "wall_s.p50": p50,
            "wall_s.tail": tail_s,
            "cases_per_s": cases / p50,
            "call_ms.p50": statistics.median(call_walls) * 1e3,
            "call_ms.p90": percentile(call_walls, 0.9) * 1e3,
            "setup_s": setup,
            "peak_rss_mb": max(rss) / 1024,
        }

    def in_process(self, call, run_id: int, trace: bool) -> dict:
        """One call of the workload through child.py in a fresh process."""
        out = self.work / f"child-{run_id}-{int(trace)}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "--out", str(out)]
        if trace:
            argv += ["--trace", "--run-id", str(run_id), "--spans", str(self.work / f"spans-{run_id}.tsv")]
        # a fixed hash seed keeps the call counts exactly repeatable
        c = self.child([*argv, "--", *call.argv], dict(self.env, PYTHONHASHSEED="0"))
        if c.code != 0:
            raise SetupError(f"child.py failed:\n{c.stderr}")
        result = json.loads(out.read_text(encoding="utf-8"))
        self.record(call, result["exit"], result["stdout"], c.stderr)
        result["main_cal_s"] = result["main_s"] * REFERENCE_MS / c.host_ms
        return result

    def traced(self) -> dict:
        plain = [self.in_process(call, k, False) for k, call in enumerate(self.calls)]
        traced = [self.in_process(call, k, True) for k, call in enumerate(self.calls)]
        probe_out = self.work / "probes.json"
        c = self.child([sys.executable, str(BENCH / "child.py"), "--out", str(probe_out),
                        "--probes", "--seed", str(self.seed)])
        if c.code != 0:
            raise SetupError(f"kernel probes failed:\n{c.stderr}")
        probes = json.loads(probe_out.read_text(encoding="utf-8"))["probes"]
        oneshot_ms = {}
        if self.workload == "cli-oneshot":
            for _ in range(ONESHOT_REPS):
                for call in self.calls:
                    c = self.cli(call)
                    self.record(call, c.code, c.stdout, c.stderr)
                    oneshot_ms.setdefault(call.label, []).append(c.cal_s * 1e3)
        self.write_spans()
        plain_s = sum(r["main_cal_s"] for r in plain)
        traced_s = sum(r["main_cal_s"] for r in traced)
        self.notes += [
            f"calibrated in-process time untraced {plain_s:.4f} s, traced {traced_s:.4f} s "
            f"(overhead x{traced_s / plain_s:.2f})",
            f"spans written to {(OUT / f'spans-{self.workload}.tsv.gz').relative_to(ROOT)}",
        ]
        metrics = layer_metrics(traced, plain, probes, oneshot_ms)
        metrics["trace.overhead_s"] = traced_s - plain_s
        return metrics

    def write_spans(self) -> None:
        with gzip.open(OUT / f"spans-{self.workload}.tsv.gz", "wt", encoding="utf-8",
                       compresslevel=1) as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for k in range(len(self.calls)):
                with open(self.work / f"spans-{k}.tsv", encoding="utf-8") as part:
                    shutil.copyfileobj(part, fh)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def layer_metrics(traced: list[dict], plain: list[dict], probes: dict, oneshot_ms: dict) -> dict:
    """Per-layer metrics from the traced children's span aggregates."""
    spans: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for result in traced:
        for name, row in result["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in result["counters"].items():
            counters[name] = counters.get(name, 0) + v

    def calls(*names):
        return sum(spans.get(n, (0,))[0] for n in names)

    m = {}
    for prefix, (names, timed) in SPAN_METRICS.items():
        n = calls(*names)
        m[f"{prefix}.calls"] = n
        if timed:
            m[f"{prefix}.us_per_call"] = sum(spans.get(x, (0, 0))[1] for x in names) / n / 1e3 if n else 0.0
    invertible = calls("groups.random_invertible")
    m["groups.random_invertible.attempts_per_accept"] = (
        calls("groups.random_matrix") / invertible if invertible else 0.0)
    m["rng.draws"] = counters["rng.draws"]
    below = m["rng.below.calls"]
    m["rng.draws_per_below"] = counters["rng.below_draws"] / below if below else 0.0
    lookups = counters["series.ah_coeffs_mod_p.hits"] + counters["series.ah_coeffs_mod_p.misses"]
    m["series.ah_coeffs_mod_p.hit_ratio"] = (
        counters["series.ah_coeffs_mod_p.hits"] / lookups if lookups else 0.0)
    m["series.ah_rational_coeffs.misses"] = counters["series.ah_rational_coeffs.misses"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row[2] for n, row in spans.items() if n.split(".")[0] == layer) / 1e9
    cases = {}
    for result in traced:
        for line in result["stdout"].splitlines():
            # "PASS name: passed/cases cases"
            if line.startswith(("PASS ", "FAIL ")):
                name, counts = line[5:].split(": ", 1)
                cases[name] = int(counts.split("/")[1].split()[0])
    for suite in SUITES:
        row = spans.get(f"suites.{suite}", (0, 0, 0))
        m[f"suites.{suite}.s"] = row[1] / 1e9
        m[f"suites.{suite}.us_per_case"] = row[1] / cases[suite] / 1e3 if cases.get(suite) else 0.0
    m["cli.import_s"] = statistics.median(r["import_s"] for r in plain)
    for label in ONESHOT_LABELS:
        m[f"cli.{label}.ms"] = statistics.median(oneshot_ms[label]) if label in oneshot_ms else 0.0
    m.update(probes)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    run = Run(workload, seed)
    try:
        metrics = run.traced() if trace else run.measure(seconds)
    finally:
        run.close()
    units = per_layer_units() if trace else END_TO_END
    print(f"== {workload} (seed {seed}, {'traced' if trace else f'{seconds:g} s'})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_frac = {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations failed)")
    for reason in run.failures[:20]:
        print(f"  FAILED {reason}")
    print(f"host_probe_ms = {statistics.median(run.probes):.4g} p50, IQR {iqr(run.probes):.3g} "
          f"over {len(run.probes)} probes (diagnostic; nominal {REFERENCE_MS:g})")
    for note in run.notes:
        print(f"note: {note}")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, run.attempted, run.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ahspringer" / "cli.py").is_file():
        print(f"error: no ahspringer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, n, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}:" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += n
            failed += f
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
