"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ahspringer.rng import _GAMMA, Stream, stream  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    # root [0,100]: children a [10,40] (with grandchild [20,30]), b [50,90]
    # and c [80,95] overlapping b, and d [95,110] running past the root
    spans = [
        (0, 100, -1),  # 0 root
        (10, 40, 0),  # 1 a
        (20, 30, 1),  # 2 grandchild
        (50, 90, 0),  # 3 b
        (80, 95, 0),  # 4 c
        (95, 110, 0),  # 5 d
    ]
    starts, ends, parents = zip(*spans)
    own = tracing.self_times(starts, ends, parents)
    # root covered by [10,40] and [50,100]: 30 + 50
    assert own == [100 - 80, 30 - 10, 10, 40, 15, 15]


def test_self_time_ignores_span_order():
    starts, ends, parents = (50, 0, 10), (60, 100, 20), (1, -1, 1)
    assert tracing.self_times(starts, ends, parents) == [10, 80, 10]


def test_tracer_self_times_sum_to_root_duration():
    tracer = tracing.Tracer()
    inner = tracer.wrap("x.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("x.outer", lambda: [inner() for _ in range(3)])
    outer()
    agg = tracing.aggregate(tracer)
    assert agg["x.outer"][0] == 1 and agg["x.inner"][0] == 3
    assert agg["x.outer"][2] + agg["x.inner"][2] == agg["x.outer"][1]


class CountingStream(Stream):
    __slots__ = ("n",)

    def __init__(self, state):
        super().__init__(state)
        self.n = 0

    def u64(self):
        self.n += 1
        return super().u64()


def test_draws_from_states_match_a_direct_count():
    st = CountingStream(stream(7, "draws").state)
    initial = st.state
    for bound in (2, 3, 5, (1 << 63) + 1):  # the last rejects about half the draws
        for _ in range(200):
            st.below(bound)
    assert st.n > 800
    assert tracing.draws(initial, st.state, _GAMMA) == st.n


def _report(cases: dict[str, int]) -> dict:
    return {
        "version": 1,
        "config": {"seed": 42},
        "generated_at": "2026-01-01T00:00:00+00:00",
        "suites": [
            {"name": name, "anchor": "", "cases": n, "passed": n, "failed": 0, "witnesses": []}
            for name, n in cases.items()
        ],
    }


def _check(cases, report):
    return workloads.VerifyCheck(list(cases), cases, workloads.report_digest(_report(cases))).check(report)


CASES = {"eps-parabolic": 1049, "centralizer-equality": 30}


def test_unchanged_report_passes_and_ignores_generated_at():
    report = _report(CASES)
    report["generated_at"] = "another time"
    assert _check(CASES, report) == []


def test_perturbed_report_fails():
    report = _report(CASES)
    report["suites"][1]["witnesses"] = [{"p": 3}]
    assert any("digest" in r for r in _check(CASES, report))


def test_zero_case_suite_fails():
    report = _report(CASES)
    report["suites"][1].update(cases=0, passed=0)
    reasons = _check(CASES, report)
    assert "centralizer-equality: ran 0 cases" in reasons


def test_failed_suite_and_digest_drift_within_a_run_fail():
    check = workloads.VerifyCheck(list(CASES), CASES, None)
    assert check.check(_report(CASES)) == []
    report = _report(CASES)
    report["suites"][0].update(passed=1048, failed=1)
    reasons = check.check(report)
    assert "eps-parabolic: 1 failed cases" in reasons
    assert any("differs within the run" in r for r in reasons)


def test_failed_check_counts_as_a_failed_operation(tmp_path):
    report = tmp_path / "report.json"
    bad = _report(CASES)
    bad["suites"][0].update(cases=0, passed=0)
    report.write_text(json.dumps(bad))
    good = _report(CASES)
    call = workloads.Call("w", [], 1079, report=report,
                          verify=workloads.VerifyCheck(list(CASES), CASES, workloads.report_digest(good)))
    r = object.__new__(run.Run)
    r.attempted, r.failed, r.failures = 0, 0, []
    r.record(call, 0, "", "")
    r.record(workloads.Call("x", [], 1, expected="4"), 0, "4\n", "")
    r.record(workloads.Call("y", [], 1, expected="4"), 1, "4\n", "boom")
    assert (r.attempted, r.failed) == (3, 2)


def test_oneshot_known_answers_follow_the_readme_coefficients(tmp_path):
    calls = {c.label: c for c in workloads.calls("cli-oneshot", 5, tmp_path)}
    assert set(calls) == set(workloads.ONESHOT_LABELS)
    x = json.loads((tmp_path / "X.json").read_text())["entries"]
    u = calls["exp"].expected["entries"]
    # upper unitriangular with the superdiagonal of X: e_p(X) = 1 + X + ...
    assert all(u[i][i] == 1 for i in range(4))
    assert all(u[i][i + 1] == x[i][i + 1] for i in range(3))
    assert calls["log"].expected["entries"] == x


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _traced_counts(tmp_path, name):
    out = tmp_path / f"{name}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--out", str(out), "--trace",
            "--spans", str(tmp_path / f"{name}.tsv"), "--",
            "verify", "--suite", "equivariance,eps-parabolic", "--p", "3", "--trials", "1", "--seed", "9"]
    subprocess.run(argv, check=True, env=run.child_env(), cwd=ROOT)
    result = json.loads(out.read_text())
    return result, {k: v[0] for k, v in result["spans"].items()}


def test_two_traced_runs_count_the_same_calls(tmp_path):
    first, calls = _traced_counts(tmp_path, "a")
    second, again = _traced_counts(tmp_path, "b")
    assert calls == again
    assert first["counters"] == second["counters"]
    assert first["exit"] == 0 and first["stdout"] == second["stdout"]
    # every layer on the verify path is counted, re-exports included
    for layer in ("gf", "matrices", "linalg", "groups", "rng", "expmaps", "parabolic", "suites", "cli"):
        assert any(k.startswith(layer + ".") for k in calls), layer


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([*spec["command"], "--workload", "cli-oneshot", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("values,expected", [(list(range(1, 21)), (10.5, 0.5)), (list(range(1, 31)), (20, 2 / 3))])
def test_tail_keeps_ten_samples_beyond(values, expected):
    assert run.tail(values) == pytest.approx(expected)
