"""The benchmark's workloads: which CLI calls each makes and how every
call's output is checked.

The inputs come from the workload seed alone; the program only sees the
generated arguments and files.  The known answers for ``cli-oneshot``
are computed here with plain-Python arithmetic mod p, sharing no code
with ahspringer, from the Artin-Hasse coefficients printed in the README.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 42
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# verify workloads: together they cover every suite of `verify --suite all`
VERIFY = {
    "verify-matrix": [
        "--suite", "frobenius-compat,order-preservation,commuting-pairs,equivariance",
        "--p", "2,3,5", "--trials", "4",
    ],
    "verify-structure": [
        "--suite", "eps-parabolic,centralizer-equality", "--p", "2,3,5", "--trials", "2",
    ],
    "verify-fields": [
        "--suite",
        "ah-integrality,witt-group,witt-hom,one-parameter,frobenius-descent,form-preservation",
        "--trials", "10",
    ],
}
WORKLOADS = (*VERIFY, "cli-oneshot")

SUITES = [s for argv in VERIFY.values() for s in argv[1].split(",")]


def report_digest(report: dict) -> str:
    """SHA-256 of the report with its single non-deterministic field removed."""
    body = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@dataclass
class Call:
    """One CLI invocation and its check; ``check`` returns failure reasons."""

    label: str
    argv: list[str]
    cases: int
    expected: object = None
    report: Path | None = None
    verify: "VerifyCheck | None" = None

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"{self.label}: exit code {code}"]
        if self.verify is not None:
            try:
                report = json.loads(self.report.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"{self.label}: no readable report ({exc})"]
            return self.verify.check(report)
        got = stdout.strip()
        if isinstance(self.expected, dict):
            try:
                got = json.loads(got)
            except ValueError:
                return [f"{self.label}: output is not JSON: {got[:80]!r}"]
        if got != self.expected:
            return [f"{self.label}: got {got!r}, expected {self.expected!r}"]
        return []


@dataclass
class VerifyCheck:
    """Checks one verify report: every requested suite ran exactly the
    recorded number of cases with none failed, and the report digest
    matches the recorded one (default seed) and every other report of the
    same run (any seed)."""

    suites: list[str]
    cases: dict[str, int]
    digest: str | None
    seen: list[str] = field(default_factory=list)

    def check(self, report: dict) -> list[str]:
        reasons = []
        records = {r.get("name"): r for r in report.get("suites", [])}
        if sorted(records) != sorted(self.suites):
            reasons.append(f"report suites {sorted(records)} != requested {sorted(self.suites)}")
        for name in self.suites:
            rec = records.get(name, {})
            cases = rec.get("cases", 0)
            if cases == 0:
                reasons.append(f"{name}: ran 0 cases")
            elif cases != self.cases.get(name):
                reasons.append(f"{name}: {cases} cases, expected {self.cases.get(name)}")
            if rec.get("failed", 0) != 0:
                reasons.append(f"{name}: {rec['failed']} failed cases")
        digest = report_digest(report)
        if self.digest is not None and digest != self.digest:
            reasons.append(f"report digest {digest[:12]} != recorded {self.digest[:12]}")
        if self.seen and digest != self.seen[0]:
            reasons.append(f"report digest {digest[:12]} differs within the run")
        self.seen.append(digest)
        return reasons


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def calls(workload: str, seed: int, workdir: Path, expected: dict | None = None) -> list[Call]:
    """The calls of one pass of ``workload``; writes its input files to workdir."""
    if workload == "cli-oneshot":
        return _oneshot_calls(seed, workdir)
    expected = load_expected() if expected is None else expected
    suites = VERIFY[workload][1].split(",")
    rec = expected[workload]
    report = workdir / "report.json"
    check = VerifyCheck(suites, rec["cases"], rec["digest"] if seed == DEFAULT_SEED else None)
    argv = ["verify", *VERIFY[workload], "--seed", str(seed), "--report", str(report)]
    return [Call(workload, argv, sum(rec["cases"].values()), report=report, verify=check)]


# -- cli-oneshot: plain-Python known answers over F_3 ------------------

P = 3
AH_COEFFS_P3 = (1, 1, 2, 2)  # README: `ahspringer ah-coeffs --p 3 --n 3` -> 1 1 2 2
TRUNC_EXP_P3 = (1, 1, 2)  # 1/i! mod 3 for i < 3


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % P for j in range(n)] for i in range(n)]


def _poly(coeffs, x):
    """sum c_i x^i mod P."""
    n = len(x)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [[0] * n for _ in range(n)]
    for c in coeffs:
        acc = [[(acc[i][j] + c * power[i][j]) % P for j in range(n)] for i in range(n)]
        power = _matmul(power, x)
    return acc


def _scaled(a, x):
    return [[a * v % P for v in row] for row in x]


def _matrix_json(x) -> dict:
    return {"p": P, "e": 1, "n": len(x), "entries": x}


def _strictly_upper(rng: random.Random, n: int, superdiag: range):
    return [
        [(rng.choice(superdiag) if j == i + 1 else rng.randrange(P)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]


def _oneshot_calls(seed: int, workdir: Path) -> list[Call]:
    rng = random.Random(seed)
    # X in gl_4(F_3) strictly upper with a unit superdiagonal: X^3 != 0 = X^4,
    # so every seed gives nilpotency degree 4 and nilpotent order m = 2
    x = _strictly_upper(rng, 4, range(1, P))
    u = _poly(AH_COEFFS_P3, x)
    a0, a1 = rng.randrange(1, P), rng.randrange(1, P)
    x3 = _matmul(_matmul(x, x), x)
    embedded = _matmul(_poly(AH_COEFFS_P3, _scaled(a0, x)), _poly(AH_COEFFS_P3, _scaled(a1, x3)))
    # Y in the nilradical of the Borel of GL_3 (composition 1,1,1), class 2 < 3
    y = _strictly_upper(rng, 3, range(1, P))
    files = {}
    for name, mat in (("X", x), ("U", u), ("Y", y)):
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(_matrix_json(mat)), encoding="utf-8")

    def call(label, argv, expected):
        return Call(label, [str(a) for a in argv], 1, expected=expected)

    return [
        call("ah-coeffs", ["ah-coeffs", "--p", 3, "--n", 3], "1 1 2 2"),
        call("ah-coeffs-rational", ["ah-coeffs", "--p", 2, "--n", 5, "--rational"],
             "1 1 1 2/3 2/3 7/15"),
        call("witt-add", ["witt", "add", "--p", 2, "--m", 2, "--lhs", "1,0", "--rhs", "1,0"], "0,1"),
        call("witt-neg", ["witt", "neg", "--p", 2, "--m", 2, "--vector", "1,0"], "1,1"),
        call("witt-order", ["witt", "order", "--p", 2, "--m", 2, "--vector", "1,0"], "4"),
        call("witt-from-int", ["witt", "from-int", "--p", 2, "--m", 2, "--int", 3], "1,1"),
        call("exp", ["exp", "--matrix", files["X"]], _matrix_json(u)),
        call("log", ["log", "--matrix", files["U"]], _matrix_json(x)),
        call("embed", ["embed", "--matrix", files["X"], "--vector", f"{a0},{a1}"],
             _matrix_json(embedded)),
        call("parabolic-eps", ["parabolic", "eps", "--comp", "1,1,1", "--matrix", files["Y"]],
             _matrix_json(_poly(TRUNC_EXP_P3, y))),
        call("parabolic-class", ["parabolic", "class", "--comp", "1,1,1"], "2"),
    ]


ONESHOT_LABELS = (
    "ah-coeffs", "ah-coeffs-rational", "witt-add", "witt-neg", "witt-order", "witt-from-int",
    "exp", "log", "embed", "parabolic-eps", "parabolic-class",
)
