"""Record the per-suite case counts and report digest of each verify
workload at the default seed into perfbench/expected.json.

Run from the repository root, only when the report changes on purpose:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, EXPECTED_PATH, VERIFY, report_digest

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    expected = {}
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        for workload, argv in VERIFY.items():
            report_path = Path(tmp) / "report.json"
            cmd = [sys.executable, "-m", "ahspringer.cli", "verify", *argv,
                   "--seed", str(DEFAULT_SEED), "--report", str(report_path)]
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            report = json.loads(report_path.read_text(encoding="utf-8"))
            expected[workload] = {
                "cases": {r["name"]: r["cases"] for r in report["suites"]},
                "digest": report_digest(report),
            }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
