"""Golden digests of seeded verify reports.

Each config is one part of `verify --suite all` at seed 42, or a held-out
seed; the pinned value is the SHA-256 of its report without the
`generated_at` field, as produced by the code these kernels replaced.  A
change that draws different samples, reorders cases or alters a witness
changes the digest; re-pin only when the report is meant to change, and
say so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from ahspringer import suites
from ahspringer.suites import Recorder, SuiteConfig, run_suite

GOLDEN = {
    "matrix": (
        dict(suites=("frobenius-compat", "order-preservation", "commuting-pairs", "equivariance"),
             primes=(2, 3, 5), trials=4),
        "65fb1944d35cde8a2dc16a60d23792aee94f4e1cc79316c46ac2a91dffdbd93f",
    ),
    "structure": (
        dict(suites=("eps-parabolic", "centralizer-equality"), primes=(2, 3, 5), trials=2),
        "386f5bbaaa8966a26bba9ef99cd9201c679cf5cc0063a77dbd96c3c48e83b7d4",
    ),
    # held-out seed, ten trials: eps-parabolic stacks 51 parabolics, across
    # n boundaries, computed before its stacks mixed n
    "structure-301": (
        dict(suites=("eps-parabolic", "centralizer-equality"), primes=(2, 3, 5), trials=10, seed=301),
        "51ab9195aab483b6e00c7b814c8cc421d38b45ac75c561b89a50981d0be4db3e",
    ),
    "fields": (
        dict(suites=("ah-integrality", "witt-group", "witt-hom", "one-parameter",
                     "frobenius-descent", "form-preservation"), trials=10),
        "28c5910b6c775866d4a79d2d338fb2e8bff4cf819c8cfbfbc6555ed6eef3dcbb",
    ),
}


def golden_digest(name):
    report = run_suite(SuiteConfig(**{"seed": 42, **GOLDEN[name][0]})).to_json()
    body = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_is_pinned(name):
    assert golden_digest(name) == GOLDEN[name][1]


def force_failures(monkeypatch):
    """Record every case as failing, through the one recording path,
    `check_lanes`."""
    check_lanes = Recorder.check_lanes
    monkeypatch.setattr(Recorder, "check_lanes", lambda self, ok, witness: check_lanes(
        self, np.zeros(ok.shape, dtype=bool), witness))


def failure_digest(monkeypatch, witnesses, **config):
    """SHA-256 of a seed-42 report with every case failing, without its
    `generated_at`, after checking its witness count."""
    force_failures(monkeypatch)
    report = run_suite(SuiteConfig(seed=42, **config)).to_json()
    body = {k: v for k, v in report.items() if k != "generated_at"}
    assert sum(len(r["witnesses"]) for r in body["suites"]) == witnesses
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


# Every check of `verify --suite all` at seed 42 (p in {2, 3, 5}, two trials,
# dimensions up to 5) recorded as failing: 7,349 witnesses.  Passing reports
# carry no witnesses, so only this digest pins the witness encoding and the
# samples behind each case.
FORCED_FAILURE_DIGEST = "f9d9740b68d8e79cbd2e4b94a4531af0e3949f93a4b6102b7ea3f483db12d59e"


def forced_failure_digest(monkeypatch):
    return failure_digest(monkeypatch, 7349, suites=("all",), primes=(2, 3, 5), trials=2, max_dim=5)


def test_forced_failure_witnesses_are_pinned(monkeypatch):
    assert forced_failure_digest(monkeypatch) == FORCED_FAILURE_DIGEST


# one-parameter stacks whole cases of p^(2e) products each: budget 1 and 7
# run one case per stack, 40 runs 1 to 10 cases (by p and e), and the
# other suites split into stacks of 1, 7 or 40 lanes.
@pytest.mark.parametrize("budget", [1, 7, 40])
def test_fields_reports_do_not_depend_on_the_lane_budget(monkeypatch, budget):
    monkeypatch.setattr(suites, "LANE_BUDGET", budget)
    assert golden_digest("fields") == GOLDEN["fields"][1]
    assert forced_failure_digest(monkeypatch) == FORCED_FAILURE_DIGEST


# eps-parabolic alone at the default max_dim, so its n = 6 compositions
# are included: every one of its 1,049 seed-42 checks recorded as failing.
# Computed with the per-object samplers, before the suite ran on stacks.
EPS_PARABOLIC_FAILURE_DIGEST = "8f7e683f35340645cf62a3e53f2221bbee25aafdfa05e8806fdbe106d8ada9b1"


def eps_parabolic_failure_digest(monkeypatch):
    return failure_digest(monkeypatch, 1049, suites=("eps-parabolic",), primes=(2, 3, 5), trials=2)


def test_eps_parabolic_witnesses_through_n6_are_pinned(monkeypatch):
    assert eps_parabolic_failure_digest(monkeypatch) == EPS_PARABOLIC_FAILURE_DIGEST


# Budget 1 runs every parabolic alone, each property in one-trial chunks;
# budget 3 runs every parabolic alone in one chunk per property; budget 7
# stacks three parabolics of two trials each, so each chunk's verdicts are
# sliced per parabolic (and "tangent" runs one lane per parabolic).
@pytest.mark.parametrize("budget", [1, 3, 7])
def test_eps_parabolic_witnesses_do_not_depend_on_the_lane_budget(monkeypatch, budget):
    monkeypatch.setattr(suites, "LANE_BUDGET", budget)
    assert eps_parabolic_failure_digest(monkeypatch) == EPS_PARABOLIC_FAILURE_DIGEST


# At ten trials, budget 64 stacks six parabolics and budget 7 runs each alone
# in chunks of seven trials.
@pytest.mark.parametrize("budget", [7, 64])
def test_held_out_structure_report_does_not_depend_on_the_lane_budget(monkeypatch, budget):
    monkeypatch.setattr(suites, "LANE_BUDGET", budget)
    assert golden_digest("structure-301") == GOLDEN["structure-301"][1]


# The four verify-matrix suites at the default max_dim 8, so the n = 6..8
# grid points and their padded stack lanes are pinned too: every one of
# their 4,515 seed-42 checks recorded as failing.  Computed with the
# per-object samplers, before these suites ran on stacks.  Budget 1 splits
# every stack into one-case chunks (two lanes for a commuting pair);
# budget 7 cuts stacks of seven lanes, so a grid point of two trials can
# straddle two stacks.
MATRIX_FAILURE_DIGEST = "a577d289e4dfd38a415c02fdb64492fe1941a1fc5dd323d37004223e396e7a27"


@pytest.mark.parametrize("budget", [None, 1, 7])
def test_verify_matrix_witnesses_through_n8_are_pinned(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(suites, "LANE_BUDGET", budget)
    digest = failure_digest(monkeypatch, 4515, suites=GOLDEN["matrix"][0]["suites"],
                            primes=(2, 3, 5), trials=2)
    assert digest == MATRIX_FAILURE_DIGEST
