"""Fuzz guard for the CLI exit-code contract.

Generated argument lists and matrix JSON files must end in exit 0 (pass),
1 (property failed) or 2 (usage or input error); an uncaught exception
fails the test.  Examples are derandomized, so every run replays the same
cases.  Three in four generated cases are well-formed, so the arithmetic
behind each command runs; the rest are malformed.  Work is bounded so
the guard stays cheap: p <= 50, matrix dimension n <= 4, `ah-coeffs --n`
<= 30, and `verify` runs one cheap suite with `--trials 1 --max-dim 2`.
`verify` sometimes writes a report: to a fresh file, into a missing
directory, or onto a directory; the last two must exit 2.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahspringer.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)

PRIMES = [2, 3, 5, 7, 11, 47]
CHEAP_SUITES = ["frobenius-compat", "order-preservation", "centralizer-equality",
                "equivariance", "witt-hom", "commuting-pairs"]


def _not_int(text) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# junk never parses as an int, so it cannot smuggle in an unbounded size
JUNK = st.text(alphabet="0123456789,-+. ax()", max_size=6).filter(_not_int)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str) | JUNK


def _csv(values):
    return values.map(lambda v: ",".join(map(str, v)))


def _well_formed(draw) -> bool:
    return draw(st.integers(0, 3)) > 0


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


P = _ints(-2, 50)
VECTOR = _csv(st.lists(st.integers(-2, 60), max_size=4)) | JUNK
COMP = _csv(st.lists(st.integers(-1, 4), max_size=4)) | JUNK


@st.composite
def _ah_coeffs_argv(draw):
    if _well_formed(draw):
        p, n = str(draw(st.sampled_from(PRIMES))), str(draw(st.integers(0, 30)))
    else:
        p, n = draw(P), draw(_ints(-2, 30))
    return ["ah-coeffs", "--p", p, "--n", n] + draw(st.sampled_from([[], ["--rational"]]))


@st.composite
def _witt_argv(draw):
    sub = draw(st.sampled_from(["add", "neg", "pow-p", "order", "from-int"]))
    if _well_formed(draw):
        m = draw(st.integers(1, 3))
        p = draw(st.sampled_from(PRIMES))
        e = 1 if sub == "from-int" else draw(st.integers(1, 2))
        vector = _csv(st.lists(st.integers(-2, 60), min_size=m, max_size=m))
        p, m, e = str(p), str(m), str(e)
    else:
        p, e, m = draw(P), draw(_ints(-1, 3)), draw(_ints(-2, 4))
        vector = VECTOR
    argv = ["witt", sub, "--p", p, "--m", m, "--e", e]
    if sub == "add":
        argv += ["--lhs", draw(vector), "--rhs", draw(vector)]
    elif sub == "from-int":
        argv += ["--int", draw(_ints(-5, 10**6))]
    else:
        argv += ["--vector", draw(vector)]
    return argv


@st.composite
def _parabolic_class_argv(draw):
    if _well_formed(draw):
        comp = _csv(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        return ["parabolic", "class", "--comp", draw(comp),
                "--p", str(draw(st.sampled_from(PRIMES)))]
    return ["parabolic", "class", "--comp", draw(COMP), "--p", draw(P)]


# --report placeholders, resolved against a fresh directory per example
REPORT_TARGETS = {"<file>": "report.json", "<missing-dir>": "missing/report.json", "<dir>": "."}


@st.composite
def _verify_argv(draw):
    if _well_formed(draw):
        suite = draw(st.sampled_from(CHEAP_SUITES))
        primes = draw(_csv(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3)))
    else:
        suite = draw(st.sampled_from(CHEAP_SUITES + ["bogus", "", ",", "all,bogus"]))
        primes = draw(_csv(st.lists(st.integers(-2, 50), max_size=3)) | JUNK)
    argv = ["verify", "--suite", suite, "--p", primes, "--trials", "1", "--max-dim", "2",
            "--seed", draw(_ints(-3, 2**70))]
    if draw(st.booleans()):
        argv += ["--kinds", draw(st.sampled_from(["GL", "SO", "Sp", "SO,Sp", "XX", ""]))]
    if draw(st.booleans()):
        argv += ["--report", draw(st.sampled_from(sorted(REPORT_TARGETS)))]
    return argv


ARGV = st.one_of(
    _ah_coeffs_argv(),
    _witt_argv(),
    _parabolic_class_argv(),
    _verify_argv(),
    st.lists(st.sampled_from(["exp", "witt", "add", "--p", "2", "--bogus", "verify", "-"]),
             max_size=4),
)


@FUZZ
@given(ARGV)
@example(["verify", "--suite", "commuting-pairs,frobenius-compat", "--p", "7"])
@example(["verify", "--suite", "witt-hom", "--p", "3", "--report", "<missing-dir>"])
def test_cli_arguments_keep_exit_contract(tmp_path_factory, argv):
    target = next((a for a in argv if a in REPORT_TARGETS), None)
    if target is None:
        assert _exit_code(argv) in (0, 1, 2)
        return
    report = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())) / REPORT_TARGETS[target]
    code = _exit_code([str(report) if a == target else a for a in argv])
    assert code in ((0, 1, 2) if target == "<file>" else (2,))
    if code != 2:  # a run that passed or failed wrote its report
        json.loads(report.read_text(encoding="utf-8"))


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)
_SCALAR = st.one_of(
    st.integers(-3, 60), st.booleans(), st.none(), _TEXT,
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([2**63, -2**64, 10**30]),
)
_ENTRY = _SCALAR | st.lists(_SCALAR, max_size=3)
_HEADER = st.sampled_from([65521, 65537, 2**61 - 1, 2**64]) | _SCALAR
MALFORMED_TEXT = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={"p": _HEADER, "e": _HEADER, "n": _HEADER,
                  "entries": st.lists(st.lists(_ENTRY, max_size=5), max_size=5)},
    ).map(json.dumps),
    _ENTRY.map(json.dumps),
    st.integers(1, 200_000).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 200_000).map(lambda d: '{"entries": ' * d + "0" + "}" * d),
    _TEXT,
)


@st.composite
def _matrix_case(draw):
    """(arguments, file text) for exp, log, embed and parabolic eps."""
    command = draw(st.sampled_from([["exp"], ["log"], ["embed"], ["parabolic", "eps"]]))
    if not _well_formed(draw):
        extra = {"embed": ["--vector", draw(VECTOR)], "parabolic": ["--comp", draw(COMP)]}
        return command + extra.get(command[0], []), draw(MALFORMED_TEXT)
    p = draw(st.sampled_from(PRIMES))
    e = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    # strictly upper triangular is nilpotent; adding the identity is unipotent
    shape = draw(st.sampled_from(["nilpotent", "unipotent", "any"]))
    coord = st.integers(0, p - 1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if shape == "any" or j > i:
                value = [draw(coord) for _ in range(e)]
            else:
                value = [int(shape == "unipotent" and i == j)] + [0] * (e - 1)
            row.append(value[0] if e == 1 else value)
        rows.append(row)
    if command[0] == "embed":
        command = command + ["--vector", draw(_csv(st.lists(coord, min_size=1, max_size=3)))]
    elif command[0] == "parabolic":
        blocks, left = [], n
        while left:
            blocks.append(draw(st.integers(1, left)))
            left -= blocks[-1]
        command = command + ["--comp", ",".join(map(str, blocks))]
    return command, json.dumps({"p": p, "e": e, "n": n, "entries": rows})


@FUZZ
@given(_matrix_case())
@example((["exp"], "[" * 100_000 + "]" * 100_000))
def test_cli_matrix_files_keep_exit_contract(tmp_path_factory, case):
    argv, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-matrix.json"
    path.write_text(text, encoding="utf-8")
    assert _exit_code(argv + ["--matrix", str(path)]) in (0, 1, 2)
