"""CLI tests, exercising the documented subcommands and exit codes."""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from ahspringer.cli import _build_parser, main
from ahspringer.groups import JordanType, jordan_nilpotent
from ahspringer.matrices import FpMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ah_coeffs_example(capsys):
    code, out, _ = run_cli(capsys, "ah-coeffs", "--p", "3", "--n", "3")
    assert code == 0
    assert out.strip() == "1 1 2 2"


def test_ah_coeffs_rational(capsys):
    code, out, _ = run_cli(capsys, "ah-coeffs", "--p", "2", "--n", "5", "--rational")
    assert code == 0
    assert out.strip() == "1 1 1 2/3 2/3 7/15"


def test_ah_coeffs_non_prime_exits_2(capsys):
    code, _, err = run_cli(capsys, "ah-coeffs", "--p", "4", "--n", "3")
    assert code == 2
    assert "prime" in err


def test_ah_coeffs_beyond_max_degree_exits_2_at_once(capsys):
    # the rational expansion grows about as degree^2.7: --n 1000 took 48 s
    start = time.monotonic()
    code, out, err = run_cli(capsys, "ah-coeffs", "--p", "2", "--n", "257")
    assert (code, out) == (2, "")
    assert "256" in err
    assert time.monotonic() - start < 5


def test_ah_coeffs_at_max_degree(capsys):
    code, out, _ = run_cli(capsys, "ah-coeffs", "--p", "2", "--n", "256")
    assert code == 0
    assert len(out.split()) == 257


@pytest.mark.parametrize("argv", [
    ["witt", "neg", "--p", str(2**61 - 1), "--m", "1", "--vector", "1"],
    ["verify", "--suite", "witt-group", "--p", str(2**61 - 1)],
    ["ah-coeffs", "--p", str(2**61 - 1), "--n", "3"],
])
def test_large_prime_is_refused_before_trial_division(capsys, monkeypatch, argv):
    # 2^61 - 1 is prime; trial division on it would run for minutes
    def no_trial_division(n):
        raise AssertionError(f"trial division ran on {n}")

    monkeypatch.setattr("ahspringer.gf.is_prime", no_trial_division)
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "65536" in err
    assert time.monotonic() - start < 5


def test_exp_log_round_trip(tmp_path, capsys):
    j3 = jordan_nilpotent(JordanType((3,)), 2)
    src = tmp_path / "x.json"
    src.write_text(j3.dumps())
    code, out, _ = run_cli(capsys, "exp", "--matrix", str(src))
    assert code == 0
    image = FpMatrix.from_json_obj(json.loads(out))
    assert image == FpMatrix.identity(2, 1, 3) + j3 + j3 @ j3

    back = tmp_path / "u.json"
    back.write_text(out)
    code, out2, _ = run_cli(capsys, "log", "--matrix", str(back))
    assert code == 0
    assert FpMatrix.from_json_obj(json.loads(out2)) == j3


def test_exp_rejects_non_nilpotent(tmp_path, capsys):
    src = tmp_path / "id.json"
    src.write_text(FpMatrix.identity(3, 1, 2).dumps())
    code, _, err = run_cli(capsys, "exp", "--matrix", str(src))
    assert code == 2
    assert "nilpotent" in err


def test_embed(tmp_path, capsys):
    j3 = jordan_nilpotent(JordanType((3,)), 2)
    src = tmp_path / "x.json"
    src.write_text(j3.dumps())
    code, out, _ = run_cli(capsys, "embed", "--matrix", str(src), "--vector", "0,1")
    assert code == 0
    assert FpMatrix.from_json_obj(json.loads(out)) == FpMatrix.identity(2, 1, 3) + j3 @ j3


def test_embed_wrong_length_exits_2(tmp_path, capsys):
    j3 = jordan_nilpotent(JordanType((3,)), 2)
    src = tmp_path / "x.json"
    src.write_text(j3.dumps())
    code, _, err = run_cli(capsys, "embed", "--matrix", str(src), "--vector", "1,0,0")
    assert code == 2


def test_witt_subcommands(capsys):
    code, out, _ = run_cli(capsys, "witt", "add", "--p", "2", "--m", "2", "--lhs", "1,0", "--rhs", "1,0")
    assert (code, out.strip()) == (0, "0,1")
    code, out, _ = run_cli(capsys, "witt", "neg", "--p", "2", "--m", "2", "--vector", "1,0")
    assert (code, out.strip()) == (0, "1,1")
    code, out, _ = run_cli(capsys, "witt", "pow-p", "--p", "3", "--m", "2", "--vector", "2,1")
    assert (code, out.strip()) == (0, "0,2")
    code, out, _ = run_cli(capsys, "witt", "order", "--p", "2", "--m", "2", "--vector", "1,0")
    assert (code, out.strip()) == (0, "4")
    code, out, _ = run_cli(capsys, "witt", "from-int", "--p", "2", "--m", "2", "--int", "3")
    assert (code, out.strip()) == (0, "1,1")


def test_witt_bad_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, "witt", "neg", "--p", "2", "--m", "2", "--vector", "1,zzz")
    assert code == 2
    assert "integers" in err


@pytest.mark.parametrize("m", ["-1", "0"])
def test_witt_length_below_one_exits_2(capsys, m):
    code, _, err = run_cli(capsys, "witt", "neg", "--p", "2", "--m", m, "--vector", "1")
    assert code == 2
    assert f"Witt length must be 1..3, got {m}" in err


def test_witt_from_int_refuses_a_huge_length_at_once(capsys):
    # the length is checked before any entry is built
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "witt", "from-int", "--p", "2", "--m", "300000", "--int", "1")
    assert time.perf_counter() - start < 0.5  # building 300,000 entries took over a second
    assert code == 2
    assert "Witt length must be 1..3, got 300000" in err


def test_embed_zero_matrix_exits_2(tmp_path, capsys):
    src = tmp_path / "zero.json"
    src.write_text(FpMatrix(2, 1, np.zeros((1, 3, 3), dtype=np.int64)).dumps())
    code, _, err = run_cli(capsys, "embed", "--matrix", str(src), "--vector", "")
    assert code == 2
    assert "zero matrix has nilpotent order 0" in err


def test_witt_length_three_at_large_prime(capsys):
    # checked against the Teichmuller oracle in tests/test_witt.py
    code, out, _ = run_cli(capsys, "witt", "add", "--p", "47", "--m", "3", "--e", "2",
                           "--lhs", "1,2,3", "--rhs", "4,5,6")
    assert (code, out.strip()) == (0, "(5+0w),(35+0w),(27+0w)")


def test_parabolic_class_and_eps(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "parabolic", "class", "--comp", "1,1,1")
    assert (code, out.strip()) == (0, "2")
    j3 = jordan_nilpotent(JordanType((3,)), 3)
    src = tmp_path / "x.json"
    src.write_text(j3.dumps())
    code, out, _ = run_cli(capsys, "parabolic", "eps", "--comp", "1,1,1", "--matrix", str(src))
    assert code == 0
    expected = FpMatrix.from_rows(3, 1, [[1, 1, 2], [0, 1, 1], [0, 0, 1]])
    assert FpMatrix.from_json_obj(json.loads(out)) == expected


def test_parabolic_class_of_128_blocks(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "parabolic", "class", "--comp", ",".join(["1"] * 128))
    assert time.perf_counter() - start < 5
    assert (code, out.strip()) == (0, "127")


@pytest.mark.parametrize("comp", ["129", "1,128"])
def test_parabolic_class_beyond_128_exits_2(capsys, comp):
    code, _, err = run_cli(capsys, "parabolic", "class", "--comp", comp)
    assert code == 2
    assert "matrix dimension must be between 1 and 128, got 129" in err


def test_parabolic_eps_names_a_size_mismatch(tmp_path, capsys):
    src = tmp_path / "x.json"
    src.write_text(FpMatrix(3, 1, np.zeros((1, 4, 4), dtype=np.int64)).dumps())
    code, out, err = run_cli(capsys, "parabolic", "eps", "--comp", "2,1", "--matrix", str(src))
    assert (code, out) == (2, "")
    assert err.strip() == "error: matrix is 4 x 4 but composition (2, 1) has n = 3"


def test_parabolic_eps_rejects_non_restricted(tmp_path, capsys):
    j3 = jordan_nilpotent(JordanType((3,)), 2)
    src = tmp_path / "x.json"
    src.write_text(j3.dumps())
    code, _, err = run_cli(capsys, "parabolic", "eps", "--comp", "1,1,1", "--matrix", str(src))
    assert code == 2


def test_malformed_matrix_file_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "exp", "--matrix", str(bad))
    assert code == 2
    assert "bad.json" in err


def test_deeply_nested_matrix_file_exits_2(tmp_path, capsys):
    # json.load raises RecursionError long before this depth
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "exp", "--matrix", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "deep.json" in err and "nested too deeply" in err


def test_missing_matrix_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    for argv in (
        ("exp", "--matrix", missing),
        ("log", "--matrix", missing),
        ("embed", "--matrix", missing, "--vector", "1"),
        ("parabolic", "eps", "--comp", "1,1", "--matrix", missing),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "absent.json" in err


@pytest.mark.parametrize(
    "obj",
    [
        {"p": 2, "e": 1, "n": 2, "entries": [[False, True], [False, False]]},
        {"p": 2, "e": 2, "n": 1, "entries": [[[True, 0]]]},
        {"p": 2, "e": 1, "n": True, "entries": [[0]]},
    ],
)
def test_boolean_matrix_entries_exit_2(tmp_path, capsys, obj):
    src = tmp_path / "bools.json"
    src.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "exp", "--matrix", str(src))
    assert code == 2
    assert "bools.json" in err


def test_empty_matrix_exits_2(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"p": 2, "e": 1, "n": 0, "entries": []}))
    code, _, err = run_cli(capsys, "exp", "--matrix", str(src))
    assert code == 2
    assert "dimension" in err and "nilpotent" not in err


def test_prime_above_exact_bound_exits_2(tmp_path, capsys):
    # at p = 65537 the int64 planes could overflow; it must be refused
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"p": 65537, "e": 1, "n": 2, "entries": [[0, 1], [0, 0]]}))
    code, out, err = run_cli(capsys, "exp", "--matrix", str(src))
    assert (code, out) == (2, "")
    assert "65536" in err


def test_verify_small_run(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "witt-hom,ah-integrality", "--p", "2",
        "--seed", "42", "--report", str(report_path),
    )
    assert code == 0
    assert "PASS witt-hom" in out and "PASS ah-integrality" in out
    obj = json.loads(report_path.read_text())
    assert obj["config"]["seed"] == 42
    assert {r["name"] for r in obj["suites"]} == {"witt-hom", "ah-integrality"}


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_verify_unwritable_report_exits_2_before_any_suite(tmp_path, capsys, monkeypatch, target):
    # this ran every suite, then raised FileNotFoundError / IsADirectoryError (exit 1)
    def no_run(cfg):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr("ahspringer.suites.run_suite", no_run)
    path = tmp_path / target
    code, out, err = run_cli(capsys, "verify", "--suite", "witt-hom", "--p", "3",
                             "--report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: cannot write (")


def test_verify_report_replaces_an_existing_file(tmp_path, capsys):
    report_path = tmp_path / "out.json"
    report_path.write_text("x" * 100_000)
    code, _, _ = run_cli(capsys, "verify", "--suite", "witt-hom", "--p", "2",
                         "--report", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text())["config"]["suites"] == ["witt-hom"]


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_empty_suite_list_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "")
    assert code == 2


@pytest.mark.parametrize("p", ["2", "3"])
def test_verify_empty_kind_list_exits_2(capsys, p):
    # at p = 2 this used to blame the good-prime rule; at p = 3 it ran no case
    code, out, err = run_cli(capsys, "verify", "--suite", "frobenius-compat", "--kinds", ",", "--p", p)
    assert code == 2
    assert out == ""
    assert "at least one group kind is required" in err
    assert "good-prime" not in err


def test_verify_suites_without_cases_skip_and_exit_2(tmp_path, capsys):
    # neither grid has a point at p = 7, so both suites run zero cases
    report_path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "commuting-pairs,frobenius-compat", "--p", "7",
        "--report", str(report_path),
    )
    assert code == 2
    assert out.splitlines()[:2] == [
        "SKIP commuting-pairs: 0 cases (no grid point for the requested primes, kinds and --max-dim)",
        "SKIP frobenius-compat: 0 cases (no grid point for the requested primes, kinds and --max-dim)",
    ]
    assert "PASS" not in out
    obj = json.loads(report_path.read_text())
    assert [(r["name"], r["cases"]) for r in obj["suites"]] == [
        ("commuting-pairs", 0), ("frobenius-compat", 0),
    ]


def test_verify_mixed_pass_and_skip_exits_2(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "ah-integrality,frobenius-compat", "--p", "7",
    )
    assert code == 2
    assert out.splitlines() == [
        "PASS ah-integrality: 69/69 cases",
        "SKIP frobenius-compat: 0 cases (no grid point for the requested primes, kinds and --max-dim)",
    ]


def test_verify_skip_names_kinds_and_max_dim(capsys):
    # p = 3 has SO points from n = 3 on, so --max-dim 2 emptied the grid, not --p
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "frobenius-compat", "--kinds", "SO", "--max-dim", "2",
        "--p", "3", "--trials", "1",
    )
    assert (code, out) == (
        2, "SKIP frobenius-compat: 0 cases (no grid point for the requested primes, kinds and --max-dim)\n")


@pytest.mark.parametrize("flag,value", [
    ("--p", "3,3"), ("--kinds", "GL,GL"), ("--suite", "frobenius-compat,frobenius-compat"),
])
def test_verify_repeated_entry_exits_2(capsys, flag, value):
    # a repeated entry ran its cases twice: --p 3,3 reported 96/96 cases, --p 3 48/48
    code, out, err = run_cli(capsys, "verify", "--suite", "frobenius-compat", "--trials", "2",
                             flag, value)
    assert (code, out) == (2, "")
    assert "repeated" in err


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


EMBEDS = [  # (matrix, vector, stdout): J_5 over F_2 has nilpotent order 3, this X over F_9 order 1
    ({"p": 2, "e": 1, "n": 5, "entries": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                          [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]}, "1,0,1",
     '{"p": 2, "e": 1, "n": 5, "entries": [[1, 1, 1, 0, 1], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1], '
     '[0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]}\n'),
    ({"p": 3, "e": 2, "n": 3, "entries": [[[0, 0], [1, 2], [0, 1]], [[0, 0], [0, 0], [2, 0]],
                                          [[0, 0], [0, 0], [0, 0]]]}, "2",
     '{"p": 3, "e": 2, "n": 3, "entries": [[[1, 0], [2, 1], [1, 1]], [[0, 0], [1, 0], [1, 0]], '
     '[[0, 0], [0, 0], [1, 0]]]}\n'),
]


def test_embed_prints_the_pinned_bytes(tmp_path, capsys):
    for k, (obj, vector, expected) in enumerate(EMBEDS):
        src = tmp_path / f"x{k}.json"
        src.write_text(json.dumps(obj))
        assert run_cli(capsys, "embed", "--matrix", str(src), "--vector", vector) == (0, expected, "")


# (command, a valid argument list), its first option a required one; each
# is parsed, never run, so no file is opened
PARSED = [
    (["ah-coeffs"], ["--p", "3", "--n", "8", "--rational"]),
    (["exp"], ["--matrix", "x.json"]),
    (["log"], ["--matrix", "u.json"]),
    (["embed"], ["--matrix", "x.json", "--vector", "1,0"]),
    (["witt", "add"], ["--p", "3", "--m", "2", "--e", "2", "--lhs", "1,2", "--rhs", "2,2"]),
    (["witt", "neg"], ["--p", "5", "--m", "3", "--vector", "1,0,3"]),
    (["witt", "pow-p"], ["--p", "3", "--m", "3", "--vector", "1,2,0"]),
    (["witt", "order"], ["--p", "3", "--m", "2", "--vector", "1,2"]),
    (["witt", "from-int"], ["--p", "5", "--m", "3", "--int", "77"]),
    (["parabolic", "eps"], ["--comp", "2,1", "--matrix", "x.json"]),
    (["parabolic", "class"], ["--comp", "1,2,1", "--p", "5"]),
    (["verify"], ["--suite", "all", "--p", "3", "--trials", "2", "--seed", "9", "--report", "r.json",
                  "--max-dim", "4", "--kinds", "GL,SO"]),
]


def _parse(parser, argv):
    """(Namespace or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=f"{'-'.join(command)}/{how}")
    for command, args in PARSED + [(["witt"], []), (["parabolic"], [])]  # a group alone: no subcommand
    for how, argv in (("help", [*command, "--help"]), ("missing", [*command, *args[2:]]),
                      ("valid", [*command, *args]), ("extra", [*command, *args, "extra"]))
])
def test_one_command_parser_parses_as_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one = _build_parser(argv)
    assert list(one._subparsers._group_actions[0].choices) == [argv[0]]  # the one subparser
    assert _parse(one, argv) == _parse(_build_parser(), argv)


# no command, an unknown command and the top-level help, at 80 columns
TOP_LEVEL = [
    ([], 2, "", "usage: ahspringer [-h] {ah-coeffs,exp,log,embed,witt,parabolic,verify} ...\n"
     "ahspringer: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", "usage: ahspringer [-h] {ah-coeffs,exp,log,embed,witt,parabolic,verify} ...\n"
     "ahspringer: error: argument command: invalid choice: 'bogus' (choose from 'ah-coeffs', "
     "'exp', 'log', 'embed', 'witt', 'parabolic', 'verify')\n"),
    (["--help"], 0, "usage: ahspringer [-h] {ah-coeffs,exp,log,embed,witt,parabolic,verify} ...\n\n"
     "Exact Artin-Hasse exponentials, Witt vectors, and verification suites over\n"
     "small finite fields.\n\npositional arguments:\n"
     "  {ah-coeffs,exp,log,embed,witt,parabolic,verify}\n"
     "    ah-coeffs           Artin-Hasse series coefficients\n"
     "    exp                 Artin-Hasse exponential of a nilpotent matrix\n"
     "    log                 inverse Artin-Hasse map of a unipotent matrix\n"
     "    embed               Witt-vector embedding at a nilpotent matrix\n"
     "    witt                Witt vector arithmetic\n"
     "    parabolic           standard parabolics of GL_n\n"
     "    verify              run property suites\n\n"
     "options:\n  -h, --help            show this help message and exit\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", TOP_LEVEL, ids=["no-command", "unknown-command", "help"])
def test_calls_without_a_known_command_print_the_full_usage(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)
