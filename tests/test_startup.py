"""Start-up cost guards: ``import ahspringer`` loads no submodule, its
public names resolve on first use, the scalar commands (``ah-coeffs``,
``witt``, ``parabolic class``) run without loading numpy or the suites,
and without ``dataclasses`` (which loads ``inspect``) or ``fractions``,
save ``ah-coeffs --rational``, which prints Fractions; ``exp`` and
``log`` run without the samplers, ``parabolic eps`` loads what ``exp``
loads, ``verify`` loads the parabolic layers only for eps-parabolic,
``witt`` only for the Witt suites, no ``fractions`` for the structure or
field suites and no ``dataclasses`` for any, and only the process
entry point ``cli.run`` sets the BLAS thread count, turns the cycle
collector off and freezes the heap."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ahspringer
from ahspringer import suites
from ahspringer.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# (argv, stdout); the outputs are those of the eagerly importing CLI
SCALAR_CALLS = [
    (["ah-coeffs", "--p", "3", "--n", "8"], "1 1 2 2 0 1 0 0 2\n"),
    (["ah-coeffs", "--p", "2", "--n", "5", "--rational"], "1 1 1 2/3 2/3 7/15\n"),
    (["witt", "add", "--p", "3", "--m", "2", "--e", "2", "--lhs", "1,2", "--rhs", "2,2"],
     "(0+0w),(1+0w)\n"),
    (["witt", "neg", "--p", "5", "--m", "3", "--vector", "1,0,3"], "4,0,2\n"),
    (["witt", "pow-p", "--p", "3", "--m", "3", "--e", "2", "--vector", "1,2,0"],
     "(0+0w),(1+0w),(2+0w)\n"),
    (["witt", "order", "--p", "3", "--m", "2", "--vector", "1,2"], "9\n"),
    (["witt", "from-int", "--p", "5", "--m", "3", "--int", "77"], "2,4,1\n"),
    (["parabolic", "class", "--comp", "2,1"], "1\n"),
    (["parabolic", "class", "--comp", "1,2,1,1", "--p", "5"], "3\n"),
]

# X is nilpotent over F_3 and U = e_3(X), so log maps U back to X
X = {"p": 3, "e": 1, "n": 3, "entries": [[0, 1, 2], [0, 0, 1], [0, 0, 0]]}
U = {"p": 3, "e": 1, "n": 3, "entries": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]}
NOT_LOADED_BY_EXP_LOG = ("groups", "linalg", "rng", "witt", "parabolic", "suites")
# standard-library modules a scalar command has no use for
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions"}

# runs each argv of argv[1] through cli.main in this fresh interpreter and
# prints the exit codes, the outputs and the modules then loaded
_PROBE = """
import contextlib, io, json, sys
from ahspringer.cli import main
calls = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        calls.append([main(argv), buf.getvalue()])
loaded = sorted(m for m in sys.modules
                if m in ("numpy", "dataclasses", "inspect", "fractions") or m.startswith("ahspringer"))
print(json.dumps({"calls": calls, "loaded": loaded}))
"""


# calls cli.run on the argv of argv[1] in this fresh interpreter and prints
# what it returned and left behind
_RUN = """
import contextlib, gc, io, json, os, sys
from ahspringer import cli
sys.argv = ["ahspringer", *json.loads(sys.argv[1])]
before, before_enabled = gc.get_freeze_count(), gc.isenabled()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run()
print(json.dumps({"code": code, "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "frozen_before": before, "frozen_after": gc.get_freeze_count(),
                  "collecting_before": before_enabled, "collecting_after": gc.isenabled()}))
"""


def _fresh(code: str, *args: str, **env: str) -> str:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def _probe(argvs) -> dict:
    return json.loads(_fresh(_PROBE, json.dumps(argvs)))


def test_import_ahspringer_loads_no_submodule():
    out = _fresh("import sys, ahspringer\n"
                 "print(sorted(m for m in sys.modules if m.startswith('ahspringer')))")
    assert out.strip() == "['ahspringer']"


def test_scalar_commands_load_neither_numpy_nor_the_suites():
    result = _probe([argv for argv, _ in SCALAR_CALLS])
    assert result["calls"] == [[0, out] for _, out in SCALAR_CALLS]
    assert "numpy" not in result["loaded"]
    assert "ahspringer.suites" not in result["loaded"]


def test_scalar_commands_load_no_dataclasses_inspect_or_fractions():
    rational = [call for call in SCALAR_CALLS if "--rational" in call[0]]
    integral = [call for call in SCALAR_CALLS if call not in rational]
    result = _probe([argv for argv, _ in integral])
    assert result["calls"] == [[0, out] for _, out in integral]
    assert not HEAVY_STDLIB & set(result["loaded"])
    result = _probe([argv for argv, _ in rational])
    assert result["calls"] == [[0, out] for _, out in rational]
    assert HEAVY_STDLIB & set(result["loaded"]) == {"fractions"}


def _matrix_files(tmp_path):
    paths = []
    for name, obj in (("X", X), ("U", U)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj), encoding="utf-8")
    return paths


def test_the_probe_sees_numpy_when_a_command_loads_it(tmp_path):
    x_path, _ = _matrix_files(tmp_path)
    result = _probe([["exp", "--matrix", str(x_path)]])
    assert result["calls"] == [[0, json.dumps(U) + "\n"]]
    assert "numpy" in result["loaded"]
    assert "ahspringer.suites" not in result["loaded"]


def test_exp_and_log_load_none_of_the_samplers(tmp_path):
    x_path, u_path = _matrix_files(tmp_path)
    result = _probe([["exp", "--matrix", str(x_path)], ["log", "--matrix", str(u_path)]])
    assert result["calls"] == [[0, json.dumps(U) + "\n"], [0, json.dumps(X) + "\n"]]
    assert "ahspringer.expmaps" in result["loaded"]
    assert not {f"ahspringer.{m}" for m in NOT_LOADED_BY_EXP_LOG} & set(result["loaded"])


def test_parabolic_eps_loads_what_exp_loads(tmp_path):
    x_path, _ = _matrix_files(tmp_path)
    exp = _probe([["exp", "--matrix", str(x_path)]])
    eps = _probe([["parabolic", "eps", "--comp", "1,1,1", "--matrix", str(x_path)]])
    # X is strictly upper over F_3, so eps_P(X) = 1 + X + 2X^2 = e_3(X) = U
    assert eps["calls"] == [[0, json.dumps(U) + "\n"]]
    assert not {f"ahspringer.{m}" for m in ("groups", "linalg", "rng", "witt", "suites")} & set(eps["loaded"])
    assert set(eps["loaded"]) == set(exp["loaded"]) | {"ahspringer.compositions", "ahspringer.parabolic"}


@pytest.mark.parametrize("argv, code", [
    (["witt", "neg", "--p", "5", "--m", "3", "--vector", "1,0,3"], 0),
    (["witt", "neg", "--p", "4", "--m", "3", "--vector", "1,0,3"], 2),  # 4 is not prime
])
@pytest.mark.parametrize("preset", [None, "3"])
def test_run_sets_one_blas_thread_unless_preset_and_freezes_the_heap(argv, code, preset):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    result = json.loads(_fresh(_RUN, json.dumps(argv), **env))
    assert result["code"] == code
    assert result["threads"] == (preset or "1")
    assert result["frozen_before"] == 0 < result["frozen_after"]
    assert result["collecting_before"] is True and result["collecting_after"] is False


def test_the_script_entry_point_is_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'ahspringer = "ahspringer.cli:run"' in text


def test_main_in_process_leaves_environment_and_freeze_count_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    environ, frozen = dict(os.environ), gc.get_freeze_count()
    x_path, _ = _matrix_files(tmp_path)
    for collecting in (True, False):  # the collector is left as found
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["exp", "--matrix", str(x_path)]) == 0
            assert main(["witt", "neg", "--p", "4", "--m", "3", "--vector", "1,0,3"]) == 2
            assert gc.isenabled() is collecting
        finally:
            gc.enable()
    assert dict(os.environ) == environ
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out == 2 * (json.dumps(U) + "\n")


MATRIX_SUITES = "frobenius-compat,order-preservation,commuting-pairs,equivariance"
PARABOLIC_LAYERS = {"ahspringer.parabolic", "ahspringer.compositions"}


def test_verify_loads_the_parabolic_layers_only_for_eps_parabolic():
    matrix = _probe([["verify", "--suite", MATRIX_SUITES, "--p", "3", "--trials", "1", "--max-dim", "3"]])
    assert matrix["calls"][0][0] == 0
    assert "ahspringer.suites" in matrix["loaded"]
    assert not PARABOLIC_LAYERS & set(matrix["loaded"])
    eps = _probe([["verify", "--suite", "eps-parabolic", "--p", "3", "--trials", "1", "--max-dim", "3"]])
    assert eps["calls"][0][0] == 0
    assert PARABOLIC_LAYERS <= set(eps["loaded"])


FIELDS_SUITES = "ah-integrality,witt-group,witt-hom,one-parameter,frobenius-descent,form-preservation"


def test_verify_structure_loads_no_fractions():
    # the Dynkin oracle's table is summed on integers, so the structure
    # suites build no rational; nor do the field suites, whose integrality
    # check reduces the integer core A_n / n! itself
    for argv in (["--suite", "eps-parabolic,centralizer-equality", "--p", "2,3,5", "--trials", "2"],
                 ["--suite", FIELDS_SUITES, "--trials", "10"]):
        result = _probe([["verify", *argv, "--seed", "42"]])
        assert result["calls"][0][0] == 0
        assert "fractions" not in result["loaded"], argv


# the suite sets of the benchmark's three verify workloads
VERIFY_SETS = {
    "matrix": ["--suite", MATRIX_SUITES, "--p", "2,3,5", "--trials", "4"],
    "structure": ["--suite", "eps-parabolic,centralizer-equality", "--p", "2,3,5", "--trials", "2"],
    "fields": ["--suite", FIELDS_SUITES, "--trials", "10"],
}


@pytest.mark.parametrize("name", sorted(VERIFY_SETS))
def test_verify_loads_no_dataclasses_and_witt_only_for_the_witt_suites(name):
    result = _probe([["verify", *VERIFY_SETS[name], "--seed", "42"]])
    assert result["calls"][0][0] == 0
    assert "dataclasses" not in result["loaded"]
    assert ("ahspringer.witt" in result["loaded"]) == (name == "fields")


def test_integrality_witnesses_print_the_fraction(monkeypatch):
    # every case at p = 5 recorded as failing: each witness's coefficient
    # is the Fraction C_i = A_i / i!, as str() prints it ("num" when i! | A_i)
    from ahspringer.series import ah_rational_coeffs

    check_lanes = suites.Recorder.check_lanes
    monkeypatch.setattr(suites.Recorder, "check_lanes", lambda self, ok, witness: check_lanes(
        self, np.zeros(ok.shape, dtype=bool), witness))
    record = suites.run_suite(suites.SuiteConfig(suites=("ah-integrality",), primes=(5,))).suites[0]
    coefficients = [w for w in record["witnesses"] if "coefficient" in w]
    rational = ah_rational_coeffs(5, suites.INTEGRALITY_DEGREE)
    assert [(w["p"], w["i"]) for w in coefficients] == [(5, i) for i in range(len(rational))]
    assert [w["coefficient"] for w in coefficients] == [str(c) for c in rational]
    assert {"1", "1/2", "1/6"} <= {w["coefficient"] for w in coefficients}


def test_every_public_name_is_its_defining_modules_attribute():
    for name in ahspringer.__all__:
        obj = getattr(ahspringer, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_public_names_are_listed_once():
    assert len(set(ahspringer.__all__)) == len(ahspringer.__all__) == 41


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ahspringer import *", namespace)
    for name in ahspringer.__all__:
        assert namespace[name] is getattr(ahspringer, name), name


def test_dir_lists_every_public_name():
    assert set(ahspringer.__all__) <= set(dir(ahspringer))
    assert "__version__" in dir(ahspringer)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        ahspringer.bogus
    assert not hasattr(ahspringer, "witt_entries_from_string")


def test_verify_help_names_every_suite_in_registry_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "10000")  # one line, so no name is wrapped
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "(known: %s)" % ", ".join(suites.SUITES) in capsys.readouterr().out
