"""Start-up cost guards: ``import ahspringer`` loads no submodule, its
public names resolve on first use, and the scalar commands (``ah-coeffs``,
``witt``) run without loading numpy or the suites."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ahspringer
from ahspringer import suites
from ahspringer.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

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
]

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
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("ahspringer"))
print(json.dumps({"calls": calls, "loaded": loaded}))
"""


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
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


def test_the_probe_sees_numpy_when_a_command_loads_it():
    # parabolic class still goes through the numpy-backed parabolic module
    result = _probe([["parabolic", "class", "--comp", "2,1"]])
    assert result["calls"] == [[0, "1\n"]]
    assert "numpy" in result["loaded"]
    assert "ahspringer.suites" not in result["loaded"]


def test_every_public_name_is_its_defining_modules_attribute():
    for name in ahspringer.__all__:
        obj = getattr(ahspringer, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_public_names_are_listed_once():
    assert len(set(ahspringer.__all__)) == len(ahspringer.__all__) == 42


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
