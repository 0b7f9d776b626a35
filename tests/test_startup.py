"""numpy loads on first use: the exact commands start and run without it.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import periloc
import periloc.simulate
from periloc.construct import construct_invariant
from periloc.density import step_law
from periloc.jsonio import dumps_canonical, law_to_obj, path_to_obj

SRC = str(Path(periloc.__file__).resolve().parent.parent)

# argv: mode ("block" makes numpy unimportable, "plain" leaves it), then a JSON
# list of command lines; prints whether numpy was loaded before and after the
# commands ran, and each command's exit code and stdout
CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import periloc.cli
loaded = lambda: sys.modules.get("numpy") is not None
before = loaded()
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = periloc.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"before": before, "after": loaded(), "runs": runs}))
"""

E1T_LAW = step_law(F(1, 2), (0, F(3, 10), F(1, 2)), (2, 1), atom0=F(1, 10), atomT=F(1, 10))
# constant 4/3 on (0, 3/4): passes the variation check, outside the hull
FOUR_THIRDS = step_law(F(1), (0, F(3, 4), 1), (F(4, 3), 0))
EMT_LAW = step_law(F(2, 5), (0, F(1, 5), F(2, 5)), (3, 1), atom0=F(1, 20), atomInf=F(3, 20))


def _python(*argv, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=False
    )


def _child(mode, commands, cwd):
    proc = _python("-c", CHILD, mode, json.dumps(commands), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def inputs(tmp_path):
    """Law, path and mixing-problem files in tmp_path, by name."""
    ramp = law_to_obj(step_law(F(3, 5), (0, F(1, 2), F(3, 5)), (0, 0), atom0=1))
    ramp["density"]["segments"][0] = {"p": "2", "q": "-4"}
    ramp["atoms"]["zero"] = "1/2"
    files = {
        "e1t.json": law_to_obj(E1T_LAW),
        "four_thirds.json": law_to_obj(FOUR_THIRDS),
        "emt.json": law_to_obj(EMT_LAW),
        "ramp.json": ramp,
        "path.json": path_to_obj(construct_invariant(E1T_LAW)),
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(dumps_canonical(obj))
    return tmp_path


@pytest.mark.parametrize("module", ["periloc", "periloc.cli"])
def test_import_leaves_numpy_out(module, tmp_path):
    proc = _python(
        "-c", f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('numpy')))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


EXACT_COMMANDS = [
    ["check", "e1t.json", "--class", "E1T"],
    ["check", "four_thirds.json", "--class", "TV"],
    ["check", "four_thirds.json", "--class", "hull"],
    ["decompose", "e1t.json"],
    ["construct", "e1t.json", "--kind", "invariant"],
    ["construct", "emt.json", "--kind", "first-time"],
    ["bound", "--t", "1/5", "--T", "1/2"],
    ["mix", "ramp.json", "--method", "oracle", "--n", "6"],
    ["mix", "ramp.json", "--method", "convex"],
]


def test_exact_commands_run_without_numpy(inputs):
    blocked = _child("block", EXACT_COMMANDS, inputs)
    plain = _child("plain", EXACT_COMMANDS, inputs)
    assert not plain["after"]
    for argv, got, want in zip(EXACT_COMMANDS, blocked["runs"], plain["runs"]):
        assert got == want, argv
    # the commands reach both verdicts, not only the member one
    assert [code for code, _ in plain["runs"]] == [0, 0, 1, 0, 0, 0, 0, 0, 0]


FLOAT_COMMANDS = [
    ["simulate", "path.json", "--locator", "sup", "--T", "1/2", "--grid", "4000"],
    ["verify", "path.json", "--locator", "sup", "--T", "1/2", "--grid", "4000", "--target", "e1t.json"],
    ["mix", "ramp.json", "--method", "search", "--n", "8"],
]


@pytest.mark.parametrize("argv", FLOAT_COMMANDS, ids=lambda argv: argv[0])
def test_float_commands_load_numpy(argv, inputs):
    result = _child("plain", [argv], inputs)
    assert not result["before"] and result["after"]
    [(code, out)] = result["runs"]
    assert code == 0 and json.loads(out)


class TestPackageForwarding:
    """The package reads the float engines' names from `simulate` on each access."""

    NAMES = ("EmpiricalLaw", "compare", "mc_law", "sweep_law")

    @pytest.mark.parametrize("name", NAMES)
    def test_same_object(self, name):
        assert getattr(periloc, name) is getattr(periloc.simulate, name)

    def test_follows_rebinding(self, monkeypatch):
        # the bench tracer wraps `simulate.sweep_law` in place and undoes it later
        original = periloc.simulate.sweep_law

        def wrapper(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(periloc.simulate, "sweep_law", wrapper)
        assert periloc.sweep_law is wrapper
        monkeypatch.undo()
        assert periloc.sweep_law is original
        assert "sweep_law" not in vars(periloc)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from periloc import *", namespace)
        assert set(periloc.__all__) <= set(namespace)
        assert set(periloc.__all__) <= set(dir(periloc))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'periloc'"):
            periloc.nope
