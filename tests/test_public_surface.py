"""The package carries its modules and errors only, every exported name has
a caller in the package, and every error is one of two kinds.

`import packetlab` gives the six modules, errors and the four error classes,
so each library name has one home, its module. A name in a module's __all__
must be referenced somewhere in src/packetlab outside its own definition.
Only the oracles below are exported for the tests alone; every other
reference implementation lives in tests/oracles.py.

Bad input raises DomainError and exits 1; a numerical failure raises
NumericalError and exits 2. No other class is raised, so no raise site
chooses between two names for one exit code.
"""

import ast
import io
import os
import pathlib
import subprocess
import sys

import pytest

import packetlab
from packetlab import cli
from packetlab.errors import DomainError, NumericalError

SRC = pathlib.Path(packetlab.__file__).parent

# name -> why it is exported although no code in the package calls it
ORACLES = {
    "thinned_count_distribution": "brute-force fold that acceptance test 11 compares "
    "the closed-form count laws with",
    "sample_counts": "count sampler the acceptance tests call",
    "lhv_expectation": "hidden-variable correlation E(a, b) that the tests check "
    "lhv_chsh_audit's shared response tables against",
}


MODULES = ["actionprob", "configspace", "numkit", "quantstat", "spincorr", "wavepacket"]
ERRORS = ["AccuracyWarning", "DomainError", "NumericalError", "PacketLabError"]


def test_package_exports_its_modules_and_errors_only():
    # a fresh interpreter, so no submodule another test imported shows up
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import packetlab; print(*sorted(n for n in vars(packetlab) if n[0] != '_'))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    assert out.split() == sorted(MODULES + ["errors"] + ERRORS)


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _references(trees: dict, name: str, home) -> int:
    # nodes inside the name's own top-level def or class are not callers
    own = {
        id(n)
        for node in home.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        for n in ast.walk(node)
    }
    count = 0
    for tree in trees.values():
        for n in ast.walk(tree):
            if id(n) in own:
                continue
            if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load):
                count += 1
            elif isinstance(n, ast.Attribute) and n.attr == name:
                count += 1
    return count


def test_every_export_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    uncalled = [
        f"{module}:{name}"
        for module, tree in sorted(trees.items())
        for name in _exports(tree)
        if name not in ORACLES and _references(trees, name, tree) == 0
    ]
    assert uncalled == []


def test_oracles_are_still_exported():
    # a stale allow-list entry would hide nothing, but it would mislead
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")]
    exported = {name for tree in trees for name in _exports(tree)}
    assert set(ORACLES) <= exported


def _raised(tree):
    """(enclosing top-level def, class name) of every raise in the tree."""
    for top in tree.body:
        for n in ast.walk(top):
            if isinstance(n, ast.Raise) and n.exc is not None:  # not a re-raise
                yield getattr(top, "name", None), n.exc.func.id


def test_errors_defines_the_taxonomy_only():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    assert classes == ["PacketLabError", "DomainError", "NumericalError", "AccuracyWarning"]


def test_every_raise_is_bad_input_or_a_numerical_failure():
    others = [
        (path.name, where, name)
        for path in sorted(SRC.glob("*.py"))
        for where, name in _raised(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ("DomainError", "NumericalError")
    ]
    # a value of a type no record holds is a bug in the program, not bad input
    assert others == [("cli.py", "_render_json", "TypeError")]


@pytest.mark.parametrize("error, code", [(DomainError, 1), (NumericalError, 2)])
def test_run_maps_each_kind_to_its_exit_code(monkeypatch, error, code):
    def handler(params):
        raise error("x")

    command = cli._COMMANDS["vonlaue"]
    monkeypatch.setitem(cli._COMMANDS, "vonlaue", command._replace(handler=handler))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["vonlaue"], stdout=out, stderr=err) == code
    assert (out.getvalue(), err.getvalue()) == ("", "error: x\n")
