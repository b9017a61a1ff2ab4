"""The import graph: ``import procsem`` loads the decide core, and the engine
modules load on first use.  Each check runs in a fresh interpreter."""

import ast
import importlib
import os
import re
import pkgutil
import subprocess
import sys
from pathlib import Path

import procsem

ENGINES = {"procsem.logic", "procsem.axioms", "procsem.operational", "procsem.corpus"}
WATCHED = ENGINES | {"procsem.cli", "procsem.observations", "dataclasses"}
ENV = dict(os.environ, PYTHONPATH=str(Path(procsem.__file__).parents[1]))


def python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60
    )


def test_import_loads_only_the_decide_core():
    for statement in ("import procsem", "from procsem.terms import parse_term"):
        proc = python(
            "-c", f"import sys\n{statement}\nprint(sorted(set(sys.modules) & {WATCHED!r}))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", statement


def test_engine_modules_load_no_dataclasses():
    for module in sorted(ENGINES):
        proc = python(
            "-c", f"import sys\nimport {module}\nprint(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_engines_load_on_first_use_and_clear():
    script = """
import sys
import procsem
from procsem.terms import canonicalize, parse_term

p = canonicalize(parse_term("a.(b.0+c.0)"))
assert procsem.logic.sat(p, procsem.logic.parse_formula("<a>(<b>T & <c>T)"))
assert procsem.logic._sat_game()[1]
before = set(sys.modules)
procsem.clear_caches()
assert not procsem.logic._sat_game()[1]
assert set(sys.modules) == before, set(sys.modules) - before
assert "procsem.axioms" not in sys.modules
from procsem import axioms
assert axioms is sys.modules["procsem.axioms"]
from procsem import *
assert operational is sys.modules["procsem.operational"]
print("ok")
"""
    proc = python("-c", script)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_import_builds_no_game():
    # the table of the game each id reads is built at import; it names the
    # games, and no reader or game is built until a cell first asks
    script = """
from procsem import preorders
assert len(preorders._SOURCES) == 56
print(preorders._reader.cache_info().currsize, preorders._lin_game.cache_info().currsize)
"""
    proc = python("-c", script)
    assert proc.returncode == 0 and proc.stdout == "0 0\n", proc.stderr


def test_sources_parse_as_the_declared_python():
    # pyproject.toml declares the oldest Python procsem runs on, so no module
    # may use a later grammar, nor any test module: the test oracles run there
    root = Path(procsem.__file__).parent
    declared = (root.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', declared).groups())
    modules = sorted(root.rglob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) > 10 and len(tests) > 10
    for path in modules + tests:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))


def test_every_exported_name_resolves():
    # tools that wrap each public function look every __all__ name up, so a
    # stale entry left behind by a deletion breaks them
    modules = [procsem]
    modules += (importlib.import_module(f"procsem.{m.name}") for m in pkgutil.iter_modules(procsem.__path__))
    assert len(modules) >= 12
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def imported_by(*argv) -> set[str]:
    """Every module the command imports, read from -X importtime."""
    proc = python("-X", "importtime", "-m", "procsem.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_direct_compare_and_spectrum_load_no_engine():
    for argv in (
        ("compare", "--semantics", "F", "a.(b.0+c.0)", "a.b.0+a.c.0"),
        ("spectrum", "a.b.0", "a.b.0"),
    ):
        modules = imported_by(*argv)
        assert "procsem.preorders" in modules, argv
        assert not modules & ENGINES, (argv, modules & ENGINES)
        assert "dataclasses" not in modules, argv


def test_operational_compare_loads_no_axioms():
    # the operational engine reads (N, M) from spectrum.REDUCTIONS, not from
    # the axiom catalogs
    modules = imported_by(
        "compare", "--engine", "operational", "--semantics", "F", "a.(b.0+c.0)", "a.b.0+a.c.0"
    )
    assert "procsem.operational" in modules
    assert "procsem.axioms" not in modules


def test_only_the_listed_functions_recurse():
    # terms, formulas and observations of any depth take no recursion: no
    # function of procsem calls itself by name but these; shrink the list
    # when one stops
    allowed = {
        "axioms._instance",  # schema terms, three levels deep
        "axioms._steps",  # derivations, ROADMAP item 10
        "cli._named",  # JSON payloads, a few levels deep
        "cli._pretty",  # JSON payloads, a few levels deep
        "logic._build_separator",  # join refutes one part, one level down
        "lts.traces",  # ROADMAP item 15
        "observations._enum_branching",  # capped by --max-nodes
        "observations.extend",  # capped by --max-nodes
    }
    root = Path(procsem.__file__).parent
    found = set()
    for path in sorted(root.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == fn.name
                for call in ast.walk(fn)
            ):
                found.add(f"{path.stem}.{fn.name}")
    assert found == allowed, found
