"""The import graph: ``import procsem`` loads the decide core, and the engine
modules load on first use.  Each check runs in a fresh interpreter."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import procsem

ENGINES = {"procsem.logic", "procsem.axioms", "procsem.operational", "procsem.corpus"}
WATCHED = ENGINES | {"procsem.cli", "dataclasses"}
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
assert procsem.logic.sat.cache_info().currsize > 0
before = set(sys.modules)
procsem.clear_caches()
assert procsem.logic.sat.cache_info().currsize == 0
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
