"""Deciders for the full spectrum of strong process semantics over BCCSP.

Three independent engines (memoized simulation games with decorated-trace
scans, observation-set comparison, saturated-transition games) decide every
preorder and equivalence of the extended linear time-branching time spectrum
for finite terms, with modal sublogic checking, distinguishing-formula
synthesis and axiom verification on top.

``import procsem`` loads only the decide core: ``terms``, ``lts``,
``constraints``, ``observations``, ``spectrum`` and ``preorders``.  The
engine modules ``logic``, ``axioms`` and ``operational`` load on first use,
as ``procsem.logic`` or ``from procsem import axioms``.
"""

import importlib
import sys

from . import constraints, lts, observations, preorders, spectrum, terms
from .preorders import Verdict, decide, spectrum_matrix
from .spectrum import SemanticsId, parse_semantics, supported_ids
from .terms import CanonicalTerm, canonicalize, parse_term, render_term

__all__ = [
    "axioms",
    "constraints",
    "logic",
    "lts",
    "observations",
    "operational",
    "preorders",
    "spectrum",
    "terms",
    "Verdict",
    "decide",
    "spectrum_matrix",
    "SemanticsId",
    "parse_semantics",
    "supported_ids",
    "CanonicalTerm",
    "canonicalize",
    "parse_term",
    "render_term",
    "clear_caches",
]

_ENGINES = ("axioms", "logic", "operational")


def __getattr__(name: str):
    if name in _ENGINES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_caches() -> None:
    """Empty every lru cache of the loaded procsem modules, and with them the
    game memos they hold; a module not yet loaded has nothing to clear.  The
    intern tables stay: equality is object identity, so a term, branching
    observation or formula built after clearing must be the one built before."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

__version__ = "0.1.0"
