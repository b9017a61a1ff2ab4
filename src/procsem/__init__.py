"""Deciders for the full spectrum of strong process semantics over BCCSP.

Three independent engines (memoized simulation games with decorated-trace
scans, observation-set comparison, saturated-transition games) decide every
preorder and equivalence of the extended linear time-branching time spectrum
for finite terms, with modal sublogic checking, distinguishing-formula
synthesis and axiom verification on top.
"""

from . import axioms, constraints, logic, lts, observations, operational, preorders, spectrum, terms
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
]

__version__ = "0.1.0"
