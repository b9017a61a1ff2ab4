"""The third decision pathway: N-constrained simulation up to
M-saturation for every semantics axiomatized by the choice, simulation and
reduction axioms.

``rule(sem)`` reads (N, M) from ``spectrum.REDUCTIONS``, the table the
axiom catalogs are built from: B1-B4, one simulation axiom with constraint N
and one reduction axiom ND with condition M.  A term is saturated at top
level: its summands are closed under the merge rule M licenses.  The game
plays p's own moves and answers each with a move of q's saturation, so only
the simulator's terms are ever saturated.  Everything is computed modulo
canonical forms, which keeps saturation finite; a cap on the number of
summands bounds it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Callable

from .constraints import LAYERS
from .lts import step
from .observations import TruncationError
from .preorders import Verdict, decide_nsim
from .spectrum import REDUCTIONS, SemanticsId, UncoveredSemanticsError, parse_semantics
from .terms import CanonicalTerm, render_term, sum_terms

__all__ = [
    "CONDITIONS",
    "SaturationCapError",
    "rule",
    "saturate",
    "step_Z",
    "decide_via_operational",
    "deter",
]

DEFAULT_SATURATION_CAP = 10_000


class SaturationCapError(TruncationError):
    def __init__(self, term: CanonicalTerm, cap: int):
        self.term = term
        super().__init__(
            f"saturation of {render_term(term)} exceeded {cap} summands; raise the cap", cap
        )


# The reduction conditions M(x, y, w) of ``spectrum.REDUCTIONS`` on closed
# terms: a.x and a.(y + w) merge into a.(x + y) when M accepts (x, y, w).  The
# axiom schemas spell w as Z, as the term grammar reserves X-Z for variables.
# They are the six merge rules of de Frutos-Escrig, Gregorio-Rodríguez and
# Palomino ("Ready to preorder", CALCO 2007) over one layer's (eq, geq),
# lifted to terms; F reads no value.  Layer I names them M_…, layer T M_T-….
_MERGE_RULES = {
    "F": lambda eq, geq: lambda x, y, w: True,
    "R": lambda eq, geq: lambda x, y, w: geq(x, y),
    "FT": lambda eq, geq: lambda x, y, w: geq(y, w),
    "RT": lambda eq, geq: lambda x, y, w: eq(x, y) and geq(y, w),
    "R∧FT": lambda eq, geq: lambda x, y, w: geq(x, y) and geq(y, w),
    "R∨FT": lambda eq, geq: lambda x, y, w: geq(x, y) or geq(y, w),
}


def _lifted(layer) -> tuple[Callable, Callable]:
    """(eq, geq) of `layer`, on the terms whose values they compare."""
    value, eq, geq = layer.value, layer.eq, layer.geq
    return lambda x, y: eq(value(x), value(y)), lambda x, y: geq(value(x), value(y))


CONDITIONS: dict[str, Callable[[CanonicalTerm, CanonicalTerm, CanonicalTerm], bool]] = {
    prefix + name: merge(*_lifted(LAYERS[n]))
    for n, prefix in (("I", "M_"), ("T", "M_T-"))
    for name, merge in _MERGE_RULES.items()
}


def rule(sem: SemanticsId | str) -> tuple[str, str]:
    """(N, M) for sem, from ``spectrum.REDUCTIONS``: the constraint of its
    simulation axiom and the ``CONDITIONS`` name of its reduction axiom.
    Raises UncoveredSemanticsError for a semantics not in the table."""
    if isinstance(sem, str):
        sem = parse_semantics(sem)
    try:
        return REDUCTIONS[sem]
    except KeyError:
        raise UncoveredSemanticsError(f"operational engine does not cover {sem}") from None


def saturate(condition: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP) -> CanonicalTerm:
    """p's summands closed under the merge rule of ``CONDITIONS[condition]``,
    as one term.  Each (condition, p) closure is computed once, whatever the
    cap; a later call raises when the kept closure grew past its cap, as
    computing it again would.

    The rule picks two same-action summands a.x and a.v, splits v into
    y + w, and, when the condition accepts (x, y, w), adds the summand
    a.(x+y).  A rewrite reads only the two summands it merges, so every
    term that top-level merge rewrites reach from p is a sum of these
    summands, and together they have exactly this term's transitions.
    Each summand is merged with every earlier one in both roles (merged
    with itself it gives itself back).  The cap counts summands.
    """
    known = _closures(condition)
    closure = known.get(p)
    if closure is None:
        closure = known[p] = _saturate(condition, p, cap)
    elif len(closure.summands) > max(cap, len(p.summands)):
        raise SaturationCapError(p, cap)
    return closure


@lru_cache(maxsize=None)
def _closures(condition: str) -> dict[CanonicalTerm, CanonicalTerm]:
    """The saturations computed under one condition, by term."""
    return {}


def _saturate(condition: str, p: CanonicalTerm, cap: int) -> CanonicalTerm:
    cond = CONDITIONS[condition]
    closure = list(p.summands)
    seen = set(closure)
    for i, new in enumerate(closure):  # also visits the summands appended below
        for old in closure[:i]:
            if new[0] != old[0]:
                continue
            for (a, x), (_, v) in ((new, old), (old, new)):
                for y, w in _splits(v):
                    summand = (a, sum_terms(x, y))
                    if summand in seen or not cond(x, y, w):
                        continue
                    if len(closure) >= cap:
                        raise SaturationCapError(p, cap)
                    seen.add(summand)
                    closure.append(summand)
    return CanonicalTerm(tuple(sorted(closure)))


@lru_cache(maxsize=None)
def _splits(t: CanonicalTerm):
    summands = t.summands
    out = []
    for mask in range(1 << len(summands)):
        inside = tuple(s for i, s in enumerate(summands) if mask >> i & 1)
        outside = tuple(s for i, s in enumerate(summands) if not mask >> i & 1)
        out.append((CanonicalTerm(inside), CanonicalTerm(outside)))
    return tuple(out)


def step_Z(
    condition: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP
) -> tuple[tuple[str, CanonicalTerm], ...]:
    """Transitions available after any saturation rewrite; a superset of
    the plain transitions with the same initial actions."""
    return step(saturate(condition, p, cap))


@lru_cache(maxsize=None)
def _stepper(condition: str, cap: int):
    """One saturated transition relation per (condition, cap): every
    semantics with that reduction condition shares its game memo."""
    return lambda t: step_Z(condition, t, cap)


def decide_via_operational(
    sem: SemanticsId | str,
    p: CanonicalTerm,
    q: CanonicalTerm,
    cap: int | None = None,
) -> Verdict:
    """The N-constrained simulation up to M-saturation, (N, M) =
    ``rule(sem)``: p moves by ``step`` and q answers by ``step_Z``, so the
    cap (None: ``DEFAULT_SATURATION_CAP``) bounds q's saturations only.  A
    negative verdict's witness is the refutation of that game and replays
    the same way."""
    n, condition = rule(sem)
    return decide_nsim(n, p, q, _stepper(condition, DEFAULT_SATURATION_CAP if cap is None else cap))


@lru_cache(maxsize=None)
def deter(p: CanonicalTerm) -> CanonicalTerm:
    """The deterministic form: merge all same-action derivatives, recursively.
    Trace-equivalent to p, and above p in every semantics at or below traces."""
    return CanonicalTerm(
        tuple((a, deter(sum_terms(*(q for _, q in moves)))) for a, moves in groupby(step(p), itemgetter(0)))
    )

