"""The third decision pathway: saturate terms, then run plain machinery.

A term is rewritten at top level by adding merged summands licensed by the
reduction condition of the chosen linear semantics; the transition relation
taken after saturation turns each linear semantics into a ready-simulation
question (a plain-simulation question for traces).  Everything is computed
modulo canonical forms, which keeps saturation finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .constraints import simulates
from .lts import initials, step
from .preorders import HOLDS, Verdict
from .terms import CanonicalTerm, prefix, render_term, sum_terms

__all__ = [
    "SaturationCapError",
    "SaturatedState",
    "nd_saturate",
    "step_Z",
    "reachable_Z",
    "decide_via_operational",
    "decide_T_via_operational",
    "deter",
    "check_upto",
    "OPERATIONAL_ZS",
]

OPERATIONAL_ZS = ("F", "R", "FT", "RT")
DEFAULT_SATURATION_CAP = 10_000


class SaturationCapError(RuntimeError):
    def __init__(self, term: CanonicalTerm, cap: int):
        self.term = term
        self.cap = cap
        super().__init__(
            f"saturation of {render_term(term)} exceeded {cap} states; raise the cap"
        )


@dataclass(frozen=True)
class SaturatedState:
    base: CanonicalTerm
    saturation: frozenset[CanonicalTerm]


def _condition(z: str, observer: str):
    from .axioms import CONDITIONS

    if z not in OPERATIONAL_ZS:
        raise ValueError(f"operational engine covers F, R, FT, RT; got {z!r}")
    if observer == "I":
        return CONDITIONS["M_" + z]
    if observer == "T":
        # experimental trace-observer variant; finite terms only
        return CONDITIONS["M_T-" + z]
    raise ValueError(f"unknown observer {observer!r}")


@lru_cache(maxsize=None)
def nd_saturate(
    z: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP, observer: str = "I"
) -> SaturatedState:
    """Least set of terms reachable from p by top-level merge rewrites.

    A rewrite picks two same-action summands a.x and a.(y+w), splits the
    second body, and, when the condition accepts (x, y, w), adds the summand
    a.(x+y).  Closing under reflexivity/transitivity is the worklist loop.
    A merged summand that t already has, or that an earlier rewrite of t
    added, would only rebuild a term already seen, so it is skipped first.
    """
    cond = _condition(z, observer)
    seen = {p}
    work = [p]
    while work:
        t = work.pop()
        merged = set(t.summands)
        for a, x in t.summands:
            for b, other in t.summands:
                if b != a:
                    continue
                for y, w in _splits(other):
                    summand = (a, sum_terms(x, y))
                    if summand in merged or not cond(x, y, w):
                        continue
                    merged.add(summand)
                    new = sum_terms(t, prefix(*summand))
                    if new not in seen:
                        if len(seen) >= cap:
                            raise SaturationCapError(p, cap)
                        seen.add(new)
                        work.append(new)
    return SaturatedState(p, frozenset(seen))


@lru_cache(maxsize=None)
def _splits(t: CanonicalTerm):
    summands = t.summands
    out = []
    for mask in range(1 << len(summands)):
        inside = tuple(s for i, s in enumerate(summands) if mask >> i & 1)
        outside = tuple(s for i, s in enumerate(summands) if not mask >> i & 1)
        out.append((CanonicalTerm(inside), CanonicalTerm(outside)))
    return tuple(out)


@lru_cache(maxsize=None)
def step_Z(
    z: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP, observer: str = "I"
) -> tuple[tuple[str, CanonicalTerm], ...]:
    """Transitions available after any saturation rewrite; a superset of
    the plain transitions with the same initial actions."""
    out = set()
    for member in nd_saturate(z, p, cap, observer).saturation:
        out.update(step(member))
    return tuple(sorted(out))


def reachable_Z(z: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP, observer: str = "I"):
    seen: dict[CanonicalTerm, None] = {}

    def walk(t: CanonicalTerm) -> None:
        if t in seen:
            return
        seen[t] = None
        for _, q in step_Z(z, t, cap, observer):
            walk(q)

    walk(p)
    return tuple(seen)


@lru_cache(maxsize=None)
def _stepper(z: str, cap: int, observer: str):
    """One saturated transition relation per (z, cap, observer): decisions share its game memo."""
    _condition(z, observer)  # reject an unknown z or observer before any game
    return lambda t: step_Z(z, t, cap, observer)


def decide_via_operational(
    z: str,
    p: CanonicalTerm,
    q: CanonicalTerm,
    cap: int = DEFAULT_SATURATION_CAP,
    observer: str = "I",
) -> Verdict:
    """Ready simulation over the saturated transition system decides the
    linear semantics named by z."""
    holds = simulates("I", p, q, _stepper(z, cap, observer))
    return HOLDS if holds else Verdict(False, {"kind": "operational", "z": z})


def decide_T_via_operational(
    p: CanonicalTerm, q: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP
) -> Verdict:
    """Plain simulation over the failures-saturated system decides traces."""
    holds = simulates("U", p, q, _stepper("F", cap, "I"))
    return HOLDS if holds else Verdict(False, {"kind": "operational", "z": "T"})


@lru_cache(maxsize=None)
def deter(p: CanonicalTerm) -> CanonicalTerm:
    """The deterministic form: merge all same-action derivatives, recursively.
    Trace-equivalent to p, and above p in every semantics at or below traces."""
    by_action: dict[str, list[CanonicalTerm]] = {}
    for a, q in p.summands:
        by_action.setdefault(a, []).append(q)
    return CanonicalTerm(
        tuple(
            sorted(
                (a, deter(sum_terms(*bodies)))
                for a, bodies in by_action.items()
            )
        )
    )


def check_upto(
    constraint: str,
    z: str,
    p: CanonicalTerm,
    q: CanonicalTerm,
    cap: int = DEFAULT_SATURATION_CAP,
) -> bool:
    """Local simulation up-to: the simulator answers plain moves of p after
    first rewriting inside its own saturation.  Coincides with the saturated
    ready-simulation game, hence with the linear semantics z."""
    if constraint != "I":
        raise ValueError("local simulations up-to are defined for the offer constraint")

    @lru_cache(maxsize=None)
    def rel(x: CanonicalTerm, y: CanonicalTerm) -> bool:
        if initials(x) != initials(y):
            return False
        responses = step_Z(z, y, cap, "I")
        for a, x2 in step(x):
            if not any(b == a and rel(x2, y2) for b, y2 in responses):
                return False
        return True

    return rel(p, q)
