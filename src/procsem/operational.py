"""The third decision pathway: saturate terms, then run plain machinery.

A term is saturated at top level: its summands are closed under the merge
rule licensed by the reduction condition of the chosen linear semantics.
The transitions of the saturated term turn each linear semantics into a
ready-simulation question (a plain-simulation question for traces).
Everything is computed modulo canonical forms, which keeps saturation
finite; a cap on the number of summands bounds it.
"""

from __future__ import annotations

from functools import lru_cache

from .lts import initials, step
from .preorders import Verdict, decide_nsim
from .terms import CanonicalTerm, render_term, sum_terms

__all__ = [
    "SaturationCapError",
    "saturate",
    "step_Z",
    "reachable_Z",
    "decide_via_operational",
    "decide_T_via_operational",
    "deter",
    "check_upto",
    "OPERATIONAL_ZS",
]

# The linear semantics the engine decides, by reduction condition: z -> flavor at I.
OPERATIONAL_ZS = {"F": "lf⊇", "R": "lf", "FT": "l⊇", "RT": "l"}
DEFAULT_SATURATION_CAP = 10_000


class SaturationCapError(RuntimeError):
    def __init__(self, term: CanonicalTerm, cap: int):
        self.term = term
        self.cap = cap
        super().__init__(
            f"saturation of {render_term(term)} exceeded {cap} summands; raise the cap"
        )


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
def saturate(
    z: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP, observer: str = "I"
) -> CanonicalTerm:
    """p's summands closed under the merge rule, as one term.

    The rule picks two same-action summands a.x and a.v, splits v into
    y + w, and, when the condition accepts (x, y, w), adds the summand
    a.(x+y).  A rewrite reads only the two summands it merges, so every
    term that top-level merge rewrites reach from p is a sum of these
    summands, and together they have exactly this term's transitions.
    Each summand is merged with every earlier one in both roles (merged
    with itself it gives itself back).  The cap counts summands.
    """
    cond = _condition(z, observer)
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
    z: str, p: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP, observer: str = "I"
) -> tuple[tuple[str, CanonicalTerm], ...]:
    """Transitions available after any saturation rewrite; a superset of
    the plain transitions with the same initial actions."""
    return step(saturate(z, p, cap, observer))


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
    linear semantics named by z.  A negative verdict's witness is the
    refutation of that game, over the saturated transitions on both sides."""
    return decide_nsim("I", p, q, _stepper(z, cap, observer))


def decide_T_via_operational(
    p: CanonicalTerm, q: CanonicalTerm, cap: int = DEFAULT_SATURATION_CAP
) -> Verdict:
    """Plain simulation over the failures-saturated system decides traces."""
    return decide_nsim("U", p, q, _stepper("F", cap, "I"))


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
