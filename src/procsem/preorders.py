"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders, the extended-ready family included: one scan over
  per-term indexes of decorated traces, under the flavor's rule from a
  table, that stops at the least unmatched decorated trace,
* the exotic deciders: deterministic branching and final-ready/final-failure
  branching (a coverage game on the same driver).

Negative verdicts carry replayable witnesses: a refutation tree for
simulations, the least unmatched decorated trace for linear flavors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .constraints import (
    LABEL_RELATIONS,
    constraint_holds,
    local_key,
    local_obs,
    simulates,
    solve_game,
)
from .lts import initials, reachable, step, successors
from .observations import (
    BranchingObs,
    LinearObs,
    TruncationError,
    bgo_member,
    enum_complete_dbgo,
    enum_lgo,
)
from .spectrum import SemanticsId, classic_name, supported_ids
from .terms import CanonicalTerm, render_term

__all__ = [
    "Verdict",
    "decide",
    "decide_bisim",
    "decide_nsim",
    "decide_linear",
    "decide_db",
    "decide_final_ready_sim",
    "decide_final_failure_sim",
    "decide_extended",
    "linear_holds",
    "holds",
    "spectrum_matrix",
    "matrix_json",
    "sim_leq",
    "nsim_holds",
    "nsim_table",
    "lgo_json",
    "DEFAULT_WORLD_CAP",
]

DEFAULT_WORLD_CAP = 1 << 16


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self):
        return {"holds": self.holds, "witness": _witness_json(self.witness)}


def _witness_json(w):
    if w is None or isinstance(w, (str, int, bool)):
        return w
    if isinstance(w, dict):
        return {k: _witness_json(v) for k, v in w.items()}
    if isinstance(w, (list, tuple)):
        return [_witness_json(v) for v in w]
    if isinstance(w, CanonicalTerm):
        return render_term(w)
    if isinstance(w, LinearObs):
        return lgo_json(w)
    if isinstance(w, BranchingObs):
        return repr(w)
    if isinstance(w, frozenset):
        return sorted(_witness_json(v) for v in w)
    return repr(w)


def lgo_json(obs: LinearObs):
    """Flat JSON rendering of a decorated trace."""
    out = [_witness_json(_label_payload(obs.head))]
    for a, l in obs.steps:
        out.append(a)
        out.append(_witness_json(_label_payload(l)))
    return out


def _label_payload(label):
    if label.constraint == "U":
        return "·"
    if label.constraint == "T":
        return sorted("".join(t) for t in label.value)
    return label.value


# ---------------------------------------------------------------------------
# Constrained simulations


def greatest_simulation(
    states: tuple[CanonicalTerm, ...],
    constraint: str | None,
    stepper=step,
) -> dict[CanonicalTerm, set[CanonicalTerm]]:
    """Greatest simulation over `states` whose pairs satisfy the constraint.

    Returns the map p -> {q : p related to q}, read off the simulation game
    with `stepper` as the transition relation; no constraint means the plain
    simulation.
    """
    constraint = constraint or "U"
    return {p: {q for q in states if simulates(constraint, p, q, stepper)} for p in states}


def nsim_table(terms: Iterable[CanonicalTerm], constraint: str) -> dict[CanonicalTerm, set[CanonicalTerm]]:
    """Greatest N-constrained simulation over the union of reachable states."""
    return greatest_simulation(tuple(dict.fromkeys(s for t in terms for s in reachable(t))), constraint)


def nsim_holds(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    return simulates(constraint, p, q)


def sim_leq(p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Plain (unconstrained) simulation order, used for the S constraint."""
    return simulates("U", p, q)


def _sim_refutation(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """Replayable refutation tree for a failed constrained simulation."""
    if not constraint_holds(constraint, p, q):
        return {
            "kind": "constraint",
            "constraint": constraint,
            "p": p,
            "q": q,
        }
    for a, p2 in step(p):
        responses = [q2 for b, q2 in step(q) if b == a]
        if all(not simulates(constraint, p2, q2) for q2 in responses):
            return {
                "kind": "move",
                "action": a,
                "p": p,
                "q": q,
                "after_p": p2,
                "responses": [_sim_refutation(constraint, p2, q2) for q2 in responses],
            }
    raise AssertionError("refutation requested for a holding pair")


def decide_nsim(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    if simulates(constraint, p, q):
        return Verdict(True)
    return Verdict(False, _sim_refutation(constraint, p, q))


def decide_bisim(p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Bisimilarity; on canonical forms this is identity (the choice axioms
    are a complete axiomatization of bisimilarity for finite terms)."""
    if p is q:
        return Verdict(True)
    return Verdict(False, _bisim_refutation(p, q))


def _bisim_refutation(p: CanonicalTerm, q: CanonicalTerm) -> dict:
    for a, p2 in step(p):
        responses = [q2 for b, q2 in step(q) if b == a]
        if all(p2 is not q2 for q2 in responses):
            return {
                "kind": "move",
                "side": "left",
                "action": a,
                "p": p,
                "q": q,
                "after_p": p2,
                "responses": [_bisim_refutation(p2, q2) for q2 in responses],
            }
    for a, q2 in step(q):
        responses = [p2 for b, p2 in step(p) if b == a]
        if all(q2 is not p2 for p2 in responses):
            return {
                "kind": "move",
                "side": "right",
                "action": a,
                "p": p,
                "q": q,
                "after_p": q2,
                "responses": [_bisim_refutation(p2, q2) for p2 in responses],
            }
    raise AssertionError("refutation requested for bisimilar terms")


# ---------------------------------------------------------------------------
# Linear flavors


@lru_cache(maxsize=None)
def _lgo_index(constraint: str, p: CanonicalTerm) -> dict:
    """trace -> (entries, value tuples, final values), traces in (len, trace) order.

    An entry pairs a decorated trace with the tuple of its raw label values;
    entries run in label-key order, so the first unmatched entry a scan meets
    is the least one by ``LinearObs.sort_key``.
    """
    by_trace: dict[tuple, list] = {}
    for obs in enum_lgo(constraint, p):
        labels = obs.labels()
        by_trace.setdefault(obs.trace(), []).append(
            (tuple(local_key(l) for l in labels), obs, tuple(l.value for l in labels))
        )
    index = {}
    for trace in sorted(by_trace, key=lambda t: (len(t), t)):
        entries = tuple((obs, xs) for _, obs, xs in sorted(by_trace[trace], key=operator.itemgetter(0)))
        values = frozenset(xs for _, xs in entries)
        index[trace] = (entries, values, frozenset(xs[-1] for xs in values))
    return index


# flavor -> (relation on every label before the last, or None when only the
# final label counts; relation on the final label).  A relation compares a
# value of p with a value of q: eq, geq, leq (the converse of geq) or the
# completeness rule; meet is the revivals rule on finals.
_FLAVORS = {
    "l": ("eq", "eq"),
    "l⊇": ("geq", "geq"),
    "l⊆": ("leq", "leq"),
    "join": ("geq", "eq"),
    "lf": (None, "eq"),
    "lf⊇": (None, "geq"),
    "lf⊆": (None, "leq"),
    "meet": (None, "meet"),
}

# The extended-ready family, over offers (constraint I).
_EXTENDED = {
    "ER": _FLAVORS["lf⊆"],
    "ERT": _FLAVORS["l⊆"],
    "ECR": (None, "complete"),
    "ECRT": ("complete", "complete"),
}


def _complete(x, y) -> bool:
    # q's offer must dominate p's, and an empty offer be answered by an empty one
    return not y if not x else y >= x


def _meet_match(geq, x, finals) -> tuple[bool, object]:
    """Meet (revivals-style) matching of the final value x: some final below
    x, and every element of x offered by such a final.  A failure names the
    least element left unoffered, or None when no final lies below x."""
    below = [y for y in finals if geq(x, y)]
    if not below:
        return False, None
    missing = x.difference(*below)
    if not missing:
        return True, None
    return False, min(missing, key=lambda e: (len(e), e) if isinstance(e, tuple) else e)


@lru_cache(maxsize=None)
def _matcher(constraint: str, rule: tuple):
    """matched(x, pool): some value of q in `pool` matches the value x of p
    under `rule`; values are finals if the rule has no prefix relation, else
    tuples of label values.  None where matching is equality of values."""
    eq, geq = LABEL_RELATIONS[constraint]
    prefix, final = rule
    if final == "meet":
        return lambda x, pool: _meet_match(geq, x, pool)[0]
    leq = operator.le if geq is operator.ge else lambda x, y: geq(y, x)
    relations = {"eq": eq, "geq": geq, "leq": leq, "complete": _complete}
    final = relations[final]
    if prefix is None:
        return None if final is operator.eq else lambda x, pool: any(final(x, y) for y in pool)
    prefix = relations[prefix]
    if prefix is final is operator.eq:
        return None
    return lambda xs, pool: any(final(xs[-1], ys[-1]) and all(map(prefix, xs[:-1], ys)) for ys in pool)


def _least_unmatched(constraint: str, rule: tuple, p: CanonicalTerm, q: CanonicalTerm):
    """The least decorated trace of p that no decorated trace of q on the
    same trace matches under `rule`, or None when every one is matched."""
    q_index = _lgo_index(constraint, q)
    matched = _matcher(constraint, rule)
    final_only = rule[0] is None
    for trace, (entries, values, finals) in _lgo_index(constraint, p).items():
        candidates = q_index.get(trace)
        if candidates is None:
            return entries[0][0]
        mine, pool = (finals, candidates[2]) if final_only else (values, candidates[1])
        # every rule is reflexive: a value that q has as well is matched
        unmatched = mine - pool
        if unmatched and matched:
            unmatched = {x for x in unmatched if not matched(x, pool)}
        if unmatched:
            return next(obs for obs, xs in entries if (xs[-1] if final_only else xs) in unmatched)
    return None


def _linear_rule(constraint: str, flavor: str) -> tuple:
    if flavor == "meet" and constraint in ("U", "C"):
        flavor = "lf"  # the union of unit/termination values degenerates
    try:
        return _FLAVORS[flavor]
    except KeyError:
        raise ValueError(f"not a matching flavor: {flavor}") from None


def linear_holds(constraint: str, flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Boolean core of the linear deciders; cheap enough to call per pair."""
    return _least_unmatched(constraint, _linear_rule(constraint, flavor), p, q) is None


def decide_linear(constraint: str, flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    sem = SemanticsId(constraint, flavor)  # validates the combination
    rule = _linear_rule(constraint, flavor)
    obs = _least_unmatched(constraint, rule, p, q)
    if obs is None:
        return Verdict(True)
    witness = {"kind": "lgo", "unmatched": obs, "semantics": str(sem)}
    if rule[1] == "meet":
        candidates = _lgo_index(constraint, q).get(obs.trace())
        geq = LABEL_RELATIONS[constraint][1]
        element = _meet_match(geq, obs.final.value, candidates[2] if candidates else ())[1]
        if element is not None:
            witness["revival_action"] = element
    return Verdict(False, witness)


# ---------------------------------------------------------------------------
# Deterministic branching


@lru_cache(maxsize=None)
def world_count(p: CanonicalTerm) -> int:
    total = 1
    for a in sorted(initials(p)):
        total *= sum(world_count(q) for b, q in step(p) if b == a)
    return total


def decide_db(
    constraint: str, p: CanonicalTerm, q: CanonicalTerm, cap: int = DEFAULT_WORLD_CAP
) -> Verdict:
    """Inclusion of deterministic branching observations.

    Complete deterministic observations suffice: every deterministic
    observation extends to a complete one, and membership survives pruning.
    """
    count = world_count(p)
    if count > cap:
        raise TruncationError(
            f"{count} complete deterministic observations exceed the cap {cap}", cap
        )
    for obs in sorted(enum_complete_dbgo(constraint, p), key=lambda o: (o.nodes, o._key)):
        if not bgo_member(obs, q):
            return Verdict(False, {"kind": "dbgo", "unmatched": obs})
    return Verdict(True)


# ---------------------------------------------------------------------------
# Final-ready and final-failure branching (constraint I)


@lru_cache(maxsize=None)
def _cover_game(exact: bool):
    """cov(p, Q): some q in Q matches each branching observation of p.

    Only leaves compare offers: exactly for final-ready (bf), not at all for
    final-failure (bf⊇).  Observations are closed under dropping children,
    so one q must match the observation with all child pairs:
    cov(p, Q) = [exact => some q in Q offers I(p)] and (p = 0 ? Q nonempty :
    some q in Q has cov(p', q/a) for every p -a-> p').
    """

    def node(key):
        p, qs = key
        if not _leaf_covered(p, qs, exact):
            return False
        for q in qs:
            for a, p2 in step(p):
                if not (yield (p2, successors(q, a))):
                    break
            else:
                return True
        return False

    return node, {}


def _leaf_covered(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...], exact: bool) -> bool:
    return any(initials(q) == initials(p) for q in qs) if exact else bool(qs)


def _covered(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...], exact: bool) -> bool:
    node, memo = _cover_game(exact)
    return solve_game(node, (p, qs), memo)


def _uncovered_bgo(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...], exact: bool) -> BranchingObs:
    """An observation of p that no q in Q matches: the leaf if no q answers
    it, else one child per q, built from that q's first uncovered move of p."""
    label = local_obs("I", p)
    if not _leaf_covered(p, qs, exact):
        return BranchingObs(label, frozenset())
    children = set()
    for q in qs:
        for a, p2 in step(p):
            if not _covered(p2, successors(q, a), exact):
                children.add((a, _uncovered_bgo(p2, successors(q, a), exact)))
                break
    return BranchingObs(label, frozenset(children))


def _decide_final_branching(p: CanonicalTerm, q: CanonicalTerm, exact: bool) -> Verdict:
    if _covered(p, (q,), exact):
        return Verdict(True)
    return Verdict(False, {"kind": "bgo", "unmatched": _uncovered_bgo(p, (q,), exact)})


def decide_final_ready_sim(p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Every branching observation of p is matched in q with exact leaf offers."""
    return _decide_final_branching(p, q, True)


def decide_final_failure_sim(p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Leaf clause weakens to offer inclusion: the matched state may offer less."""
    return _decide_final_branching(p, q, False)


# ---------------------------------------------------------------------------
# Extended ready family


def decide_extended(flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    if flavor not in _EXTENDED:
        raise ValueError(f"not an extended-ready flavor: {flavor}")
    obs = _least_unmatched("I", _EXTENDED[flavor], p, q)
    if obs is None:
        return Verdict(True)
    return Verdict(False, {"kind": "lgo", "unmatched": obs, "semantics": flavor})


# ---------------------------------------------------------------------------
# Dispatch and the spectrum matrix


def decide(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm, cap: int | None = None) -> Verdict:
    """Does p lie below q in the given semantics?"""
    flavor = sem.flavor
    if flavor == "bisim":
        return decide_bisim(p, q)
    if flavor == "b":
        return decide_nsim(sem.constraint, p, q)
    if flavor == "db":
        return decide_db(sem.constraint, p, q, cap or DEFAULT_WORLD_CAP)
    if flavor == "bf":
        return decide_final_ready_sim(p, q)
    if flavor == "bf⊇":
        return decide_final_failure_sim(p, q)
    if flavor in ("ER", "ERT", "ECR", "ECRT"):
        return decide_extended(flavor, p, q)
    return decide_linear(sem.constraint, flavor, p, q)


def holds(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    return decide(sem, p, q).holds


def spectrum_matrix(p: CanonicalTerm, q: CanonicalTerm) -> dict[SemanticsId, object]:
    """Both directions of every supported semantics; cell errors never abort."""
    out: dict[SemanticsId, object] = {}
    for sem in supported_ids():
        try:
            below = decide(sem, p, q).holds
            above = decide(sem, q, p).holds
        except TruncationError as exc:
            out[sem] = {"error": str(exc)}
            continue
        if below and above:
            out[sem] = "≡"
        elif below:
            out[sem] = "⊑"
        elif above:
            out[sem] = "⊒"
        else:
            out[sem] = "incomparable"
    return out


def matrix_json(matrix: dict[SemanticsId, object]) -> dict:
    out = {}
    for sem, cell in matrix.items():
        name = classic_name(sem) or f"{sem.constraint}:{sem.flavor}"
        out[name] = cell
    return out
