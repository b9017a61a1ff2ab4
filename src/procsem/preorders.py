"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders that match decorated-trace sets under a flavor's rule,
* the exotic deciders: deterministic branching, final-ready/final-failure
  branching (a coverage game on the same driver), and the extended-ready
  family.

Negative verdicts carry replayable witnesses: a refutation tree for
simulations, the least unmatched decorated trace for linear flavors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .constraints import (
    constraint_holds,
    local_eq,
    local_geq,
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
def _lgo_index(constraint: str, p: CanonicalTerm):
    """trace -> sorted tuple of (observation, labels) pairs."""
    index: dict[tuple, list] = {}
    for obs in enum_lgo(constraint, p):
        index.setdefault(obs.trace(), []).append((obs, obs.labels()))
    for trace in index:
        index[trace].sort(key=lambda ol: tuple(local_key(l) for l in ol[1]))
    return index

_POINTWISE = {"l⊇": "geq", "l⊆": "leq"}
_FINAL = {"lf": "eq", "lf⊇": "geq", "lf⊆": "leq"}


def _labels_match(constraint: str, mode: str, x, y) -> bool:
    if mode == "eq":
        return local_eq(constraint, x, y)
    if mode == "geq":
        return local_geq(constraint, x, y)
    return local_geq(constraint, y, x)


def _match_lgo(constraint: str, flavor: str, xs, candidates) -> bool:
    if flavor == "l":
        return any(
            all(local_eq(constraint, x, y) for x, y in zip(xs, ys))
            for _, ys in candidates
        )
    if flavor in _POINTWISE:
        mode = _POINTWISE[flavor]
        return any(
            all(_labels_match(constraint, mode, x, y) for x, y in zip(xs, ys))
            for _, ys in candidates
        )
    if flavor in _FINAL:
        mode = _FINAL[flavor]
        final = xs[-1]
        return any(_labels_match(constraint, mode, final, ys[-1]) for _, ys in candidates)
    if flavor == "join":
        for _, ys in candidates:
            if local_eq(constraint, xs[-1], ys[-1]) and all(
                local_geq(constraint, x, y) for x, y in zip(xs[:-1], ys[:-1])
            ):
                return True
        return False
    raise ValueError(f"not a matching flavor: {flavor}")


def _meet_match(constraint: str, xs, candidates) -> tuple[bool, object]:
    """Meet (revivals-style) matching: some final below the observed final,
    and every element of the observed final covered by such a final."""
    final = xs[-1]
    below = [ys[-1] for _, ys in candidates if local_geq(constraint, final, ys[-1])]
    if not below:
        return False, None
    for element in sorted(final.value, key=lambda e: (len(e), e) if isinstance(e, tuple) else e):
        if not any(element in y.value for y in below):
            return False, element
    return True, None


def _flavor_for(constraint: str, flavor: str) -> str:
    if flavor == "meet" and constraint in ("U", "C"):
        return "lf"  # the union of unit/termination values degenerates
    return flavor


def linear_holds(constraint: str, flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Boolean core of the linear deciders; cheap enough to call per pair."""
    flavor = _flavor_for(constraint, flavor)
    p_index = _lgo_index(constraint, p)
    q_index = _lgo_index(constraint, q)
    for trace, entries in p_index.items():
        candidates = q_index.get(trace, ())
        for _, xs in entries:
            if flavor == "meet":
                if not _meet_match(constraint, xs, candidates)[0]:
                    return False
            elif not _match_lgo(constraint, flavor, xs, candidates):
                return False
    return True


def decide_linear(constraint: str, flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    sem = SemanticsId(constraint, flavor)  # validates the combination
    if linear_holds(constraint, flavor, p, q):
        return Verdict(True)
    flavor = _flavor_for(constraint, flavor)
    p_index = _lgo_index(constraint, p)
    q_index = _lgo_index(constraint, q)
    for trace in sorted(p_index, key=lambda t: (len(t), t)):
        candidates = q_index.get(trace, ())
        for obs, xs in p_index[trace]:
            if flavor == "meet":
                ok, element = _meet_match(constraint, xs, candidates)
                if not ok:
                    witness = {"kind": "lgo", "unmatched": obs, "semantics": str(sem)}
                    if element is not None:
                        witness["revival_action"] = element
                    return Verdict(False, witness)
            elif not _match_lgo(constraint, flavor, xs, candidates):
                return Verdict(False, {"kind": "lgo", "unmatched": obs, "semantics": str(sem)})
    raise AssertionError("boolean core refuted but no witness found")


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


def _extended_offer_ok(x, y, empties: bool) -> bool:
    # y is on the q side and must dominate x; with the completeness
    # condition an empty offer must be answered by an empty offer.
    if empties and not x.value:
        return not y.value
    return y.value >= x.value


def _extended_witness(flavor: str, p: CanonicalTerm, q: CanonicalTerm):
    pointwise = flavor in ("ERT", "ECRT")
    empties = flavor in ("ECR", "ECRT")
    p_index = _lgo_index("I", p)
    q_index = _lgo_index("I", q)
    for trace in sorted(p_index, key=lambda t: (len(t), t)):
        candidates = q_index.get(trace, ())
        for obs, xs in p_index[trace]:
            if pointwise:
                ok = any(
                    all(_extended_offer_ok(x, y, empties) for x, y in zip(xs, ys))
                    for _, ys in candidates
                )
            else:
                ok = any(_extended_offer_ok(xs[-1], ys[-1], empties) for _, ys in candidates)
            if not ok:
                return obs
    return None


def decide_extended(flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    if flavor not in ("ER", "ERT", "ECR", "ECRT"):
        raise ValueError(f"not an extended-ready flavor: {flavor}")
    obs = _extended_witness(flavor, p, q)
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
