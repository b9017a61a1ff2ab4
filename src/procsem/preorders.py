"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders, the extended-ready family included, each cell settled
  at the coarsest of three layers that decides it:
  1. trace-set inclusion, which every linear rule refines (each matches a
     pair of p only on its own trace);
  2. the collapse laws: at U every rule is trace inclusion (every label is
     the same), at C completed-trace inclusion (only a path's last state
     can be nil), and at S the partial-offer rules are simulation;
  3. one set inclusion of per-term tables of decorated traces as (trace,
     raw label values) pairs (built per subterm from the successors'
     tables, with no observation objects), the flavor's rule from a table
     matching only the pairs the inclusion leaves;
  a witness is the least of the unmatched pairs,
* the exotic deciders: deterministic branching (a game over bit-masked
  types, the sets of q-states that match a world of p) and
  final-ready/final-failure branching (a coverage game), both on the same
  driver.

Negative verdicts carry replayable witnesses: a refutation tree for
simulations, the least unmatched decorated trace (by ``LinearObs.sort_key``)
for linear flavors, the least unmatched complete deterministic observation
for ``db``.  Every witness is built when it is first read, so deciding alone
pays for no witness and enumerates no world: the world cap guards only the
``db`` witness.  ``decide(sem, p, q)``, ``holds`` (its boolean, with no
verdict) and ``spectrum_matrix`` read one flavor dispatch; ``decide_nsim``
takes q's transition relation, for the operational engine and ``logic``.
``engine(name)`` names the decider of each of the three engines, and
``coverage(sem)`` lists the pathways that characterize a semantics.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Iterable

from .constraints import (
    LABEL_RELATIONS,
    LocalObs,
    constraint_holds,
    local_obs,
    simulates,
    solve_game,
    value_key,
)
from .lts import completed_traces, initials, step, successors, traces
from .observations import (
    BranchingObs,
    LinearObs,
    bgo_member,
    check_world_cap,
    decide_via_observations,
    enum_complete_dbgo,
)
from .spectrum import SemanticsId, UncoveredSemanticsError, classic_name, supported_ids
from .terms import NIL, CanonicalTerm, render_term

__all__ = [
    "Verdict",
    "HOLDS",
    "decide",
    "holds",
    "engine",
    "PATHWAYS",
    "coverage",
    "decide_nsim",
    "spectrum_matrix",
    "matrix_json",
    "lgo_json",
]


class Verdict:
    """Whether a preorder holds, and the witness of a negative answer.  When
    a `build` callable is given, `build(*args)` makes the witness on its
    first read, so a decision whose witness nobody reads pays for none (and
    allocates no closure)."""

    __slots__ = ("holds", "_witness", "_build", "_args")

    def __init__(self, holds: bool, witness: object = None, build=None, *args):
        self.holds, self._witness, self._build, self._args = holds, witness, build, args

    @property
    def witness(self):
        if self._build is not None:
            self._witness, self._build, self._args = self._build(*self._args), None, ()
        return self._witness

    def __bool__(self) -> bool:
        return self.holds

    def __eq__(self, other):
        return isinstance(other, Verdict) and (self.holds, self.witness) == (other.holds, other.witness)

    def __repr__(self) -> str:
        return f"Verdict(holds={self.holds!r}, witness={self.witness!r})"

    def to_json(self):
        return {"holds": self.holds, "witness": _witness_json(self.witness)}


# Deciders never change a verdict they return, so every one returns this holding verdict.
HOLDS = Verdict(True)


def _witness_json(w):
    """JSON form of a witness, built on an explicit stack: a refutation tree
    is as deep as the terms it refutes."""
    root = [None]
    todo = [(w, root, 0)]
    while todo:
        w, slots, key = todo.pop()
        if isinstance(w, dict):
            slots[key] = out = dict.fromkeys(w)
            todo.extend((v, out, k) for k, v in w.items())
        elif isinstance(w, (list, tuple)):
            slots[key] = out = [None] * len(w)
            todo.extend((v, out, i) for i, v in enumerate(w))
        else:
            slots[key] = _leaf_json(w)
    return root[0]


def _leaf_json(w):
    if w is None or isinstance(w, (str, int, bool)):
        return w
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


def _sim_refutation(constraint: str, p: CanonicalTerm, q: CanonicalTerm, answers=step) -> dict:
    """Replayable refutation tree for a failed constrained simulation: p
    moves by ``step`` and q answers by `answers`.  Built on an explicit
    stack: the tree is as deep as the terms."""
    root = [None]
    todo = [(p, q, root, 0)]
    while todo:
        p, q, slots, i = todo.pop()
        if not constraint_holds(constraint, p, q):
            slots[i] = {"kind": "constraint", "constraint": constraint, "p": p, "q": q}
            continue
        for a, p2 in step(p):
            responses = [q2 for b, q2 in answers(q) if b == a]
            if all(not simulates(constraint, p2, q2, answers) for q2 in responses):
                break
        else:
            raise AssertionError("refutation requested for a holding pair")
        refuted = [None] * len(responses)
        slots[i] = {"kind": "move", "action": a, "p": p, "q": q, "after_p": p2, "responses": refuted}
        todo.extend((p2, q2, refuted, j) for j, q2 in enumerate(responses))
    return root[0]


def decide_nsim(constraint: str, p: CanonicalTerm, q: CanonicalTerm, answers=step) -> Verdict:
    """The constrained simulation, q answering by the transition relation `answers`."""
    if simulates(constraint, p, q, answers):
        return HOLDS
    return Verdict(False, None, _sim_refutation, constraint, p, q, answers)


def _bisim_refutation(p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """A move of p (left) or of q (right) that no same-action move of the
    other side answers bisimilarly; each response refutes (moved state,
    answer).  Built on an explicit stack: the tree is as deep as the terms."""
    root = [None]
    todo = [(p, q, root, 0)]
    while todo:
        p, q, slots, i = todo.pop()
        side, a, moved, responses = _unanswered_move(p, q)
        refuted = [None] * len(responses)
        slots[i] = {
            "kind": "move",
            "side": side,
            "action": a,
            "p": p,
            "q": q,
            "after_p": moved,
            "responses": refuted,
        }
        todo.extend((moved, r, refuted, j) for j, r in enumerate(responses))
    return root[0]


def _unanswered_move(p: CanonicalTerm, q: CanonicalTerm) -> tuple:
    """(side, action, moved state, same-action answers) of the first move
    of p (left) or of q (right) that no answer matches identically."""
    for side, mover, other in (("left", p, q), ("right", q, p)):
        for a, moved in step(mover):
            responses = [r for b, r in step(other) if b == a]
            if all(moved is not r for r in responses):
                return side, a, moved, responses
    raise AssertionError("refutation requested for bisimilar terms")


# ---------------------------------------------------------------------------
# Linear flavors


@lru_cache(maxsize=None)
def _trace_table(constraint: str, p: CanonicalTerm) -> tuple[frozenset, frozenset]:
    """(items, finals) of p's decorated traces: the (trace, label-value
    tuple) pairs, built from the successors' items, and the (trace, final
    value) pairs; index 1 (True) is what final-only rules compare."""
    head = local_obs(constraint, p).value
    items = {((), (head,))}
    for a, q in step(p):
        items.update(((a,) + trace, (head,) + xs) for trace, xs in _trace_table(constraint, q)[0])
    return frozenset(items), frozenset((trace, xs[-1]) for trace, xs in items)


@lru_cache(maxsize=None)
def _pools(constraint: str, q: CanonicalTerm, final_only: bool) -> dict:
    """trace -> q's value tuples on it, or its final values if `final_only`."""
    pools: dict = {}
    for trace, x in _trace_table(constraint, q)[final_only]:
        pools.setdefault(trace, []).append(x)
    return {trace: frozenset(xs) for trace, xs in pools.items()}


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
    if geq is eq:  # U and C order values by equality alone
        leq = eq
    else:
        leq = operator.le if geq is operator.ge else lambda x, y: geq(y, x)
    relations = {"eq": eq, "geq": geq, "leq": leq, "complete": _complete}
    final = relations[final]
    if prefix is None:
        return None if final is operator.eq else lambda x, pool: any(map(final, repeat(x), pool))
    prefix = relations[prefix]
    if prefix is final is operator.eq:
        return None

    def matched(xs, pool):
        last, init = xs[-1], xs[:-1]
        return any(final(last, ys[-1]) and all(map(prefix, init, ys)) for ys in pool)

    return matched


def _unmatched(constraint: str, rule: tuple, p: CanonicalTerm, q: CanonicalTerm) -> Iterable:
    """The (trace, value) pairs of p that no decorated trace of q on the
    same trace matches under `rule`; values are finals if the rule has no
    prefix relation, else tuples of label values.  Every rule is reflexive,
    so a pair that q has as well is matched: one set inclusion settles most
    pairs, and only the pairs it leaves are matched, lazily, against q's
    values on their trace."""
    final_only = rule[0] is None
    mine = _trace_table(constraint, p)[final_only]
    theirs = _trace_table(constraint, q)[final_only]
    if mine <= theirs:
        return ()
    matched = _matcher(constraint, rule)
    if matched is None:
        return mine - theirs
    pool = _pools(constraint, q, final_only).get
    return ((trace, x) for trace, x in mine - theirs if not matched(x, pool(trace, ())))


def _included(constraint: str, rule: tuple, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Is every decorated trace of p matched by one of q under `rule`?

    Three exact layers, coarsest first; only the last builds a table:
    1. Traces: every rule matches a pair of p only against q's values on its
       trace, and p has a pair on each of its traces.
    2. Collapse: at U every value is None, so the trace alone matches.  At C
       `geq` is `eq` and only a path's last state can be nil, so each rule
       asks that q end each trace of p as p can, nil or live: completed-trace
       inclusion, as q has p's longer traces and so its live ends too.  At S
       the partial-offer rules (`leq` on the final label, l⊆ and lf⊆) are
       plain simulation: the empty trace's pair asks that q simulate p, and a
       simulation answers each path of p with a path of q whose states
       simulate p's pointwise.
    3. Tables: the set inclusion and leftover matching of `_unmatched`."""
    if not traces(p) <= traces(q):
        return False
    if constraint == "U":
        return True
    if constraint == "C":
        return completed_traces(p) <= completed_traces(q)
    if constraint == "S" and rule[1] == "leq":
        return simulates("U", p, q)
    return next(iter(_unmatched(constraint, rule, p, q)), None) is None


def _lgo_witness(constraint: str, rule: tuple, name: str, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """The least unmatched decorated trace of p (by ``LinearObs.sort_key``)
    as a witness, with the revival action of a failed meet."""
    unmatched = tuple(_unmatched(constraint, rule, p, q))
    trace = min((t for t, _ in unmatched), key=lambda t: (len(t), t))
    values = {x for t, x in unmatched if t == trace}
    if rule[0] is None:  # the value tuples of p on the trace with an unmatched final
        values = [xs for xs in _pools(constraint, p, False)[trace] if xs[-1] in values]
    xs = min(values, key=lambda ys: tuple(value_key(constraint, y) for y in ys))
    head, *labels = [LocalObs(constraint, x) for x in xs]
    witness = {"kind": "lgo", "unmatched": LinearObs(head, tuple(zip(trace, labels))), "semantics": name}
    if rule[1] == "meet":
        finals = _pools(constraint, q, True).get(trace, ())
        element = _meet_match(LABEL_RELATIONS[constraint][1], xs[-1], finals)[1]
        if element is not None:
            witness["revival_action"] = element
    return witness


@lru_cache(maxsize=None)
def _linear_rule(constraint: str, flavor: str) -> tuple[tuple, str]:
    """(rule, semantics name) of a linear flavor at a constraint."""
    name = str(SemanticsId(constraint, flavor))
    if flavor == "meet" and constraint in ("U", "C"):
        flavor = "lf"  # the union of unit/termination values degenerates
    return _FLAVORS[flavor], name


# ---------------------------------------------------------------------------
# Deterministic branching


@lru_cache(maxsize=None)
def _sorted_dbgos(constraint: str, p: CanonicalTerm) -> tuple[BranchingObs, ...]:
    """The complete deterministic observations of p, least first by (nodes, obs)."""
    return tuple(sorted(enum_complete_dbgo(constraint, p), key=lambda o: (o.nodes, o)))


@lru_cache(maxsize=None)
def _step_masks(qs: tuple[CanonicalTerm, ...], a: str) -> tuple[tuple[CanonicalTerm, ...], tuple[int, ...]]:
    """(Q_a, masks): the `a`-successors of the states `qs`, deduplicated in
    encounter order, and per state of `qs` the bit mask of its successors in Q_a."""
    index: dict = {}
    masks = []
    for q in qs:
        mask = 0
        for b, q2 in step(q):
            if b == a:
                mask |= 1 << index.setdefault(q2, len(index))
        masks.append(mask)
    return tuple(index), tuple(masks)


def _minimal(masks) -> list[int]:
    """The ⊆-minimal bit masks of `masks`."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


@lru_cache(maxsize=None)
def _types_game(constraint: str):
    """types(p, Q): the ⊆-minimal bit masks over Q of {q in Q : d in bgo(q)},
    over the complete deterministic observations d of p.

    A world of p picks one a-successor world per action a of p, so its type
    is the label match intersected, per action, with the lift of the chosen
    child's type over Q_a: {q_i : q_i has an a-successor in it}.  Every step
    is monotone, so only minimal types matter; [0] means some world of p
    lies in no bgo(q), and ends the search.
    """
    eq = LABEL_RELATIONS[constraint][0]

    def node(key):
        p, qs = key
        label = local_obs(constraint, p).value
        acc = [sum(1 << i for i, q in enumerate(qs) if eq(label, local_obs(constraint, q).value))]
        for a in sorted(initials(p)):
            if acc == [0]:
                break
            qa, succ = _step_masks(qs, a)
            children = set()
            for b, p2 in step(p):
                if b == a:
                    children.update((yield (p2, qa)))
            lifted = {sum(1 << i for i, s in enumerate(succ) if s & m) for m in children}
            acc = _minimal({x & y for x in acc for y in lifted})
        return tuple(acc)

    return node, {}


def _db_witness(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """The least complete deterministic observation of p (by (nodes, obs))
    that q lacks.  It enumerates p's worlds, so the world cap is checked first."""
    check_world_cap(p)
    for obs in _sorted_dbgos(constraint, p):
        if not bgo_member(obs, q):
            return {"kind": "dbgo", "unmatched": obs}
    raise AssertionError("witness requested for a holding pair")


def _db_included(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Inclusion of deterministic branching observations.

    Complete deterministic observations suffice: every deterministic
    observation extends to a complete one, and membership survives pruning.
    They are decided by the types game, never enumerated; only a witness
    that is read enumerates p's worlds, behind the world cap.  The singleton
    root {q} is not played: p ⊑ q iff the labels match and no summand
    (a, p') of p has the empty type over q's a-successors, positions that
    many pairs share.
    """
    node, memo = _types_game(constraint)
    return constraint_holds(constraint, p, q) and all(
        0 not in solve_game(node, (p2, successors(q, a)), memo) for a, p2 in step(p)
    )


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


def _bgo_witness(p: CanonicalTerm, q: CanonicalTerm, exact: bool) -> dict:
    return {"kind": "bgo", "unmatched": _uncovered_bgo(p, (q,), exact)}


# ---------------------------------------------------------------------------
# Dispatch and the spectrum matrix


# The one flavor dispatch: flavor -> (holds(constraint, flavor, p, q),
# witness(constraint, flavor, p, q)).  `spectrum_matrix` and `holds` read
# only the first; `decide` hands the second to a refuting verdict, which
# builds it on first read.  The lambdas look their deciders up when called,
# so a replaced module function is the one used.  The extended-ready flavors
# compare offers (constraint I) whatever layer they are named at.  On
# canonical forms bisimilarity is identity.
_DECIDERS = {
    **dict.fromkeys(_FLAVORS, (
        lambda c, f, p, q: _included(c, _linear_rule(c, f)[0], p, q),
        lambda c, f, p, q: _lgo_witness(c, *_linear_rule(c, f), p, q),
    )),
    **dict.fromkeys(_EXTENDED, (
        lambda c, f, p, q: _included("I", _EXTENDED[f], p, q),
        lambda c, f, p, q: _lgo_witness("I", _EXTENDED[f], f, p, q),
    )),
    "bisim": (lambda c, f, p, q: p is q, lambda c, f, p, q: _bisim_refutation(p, q)),
    "b": (lambda c, f, p, q: simulates(c, p, q), lambda c, f, p, q: _sim_refutation(c, p, q)),
    "db": (lambda c, f, p, q: _db_included(c, p, q), lambda c, f, p, q: _db_witness(c, p, q)),
    "bf": (lambda c, f, p, q: _covered(p, (q,), True), lambda c, f, p, q: _bgo_witness(p, q, True)),
    "bf⊇": (lambda c, f, p, q: _covered(p, (q,), False), lambda c, f, p, q: _bgo_witness(p, q, False)),
}


def decide(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Does p lie below q in the given semantics?  A refuting verdict builds
    its witness when first read."""
    constraint, flavor = sem.constraint, sem.flavor
    test, witness = _DECIDERS[flavor]
    if test(constraint, flavor, p, q):
        return HOLDS
    return Verdict(False, None, witness, constraint, flavor, p, q)


def holds(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """``decide(sem, p, q).holds``, with no verdict built."""
    return _DECIDERS[sem.flavor][0](sem.constraint, sem.flavor, p, q)


def engine(name: str):
    """The decider of the "direct", "observational" or "operational" engine:
    ``decide``, or one that takes a cap after the terms (None for its
    default) and raises UncoveredSemanticsError on a semantics it does not
    decide.  The operational engine's module loads on first use."""
    if name == "direct":
        return decide
    if name == "observational":
        return decide_via_observations
    if name == "operational":
        from .operational import decide_via_operational

        return decide_via_operational
    raise ValueError(f"unknown engine {name!r}")


# The characterizations of a semantics: three engines, the axiom catalogs, the
# sublogic grammars and distinguishing formulas.
PATHWAYS = ("direct", "observational", "operational", "axioms", "logic", "distinguish")


def coverage(sem: SemanticsId) -> tuple[str, ...]:
    """The pathways that characterize sem, in ``PATHWAYS`` order.  Each is
    probed on the pair (0, 0) and covers sem unless it refuses it with
    UncoveredSemanticsError, so the pathways' own refusals are the table."""
    from . import axioms, logic

    probes = {
        "direct": lambda: decide(sem, NIL, NIL),
        "observational": lambda: decide_via_observations(sem, NIL, NIL),
        "operational": lambda: engine("operational")(sem, NIL, NIL),
        "axioms": lambda: axioms.axiom_catalog(sem),
        "logic": lambda: logic.in_sublogic(logic.TOP, sem),
        "distinguish": lambda: logic.distinguish(sem, NIL, NIL),
    }
    covered = []
    for name, probe in probes.items():
        try:
            probe()
        except UncoveredSemanticsError:
            continue
        covered.append(name)
    return tuple(covered)


def spectrum_matrix(p: CanonicalTerm, q: CanonicalTerm) -> dict[SemanticsId, str]:
    """Both directions of every supported semantics, as "≡", "⊑", "⊒" or
    "incomparable".  Only the booleans are read, so no verdict or witness is
    built, and deciding enumerates no world, so every cell is decided."""
    out: dict[SemanticsId, str] = {}
    for sem in supported_ids():
        constraint, flavor = sem.constraint, sem.flavor
        test = _DECIDERS[flavor][0]
        below = test(constraint, flavor, p, q)
        above = test(constraint, flavor, q, p)
        if below and above:
            out[sem] = "≡"
        elif below:
            out[sem] = "⊑"
        elif above:
            out[sem] = "⊒"
        else:
            out[sem] = "incomparable"
    return out


def matrix_json(matrix: dict[SemanticsId, str]) -> dict:
    out = {}
    for sem, cell in matrix.items():
        name = classic_name(sem) or f"{sem.constraint}:{sem.flavor}"
        out[name] = cell
    return out
