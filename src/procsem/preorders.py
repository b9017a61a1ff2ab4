"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders, the extended-ready family included, each cell settled
  at the coarsest of three layers that decides it:
  1. trace inclusion, which every semantics of the spectrum refines, so it
     gates every family, not only the linear one: the entry points
     (``decide``, ``holds``, ``spectrum_matrix``) play it first, as a
     memoized game on (p, Q), a state of p against the set Q of states
     that q reaches by the same trace (``_traced``);
  2. the collapse laws: at U every rule is trace inclusion (every label is
     the same), at C completed-trace inclusion (only a path's last state
     can be nil), and at S the partial-offer rules are simulation;
  3. one set inclusion of per-term tables of decorated traces as (trace,
     raw label values) pairs (built per subterm from the successors'
     tables, with no observation objects), the flavor's rule from a table
     matching only the pairs the inclusion leaves;
  ``decide`` runs them for one cell, ``spectrum_matrix`` once per row
  (``_row``): the linear rules decided on one constraint's labels share
  one collapse and one table difference per half of the table, whose
  leftovers each rule matches; a witness is the least of the unmatched
  pairs,
* the exotic deciders: deterministic branching (a game over bit-masked
  types, the sets of q-states that match a world of p) and
  final-ready/final-failure branching (a coverage game), both on the same
  driver.

A pair that the trace game refutes is refuted in every semantics, and a
position stops at the first move of p that Q cannot answer, so such pairs
cost almost nothing and play no other game.

Negative verdicts carry replayable witnesses: a refutation tree for
simulations, the least unmatched decorated trace (by ``LinearObs.sort_key``)
for linear flavors, the least unmatched complete deterministic observation
for ``db``.  Every witness is built when it is first read, so deciding alone
pays for no witness and enumerates no world: the world cap guards only the
``db`` witness.  ``decide(sem, p, q)``, ``holds`` (its boolean, with no
verdict) and the other cells of ``spectrum_matrix`` read one flavor
dispatch; ``decide_nsim`` takes q's transition relation, for the
operational engine and ``logic``.
``engine(name)`` names the decider of each of the three engines, and
``coverage(sem)`` lists the pathways that characterize a semantics.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import groupby, repeat
from typing import Iterable

from .constraints import (
    LAYERS,
    LocalObs,
    constraint_holds,
    local_obs,
    simulates,
    solve_game,
    value_key,
)
from .lts import completed_traces, initials, step, successors
from .observations import (
    BranchingObs,
    LinearObs,
    bgo_member,
    check_world_cap,
    decide_via_observations,
    enum_complete_dbgo,
)
from .spectrum import LINEAR_RULES, SemanticsId, UncoveredSemanticsError, linear_rule, supported_ids
from .terms import NIL, CanonicalTerm, state_table

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
        return {"holds": self.holds, "witness": self.witness and _witness_json(self.witness)}


# Deciders never change a verdict they return, so every one returns this holding verdict.
HOLDS = Verdict(True)


def _witness_json(w):
    """JSON form of a witness.  One that mentions terms names each state
    once, in a ``terms.state_table`` under "states", and every integer in it,
    outside a node's "responses", names a state: a refutation tree as a
    flat "nodes" list (node 0 the root, one node per (p, q) pair, responses
    as node indices), and a decorated trace at S, whose labels are terms."""
    if w["kind"] in ("move", "constraint"):
        return _tree_json(w)
    if w["kind"] == "lgo":
        out = lgo_json([w["unmatched"]])
        return {**w, "unmatched": out.pop("observations")[0], **out}
    return {**w, "unmatched": repr(w["unmatched"])}  # bgo and dbgo


def _tree_json(root: dict) -> dict:
    nodes, number = [root], {(root["p"], root["q"]): 0}
    for node in nodes:  # grows as responses name new pairs
        for sub in node.get("responses", ()):
            if (sub["p"], sub["q"]) not in number:
                number[sub["p"], sub["q"]] = len(nodes)
                nodes.append(sub)
    terms = ("p", "q", "after_p")
    states, index = state_table(*(node[key] for node in nodes for key in terms if key in node))
    flat = [{key: index[v] if key in terms else v for key, v in node.items()} for node in nodes]
    for node, out in zip(nodes, flat):
        if "responses" in node:
            out["responses"] = [number[sub["p"], sub["q"]] for sub in node["responses"]]
    return {"states": states, "nodes": flat}


def lgo_json(observations) -> dict:
    """Flat JSON rendering of decorated traces, each ``[label, action,
    label, ...]`` under "observations"; at S, whose labels are terms, the
    labels are indices into one ``terms.state_table`` under "states"."""
    observations = list(observations)
    states, index = state_table(*(l.value for o in observations if o.constraint == "S" for l in o.labels()))
    flat = []
    for obs in observations:
        out = [_label_payload(obs.head, index)]
        for a, l in obs.steps:
            out += (a, _label_payload(l, index))
        flat.append(out)
    return {"observations": flat, "states": states} if states else {"observations": flat}


def _label_payload(label, index):
    if label.constraint == "U":
        return "·"
    if label.constraint == "T":
        return sorted("".join(t) for t in label.value)
    if label.constraint == "I":
        return sorted(label.value)
    return index[label.value] if label.constraint == "S" else label.value


# ---------------------------------------------------------------------------
# Constrained simulations


def _refutation_tree(refute, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """A replayable refutation tree: `refute(p, q)` gives the node of a
    refuted pair, whose "responses", if any, list the pairs that refute its
    answers.  Built children first on the explicit stack of ``solve_game``,
    as the tree is as deep as the terms; a pair met twice is one node."""
    built = {}

    def node(key):
        out = refute(*key)
        pairs = out.get("responses", ())
        for pair in pairs:
            if pair not in built:
                yield pair
        if pairs:
            out["responses"] = [built[pair] for pair in pairs]
        built[key] = out

    return solve_game(node, (p, q), built)


def _sim_refutation(constraint: str, p: CanonicalTerm, q: CanonicalTerm, answers=step) -> dict:
    """Refutation tree for a failed constrained simulation: p moves by
    ``step`` and q answers by `answers`."""

    def refute(p, q):
        if not constraint_holds(constraint, p, q):
            return {"kind": "constraint", "constraint": constraint, "p": p, "q": q}
        for a, p2 in step(p):
            responses = [(p2, q2) for b, q2 in answers(q) if b == a]
            if all(not simulates(constraint, *pair, answers) for pair in responses):
                return {"kind": "move", "action": a, "p": p, "q": q, "after_p": p2, "responses": responses}
        raise AssertionError("refutation requested for a holding pair")

    return _refutation_tree(refute, p, q)


def decide_nsim(constraint: str, p: CanonicalTerm, q: CanonicalTerm, answers=step) -> Verdict:
    """The constrained simulation, q answering by the transition relation `answers`."""
    if simulates(constraint, p, q, answers):
        return HOLDS
    return Verdict(False, None, _sim_refutation, constraint, p, q, answers)


def _bisim_refutation(p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """Refutation tree for bisimilarity: a move of p (left) or of q (right)
    that no same-action move of the other side answers identically; each
    response refutes (moved state, answer)."""

    def refute(p, q):
        for side, mover, other in (("left", p, q), ("right", q, p)):
            for a, moved in step(mover):
                responses = [(moved, r) for b, r in step(other) if b == a]
                if all(moved is not r for _, r in responses):
                    return {"kind": "move", "side": side, "action": a,
                            "p": p, "q": q, "after_p": moved, "responses": responses}
        raise AssertionError("refutation requested for bisimilar terms")

    return _refutation_tree(refute, p, q)


# ---------------------------------------------------------------------------
# Trace inclusion, the gate of every family


@lru_cache(maxsize=None)
def _trace_game():
    """tr(p, Q): every trace of p is a trace of some state of Q, for Q not
    empty.  tr(p, Q) holds when every move p -a-> p' has a non-empty Q/a,
    the deduplicated a-successors of Q (``_step_masks``), with tr(p', Q/a).
    A position stops at the first move that Q cannot answer."""
    memo = {}

    def node(key):
        p, qs = key
        value = True
        for a, p2 in step(p):
            sub = (p2, _step_masks(qs, a)[0])
            if not sub[1]:
                value = False
                break
            if sub not in memo:
                yield sub
            if not memo[sub]:
                value = False
                break
        memo[key] = value

    return node, memo


def _traced(p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Is every trace of p a trace of q?  tr(p, {q}) of ``_trace_game``."""
    node, memo = _trace_game()
    return solve_game(node, (p, (q,)), memo)


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
    eq, geq = LAYERS[constraint].eq, LAYERS[constraint].geq
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


def _included(linear: tuple, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Is every decorated trace of p matched by one of q under `linear`, a
    (constraint, rule) pair of ``spectrum.linear_rule``?

    The entry points have checked that p's traces are q's (``_traced``):
    every rule matches a pair of p only against q's values on its trace,
    and p has a pair on each of its traces.  Two exact layers remain,
    coarsest first; only the last builds a table:
    1. Collapse: at U every value is None, so the trace alone matches.  At C
       `geq` is `eq` and only a path's last state can be nil, so each rule
       asks that q end each trace of p as p can, nil or live: completed-trace
       inclusion, as q has p's longer traces and so its live ends too.  At S
       the partial-offer rules (`leq` on the final label, l⊆ and lf⊆) are
       plain simulation: the empty trace's pair asks that q simulate p, and a
       simulation answers each path of p with a path of q whose states
       simulate p's pointwise.
    2. Tables: the set inclusion and leftover matching of `_unmatched`."""
    constraint, rule = linear
    if constraint == "U":
        return True
    if constraint == "C":
        return completed_traces(p) <= completed_traces(q)
    if constraint == "S" and rule[1] == "leq":
        return simulates("U", p, q)
    return next(iter(_unmatched(constraint, rule, p, q)), None) is None


def _row_tables() -> tuple[dict, dict]:
    """(rules, bits): per constraint, the distinct linear rules decided on its
    labels, one bit each, and per linear or extended-ready id its
    (constraint, bit).  U, C and S have 7 rules, T 8, and I 10, as ER, ERT,
    ECR and ECRT compare I labels and ER and ERT rerun I:lf⊆ and I:l⊆."""
    rules: dict = {}
    bits = {}
    for sem in supported_ids():
        if sem.flavor in LINEAR_RULES:
            constraint, rule = linear_rule(sem.constraint, sem.flavor)
            row = rules.setdefault(constraint, [])
            if rule not in row:
                row.append(rule)
            bits[sem] = constraint, row.index(rule)
    return rules, bits


_ROW_RULES, _ROW_BITS = _row_tables()


def _row(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> int:
    """``_included`` for every rule of ``_ROW_RULES[constraint]`` at once, as
    a bit mask of the rules that hold, where the entry points have checked
    that p's traces are q's.  The layers run once for the row: at U and C
    one collapse; at I, T and S one table difference per half (items,
    finals), whose leftovers each rule matches against q's values on the
    leftover traces, grouped once per half in the row (no ``_pools``); at S
    the `leq` rules are simulation."""
    rules = _ROW_RULES[constraint]
    if constraint in ("U", "C"):
        held = constraint == "U" or completed_traces(p) <= completed_traces(q)
        return (1 << len(rules)) - 1 if held else 0
    row, halves = 0, {}
    for bit, rule in enumerate(rules):
        if constraint == "S" and rule[1] == "leq":
            row |= simulates("U", p, q) << bit
            continue
        final_only = rule[0] is None
        if final_only not in halves:
            halves[final_only] = _leftovers(_trace_table(constraint, p)[final_only],
                                            _trace_table(constraint, q)[final_only])
        left, pool = halves[final_only]
        matched = _matcher(constraint, rule) if left else None  # None: equality, which q lacks
        if not left or matched is not None and all(matched(x, pool(trace, ())) for trace, x in left):
            row |= 1 << bit
    return row


def _leftovers(mine: frozenset, theirs: frozenset) -> tuple[frozenset, object]:
    """(mine - theirs, pool): ``pool.get`` of q's values by trace, on the leftover traces."""
    left = mine - theirs
    pools: dict = {}
    if left:
        wanted = {trace for trace, _ in left}
        for trace, y in theirs:
            if trace in wanted:
                pools.setdefault(trace, []).append(y)
    return left, pools.get


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
        element = _meet_match(LAYERS[constraint].geq, xs[-1], finals)[1]
        if element is not None:
            witness["revival_action"] = element
    return witness


# ---------------------------------------------------------------------------
# Deterministic branching


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
    eq = LAYERS[constraint].eq
    memo = {}

    def node(key):
        p, qs = key
        label = local_obs(constraint, p).value
        acc = [sum(1 << i for i, q in enumerate(qs) if eq(label, local_obs(constraint, q).value))]
        for a, moves in groupby(step(p), operator.itemgetter(0)):
            if acc == [0]:
                break
            qa, succ = _step_masks(qs, a)
            children = set()
            for _, p2 in moves:
                sub = (p2, qa)
                if sub not in memo:
                    yield sub
                children.update(memo[sub])
            lifted = {sum(1 << i for i, s in enumerate(succ) if s & m) for m in children}
            acc = _minimal({x & y for x in acc for y in lifted})
        memo[key] = tuple(acc)

    return node, memo


def _db_witness(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """The least complete deterministic observation of p (by (nodes, obs))
    that q lacks.  It enumerates p's worlds, so the world cap is checked first."""
    check_world_cap(p)
    unmatched = (obs for obs in enum_complete_dbgo(constraint, p) if not bgo_member(obs, q))
    least = min(unmatched, key=lambda o: (o.nodes, o), default=None)
    if least is None:
        raise AssertionError("witness requested for a holding pair")
    return {"kind": "dbgo", "unmatched": least}


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
    memo = {}

    def node(key):
        p, qs = key
        value = False
        if _leaf_covered(p, qs, exact):
            for q in qs:
                for a, p2 in step(p):
                    sub = (p2, successors(q, a))
                    if sub not in memo:
                        yield sub
                    if not memo[sub]:
                        break
                else:
                    value = True
                    break
        memo[key] = value

    return node, memo


def _leaf_covered(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...], exact: bool) -> bool:
    return any(initials(q) == initials(p) for q in qs) if exact else bool(qs)


def _covered(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...], exact: bool) -> bool:
    node, memo = _cover_game(exact)
    return solve_game(node, (p, qs), memo)


def _uncovered_bgo(p: CanonicalTerm, q: CanonicalTerm, exact: bool) -> dict:
    """The witness of a refuted cover game, an observation of p that q does
    not match: at (p', Q) the leaf if no state of Q answers it, else one child
    per state, from its first uncovered move of p'; built children first on
    the stack of ``solve_game``, reading the cover game's memo."""
    built = {}

    def node(key):
        p, qs = key
        children = set()
        if _leaf_covered(p, qs, exact):
            for q in qs:
                for a, p2 in step(p):
                    sub = (p2, successors(q, a))
                    if not _covered(*sub, exact):
                        if sub not in built:
                            yield sub
                        children.add((a, built[sub]))
                        break
        built[key] = BranchingObs(local_obs("I", p), children)

    return {"kind": "bgo", "unmatched": solve_game(node, (p, (q,)), built)}


# ---------------------------------------------------------------------------
# Dispatch and the spectrum matrix


# The one flavor dispatch: flavor -> (holds(constraint, flavor, p, q),
# witness(constraint, flavor, p, q)), read only where ``_traced(p, q)``
# holds: every semantics refines trace inclusion, so the entry points ask
# it first, and a decider may take it as given.  `holds`, and
# `spectrum_matrix` for the cells that are no bit of a `_row`, read only
# the first; `decide` hands the second to a refuting verdict, which builds
# it on first read.
# The lambdas look their deciders up when called, so a replaced module
# function is the one used.  Every linear and extended-ready flavor reads
# its (constraint, rule) from ``spectrum.linear_rule`` through `_linear`,
# one cached lookup per cell that allocates nothing.  On canonical forms
# bisimilarity is identity.
_linear = lru_cache(maxsize=None)(linear_rule)
_DECIDERS = {
    **dict.fromkeys(LINEAR_RULES, (
        lambda c, f, p, q: _included(_linear(c, f), p, q),
        lambda c, f, p, q: _lgo_witness(*_linear(c, f), str(SemanticsId(c, f)), p, q),
    )),
    "bisim": (lambda c, f, p, q: p is q, lambda c, f, p, q: _bisim_refutation(p, q)),
    "b": (lambda c, f, p, q: simulates(c, p, q), lambda c, f, p, q: _sim_refutation(c, p, q)),
    "db": (lambda c, f, p, q: _db_included(c, p, q), lambda c, f, p, q: _db_witness(c, p, q)),
    "bf": (lambda c, f, p, q: _covered(p, (q,), True), lambda c, f, p, q: _uncovered_bgo(p, q, True)),
    "bf⊇": (lambda c, f, p, q: _covered(p, (q,), False), lambda c, f, p, q: _uncovered_bgo(p, q, False)),
}


def decide(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Does p lie below q in the given semantics?  Trace inclusion first,
    which every semantics refines, then the flavor's decider.  A refuting
    verdict builds its witness when first read."""
    constraint, flavor = sem.constraint, sem.flavor
    test, witness = _DECIDERS[flavor]
    if _traced(p, q) and test(constraint, flavor, p, q):
        return HOLDS
    return Verdict(False, None, witness, constraint, flavor, p, q)


def holds(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """``decide(sem, p, q).holds``, with no verdict built."""
    return _traced(p, q) and _DECIDERS[sem.flavor][0](sem.constraint, sem.flavor, p, q)


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
    "incomparable".  Trace inclusion is asked once per direction, and a
    refuted direction reads False in every cell.  The linear and
    extended-ready cells are bits of one ``_row`` per direction and
    constraint, computed when a cell first reads it; the other cells read
    the flavor dispatch.  Only the booleans are read, so no verdict or
    witness is built, and deciding enumerates no world, so every cell is
    decided."""
    out: dict[SemanticsId, str] = {}
    rows: dict[str, tuple[int, int]] = {}
    down, up = _traced(p, q), _traced(q, p)
    for sem in supported_ids():
        constraint, flavor = sem.constraint, sem.flavor
        if sem in _ROW_BITS:
            constraint, bit = _ROW_BITS[sem]
            if constraint not in rows:
                rows[constraint] = down and _row(constraint, p, q), up and _row(constraint, q, p)
            below, above = rows[constraint]
            below, above = below >> bit & 1, above >> bit & 1
        else:
            test = _DECIDERS[flavor][0]
            below = down and test(constraint, flavor, p, q)
            above = up and test(constraint, flavor, q, p)
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
    return {str(sem): cell for sem, cell in matrix.items()}
