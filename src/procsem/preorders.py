"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders, the extended-ready family included, as one mask game
  per layer (``_lin_game``) on positions (p, Q), a state of p against the
  set Q of states that q reaches by the same trace, whose value is the bit
  mask of the layer's rules that hold.  Each cell is settled at the
  coarsest of three layers that decides it:
  1. trace inclusion, which every semantics refines, so the entry points
     (``decide``, ``holds``, ``spectrum_matrix``) play it first for every
     family, as the bit ``_TRACE`` of C's game, which every leaf holds;
  2. the U shortcut: every U label is the same, so every U rule is the gate;
  3. the rule's bit of its layer's game (at S a `leq` rule is simulation);
  and a witness is the least unmatched decorated trace, found by a
  breadth-first walk that reads the games' memos,
* the exotic deciders: deterministic branching (a game over bit-masked
  types, the sets of q-states that match a world of p) and final-ready
  branching (a coverage game), both on the same driver; final-failure
  branching compares no offers, so it reads U:b's game.

A pair that the gate refutes is refuted in every semantics, and C's game
stops at the first move of p that Q cannot answer, so such pairs cost
almost nothing and play no other game.  Past the gate, ``spectrum_matrix``
reads the spectrum's order too (``spectrum.BRACKETS``): S's mask game is
refuted when IF is; N:b is refuted when the next coarser b or N:l is; N:db
holds when N:b does and is refuted when N:l is, as I:bf is between RS and
R; so it plays those games only where the brackets leave a cell open.
``decide`` and ``holds`` play each id's own game, the oracle of every cell
the matrix infers.

One table, ``_SOURCES``, says for every id which game it reads past the
gate and which bits of that game's value say it holds: ``decide``,
``holds``, ``spectrum_matrix`` and the witness walk all read it.  Every cell
is read at the one key (p, {q}): C's memo, then past the gate the memo of
the id's game (``_reader``), so a warm cell starts no game.

Negative verdicts carry replayable witnesses: a refutation tree for
simulations, the least unmatched decorated trace (by ``LinearObs.sort_key``)
for linear flavors, the least unmatched complete deterministic observation
for ``db``.  Every witness is built when it is first read, so deciding alone
pays for no witness and enumerates no world: the world cap guards only the
``db`` witness, and only the witness builders load ``observations``.
``holds`` is the boolean of ``decide(sem, p, q)``, with no verdict;
``decide_nsim`` takes q's transition relation, for the operational engine
and ``logic``.
``engine(name)`` names the decider of each of the three engines, and
``coverage(sem)`` lists the pathways that characterize a semantics.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress, groupby

from .constraints import (
    LAYERS,
    LocalObs,
    _sim_game,
    constraint_holds,
    local_obs,
    simulates,
    solve_game,
)
from .lts import initials, step
from .spectrum import BRACKETS, LINEAR_RULES, SemanticsId, UncoveredSemanticsError, linear_rule, supported_ids
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
    if label.constraint == "T":  # an action holds no ".", so joined traces stay apart
        return [".".join(t) for t in LAYERS["T"].key(label.value)]
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
# Linear flavors, and trace inclusion, the gate of every family


def _revival_action(geq, x, finals):
    """The least element of x that no final below x offers, where meet
    (revivals-style) matching fails with some final below x; else None."""
    below = [y for y in finals if geq(x, y)]
    missing = x.difference(*below) if below else ()
    return min(missing, key=lambda e: (len(e), e) if isinstance(e, tuple) else e, default=None)


# The relations of ``spectrum.LINEAR_RULES``, in the order of the lists
# that ``_comparisons`` returns, which the mask games index.
_RELATIONS = ("eq", "geq", "leq", "complete", "meet")


def _comparisons(constraint: str, names):
    """compare(x, ys): per relation of ``_RELATIONS``, whether p's label x
    relates to each label y of Q, read off one geq(x, y) and one geq(y, x)
    per y (one list where the layer's geq is its eq, as at C); complete and
    meet are None unless `names` holds them.  Meet's list is one boolean:
    some y lies below x, and those y offer every element of x."""
    eq, geq = LAYERS[constraint].eq, LAYERS[constraint].geq
    complete, meet = "complete" in names, "meet" in names

    def compare(x, ys):
        g = [geq(x, y) for y in ys]
        if geq is eq:
            return g, g, g, None, None
        l = [geq(y, x) for y in ys]
        return (
            [a and b for a, b in zip(g, l)], g, l,
            # q's offer dominates p's, and only an empty offer answers an empty one
            (l if x else [not y for y in ys]) if complete else None,
            [True in g and not x.difference(*compress(ys, g))] if meet else None,
        )

    return compare


# C's game holds the gate, trace inclusion, in bit 0: the bits of the rules start at bit 1.
_TRACE = 1


def _row_tables() -> tuple[dict, dict]:
    """(sources, plans): the one statement of the game each id reads.  Per
    supported id ``((kind, arg), mask)``: the game that decides it past the
    gate (``_reader(kind, arg)``) and the bits of that game's value that say
    it holds; and per constraint the plan of its layer's mask game, (final
    relation -> bit mask, prefix relation -> bit mask).  A linear or
    extended-ready id reads its rule's bit of its layer's ``_lin_game`` (U,
    C and S have 7 rules, T 8 and I 10, as ER, ERT, ECR and ECRT compare I
    labels and ER and ERT rerun I:lf⊆ and I:l⊆), with two exceptions that
    hold no bit: every U label is the same, so a U rule is the gate,
    ``_TRACE``; and at S a rule whose final relation is `leq` asks that Q
    simulate p (the empty trace asks it, and a simulation answers each path
    of p pointwise), so it reads U:b's game, as does final-failure
    branching, which compares no offers.  Every other id reads the boolean
    value of its own game, mask 1, `I:bf` ("cover", None).  At C every rule
    plays (None, eq): only a path's last state can be nil, so a prefix
    relation drops only nil states, which have no moves, and geq and leq are
    eq."""
    sources, games, plans = {}, {}, {}
    for sem in supported_ids():
        constraint, flavor = sem
        source, mask = ("sim" if flavor == "b" else flavor, constraint), 1  # b, db and bisim
        if flavor == "bf":
            source = ("cover", None)
        elif flavor == "bf⊇":
            source = ("sim", "U")
        elif flavor in LINEAR_RULES:
            constraint, rule = linear_rule(constraint, flavor)
            if constraint == "U":
                source, mask = ("lin", "C"), _TRACE
            elif constraint == "S" and rule[1] == "leq":
                source = ("sim", "U")
            else:
                source = ("lin", constraint)
                if (constraint, rule) not in games:
                    bit = games[constraint, rule] = 2 << sum(n == constraint for n, _ in games)
                    prefix, final = (None, "eq") if constraint == "C" else rule
                    finals, prefixes = plans.setdefault(constraint, ({}, {}))
                    finals[final] = finals.get(final, 0) | bit
                    prefixes[prefix] = prefixes.get(prefix, 0) | bit
                mask = games[constraint, rule]
        sources[sem] = source, mask
    plans["C"][1][None] |= _TRACE
    return sources, plans


_SOURCES, _PLANS = _row_tables()
# The games of ``spectrum.BRACKETS`` in its order, each with its (holders,
# refuters) as ``_SOURCES`` entries; ``spectrum_matrix`` reads the others
# first.  A refuted bracket refutes every id that reads its game.
_BRACKETS = {_SOURCES[sem][0]: [[_SOURCES[s] for s in ids] for ids in pair] for sem, pair in BRACKETS.items()}
_UNBRACKETED = [*dict.fromkeys(s for s, _ in _SOURCES.values() if s not in _BRACKETS and s != ("lin", "C"))]


@lru_cache(maxsize=None)
def _lin_game(constraint: str):
    """lin(p, Q): the bit mask of the rules of the layer's game (their masks
    in ``_SOURCES``, its plan in ``_PLANS``) that match every decorated trace
    of p against the states Q, and at C the gate, trace inclusion, as the
    bit ``_TRACE``, which every leaf holds.  A rule's bit holds at (p, Q)
    when p's label passes the rule's final relation against Q and every
    move p -a-> p' has a non-empty Q'/a with the bit holding at (p', Q'/a):
    Q' is the states of Q whose labels p's label relates to under the rule's
    prefix relation (all of Q for None), and Q'/a their deduplicated
    a-successors (``_step_masks``).  A position compares p's label with each
    label of Q once each way (``_comparisons``) and reads every final
    relation and every Q' off those lists; the prefix relations whose Q'
    coincide share one pass over p's moves, which stops when its mask
    reaches 0.  This is the on-the-fly subset construction of De Wulf,
    Doyen, Henzinger and Raskin (CAV 2006), without antichains, one game per
    layer."""
    label = LAYERS[constraint].value
    finals, prefixes = _PLANS[constraint]
    compare = _comparisons(constraint, [*finals, *prefixes])
    finals = [(_RELATIONS.index(final), mask) for final, mask in finals.items()]
    prefixes = [(prefix and _RELATIONS.index(prefix), mask) for prefix, mask in prefixes.items()]
    leaf = _TRACE if constraint == "C" else 0
    memo = {}

    def node(key):
        p, qs = key
        lists = compare(label(p), [label(q) for q in qs])
        value = leaf
        for i, mask in finals:
            if True in lists[i]:
                value |= mask
        if value and p.summands:
            live: dict = {}
            for i, mask in prefixes:
                if value & mask:
                    keep = () if i is None else lists[i]  # all of Q, unless it drops some state
                    kept = tuple(compress(qs, keep)) if False in keep else qs
                    live[kept] = live.get(kept, 0) | value & mask
            value = 0
            for kept, mask in live.items():
                for a, p2 in step(p):
                    sub = (p2, _step_masks(kept, a)[0])
                    if not sub[1]:
                        mask = 0
                        break
                    if sub not in memo:
                        yield sub
                    mask &= memo[sub]
                    if not mask:
                        break
                value |= mask
        memo[key] = value

    return node, memo


def _lgo_witness(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """The least unmatched decorated trace of p (by ``LinearObs.sort_key``:
    length, trace, label keys) as a witness of a refuted linear or
    extended-ready id, with the revival action of a failed meet.  A
    breadth-first walk from (p, {q}), one trace length per level, keeps per
    (trace, position (p', Q)) the least label-key prefix that reaches it,
    which is exact, as the order is lexicographic, and skips every position
    that the id's cell (``_cell``) wins.  The least (trace, label keys) of
    the first level where a label fails its final test against Q (or Q is
    empty) is the witness."""
    from .observations import LinearObs

    constraint, rule = linear_rule(*sem)
    read, mask = _cell(sem)
    key, label = LAYERS[constraint].key, LAYERS[constraint].value
    compare = _comparisons(constraint, rule)
    prefix, final = (r and _RELATIONS.index(r) for r in rule)
    x = label(p)
    level = {((), p, (q,)): ((key(x),), (x,))}  # (trace, p', Q) -> (label keys, labels)
    while not (failed := [(trace, keys, xs, qs) for (trace, _, qs), (keys, xs) in level.items()
                          if True not in compare(xs[-1], [label(r) for r in qs])[final]]):
        if not level:
            raise AssertionError("witness requested for a holding pair")
        below: dict = {}
        for (trace, s, qs), (keys, xs) in level.items():
            if prefix is not None:
                qs = tuple(compress(qs, compare(xs[-1], [label(r) for r in qs])[prefix]))
            for a, s2 in step(s):
                qs2 = _step_masks(qs, a)[0]
                if qs2 and read((s2, qs2)) & mask:
                    continue
                y = label(s2)
                at, entry = (trace + (a,), s2, qs2), (keys + (key(y),), xs + (y,))
                below[at] = min(below.get(at, entry), entry)
        level = below
    trace, _, xs, qs = min(failed, key=lambda f: f[:2])
    head, *labels = [LocalObs(constraint, x) for x in xs]
    witness = {"kind": "lgo", "unmatched": LinearObs(head, tuple(zip(trace, labels))), "semantics": str(sem)}
    if rule[1] == "meet":
        element = _revival_action(LAYERS[constraint].geq, xs[-1], [label(r) for r in qs])
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
    from .observations import bgo_member, check_world_cap, enum_complete_dbgo

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
    types = _reader("types", constraint)
    return constraint_holds(constraint, p, q) and all(
        0 not in types((p2, _step_masks((q,), a)[0])) for a, p2 in step(p)
    )


# ---------------------------------------------------------------------------
# Final-ready branching (constraint I)


@lru_cache(maxsize=None)
def _cover_game():
    """cov(p, Q): some q in Q matches each branching observation of p.

    Only leaves compare offers, exactly (final-failure branching compares
    none, so it reads U-simulation).  Observations are closed under dropping
    children, so one q must match the observation with all child pairs:
    cov(p, Q) = some q in Q offers I(p) and (p = 0 ? Q nonempty : some q in
    Q has cov(p', q/a) for every p -a-> p').
    """
    memo = {}

    def node(key):
        p, qs = key
        value = False
        if _leaf_covered(p, qs):
            for q in qs:
                for a, p2 in step(p):
                    sub = (p2, _step_masks((q,), a)[0])
                    if sub not in memo:
                        yield sub
                    if not memo[sub]:
                        break
                else:
                    value = True
                    break
        memo[key] = value

    return node, memo


def _leaf_covered(p: CanonicalTerm, qs: tuple[CanonicalTerm, ...]) -> bool:
    return any(initials(q) == initials(p) for q in qs)


def _uncovered_bgo(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> dict:
    """The witness of a refuted `I:bf` or `I:bf⊇`, an observation of p that q
    does not match: at (p', Q) the leaf if no state of Q answers it (at
    `I:bf⊇` any state does), else one child per state, from its first move
    of p' that the id's cell (``_cell``) leaves uncovered; built children
    first on the stack of ``solve_game``."""
    from .observations import BranchingObs

    built, (covered, _) = {}, _cell(sem)

    def node(key):
        p, qs = key
        children = set()
        if sem.flavor == "bf⊇" or _leaf_covered(p, qs):
            for q in qs:
                for a, p2 in step(p):
                    sub = (p2, _step_masks((q,), a)[0])
                    if not covered(sub):
                        if sub not in built:
                            yield sub
                        children.add((a, built[sub]))
                        break
        built[key] = BranchingObs(local_obs("I", p), children)

    return {"kind": "bgo", "unmatched": solve_game(node, (p, (q,)), built)}


# ---------------------------------------------------------------------------
# The cell table and the spectrum matrix


@lru_cache(maxsize=None)
def _reader(kind: str, arg):
    """read(key): the value at key = (p, Q) of the game (kind, arg), read
    from its memo first, so a warm read starts no game.  The games of
    ``_SOURCES``: "lin", the mask game of layer `arg`; "cover", final-ready
    branching's cover game (`arg` None); "sim", the `arg`-simulation, True
    when some q in Q simulates p; "db", deterministic branching at `arg`,
    and "bisim", identity on canonical forms, both for Q = {q}.  And "types", the types
    game of "db".  Cached, so ``clear_caches()`` drops it with its memo."""
    if kind == "db":
        memo = {}
        return lambda k: memo[k] if k in memo else memo.setdefault(k, _db_included(arg, k[0], k[1][0]))
    if kind == "bisim":
        return lambda key: key[0] is key[1][0]
    if kind == "sim":
        node, memo = _sim_game(arg, step)

        def simulated(key):
            p, qs = key
            for q in qs:
                pair = (p, q)
                value = memo.get(pair)
                if value is None:
                    value = solve_game(node, pair, memo)
                if value:
                    return True
            return False

        return simulated
    node, memo = _cover_game() if kind == "cover" else {"lin": _lin_game, "types": _types_game}[kind](arg)

    def read(key):
        value = memo.get(key)
        return solve_game(node, key, memo) if value is None else value

    return read


@lru_cache(maxsize=None)
def _cell(sem: SemanticsId):
    """(read, mask): p lies below q in `sem`, past the trace gate, when
    ``read((p, {q})) & mask``, the reader and mask of its ``_SOURCES`` entry.
    Cached, and first asked past the gate, so no game is built for pairs the
    gate refutes."""
    source, mask = _SOURCES[sem]
    return _reader(*source), mask


# The witness of a refuted cell, per flavor, as witness(constraint, flavor,
# p, q); `decide` hands it to the refuting verdict, which builds it on first
# read.  The lambdas look their builders up when called, so a replaced module
# function is the one used.
_WITNESSES = {
    **dict.fromkeys(LINEAR_RULES, lambda c, f, p, q: _lgo_witness(SemanticsId(c, f), p, q)),
    "bisim": lambda c, f, p, q: _bisim_refutation(p, q),
    "b": lambda c, f, p, q: _sim_refutation(c, p, q),
    "db": lambda c, f, p, q: _db_witness(c, p, q),
    **dict.fromkeys(("bf", "bf⊇"), lambda c, f, p, q: _uncovered_bgo(SemanticsId(c, f), p, q)),
}


def decide(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> Verdict:
    """Does p lie below q in the given semantics?  Trace inclusion first,
    which every semantics refines, as the ``_TRACE`` bit of C's game, then
    the id's cell (``_cell``), both read at the one key (p, {q}).  A
    refuting verdict builds its witness when first read, and is itself built
    with no ``__init__`` call, as most decisions refute."""
    key = (p, (q,))
    node, memo = _lin_game("C")
    gate = memo.get(key)
    if gate is None:
        gate = solve_game(node, key, memo)
    if gate & _TRACE:
        read, mask = _cell(sem)
        if read(key) & mask:
            return HOLDS
    constraint, flavor = sem
    verdict = object.__new__(Verdict)  # Verdict(False, None, build, *args), with no __init__ call
    verdict.holds, verdict._witness = False, None
    verdict._build, verdict._args = _WITNESSES[flavor], (constraint, flavor, p, q)
    return verdict


def holds(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """``decide(sem, p, q).holds``, with no verdict built."""
    key = (p, (q,))
    node, memo = _lin_game("C")
    gate = memo.get(key)
    if gate is None:
        gate = solve_game(node, key, memo)
    if gate & _TRACE:
        read, mask = _cell(sem)
        return read(key) & mask != 0
    return False


def engine(name: str):
    """The decider of the "direct", "observational" or "operational" engine:
    ``decide``, or one that takes a cap after the terms (None for its
    default) and raises UncoveredSemanticsError on a semantics it does not
    decide.  The operational engine's module loads on first use."""
    if name == "direct":
        return decide
    if name == "observational":
        from .observations import decide_via_observations

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
        "observational": lambda: engine("observational")(sem, NIL, NIL),
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
    "incomparable".  Trace inclusion is asked once per direction, as C's
    game: a refuted direction reads False in every cell and plays no other
    game, and a pair refuted both ways is incomparable everywhere.  Each
    cell is its ``_SOURCES`` mask of its game's value at (p, {q}) and at
    (q, {p}), and each game is read at most once per direction: all the
    linear ids of a layer share one value, as S `leq` rules and `I:bf⊇`
    share U:b's.  The games no bracket settles come first, then those of
    ``_BRACKETS`` in order (S's mask game, simulations from C to S, `db`,
    then the cover game), each read only in a direction that its brackets
    leave open.  Only the booleans are read, so no verdict or witness is
    built, and deciding enumerates no world, so every cell is decided."""
    keys = (p, (q,)), (q, (p,))
    read = _reader("lin", "C")
    gate = read(keys[0]), read(keys[1])
    down, up = gate[0] & _TRACE, gate[1] & _TRACE
    if not (down or up):
        return dict.fromkeys(supported_ids(), "incomparable")
    values = {("lin", "C"): gate}  # (kind, arg) -> its value at both keys
    for source in _UNBRACKETED:
        read = _reader(*source)
        values[source] = down and read(keys[0]), up and read(keys[1])
    for source, (holders, refuters) in _BRACKETS.items():  # a refuter in a layer's mask game, 0 where the gate fails
        read, value = _reader(*source), []
        for i, key in enumerate(keys):  # loops, not generators: most brackets settle their cells
            for s, m in refuters:
                if not values[s][i] & m:
                    value.append(0)
                    break
            else:
                for s, m in holders:
                    if values[s][i] & m:
                        value.append(True)
                        break
                else:
                    value.append(read(key))
        values[source] = value
    out: dict[SemanticsId, str] = {}
    for sem, (source, mask) in _SOURCES.items():
        value = values[source]
        below, above = value[0] & mask, value[1] & mask
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
