"""The production decision engine for every point of the extended spectrum.

Three families of procedures live here:

* constrained simulations (the branching backbone), played as memoized
  games on the driver of ``constraints``,
* linear deciders, the extended-ready family included, as one mask game
  per layer (``_lin_game``) on positions (p, Q), a state of p against the
  set Q of states that q reaches by the same trace, whose value is the bit
  mask of the layer's rules that hold.  A position relates p's label to
  each label of Q once, as a relation code (``_relater``), reads its rules
  off two tables per layer compiled at import (``_TABLES``), indexed by
  the OR and the AND of its codes, and probes its memo once per move.
  Each cell is settled at the coarsest of three layers that decides it:
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
``holds`` is the boolean of ``decide(sem, p, q)``, read through it;
``decide_nsim`` takes q's transition relation, for the operational engine
and ``logic``.
``engine(name)`` names the decider of each of the three engines, and
``coverage(sem)`` lists the pathways that characterize a semantics.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import groupby

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


# A relation code says how p's label x relates to a label y of Q, one bit per
# relation of ``spectrum.LINEAR_RULES``.  Meet is a bit of the whole
# position: an equal y covers x on its own, and at a layer that plays meet
# the y below x may cover it together.
_BITS = {"eq": 1, "geq": 2, "leq": 4, "complete": 8, "meet": 16}
_EQ, _GEQ, _LEQ, _COMPLETE, _MEET = _BITS.values()
_ALL = _EQ | _GEQ | _LEQ | _COMPLETE | _MEET  # the code of an equal y, which covers x alone


def _relater(constraint: str):
    """relate(p, qs) -> (codes, some, every): the relation code of p's label x
    with the label y of each state of `qs`, their OR and their AND.  Each
    code is read off one geq(x, y) and one geq(y, x) (one eq(x, y) where the
    layer's geq is its eq, as at C); complete is leq, and an empty offer
    only by an empty one.  `some` holds meet when an equal y does, or, at a
    layer that plays meet, when the y below x together offer every element
    of x."""
    label, eq, geq = LAYERS[constraint].value, LAYERS[constraint].eq, LAYERS[constraint].geq
    one, meet = geq is eq, "meet" in _PLANS.get(constraint, ({},))[0]

    def relate(p, qs):
        x = label(p)
        codes, some, every = [], 0, _ALL
        for q in qs:
            y = label(q)
            if one:
                code = _ALL if eq(x, y) else 0
            elif geq(x, y):
                code = _ALL if geq(y, x) else _GEQ
            elif geq(y, x):
                code = _LEQ | _COMPLETE if x or not y else _LEQ
            else:
                code = 0
            codes.append(code)
            some |= code
            every &= code
        if meet and some & (_GEQ | _MEET) == _GEQ and not x.difference(
            *(label(q) for q, code in zip(qs, codes) if code & _GEQ)
        ):
            some |= _MEET
        return codes, some, every

    return relate


def _table(masks: dict, base: int = 0) -> tuple[int, ...]:
    """Per relation code, `base` and the masks (by relation) of every
    relation the code holds: 32 entries, doubled once per bit."""
    table = (base,)
    for relation in _BITS:  # bits 1, 2, 4, 8, 16 in turn
        table += tuple(map(masks.get(relation, 0).__or__, table))
    return table


# C's game holds the gate, trace inclusion, in bit 0: the bits of the rules start at bit 1.
_TRACE = 1


def _row_tables() -> tuple[dict, dict, dict]:
    """(sources, plans, tables): the one statement of the game each id reads.  Per
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
    eq.  And per constraint its plan compiled into two tables indexed by a
    relation code (``_table``): the bits whose final relation the code
    holds, and the bits whose prefix relation is None or held."""
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
    tables = {n: (_table(finals), _table(prefixes, prefixes.get(None, 0)))
              for n, (finals, prefixes) in plans.items()}
    return sources, plans, tables


_SOURCES, _PLANS, _TABLES = _row_tables()
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
    a-successors (``_step_masks``).  A position reads one relation code per
    state of Q (``_relater``) and its rules off the layer's two tables
    (``_TABLES``): its value is the leaf bit and FINAL[OR of the codes], the
    rules that keep all of Q are those of KEEP[AND of the codes], and a
    filtered Q' is built only for a rule that some but not all states pass,
    never when |Q| = 1.  The rules whose Q' coincide share one pass over p's
    moves, which stops when its mask reaches 0, and probes the memo once per
    sub-position.  This is the on-the-fly subset construction of De Wulf,
    Doyen, Henzinger and Raskin (CAV 2006), without antichains, one game per
    layer."""
    relate = _relater(constraint)
    final, keep = _TABLES[constraint]
    prefixes = [(_BITS[r], mask) for r, mask in _PLANS[constraint][1].items() if r]
    leaf = _TRACE if constraint == "C" else 0
    memo = {}

    def node(key):
        p, qs = key
        codes, some, every = relate(p, qs)
        value = leaf | final[some]
        if value and p.summands:
            value &= keep[some]  # a rule whose prefix relation no state passes has an empty Q'
            whole = value & keep[every]
            live = {qs: whole} if whole else {}
            if value != whole:
                for bit, mask in prefixes:
                    mask &= value & ~whole
                    if mask:
                        kept = tuple(q for q, code in zip(qs, codes) if code & bit)
                        live[kept] = live.get(kept, 0) | mask
            value = 0
            for kept, mask in live.items():
                for a, p2 in step(p):
                    sub = (p2, _step_masks(kept, a)[0])
                    if not sub[1]:
                        mask = 0
                        break
                    if (held := memo.get(sub)) is None:
                        yield sub
                        held = memo[sub]
                    mask &= held
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
    that the id's cell (``_cell``) wins.  Each position of a level is
    related once (``_relater``, the codes of the mask games): the least
    (trace, label keys) of the first level where a label's codes lack the
    rule's final bit (or Q is empty) is the witness, and a rule's Q' keeps
    the states whose codes hold its prefix bit."""
    from .observations import LinearObs

    constraint, rule = linear_rule(*sem)
    read, mask = _cell(sem)
    key, label = LAYERS[constraint].key, LAYERS[constraint].value
    relate = _relater(constraint)
    prefix, final = (r and _BITS[r] for r in rule)
    x = label(p)
    level = {((), p, (q,)): ((key(x),), (x,))}  # (trace, p', Q) -> (label keys, labels)
    while True:
        if not level:
            raise AssertionError("witness requested for a holding pair")
        related = {at: relate(at[1], at[2]) for at in level}  # (trace, p', Q) -> (codes, some, every)
        failed = [(at[0], keys, xs, at) for at, (keys, xs) in level.items() if not related[at][1] & final]
        if failed:
            break
        below: dict = {}
        for (trace, s, qs), (keys, xs) in level.items():
            if prefix:
                qs = tuple(r for r, code in zip(qs, related[trace, s, qs][0]) if code & prefix)
            for a, s2 in step(s):
                qs2 = _step_masks(qs, a)[0]
                if qs2 and read((s2, qs2)) & mask:
                    continue
                y = label(s2)
                at, entry = (trace + (a,), s2, qs2), (keys + (key(y),), xs + (y,))
                below[at] = min(below.get(at, entry), entry)
        level = below
    trace, _, xs, at = min(failed, key=lambda f: f[:2])
    head, *labels = [LocalObs(constraint, x) for x in xs]
    witness = {"kind": "lgo", "unmatched": LinearObs(head, tuple(zip(trace, labels))), "semantics": str(sem)}
    if rule[1] == "meet":  # revivals: the least element of x that no final below x offers
        below = [label(r) for r, code in zip(at[2], related[at][0]) if code & _GEQ]
        missing = xs[-1].difference(*below) if below else ()
        if missing:
            witness["revival_action"] = min(missing, key=lambda e: (len(e), e) if isinstance(e, tuple) else e)
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
    label, eq = LAYERS[constraint].value, LAYERS[constraint].eq
    memo = {}

    def node(key):
        p, qs = key
        x = label(p)
        acc = [sum(1 << i for i, q in enumerate(qs) if eq(x, label(q)))]
        for a, moves in groupby(step(p), operator.itemgetter(0)):
            if acc == [0]:
                break
            qa, succ = _step_masks(qs, a)
            children = set()
            for _, p2 in moves:
                sub = (p2, qa)
                if (types := memo.get(sub)) is None:
                    yield sub
                    types = memo[sub]
                children.update(types)
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
                    if (covered := memo.get(sub)) is None:
                        yield sub
                        covered = memo[sub]
                    if not covered:
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
    """``decide(sem, p, q).holds``: one read path per cell.  A refuted pair
    pays for its verdict, never for its witness."""
    return decide(sem, p, q).holds


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
        value = []
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
                    value.append(_reader(*source)(key))
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
