"""Modal formulas, satisfaction, sublogic grammars and distinguishing formulas.

Formulas are Hennessy-Milner style with finite conjunction: top, conjunction,
negation and action diamonds.  Each point of the spectrum owns a grammar; a
preorder holds between two terms exactly when every grammar formula satisfied
by the left one is satisfied by the right one.  ``distinguish`` decides a
preorder once and reads the refuting verdict's witness as a formula of the
corresponding grammar, giving an independently checkable certificate: the
refutation tree of a simulation or bisimulation game is walked once, by the
decider, and each move becomes a diamond over the conjunction of its
responses (negated for a bisimulation move of the right side).

Grammar anatomy: each constraint N has a small base logic (what a single
state shows), and the flavors assemble chains or trees whose per-state
conjuncts come from the base logic's symmetric closure (exact pins), negative
closure (upper bounds) or positive closure (lower bounds).

Nothing here recurses once per operator: formulas are parsed and printed
in the loops ``terms`` shares with terms, ``sat`` is a position on the game
driver ``constraints.solve_game``, the characteristic formulas and the
formulas of branching observations are folds on it (``constraints.fold``),
and the subformula walk, the grammar walk, the conjunct variants and the
refutation formulas run on stacks.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial, reduce
from operator import attrgetter

from .constraints import constraint_holds, fold, local_obs, simulates, solve_game
from .lts import initials, reachable, step
from .observations import BranchingObs, LinearObs
from .preorders import decide, decide_nsim
from .spectrum import LINEAR_RULES, RELATION_PARTS, SemanticsId, UncoveredSemanticsError, parse_semantics
from .spectrum import linear_rule
from .terms import ACTION_RE, SPACE_RE, CanonicalTerm, parse_sums, render_pieces

__all__ = [
    "Formula",
    "TOP",
    "Conj",
    "Neg",
    "Diamond",
    "conj",
    "parse_formula",
    "render_formula",
    "formula_actions",
    "sat",
    "zero_formula",
    "not_zero",
    "chain",
    "base_constraint_logic",
    "BaseLogic",
    "in_sublogic",
    "formula_from_observation",
    "distinguish",
]


class Formula:
    """Interned formula tree; equality is identity.  Like ``CanonicalTerm``,
    a node is interned on its kind and its own parts (members, or action and
    body), which are interned too, so a lookup hashes the node's width,
    never its tree.  ``TOP`` is ``Formula()``, the one bare node; the members
    of a conjunction are never conjunctions or ``TOP``, and are sorted."""

    __slots__ = ()
    _kind = "T"
    _interned: dict[tuple, "Formula"] = {}

    def __new__(cls, *parts):
        key = (cls._kind, *parts)
        hit = Formula._interned.get(key)
        if hit is None:
            if len(parts) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes the parts {cls.__slots__}")
            hit = object.__new__(cls)
            for name, part in zip(cls.__slots__, parts):
                setattr(hit, name, part)
            hit = Formula._interned.setdefault(key, hit)
        return hit

    def __lt__(self, other: "Formula") -> bool:
        """Kind ("&" < "<>" < "T" < "~"), then the parts in turn; a loop
        walks the first differing pair of subformulas, as in terms."""
        x, y = self, other
        while x is not y:
            if x._kind != y._kind:
                return x._kind < y._kind
            if x._kind == "&":
                for s, t in zip(x.members, y.members):
                    if s is not t:
                        x, y = s, t
                        break
                else:
                    return len(x.members) < len(y.members)
            elif x._kind == "<>" and x.action != y.action:
                return x.action < y.action
            else:  # one action, or two negations; TOP is one object
                x, y = x.body, y.body
        return False

    def __repr__(self):
        return render_formula(self)


TOP: Formula = Formula()


class Conj(Formula):
    __slots__ = ("members",)
    _kind = "&"

    def __new__(cls, members):
        items = set()
        for m in members:
            if isinstance(m, Conj):
                items.update(m.members)
            elif m is not TOP:
                items.add(m)
        if len(items) < 2:
            return items.pop() if items else TOP
        return super().__new__(cls, tuple(sorted(items)))


class Neg(Formula):
    __slots__ = ("body",)
    _kind = "~"


class Diamond(Formula):
    __slots__ = ("action", "body")
    _kind = "<>"


def conj(*members) -> Formula:
    return Conj(members)


def chain(trace, tail: Formula = TOP) -> Formula:
    """Diamond chain <a1><a2>...tail."""
    out = tail
    for a in reversed(tuple(trace)):
        out = Diamond(a, out)
    return out


def zero_formula(alphabet) -> Formula:
    """Satisfied exactly by terminated states: no action is offered."""
    return Conj([Neg(Diamond(a, TOP)) for a in sorted(alphabet)])


def not_zero(alphabet) -> Formula:
    return Neg(zero_formula(alphabet))


def _subformulas(f: Formula):
    """Each subformula of f, f too, once, however often it is shared."""
    seen, todo = {f}, [f]
    while todo:
        g = todo.pop()
        yield g
        for h in g.members if isinstance(g, Conj) else (g.body,) if isinstance(g, (Neg, Diamond)) else ():
            if h not in seen:
                seen.add(h)
                todo.append(h)


def formula_actions(f: Formula) -> frozenset[str]:
    return frozenset(g.action for g in _subformulas(f) if isinstance(g, Diamond))


# ---------------------------------------------------------------------------
# Parsing and printing.  Concrete syntax: T | ~F | <a>F | F & F | (F)


class FormulaParseError(ValueError):
    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


def _modal(text: str, pos: int):
    if text[pos] == "~":
        return Neg, pos + 1
    if text[pos] == "<":
        if not (m := ACTION_RE.match(text, pos + 1)):
            raise FormulaParseError("expected action name", pos + 1)
        pos = SPACE_RE.match(text, m.end()).end()
        if not text.startswith(">", pos):
            raise FormulaParseError("expected '>'", pos)
        return partial(Diamond, m.group()), pos + 1


def parse_formula(text: str) -> Formula:
    """Parse a formula in the loops of ``terms.parse_sums``: chains of ``~``
    and ``<a>`` over ``T`` or a group, with ``&`` folded into ``Conj``."""
    return parse_sums(
        text, "&", _modal, atom=lambda text, pos: (TOP, pos + 1) if text[pos] == "T" else None,
        join=Conj, end="unexpected end of formula",
        fail=lambda message, offset, expected: FormulaParseError(message, offset),  # no expected set
    )


def _formula_pieces(f: Formula):
    if f is TOP:
        return ("T",)
    if isinstance(f, Conj):  # the members, joined by " & "
        out = [" & "] * (2 * len(f.members) - 1)
        out[::2] = f.members
        return out
    if not isinstance(f, (Neg, Diamond)):
        raise TypeError(f"not a formula: {f!r}")
    head = "~" if isinstance(f, Neg) else f"<{f.action}>"
    return (head + "(", f.body, ")") if isinstance(f.body, Conj) else (head, f.body)


def render_formula(f: Formula) -> str:
    return render_pieces(f, _formula_pieces)


# ---------------------------------------------------------------------------
# Satisfaction


@lru_cache(maxsize=None)
def _sat_game():
    memo = {}

    def node(key):
        # a diamond holds at its first answering move, a conjunction fails at
        # its first false member, and a negation is its body's value negated
        # (one loop over sub-positions and a stop value for all kinds was slower)
        p, f = key
        value = True
        if isinstance(f, Diamond):
            value = False
            for a, q in step(p):
                if a == f.action:
                    if (held := memo.get((q, f.body))) is None:
                        yield q, f.body
                        held = memo[q, f.body]
                    if held:
                        value = True
                        break
        elif isinstance(f, (Conj, Neg)):
            for m in f.members if isinstance(f, Conj) else (f.body,):
                if (held := memo.get((p, m))) is None:
                    yield p, m
                    held = memo[p, m]
                if not held:
                    value = False
                    break
            if isinstance(f, Neg):
                value = not value
        elif f is not TOP:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = value

    return node, memo


def sat(p: CanonicalTerm, f: Formula) -> bool:
    """Does p satisfy f?  The position (p, f) on the game driver
    ``solve_game``, so formulas of any depth answer; its memo is held by the
    ``lru_cache`` of ``_sat_game``, which ``clear_caches()`` empties."""
    node, memo = _sat_game()
    return solve_game(node, (p, f), memo)


# ---------------------------------------------------------------------------
# Base constraint logics and their closures


@lru_cache(maxsize=None)
def _contains(logic: BaseLogic, f: Formula) -> bool:
    n = logic.constraint
    if f is TOP:
        return True
    if n == "U":
        return False
    if f is logic._not_zero:
        return True
    if n == "C":
        return False
    if n == "I":
        return isinstance(f, Diamond) and f.body is TOP and f.action in logic.alphabet
    if n == "T":
        while isinstance(f, Diamond):
            f = f.body
        return f is TOP
    if n == "S":  # positive: no negation anywhere
        return not any(isinstance(g, Neg) for g in _subformulas(f))
    raise ValueError(f"unknown constraint {n!r}")


class BaseLogic:
    """The formulas a single state can be probed with under constraint N."""

    def __init__(self, constraint: str, alphabet: frozenset[str]):
        self.constraint = constraint
        self.alphabet = frozenset(alphabet)
        self._not_zero = not_zero(self.alphabet)

    # memoized per (logic, formula) at module level, where clear_caches finds it
    contains = _contains


@lru_cache(maxsize=None)
def base_constraint_logic(constraint: str, alphabet: frozenset) -> BaseLogic:
    return BaseLogic(constraint, alphabet)


def _leaf_mode(logic: BaseLogic, f: Formula, mode: str) -> bool:
    """Is f a legitimate closure leaf?  mode: eq (s or ~s), neg (~s), pos
    (s), or rev, whose leaves are eq's (see ``_GRAMMARS``)."""
    return (mode != "neg" and logic.contains(f)) or (
        mode != "pos" and isinstance(f, Neg) and logic.contains(f.body)
    )


def _flatten(f: Formula) -> tuple[Formula, ...]:
    """The conjuncts of f; a conjunction's members are never conjunctions."""
    if isinstance(f, Conj):
        return f.members
    return () if f is TOP else (f,)


# ---------------------------------------------------------------------------
# Sublogic membership

# The grammars (van Glabbeek 2001): flavor -> (mode of the pins before the
# last state, None when there are none; mode of the last state's pins; how a
# state continues).  A mode is "eq", "neg" or "pos" (see ``_pin``), or "rev":
# eq leaves with at most one positive among the last state's, a revival
# (meet's observation formulas are failure pins).  A state continues by
# "any" number of diamonds, by diamonds on distinct actions ("det") or by
# "one" diamond, which ends at the last state.  A linear row maps its rule by
# ``spectrum.RELATION_PARTS``, at the layer it compares (I for ER and ERT).
# ECR and ECRT have none, as no pin realizes their complete relation, nor has
# join, the union of l⊇ and lf; bisim takes every formula.
_GRAMMARS = {
    "b": ("eq", "eq", "any"),
    "db": ("eq", "eq", "det"),
    **{
        flavor: (*(RELATION_PARTS[r][0] for r in rule), "one")
        for flavor, rule in LINEAR_RULES.items()
        if flavor != "join" and all(RELATION_PARTS[r][0] for r in rule if r)
    },
}


# The positive closure of the termination logic cannot pin 0, so the grammars
# of partial offers at constraint C characterize T, not the CT relation that
# the engines decide: they have neither a grammar nor separating formulas.
_NO_SEPARATOR = frozenset({SemanticsId("C", "l⊆"), SemanticsId("C", "lf⊆")})


def _covered(sem: SemanticsId | str, pathway: str, gaps=()) -> SemanticsId:
    """sem, parsed; UncoveredSemanticsError when `pathway` has nothing for
    it: a flavor with no grammar (final-ready and final-failure branching,
    ECR and ECRT), an id of ``_NO_SEPARATOR``, or a flavor of the pathway's
    own `gaps`."""
    if isinstance(sem, str):
        sem = parse_semantics(sem)
    flavor = sem.flavor
    if flavor not in _GRAMMARS and flavor not in ("bisim", "join") or sem in _NO_SEPARATOR or flavor in gaps:
        raise UncoveredSemanticsError(f"{sem} has no {pathway}")
    return sem


def in_sublogic(f: Formula, sem: SemanticsId | str, alphabet=None) -> bool:
    """Structural membership of f in the grammar characterizing sem."""
    sem = _covered(sem, "logical characterization")
    if sem.flavor == "bisim":
        return True
    if alphabet is None:
        alphabet = formula_actions(f)
    logic = base_constraint_logic(linear_rule(*sem)[0], frozenset(alphabet))
    if sem.flavor == "join":
        return any(_in_grammar(logic, f, *_GRAMMARS[part]) for part in ("l⊇", "lf"))
    return _in_grammar(logic, f, *_GRAMMARS[sem.flavor])


@lru_cache(maxsize=None)
def _in_grammar(logic: BaseLogic, f: Formula, mid: str | None, last: str, continue_by: str) -> bool:
    """Is f a state of the grammar (mid, last, continue_by)?  A state's
    conjuncts are closure leaves and diamond continuations, whose bodies are
    states too, checked on a stack; base formulas may syntactically be
    diamonds (an offer probe, a trace probe), and those count as leaves."""
    states = [f]
    while states:
        leaves, continuations = [], []
        for m in _flatten(states.pop()):
            if _leaf_mode(logic, m, last):
                leaves.append(m)
            elif isinstance(m, Diamond):
                continuations.append(m)
            else:
                return False
        if continue_by == "one":
            if len(continuations) > 1 or continuations and leaves and mid is None:
                return False
            if not continuations and last == "rev" and sum(map(logic.contains, leaves)) > 1:
                return False
        elif continue_by == "det" and len({d.action for d in continuations}) != len(continuations):
            return False
        states += (d.body for d in continuations)
    return True


# ---------------------------------------------------------------------------
# Pinning local observations with formulas
#
# mode "eq"  : satisfied exactly by states whose observation equals the label
# mode "neg" : upper bound - states whose observation lies below the label
# mode "pos" : lower bound - states whose observation lies above the label
# For constraint C the orders collapse to equality and the negative closure
# cannot express "not terminated", nor the positive one "terminated"; the
# unrealizable cases raise, and C separators read the T and CT witnesses.


class UnrealizablePinError(ValueError):
    pass


@fold
def characteristic_sim_formula(p: CanonicalTerm, folded) -> Formula:
    """Positive formula satisfied by exactly the states that simulate p."""
    return conj(*[Diamond(a, f) for a, f in folded])


def _pin(constraint: str, label, alphabet, mode: str, context=()) -> Formula:
    """The pin of `label` in `mode`.  An S pin excludes the states of
    `context` that do not simulate the label, so only it is built each time."""
    value = label.value
    if constraint == "S":
        positive = characteristic_sim_formula(value)
        if mode == "pos":
            return positive
        negatives = [
            Neg(characteristic_sim_formula(w))
            for w in sorted(context)
            if not simulates("U", w, value)
        ]
        if mode == "neg":
            return conj(*negatives)
        return conj(positive, *negatives)
    return _local_pin(constraint, value, frozenset(alphabet), mode)


@lru_cache(maxsize=None)
def _local_pin(constraint: str, value, alphabet: frozenset, mode: str) -> Formula:
    if constraint == "U":
        return TOP
    if constraint == "C":
        if value:  # terminated
            if mode == "pos":
                raise UnrealizablePinError("positive closure of the termination logic cannot pin 0")
            return Neg(not_zero(alphabet))
        if mode == "eq" or mode == "pos":
            return not_zero(alphabet)
        raise UnrealizablePinError("negative closure of the termination logic cannot pin ~0")
    element, complement = _ELEMENTS[constraint]
    positives = [element(e) for e in sorted(value)]
    negatives = [Neg(element(e)) for e in complement(value, alphabet)]
    if mode == "eq":
        return conj(*(positives + negatives))
    if mode == "neg":
        return conj(*negatives)
    return conj(*positives)


def _trace_complement(trace_set, alphabet):
    """The one-action extensions of members outside the set: enough to pin
    the prefix-closed set from above, as the shortest missing trace of any
    larger prefix-closed set extends a member by one action."""
    return {t + (a,) for t in trace_set for a in alphabet} - trace_set


# The I and T layers pin a value by its elements: per layer, the formula
# of one element (an action, a trace) and the elements outside a value that
# an upper bound on it must refuse.
_ELEMENTS = {
    "I": (lambda a: Diamond(a, TOP), lambda value, alphabet: sorted(alphabet - value)),
    "T": (chain, _trace_complement),
}


# ---------------------------------------------------------------------------
# Observation -> formula correspondence

def formula_from_observation(obs, sem: SemanticsId | str, alphabet, context=()) -> Formula:
    """The grammar formula whose satisfaction set realizes the observation.

    For the branching, deterministic-branching and ready-trace-style flavors
    the formula holds in p exactly when the observation belongs to p's
    observation set; for the widened/forgetful flavors membership is in the
    corresponding closure of that set.  For constraint S a ``context`` of
    candidate states must be supplied; exactness is relative to it.  join
    has none: its grammar is a union, and ``distinguish`` refutes one part.
    Bisimilarity has no observations.
    """
    sem = _covered(sem, "observation formulas", ("bisim", "join"))
    alphabet = frozenset(alphabet)
    mid, last, continue_by = _GRAMMARS[sem.flavor]
    if continue_by != "one":
        return _branching_formula(sem.constraint, alphabet, tuple(context), obs)
    last, constraint = "neg" if last == "rev" else last, linear_rule(*sem)[0]
    labels = obs.labels()
    out = _pin(constraint, labels[-1], alphabet, last, context)
    for i in reversed(range(len(obs.steps))):
        out = Diamond(obs.steps[i][0], out)
        if mid is not None:
            out = conj(_pin(constraint, labels[i], alphabet, mid, context), out)
    return out


@partial(fold, parts=attrgetter("arcs"))
def _branching_formula(constraint, alphabet, context, obs: BranchingObs, folded) -> Formula:
    """obs's eq pin, and a diamond into each child."""
    return conj(_pin(constraint, obs.label, alphabet, "eq", context), *[Diamond(a, f) for a, f in folded])


# ---------------------------------------------------------------------------
# Distinguishing formulas


def distinguish(sem: SemanticsId | str, p: CanonicalTerm, q: CanonicalTerm, alphabet=None):
    """None when p lies below q in sem; otherwise a grammar formula that p
    satisfies and q does not.  An alphabet must hold every action of p and q."""
    sem = _covered(sem, "distinguishing formulas")
    context = tuple(dict.fromkeys(reachable(p) + reachable(q)))
    actions = frozenset(a for s in context for a in initials(s))
    if alphabet is None:
        alphabet = actions
    alphabet = frozenset(alphabet)
    if not actions <= alphabet:
        raise ValueError(f"the alphabet misses the actions {', '.join(sorted(actions - alphabet))}")

    verdict = decide(sem, p, q)
    if verdict.holds:
        return None
    f = _minimize(_build_separator(sem, verdict, p, q, alphabet, context), sem, p, q, alphabet)
    assert sat(p, f) and not sat(q, f) and in_sublogic(f, sem, alphabet)
    return f


def _build_separator(sem, verdict, p, q, alphabet, context) -> Formula:
    """A formula that p satisfies and q does not, read off the refuting
    verdict of sem; join refutes one of its two parts.  `context` is the
    states reachable from p or q, the candidates an S pin excludes."""
    flavor = sem.flavor
    if flavor in ("bisim", "b"):
        return _refutation_formula(sem.constraint, verdict.witness, alphabet)
    if flavor == "db":
        return _branching_formula(sem.constraint, alphabet, context, verdict.witness["unmatched"])
    if sem.constraint == "C":
        return _distinguish_completed(p, q, alphabet)
    if flavor == "join":
        for part in (SemanticsId(sem.constraint, "l⊇"), SemanticsId(sem.constraint, "lf")):
            verdict = decide(part, p, q)
            if not verdict.holds:
                return _build_separator(part, verdict, p, q, alphabet, context)
        raise AssertionError("join refuted but both components hold")
    witness = verdict.witness
    obs = witness["unmatched"]
    if flavor == "meet" and witness.get("revival_action") is not None:
        return _revival_formula(sem.constraint, obs, witness["revival_action"], alphabet)
    return formula_from_observation(obs, sem, alphabet, context)


def _revival_formula(constraint, obs: LinearObs, element, alphabet) -> Formula:
    # meet matches as lf at U and C, so a revival action comes from I or T only
    revived = _ELEMENTS[constraint][0](element)
    return chain(obs.trace(), conj(revived, _pin(constraint, obs.final, alphabet, "neg")))


def _refutation_formula(constraint, root, alphabet) -> Formula:
    """The formula a refutation tree of a simulation or bisimulation game
    proves: its p side satisfies it and its q side does not.  Built on a
    stack, each node after its responses, keyed by identity."""
    built, todo = {}, [root]
    while todo:
        node = todo[-1]
        if node["kind"] == "constraint":
            built[id(todo.pop())] = _constraint_separator(constraint, node["p"], node["q"], alphabet)
        elif missing := [sub for sub in node["responses"] if id(sub) not in built]:
            todo += missing
        else:
            f = Diamond(node["action"], conj(*(built[id(sub)] for sub in node["responses"])))
            built[id(todo.pop())] = Neg(f) if node.get("side") == "right" else f
    return built[id(root)]


def _constraint_separator(constraint, p, q, alphabet) -> Formula:
    assert not constraint_holds(constraint, p, q)
    if constraint == "C":
        return Neg(not_zero(alphabet)) if p.is_nil else not_zero(alphabet)
    if constraint == "S":
        verdict = decide_nsim("U", p, q)
        if not verdict.holds:
            return _refutation_formula("U", verdict.witness, alphabet)
        return Neg(_refutation_formula("U", decide_nsim("U", q, p).witness, alphabet))
    # the universal constraint never fails, so this is I or T
    element = _ELEMENTS[constraint][0]
    mine, theirs = local_obs(constraint, p).value, local_obs(constraint, q).value
    if mine - theirs:
        return element(min(mine - theirs))
    return Neg(element(min(theirs - mine)))


def _distinguish_completed(p, q, alphabet) -> Formula:
    """All linear flavors at constraint C coincide with completed traces: the
    trace of T's witness when T refutes, else the trace of CT's witness, which
    on a trace-included pair ends at a terminated state, then termination."""
    verdict = decide(parse_semantics("T"), p, q)
    if not verdict.holds:
        return chain(verdict.witness["unmatched"].trace())
    unmatched = decide(parse_semantics("CT"), p, q).witness["unmatched"]
    return chain(unmatched.trace(), Neg(not_zero(alphabet)))


def _conj_of(members: tuple) -> Formula:
    """``Conj(members)`` for sorted, distinct members that are neither
    conjunctions nor TOP, interned with no flattening or sorting."""
    if len(members) < 2:
        return members[0] if members else TOP
    return Formula.__new__(Conj, members)


def _conj_variants(f: Formula):
    """All formulas obtained by dropping exactly one conjunct somewhere, in
    pre-order: a conjunction's own drops, then its members' variants in
    turn.  A stack holds (subformula, path) pairs, a path being the wraps
    that put a changed subformula back, innermost first.  A conjunction's
    variants keep its sorted members: a changed member (never a conjunction
    or TOP) is inserted in order, or merged with its equal."""
    todo = [(f, ())]
    while todo:
        g, path = todo.pop()
        if isinstance(g, Conj):
            rests = [g.members[:i] + g.members[i + 1 :] for i in range(len(g.members))]
            for rest in rests:
                yield reduce(lambda variant, wrap: wrap(variant), path, _conj_of(rest))
            for m, rest in reversed(tuple(zip(g.members, rests))):
                todo.append((m, (partial(_reinsert, rest), *path)))
        elif isinstance(g, Neg):
            todo.append((g.body, (Neg, *path)))
        elif isinstance(g, Diamond):
            todo.append((g.body, (partial(Diamond, g.action), *path)))


def _reinsert(rest: tuple, variant: Formula) -> Formula:
    """The conjunction of the sorted members `rest` and `variant`."""
    j = bisect_left(rest, variant)
    if j < len(rest) and rest[j] is variant:
        return _conj_of(rest)
    return _conj_of(rest[:j] + (variant,) + rest[j:])


def _minimize(f: Formula, sem, p, q, alphabet) -> Formula:
    def good(g: Formula) -> bool:
        # separation first: it is cached and rejects most variants
        return sat(p, g) and not sat(q, g) and in_sublogic(g, sem, alphabet)

    # the first good variant wins each round, so the order of the variants is the output
    while (variant := next(filter(good, _conj_variants(f)), None)) is not None:
        f = variant
    return f
