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
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import product

from .constraints import constraint_holds, local_obs, simulates
from .lts import completed_traces, initials, reachable, step, traces
from .observations import BranchingObs, LinearObs
from .preorders import decide, decide_nsim
from .spectrum import SemanticsId, UncoveredSemanticsError, parse_semantics
from .terms import ACTION_RE, CanonicalTerm

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
    "sample_formulas",
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


def formula_actions(f: Formula) -> frozenset[str]:
    if isinstance(f, Diamond):
        return formula_actions(f.body) | {f.action}
    if isinstance(f, Neg):
        return formula_actions(f.body)
    if isinstance(f, Conj):
        out = frozenset()
        for m in f.members:
            out |= formula_actions(m)
        return out
    return frozenset()


# ---------------------------------------------------------------------------
# Parsing and printing.  Concrete syntax: T | ~F | <a>F | F & F | (F)


class FormulaParseError(ValueError):
    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


def parse_formula(text: str) -> Formula:
    pos = [0]

    def skip():
        while pos[0] < len(text) and text[pos[0]].isspace():
            pos[0] += 1

    def parse_conj() -> Formula:
        items = [parse_unary()]
        while True:
            skip()
            if pos[0] < len(text) and text[pos[0]] == "&":
                pos[0] += 1
                items.append(parse_unary())
            else:
                return Conj(items)

    def parse_unary() -> Formula:
        skip()
        if pos[0] >= len(text):
            raise FormulaParseError("unexpected end of formula", pos[0])
        ch = text[pos[0]]
        if ch == "T":
            pos[0] += 1
            return TOP
        if ch == "~":
            pos[0] += 1
            return Neg(parse_unary())
        if ch == "<":
            pos[0] += 1
            m = ACTION_RE.match(text, pos[0])
            if not m:
                raise FormulaParseError("expected action name", pos[0])
            pos[0] = m.end()
            skip()
            if pos[0] >= len(text) or text[pos[0]] != ">":
                raise FormulaParseError("expected '>'", pos[0])
            pos[0] += 1
            return Diamond(m.group(), parse_unary())
        if ch == "(":
            pos[0] += 1
            inner = parse_conj()
            skip()
            if pos[0] >= len(text) or text[pos[0]] != ")":
                raise FormulaParseError("unbalanced parenthesis", pos[0])
            pos[0] += 1
            return inner
        raise FormulaParseError(f"unexpected {ch!r}", pos[0])

    out = parse_conj()
    skip()
    if pos[0] < len(text):
        raise FormulaParseError(f"unexpected {text[pos[0]]!r}", pos[0])
    return out


def render_formula(f: Formula) -> str:
    if f is TOP:
        return "T"
    if isinstance(f, Neg):
        body = render_formula(f.body)
        if isinstance(f.body, Conj):
            return f"~({body})"
        return f"~{body}"
    if isinstance(f, Diamond):
        body = render_formula(f.body)
        if isinstance(f.body, Conj):
            return f"<{f.action}>({body})"
        return f"<{f.action}>{body}"
    if isinstance(f, Conj):
        return " & ".join(render_formula(m) for m in f.members)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Satisfaction


@lru_cache(maxsize=None)
def sat(p: CanonicalTerm, f: Formula) -> bool:
    if f is TOP:
        return True
    if isinstance(f, Conj):
        return all(sat(p, m) for m in f.members)
    if isinstance(f, Neg):
        return not sat(p, f.body)
    if isinstance(f, Diamond):
        return any(a == f.action and sat(q, f.body) for a, q in step(p))
    raise TypeError(f"not a formula: {f!r}")


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
    if n == "S":
        return _is_positive(f)
    raise ValueError(f"unknown constraint {n!r}")


def _is_positive(f: Formula) -> bool:
    if f is TOP:
        return True
    if isinstance(f, Conj):
        return all(_is_positive(m) for m in f.members)
    if isinstance(f, Diamond):
        return _is_positive(f.body)
    return False


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
    if mode != "neg" and logic.contains(f):
        return True
    if mode != "pos" and isinstance(f, Neg) and logic.contains(f.body):
        return True
    return False


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
# "one" diamond, which ends at the last state.  A mode before the last state
# is the last one's.  join is the union of l⊇ and lf; bisim takes every
# formula.
_GRAMMARS = {
    "b": ("eq", "eq", "any"),
    "db": ("eq", "eq", "det"),
    "l": ("eq", "eq", "one"),
    "l⊇": ("neg", "neg", "one"),
    "l⊆": ("pos", "pos", "one"),
    "lf": (None, "eq", "one"),
    "lf⊇": (None, "neg", "one"),
    "lf⊆": (None, "pos", "one"),
    "meet": (None, "rev", "one"),
}


# The positive closure of the termination logic cannot pin 0, so the grammars
# of partial offers at constraint C characterize T, not the CT relation that
# the engines decide: they have neither a grammar nor separating formulas.
_NO_SEPARATOR = frozenset({SemanticsId("C", "l⊆"), SemanticsId("C", "lf⊆")})


def _covered(sem: SemanticsId | str, pathway: str, gaps=()) -> SemanticsId:
    """sem, parsed; UncoveredSemanticsError when `pathway` has nothing for
    it: a flavor with no grammar (final-ready and final-failure branching,
    the extended-ready family), an id of ``_NO_SEPARATOR``, or a flavor of
    the pathway's own `gaps`."""
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
    logic = base_constraint_logic(sem.constraint, frozenset(alphabet))
    if sem.flavor == "join":
        return any(_in_grammar(logic, f, *_GRAMMARS[part]) for part in ("l⊇", "lf"))
    return _in_grammar(logic, f, *_GRAMMARS[sem.flavor])


@lru_cache(maxsize=None)
def _in_grammar(logic: BaseLogic, f: Formula, mid: str | None, last: str, continue_by: str) -> bool:
    """Is f a state of the grammar (mid, last, continue_by)?  Its conjuncts
    are closure leaves and diamond continuations; base formulas may
    syntactically be diamonds (an offer probe, a trace probe), and those
    count as leaves."""
    leaves, continuations = [], []
    for m in _flatten(f):
        if _leaf_mode(logic, m, last):
            leaves.append(m)
        elif isinstance(m, Diamond):
            continuations.append(m)
        else:
            return False
    if continue_by == "one":
        if len(continuations) > 1:
            return False
        if not continuations:
            return last != "rev" or sum(map(logic.contains, leaves)) <= 1
        if leaves and mid is None:
            return False
    elif continue_by == "det" and len({d.action for d in continuations}) != len(continuations):
        return False
    return all(_in_grammar(logic, d.body, mid, last, continue_by) for d in continuations)


# ---------------------------------------------------------------------------
# Pinning local observations with formulas
#
# mode "eq"  : satisfied exactly by states whose observation equals the label
# mode "neg" : upper bound - states whose observation lies below the label
# mode "pos" : lower bound - states whose observation lies above the label
# For constraint C the orders collapse to equality and the negative closure
# cannot express "not terminated", nor the positive one "terminated"; the
# unrealizable cases raise and their callers take the trace-difference route.


class UnrealizablePinError(ValueError):
    pass


@lru_cache(maxsize=None)
def characteristic_sim_formula(p: CanonicalTerm) -> Formula:
    """Positive formula satisfied by exactly the states that simulate p."""
    return conj(*[Diamond(a, characteristic_sim_formula(q)) for a, q in step(p)])


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
    """Traces outside the set, up to one step beyond its longest member.

    Enough to pin the prefix-closed set from above: the shortest missing
    trace of any larger prefix-closed set extends a member by one action.
    """
    horizon = max((len(t) for t in trace_set), default=0) + 1
    out = []
    for length in range(1, horizon + 1):
        for tr in product(sorted(alphabet), repeat=length):
            if tr not in trace_set:
                out.append(tr)
    return out


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
        return _branching_formula(sem.constraint, obs, alphabet, context)
    last = "neg" if last == "rev" else last
    labels = obs.labels()
    steps = obs.steps
    out = _pin(sem.constraint, labels[-1], alphabet, last, context)
    for i in range(len(steps) - 1, -1, -1):
        action = steps[i][0]
        out = Diamond(action, out)
        if mid is not None:
            out = conj(_pin(sem.constraint, labels[i], alphabet, mid, context), out)
    return out


def _branching_formula(constraint, obs: BranchingObs, alphabet, context) -> Formula:
    parts = [_pin(constraint, obs.label, alphabet, "eq", context)]
    for a, child in obs.arcs:
        parts.append(Diamond(a, _branching_formula(constraint, child, alphabet, context)))
    return conj(*parts)


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
        obs = verdict.witness["unmatched"]
        return _branching_formula(sem.constraint, obs, alphabet, context)
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


def _refutation_formula(constraint, node, alphabet) -> Formula:
    """The formula a refutation tree of a simulation or bisimulation game
    proves: its p side satisfies it and its q side does not."""
    if node["kind"] == "constraint":
        return _constraint_separator(constraint, node["p"], node["q"], alphabet)
    responses = [_refutation_formula(constraint, sub, alphabet) for sub in node["responses"]]
    f = Diamond(node["action"], conj(*responses))
    return Neg(f) if node.get("side") == "right" else f


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
    """All linear flavors at constraint C coincide with completed traces."""
    trace_diff = sorted(traces(p) - traces(q), key=lambda t: (len(t), t))
    if trace_diff:
        return chain(trace_diff[0])
    ct_diff = sorted(completed_traces(p) - completed_traces(q), key=lambda t: (len(t), t))
    if ct_diff:
        return chain(ct_diff[0], Neg(not_zero(alphabet)))
    raise AssertionError("completed-trace inclusion holds; nothing to distinguish")


def _conj_of(members: tuple) -> Formula:
    """``Conj(members)`` for sorted, distinct members that are neither
    conjunctions nor TOP, interned with no flattening or sorting."""
    if len(members) < 2:
        return members[0] if members else TOP
    return Formula.__new__(Conj, members)


def _conj_variants(f: Formula):
    """All formulas obtained by dropping exactly one conjunct somewhere.  A
    conjunction's variants keep its sorted members: a changed member (never
    a conjunction or TOP) is inserted in order, or merged with its equal."""
    if isinstance(f, Conj):
        members = f.members
        for i in range(len(members)):
            yield _conj_of(members[:i] + members[i + 1 :])
        for i, m in enumerate(members):
            rest = members[:i] + members[i + 1 :]
            for variant in _conj_variants(m):
                j = bisect_left(rest, variant)
                if j < len(rest) and rest[j] is variant:
                    yield _conj_of(rest)
                else:
                    yield _conj_of(rest[:j] + (variant,) + rest[j:])
    elif isinstance(f, Neg):
        for variant in _conj_variants(f.body):
            yield Neg(variant)
    elif isinstance(f, Diamond):
        for variant in _conj_variants(f.body):
            yield Diamond(f.action, variant)


def _minimize(f: Formula, sem, p, q, alphabet) -> Formula:
    def good(g: Formula) -> bool:
        # separation first: it is cached and rejects most variants
        return sat(p, g) and not sat(q, g) and in_sublogic(g, sem, alphabet)

    changed = True
    while changed:
        changed = False
        for variant in _conj_variants(f):
            if good(variant):
                f = variant
                changed = True
                break
    return f


# ---------------------------------------------------------------------------
# Random grammar sampling (property-test fuel)


def sample_formulas(sem: SemanticsId | str, alphabet, rng: random.Random, max_depth: int, count: int):
    if isinstance(sem, str):
        sem = parse_semantics(sem)
    alphabet = frozenset(alphabet)
    out = []
    for _ in range(count):
        out.append(_random_formula(sem, alphabet, rng, max_depth))
    return out


def _random_base(constraint, alphabet, rng, depth) -> Formula:
    actions = sorted(alphabet)
    if constraint == "U":
        return TOP
    if constraint == "C":
        return rng.choice([TOP, not_zero(alphabet)])
    if constraint == "I":
        return rng.choice([TOP, not_zero(alphabet)] + [Diamond(a, TOP) for a in actions])
    if constraint == "T":
        if rng.random() < 0.2:
            return rng.choice([TOP, not_zero(alphabet)])
        length = rng.randint(1, max(1, depth))
        return chain(rng.choices(actions, k=length))
    if constraint == "S":
        if depth <= 0 or rng.random() < 0.3:
            return TOP
        if rng.random() < 0.6:
            return Diamond(rng.choice(actions), _random_base("S", alphabet, rng, depth - 1))
        return conj(
            _random_base("S", alphabet, rng, depth - 1),
            _random_base("S", alphabet, rng, depth - 1),
        )
    raise ValueError(constraint)


def _random_leaf(constraint, alphabet, rng, depth, mode) -> Formula:
    base = _random_base(constraint, alphabet, rng, depth)
    if mode == "neg":
        return Neg(base)
    if mode == "eq":
        return Neg(base) if rng.random() < 0.5 else base
    return base


def _random_pin(constraint, alphabet, rng, depth, mode) -> Formula:
    leaves = [_random_leaf(constraint, alphabet, rng, depth, mode) for _ in range(rng.randint(0, 2))]
    return conj(*leaves)


def _random_formula(sem: SemanticsId, alphabet, rng, depth) -> Formula:
    flavor, n = sem.flavor, sem.constraint
    if flavor == "bisim":
        return _random_hml(alphabet, rng, depth)
    if flavor == "join":
        inner = SemanticsId(n, "l⊇" if rng.random() < 0.5 else "lf")
        return _random_formula(inner, alphabet, rng, depth)
    mid, last, continue_by = _GRAMMARS[flavor]
    if continue_by != "one":
        return _random_tree(n, alphabet, rng, depth, continue_by == "det")
    actions = sorted(alphabet)
    length = rng.randint(0, depth)
    if last == "rev":
        positives = []
        if rng.random() < 0.7:
            positives.append(_random_base(n, alphabet, rng, depth))
        negatives = [
            Neg(_random_base(n, alphabet, rng, depth)) for _ in range(rng.randint(0, 2))
        ]
        return chain(rng.choices(actions, k=length), conj(*(positives + negatives)))
    out = _random_pin(n, alphabet, rng, depth, last)
    for _ in range(length):
        out = Diamond(rng.choice(actions), out)
        if mid is not None and rng.random() < 0.6:
            out = conj(_random_pin(n, alphabet, rng, depth, mid), out)
    return out


def _random_hml(alphabet, rng, depth) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return TOP
    roll = rng.random()
    if roll < 0.4:
        return Diamond(rng.choice(sorted(alphabet)), _random_hml(alphabet, rng, depth - 1))
    if roll < 0.65:
        return Neg(_random_hml(alphabet, rng, depth - 1))
    return conj(
        _random_hml(alphabet, rng, depth - 1), _random_hml(alphabet, rng, depth - 1)
    )


def _random_tree(n, alphabet, rng, depth, deterministic) -> Formula:
    """A branching grammar formula: eq leaves and diamonds, on distinct
    actions when `deterministic`."""
    leaves = [_random_leaf(n, alphabet, rng, depth, "eq") for _ in range(rng.randint(0, 2))]
    if depth > 0:
        actions = sorted(alphabet)
        if deterministic:
            picks = rng.sample(actions, rng.randint(0, len(actions)))
        else:  # drawn one by one, each before its subtree
            picks = (rng.choice(actions) for _ in range(rng.randint(0, 2)))
        for a in picks:
            leaves.append(Diamond(a, _random_tree(n, alphabet, rng, depth - 1, deterministic)))
    return conj(*leaves)
