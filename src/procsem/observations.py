"""Observation enumeration: linear, branching and deterministic-branching.

These are the ground-truth objects the decision engines are validated
against.  A linear observation is a decorated trace; a branching observation
is a finite tree whose nodes carry local observations and whose arcs carry
actions.  The set of branching observations of a term is the powerset of its
"child pairs" at every level, so it is doubly exponential; enumeration is
therefore bounded, and the inclusion oracles below exploit the powerset
structure to stay exact without materializing the sets.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, groupby, product
from operator import itemgetter

from .constraints import LocalObs, local_eq, local_geq, local_key, local_obs, solve_game, value_repr
from .lts import step, successors
from .spectrum import LINEAR_RULES, SemanticsId, UncoveredSemanticsError, linear_rule
from .terms import Action, CanonicalTerm, Frozen, prefix, sum_terms

__all__ = [
    "LinearObs",
    "BranchingObs",
    "TruncationError",
    "enum_lgo",
    "enum_bgo",
    "enum_dbgo",
    "enum_complete_dbgo",
    "enum_possible_worlds",
    "world_count",
    "check_world_cap",
    "DEFAULT_WORLD_CAP",
    "bgo_member",
    "bgo_leq",
    "dbgo_leq",
    "ClosureSet",
    "lgo_leq_via_closure",
    "decide_via_observations",
]

DEFAULT_WORLD_CAP = 1 << 16


class TruncationError(RuntimeError):
    """An enumeration exceeded its configured cap."""

    def __init__(self, message: str, cap: int):
        self.cap = cap
        super().__init__(message)


class LinearObs(Frozen, namedtuple("LinearObs", "head steps")):
    """A decorated trace: head observation plus (action, observation) steps."""

    __slots__ = ()

    @property
    def constraint(self) -> str:
        return self.head.constraint

    def trace(self) -> tuple[Action, ...]:
        return tuple(a for a, _ in self.steps)

    def labels(self) -> tuple[LocalObs, ...]:
        return (self.head,) + tuple(l for _, l in self.steps)

    @property
    def final(self) -> LocalObs:
        return self.steps[-1][1] if self.steps else self.head

    def sort_key(self):
        return (len(self.steps), self.trace(), tuple(local_key(l) for l in self.labels()))

    def __repr__(self) -> str:
        n = self.constraint
        bits = [value_repr(n, self.head.value)]
        for a, l in self.steps:
            bits.append(a)
            bits.append(value_repr(n, l.value))
        return "<" + ",".join(bits) + ">"


class BranchingObs:
    """A finite nonempty tree of local observations, interned like
    ``CanonicalTerm`` on its own parts, ``(label, children)``; ``arcs`` holds
    the children sorted by action and then by child, in ``__lt__`` order:
    n - 1 comparisons for distinct children handed over in that order."""

    __slots__ = ("label", "children", "arcs", "nodes")

    _interned: dict[tuple, "BranchingObs"] = {}

    def __new__(cls, label: LocalObs, children):
        key = (label, frozenset(children))
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.label = label
        self.children = key[1]
        self.arcs = tuple(sorted(children))
        self.nodes = 1 + sum(c.nodes for _, c in self.arcs)
        return cls._interned.setdefault(key, self)

    def __lt__(self, other: "BranchingObs") -> bool:
        """Label (constraint, then ``local_key``), then the arcs in turn; a
        loop walks the first differing pair of children, as in terms."""
        x, y = self, other
        while x is not y:
            u, v = x.label, y.label
            if u is not v and u != v:
                return (u.constraint, local_key(u)) < (v.constraint, local_key(v))
            for (a, s), (b, t) in zip(x.arcs, y.arcs):
                if a != b:
                    return a < b
                if s is not t:
                    x, y = s, t
                    break
            else:
                return len(x.arcs) < len(y.arcs)
        return False

    @property
    def constraint(self) -> str:
        return self.label.constraint

    def __repr__(self) -> str:
        """``<label,{(a,child),...}>``, rendered on a stack of pieces of text
        and observations still to render, as observations may be deep."""
        out, todo = [], [self]
        while todo:
            o = todo.pop()
            if isinstance(o, str):
                out.append(o)
            else:
                pieces = [f"<{value_repr(o.constraint, o.label.value)},{{"]
                for k, (a, c) in enumerate(o.arcs):
                    pieces += (f"{',' if k else ''}({a},", c, ")")
                todo += reversed(pieces + ["}>"])
        return "".join(out)


@lru_cache(maxsize=None)
def enum_lgo(constraint: str, p: CanonicalTerm) -> frozenset[LinearObs]:
    """All linear observations of p for the given local observer."""
    head = local_obs(constraint, p)
    out = {LinearObs(head, ())}
    for a, q in step(p):
        for tail in enum_lgo(constraint, q):
            out.add(LinearObs(head, ((a, tail.head),) + tail.steps))
    return frozenset(out)


def enum_bgo(
    constraint: str, p: CanonicalTerm, max_nodes: int, cap: int | None = None
) -> tuple[frozenset[BranchingObs], bool]:
    """Branching observations of p with at most max_nodes nodes.

    Returns the set and a truncation flag; the flag is set whenever some
    observation of p was cut off by the bound.  Raises TruncationError as
    soon as more than `cap` observations (of p or of a subterm, which has no
    more than p) are built.
    """
    return _enum_branching(constraint, p, max_nodes, False, cap)


def enum_dbgo(
    constraint: str, p: CanonicalTerm, max_nodes: int, cap: int | None = None
) -> tuple[frozenset[BranchingObs], bool]:
    """Deterministic branching observations of p within the node bound."""
    return _enum_branching(constraint, p, max_nodes, True, cap)


def _enum_branching(constraint: str, p: CanonicalTerm, max_nodes: int, deterministic: bool, cap):
    """Observations of p within the node bound: every subset of the child
    pool that fits, with at most one child per action if `deterministic`.
    The pool holds each child pair once, so each subset is one observation."""
    if max_nodes < 1:
        return frozenset(), True
    label = local_obs(constraint, p)
    pool, truncated = set(), False
    for a, q in step(p):
        sub, sub_trunc = _enum_branching(constraint, q, max_nodes - 1, deterministic, cap)
        truncated = truncated or sub_trunc
        pool.update((a, c) for c in sub)
    pool = sorted(pool)  # in arcs order, so every chosen tuple is too
    out: set[BranchingObs] = set()
    cut = [truncated]

    def extend(start: int, chosen: tuple, used: int) -> None:
        out.add(BranchingObs(label, chosen))
        if cap is not None and len(out) > cap:
            kind = "deterministic branching" if deterministic else "branching"
            raise TruncationError(f"more than {cap} {kind} observations within the node bound", cap)
        for i in range(start, len(pool)):
            a, c = pool[i]
            if deterministic and chosen and chosen[-1][0] == a:
                continue
            if used + c.nodes > max_nodes - 1:
                cut[0] = True
                continue
            extend(i + 1, chosen + ((a, c),), used + c.nodes)

    extend(0, (), 0)
    return frozenset(out), cut[0]


@lru_cache(maxsize=None)
def _world_game():
    memo = {}

    def node(p):
        total = 1
        for _, moves in groupby(step(p), itemgetter(0)):
            worlds = 0
            for _, q in moves:
                if q not in memo:
                    yield q
                worlds += memo[q]
            total *= worlds
        memo[p] = total

    return node, memo


def world_count(p: CanonicalTerm) -> int:
    """An upper bound, computed without enumerating, on the number of p's
    complete deterministic observations and of its possible worlds, counted
    on the explicit stack of ``solve_game`` so that deep terms count too."""
    node, memo = _world_game()
    return solve_game(node, p, memo)


def check_world_cap(p: CanonicalTerm, cap: int = DEFAULT_WORLD_CAP) -> None:
    """Raise TruncationError before enumerating more than `cap` worlds of p."""
    count = world_count(p)
    if count > cap:
        raise TruncationError(f"{count} complete deterministic observations exceed the cap {cap}", cap)


@lru_cache(maxsize=None)
def enum_complete_dbgo(constraint: str, p: CanonicalTerm) -> frozenset[BranchingObs]:
    """Complete deterministic observations: one branch per offered action, everywhere."""
    label = local_obs(constraint, p)
    per_action = [
        [(a, c) for _, q in moves for c in enum_complete_dbgo(constraint, q)]
        for a, moves in groupby(step(p), itemgetter(0))
    ]
    return frozenset(BranchingObs(label, combo) for combo in product(*per_action))


@lru_cache(maxsize=None)
def enum_possible_worlds(p: CanonicalTerm) -> frozenset[CanonicalTerm]:
    """Deterministic terms obtained by resolving every choice, keeping the full offer."""
    per_action = [
        sorted({prefix(a, w) for _, q in moves for w in enum_possible_worlds(q)})
        for a, moves in groupby(step(p), itemgetter(0))
    ]
    return frozenset(sum_terms(*combo) for combo in product(*per_action))


@lru_cache(maxsize=None)
def bgo_member(obs: BranchingObs, p: CanonicalTerm) -> bool:
    """Does obs belong to the branching observations of p?"""
    n = obs.constraint
    if not local_eq(n, obs.label, local_obs(n, p)):
        return False
    for a, child in obs.children:
        if not any(b == a and bgo_member(child, q) for b, q in step(p)):
            return False
    return True


def bgo_leq(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Inclusion of branching-observation sets, decided exactly.

    The observation set of a term is the powerset of its child pairs, so
    inclusion reduces to label equality plus coverage of every child pair;
    coverage recurses through sets of candidate states.  No observation set
    is materialized, which keeps the oracle exact for any finite term.
    """
    return _covered(constraint, p, (q,))


@lru_cache(maxsize=None)
def _covered(constraint: str, p: CanonicalTerm, candidates: tuple[CanonicalTerm, ...]) -> bool:
    lp = local_obs(constraint, p)
    for q in candidates:
        if not local_eq(constraint, lp, local_obs(constraint, q)):
            continue
        if all(
            _covered(constraint, p2, successors(q, a))
            for a, p2 in step(p)
        ):
            return True
    return False


def dbgo_leq(constraint: str, p: CanonicalTerm, q: CanonicalTerm, cap: int = DEFAULT_WORLD_CAP) -> bool:
    """Inclusion of deterministic branching-observation sets.

    Every deterministic observation extends to a complete one and pruning
    preserves membership, so checking the complete ones suffices.  Raises
    TruncationError when p has more than `cap` worlds.
    """
    check_world_cap(p, cap)
    return all(bgo_member(obs, q) for obs in enum_complete_dbgo(constraint, p))


# A relation of ``spectrum.LINEAR_RULES`` on the labels x of p and y of q.
_RELATIONS = {
    "eq": local_eq,
    "geq": local_geq,
    "leq": lambda n, x, y: local_geq(n, y, x),
    "complete": lambda n, x, y: not y.value if not x.value else local_geq(n, y, x),
}

_ALIASES = {"=": "l", "⊇": "l⊇", "f": "lf", "f⊇": "lf⊇"}


class ClosureSet:
    """Lazy closure of a set of linear observations under the matching rule
    of a linear or extended-ready flavor (``spectrum.linear_rule``), or of l,
    l⊇, lf and lf⊇ by their names ``=``, ``⊇``, ``f`` and ``f⊇``.  Equality
    matters at S, where an observation value is a term standing for its
    simulation class, so equal observations may have distinct values.

    Membership queries never materialize anything; ``materialize`` works only
    where the label domain is small (offers over an alphabet of at most three
    actions, traces of bounded depth).
    """

    def __init__(self, flavor: str, base: frozenset[LinearObs], constraint: str):
        flavor = _ALIASES.get(flavor, flavor)
        if flavor not in LINEAR_RULES:
            raise ValueError(f"unknown closure {flavor!r}")
        compared, self.rule = linear_rule(constraint, flavor)
        if compared != constraint:
            raise ValueError(f"{flavor} compares observations of constraint {compared}")
        self.constraint = constraint
        self._by_trace: dict[tuple, list[LinearObs]] = {}
        for obs in base:
            if obs.constraint != constraint:
                raise ValueError("mixed-constraint observation set")
            self._by_trace.setdefault(obs.trace(), []).append(obs)

    def __contains__(self, obs: LinearObs) -> bool:
        n, (prefix, final) = self.constraint, self.rule
        cands = self._by_trace.get(obs.trace(), ())
        if final == "meet":
            below = [cand.final.value for cand in cands if local_geq(n, obs.final, cand.final)]
            return bool(below) and obs.final.value <= frozenset().union(*below)
        final, prefix = _RELATIONS[final], _RELATIONS.get(prefix)
        init = obs.labels()[:-1] if prefix else ()
        return any(
            final(n, obs.final, cand.final) and all(prefix(n, u, v) for u, v in zip(init, cand.labels()))
            for cand in cands
        )

    def contains_all(self, items) -> bool:
        return all(obs in self for obs in items)

    def materialize(self, alphabet: frozenset[Action]) -> frozenset[LinearObs]:
        if self.constraint not in ("U", "C", "I"):
            raise ValueError(f"cannot materialize closure over constraint {self.constraint}")
        if self.constraint == "I" and len(alphabet) > 3:
            raise ValueError("refusing to materialize offers over more than 3 actions")
        labels = _label_domain(self.constraint, alphabet)
        out = set()
        for trace, cands in self._by_trace.items():
            positions = len(trace) + 1
            for labelling in product(labels, repeat=positions):
                head = labelling[0]
                steps = tuple((a, labelling[i + 1]) for i, a in enumerate(trace))
                obs = LinearObs(head, steps)
                if obs in self:
                    out.add(obs)
        return frozenset(out)


def _label_domain(constraint: str, alphabet: frozenset[Action]) -> list[LocalObs]:
    if constraint == "U":
        return [LocalObs("U", None)]
    if constraint == "C":
        return [LocalObs("C", False), LocalObs("C", True)]
    subsets = [frozenset(c) for r in range(len(alphabet) + 1) for c in combinations(sorted(alphabet), r)]
    return [LocalObs("I", s) for s in subsets]


def lgo_leq_via_closure(constraint: str, flavor: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Observational engine: compare lgo sets through closure membership.

    A set is below another exactly when its base observations all fall in the
    other's closure under the rule of `flavor`.
    """
    closure = ClosureSet(flavor, enum_lgo(constraint, q), constraint)
    return closure.contains_all(enum_lgo(constraint, p))


def decide_via_observations(sem: SemanticsId, p: CanonicalTerm, q: CanonicalTerm, cap: int | None = None):
    """Observation-set inclusion for b, db and every flavor of
    ``spectrum.LINEAR_RULES``, at the constraint whose labels its rule
    compares, as a Verdict with no witness; UncoveredSemanticsError for
    bisimilarity, bf and bf⊇.  `cap` bounds the worlds of p for db
    (TruncationError past it; None: ``DEFAULT_WORLD_CAP``)."""
    from .preorders import Verdict

    n, flavor = sem.constraint, sem.flavor
    if flavor == "b":
        holds = bgo_leq(n, p, q)
    elif flavor == "db":
        holds = dbgo_leq(n, p, q, DEFAULT_WORLD_CAP if cap is None else cap)
    elif flavor in LINEAR_RULES:
        holds = lgo_leq_via_closure(linear_rule(n, flavor)[0], flavor, p, q)
    else:
        raise UncoveredSemanticsError(f"observational engine does not cover {sem}")
    return Verdict(holds)
