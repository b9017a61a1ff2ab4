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

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .constraints import LocalObs, local_eq, local_geq, local_key, local_obs
from .lts import initials, step, successors
from .terms import Action, CanonicalTerm, NIL, CanonicalTerm as CT, prefix, sum_terms

__all__ = [
    "LinearObs",
    "BranchingObs",
    "TruncationError",
    "enum_lgo",
    "enum_bgo",
    "enum_dbgo",
    "enum_complete_dbgo",
    "enum_possible_worlds",
    "enum_partial_possible_worlds",
    "bgo_member",
    "dbgo_member",
    "bgo_count",
    "bgo_leq",
    "dbgo_leq",
    "ClosureSet",
    "closure_apply",
    "lgo_leq_via_closure",
]


class TruncationError(RuntimeError):
    """An enumeration exceeded its configured cap."""

    def __init__(self, message: str, cap: int):
        self.cap = cap
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class LinearObs:
    """A decorated trace: head observation plus (action, observation) steps."""

    head: LocalObs
    steps: tuple[tuple[Action, LocalObs], ...]

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
        bits = [repr(self.head.value)]
        for a, l in self.steps:
            bits.append(a)
            bits.append(repr(l.value))
        return "<" + ",".join(bits) + ">"


class BranchingObs:
    """A finite nonempty tree of local observations; interned for fast equality."""

    __slots__ = ("label", "children", "nodes", "_key")

    _interned: dict[tuple, "BranchingObs"] = {}

    def __new__(cls, label: LocalObs, children: frozenset):
        child_keys = tuple(sorted((a, c._key) for a, c in children))
        key = (label.constraint, local_key(label), child_keys)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.label = label
        self.children = frozenset(children)
        self.nodes = 1 + sum(c.nodes for _, c in children)
        self._key = key
        cls._interned[key] = self
        return self

    @property
    def constraint(self) -> str:
        return self.label.constraint

    def sorted_children(self) -> list[tuple[Action, "BranchingObs"]]:
        return sorted(self.children, key=lambda ac: (ac[0], ac[1]._key))

    def is_deterministic(self) -> bool:
        actions = [a for a, _ in self.children]
        if len(actions) != len(set(actions)):
            return False
        return all(c.is_deterministic() for _, c in self.children)

    def __repr__(self) -> str:
        inner = ",".join(f"({a},{c!r})" for a, c in self.sorted_children())
        return f"<{self.label.value!r},{{{inner}}}>"


@lru_cache(maxsize=None)
def enum_lgo(constraint: str, p: CanonicalTerm) -> frozenset[LinearObs]:
    """All linear observations of p for the given local observer."""
    head = local_obs(constraint, p)
    out = {LinearObs(head, ())}
    for a, q in step(p):
        for tail in enum_lgo(constraint, q):
            out.add(LinearObs(head, ((a, tail.head),) + tail.steps))
    return frozenset(out)


def _child_pool(constraint: str, p: CanonicalTerm, budget: int) -> tuple[list, bool]:
    pool = []
    truncated = False
    for a, q in step(p):
        sub, sub_trunc = enum_bgo(constraint, q, budget)
        truncated = truncated or sub_trunc
        for c in sub:
            pool.append((a, c))
    pool.sort(key=lambda ac: (ac[1].nodes, ac[0], ac[1]._key))
    return pool, truncated


def enum_bgo(constraint: str, p: CanonicalTerm, max_nodes: int) -> tuple[frozenset[BranchingObs], bool]:
    """Branching observations of p with at most max_nodes nodes.

    Returns the set and a truncation flag; the flag is set whenever some
    observation of p was cut off by the bound.
    """
    if max_nodes < 1:
        return frozenset(), True
    label = local_obs(constraint, p)
    pool, truncated = _child_pool(constraint, p, max_nodes - 1)
    out: set[BranchingObs] = set()
    cut = [truncated]

    def extend(start: int, chosen: tuple, used: int) -> None:
        out.add(BranchingObs(label, frozenset(chosen)))
        for i in range(start, len(pool)):
            a, c = pool[i]
            if used + c.nodes > max_nodes - 1:
                cut[0] = True
                continue
            extend(i + 1, chosen + ((a, c),), used + c.nodes)

    extend(0, (), 0)
    return frozenset(out), cut[0]


def enum_dbgo(constraint: str, p: CanonicalTerm, max_nodes: int) -> tuple[frozenset[BranchingObs], bool]:
    """Deterministic branching observations of p within the node bound."""
    if max_nodes < 1:
        return frozenset(), True
    label = local_obs(constraint, p)
    pool, truncated = _child_pool_deterministic(constraint, p, max_nodes - 1)
    out: set[BranchingObs] = set()
    cut = [truncated]

    def extend(start: int, chosen: tuple, used_actions: frozenset, used: int) -> None:
        out.add(BranchingObs(label, frozenset(chosen)))
        for i in range(start, len(pool)):
            a, c = pool[i]
            if a in used_actions:
                continue
            if used + c.nodes > max_nodes - 1:
                cut[0] = True
                continue
            extend(i + 1, chosen + ((a, c),), used_actions | {a}, used + c.nodes)

    extend(0, (), frozenset(), 0)
    return frozenset(out), cut[0]


def _child_pool_deterministic(constraint: str, p: CanonicalTerm, budget: int) -> tuple[list, bool]:
    pool = []
    truncated = False
    for a, q in step(p):
        sub, sub_trunc = enum_dbgo(constraint, q, budget)
        truncated = truncated or sub_trunc
        for c in sub:
            pool.append((a, c))
    pool.sort(key=lambda ac: (ac[1].nodes, ac[0], ac[1]._key))
    return pool, truncated


@lru_cache(maxsize=None)
def enum_complete_dbgo(constraint: str, p: CanonicalTerm) -> frozenset[BranchingObs]:
    """Complete deterministic observations: one branch per offered action, everywhere."""
    label = local_obs(constraint, p)
    actions = sorted(initials(p))
    per_action: list[list[tuple[Action, BranchingObs]]] = []
    for a in actions:
        options = []
        for b, q in step(p):
            if b != a:
                continue
            options.extend((a, c) for c in enum_complete_dbgo(constraint, q))
        per_action.append(options)
    out = set()
    for combo in product(*per_action):
        out.add(BranchingObs(label, frozenset(combo)))
    return frozenset(out)


@lru_cache(maxsize=None)
def enum_possible_worlds(p: CanonicalTerm) -> frozenset[CanonicalTerm]:
    """Deterministic terms obtained by resolving every choice, keeping the full offer."""
    actions = sorted(initials(p))
    per_action: list[list[CT]] = []
    for a in actions:
        options: list[CT] = []
        for b, q in step(p):
            if b != a:
                continue
            options.extend(prefix(a, w) for w in enum_possible_worlds(q))
        per_action.append(sorted(set(options), key=lambda t: t.key))
    out = set()
    for combo in product(*per_action):
        out.add(sum_terms(*combo) if combo else NIL)
    return frozenset(out)


@lru_cache(maxsize=None)
def enum_partial_possible_worlds(p: CanonicalTerm) -> frozenset[CanonicalTerm]:
    """Like possible worlds, but any subset of the offer may be kept."""
    actions = sorted(initials(p))
    per_action: list[list[CT | None]] = []
    for a in actions:
        options: list[CT | None] = [None]
        for b, q in step(p):
            if b != a:
                continue
            options.extend(prefix(a, w) for w in enum_partial_possible_worlds(q))
        per_action.append(options)
    out = set()
    for combo in product(*per_action):
        kept = [t for t in combo if t is not None]
        out.add(sum_terms(*kept) if kept else NIL)
    return frozenset(out)


def bgo_member(obs: BranchingObs, p: CanonicalTerm) -> bool:
    """Does obs belong to the branching observations of p?"""
    return _member(obs, p)


@lru_cache(maxsize=None)
def _member(obs: BranchingObs, p: CanonicalTerm) -> bool:
    n = obs.constraint
    if not local_eq(n, obs.label, local_obs(n, p)):
        return False
    for a, child in obs.children:
        if not any(b == a and _member(child, q) for b, q in step(p)):
            return False
    return True


def dbgo_member(obs: BranchingObs, p: CanonicalTerm) -> bool:
    return obs.is_deterministic() and bgo_member(obs, p)


@lru_cache(maxsize=None)
def bgo_count(constraint: str, p: CanonicalTerm) -> int:
    """Exact size of the (unbounded) branching-observation set of p."""
    pairs = 0
    for _, q in step(p):
        pairs += bgo_count(constraint, q)
    return 2**pairs


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


def dbgo_leq(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Inclusion of deterministic branching-observation sets.

    Every deterministic observation extends to a complete one and pruning
    preserves membership, so checking the complete ones suffices.
    """
    return all(bgo_member(obs, q) for obs in enum_complete_dbgo(constraint, p))


class ClosureSet:
    """Lazy closure of a set of linear observations under one of the three
    identification operators: pointwise widening, final forgetting, or both.

    Membership queries never materialize anything; ``materialize`` works only
    where the label domain is small (offers over an alphabet of at most three
    actions, traces of bounded depth).
    """

    def __init__(self, delta: str, base: frozenset[LinearObs], constraint: str):
        if delta not in ("⊇", "f", "f⊇"):
            raise ValueError(f"unknown closure {delta!r}")
        self.delta = delta
        self.constraint = constraint
        self.base = frozenset(base)
        self._by_trace: dict[tuple, list[LinearObs]] = {}
        for obs in base:
            if obs.constraint != constraint:
                raise ValueError("mixed-constraint observation set")
            self._by_trace.setdefault(obs.trace(), []).append(obs)

    def __contains__(self, obs: LinearObs) -> bool:
        n = self.constraint
        for cand in self._by_trace.get(obs.trace(), ()):
            if self.delta == "⊇":
                if all(
                    local_geq(n, x, y)
                    for x, y in zip(obs.labels(), cand.labels())
                ):
                    return True
            elif self.delta == "f":
                if local_eq(n, obs.final, cand.final):
                    return True
            else:
                if local_geq(n, obs.final, cand.final):
                    return True
        return False

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
    subsets = [frozenset(c) for r in range(len(alphabet) + 1) for c in _combos(sorted(alphabet), r)]
    return [LocalObs("I", s) for s in subsets]


def _combos(items, r):
    from itertools import combinations

    return combinations(items, r)


def closure_apply(delta: str, obs_set, constraint: str) -> ClosureSet:
    """Build the closure view of an lgo set for delta in {⊇, f, f⊇}."""
    return ClosureSet(delta, frozenset(obs_set), constraint)


def lgo_leq_via_closure(constraint: str, delta: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Observational engine: compare lgo sets through closure membership.

    A set is below another exactly when its base observations all fall in the
    other's closure.
    """
    closure = closure_apply(delta, enum_lgo(constraint, q), constraint)
    return closure.contains_all(enum_lgo(constraint, p))
