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
from itertools import groupby, product
from math import prod
from operator import itemgetter

from .constraints import LocalObs, fold, local_eq, local_geq, local_key, local_obs, solve_game, value_repr
from .lts import step, successors
from .spectrum import LINEAR_RULES, SemanticsId, UncoveredSemanticsError, linear_rule
from .terms import Action, CanonicalTerm, Frozen, prefix, render_pieces, sum_terms

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
        """``<label,{(a,child),...}>``, printed by ``terms.render_pieces``,
        as observations may be deep."""
        return render_pieces(self, BranchingObs._pieces)

    def _pieces(self) -> list:
        out = [f"<{value_repr(self.constraint, self.label.value)},{{"]
        for k, (a, c) in enumerate(self.arcs):
            out += (f"{',' if k else ''}({a},", c, ")")
        return out + ["}>"]


@fold
def enum_lgo(constraint: str, p: CanonicalTerm, folded) -> frozenset[LinearObs]:
    """All linear observations of p for the given local observer."""
    head = local_obs(constraint, p)
    out = {LinearObs(head, ())}
    for a, tails in folded:
        out.update(LinearObs(head, ((a, tail.head),) + tail.steps) for tail in tails)
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


@fold
def world_count(p: CanonicalTerm, folded) -> int:
    """An upper bound, computed without enumerating, on the number of p's
    complete deterministic observations and of its possible worlds."""
    return prod(sum(count for _, count in moves) for _, moves in groupby(folded, itemgetter(0)))


def check_world_cap(p: CanonicalTerm, cap: int = DEFAULT_WORLD_CAP) -> None:
    """Raise TruncationError before enumerating more than `cap` worlds of p."""
    count = world_count(p)
    if count > cap:
        raise TruncationError(f"{count} complete deterministic observations exceed the cap {cap}", cap)


@fold
def enum_complete_dbgo(constraint: str, p: CanonicalTerm, folded) -> frozenset[BranchingObs]:
    """Complete deterministic observations: one branch per offered action, everywhere."""
    per_action = [[(a, c) for _, cs in moves for c in cs] for a, moves in groupby(folded, itemgetter(0))]
    return frozenset(BranchingObs(local_obs(constraint, p), combo) for combo in product(*per_action))


@fold
def enum_possible_worlds(p: CanonicalTerm, folded) -> frozenset[CanonicalTerm]:
    """Deterministic terms obtained by resolving every choice, keeping the full offer."""
    choices = [sorted({prefix(a, w) for _, ws in moves for w in ws}) for a, moves in groupby(folded, itemgetter(0))]
    return frozenset(sum_terms(*combo) for combo in product(*choices))


@lru_cache(maxsize=None)
def _cover_game(constraint: str):
    """cov(x, Q): some q in Q shows x's label and covers each move x -a-> x'
    by cov(x', q/a).  x is a term, or a branching observation whose moves
    are its arcs; the labels are observations of `constraint`."""
    memo = {}

    def node(key):
        x, qs = key
        label, moves = (x.label, x.arcs) if isinstance(x, BranchingObs) else (local_obs(constraint, x), step(x))
        value = False
        for q in qs:
            if local_eq(constraint, label, local_obs(constraint, q)):
                for a, x2 in moves:
                    sub = (x2, successors(q, a))
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


def bgo_member(obs: BranchingObs, p: CanonicalTerm) -> bool:
    """Does obs belong to the branching observations of p?  Those of obs are
    its prunings, so this is ``bgo_leq`` with obs on the left."""
    return bgo_leq(obs.constraint, obs, p)


def bgo_leq(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    """Inclusion of branching-observation sets, decided exactly.

    The observation set of a term is the powerset of its child pairs, so
    inclusion reduces to label equality plus coverage of every child pair,
    the position (p, (q,)) of the cover game.  No observation set is built,
    which keeps the oracle exact for any finite term."""
    node, memo = _cover_game(constraint)
    return solve_game(node, (p, (q,)), memo)


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
    Membership is read off the base observations on the same trace; the
    closure itself is never built.
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
