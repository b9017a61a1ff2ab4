"""Local observation functions and the comparison structure on their values.

Each constraint N in {U, C, I, T, S} determines what can be seen of a single
state: nothing, termination, the initial offer, the trace set, or the state's
simulation class.  Two states satisfy the constraint exactly when their local
observations are equal, which is what makes the constrained-simulation layers
of the spectrum work.

The order on values is owned here: ``LAYERS`` holds one row per
constraint, with the value it observes of a state, (eq, geq) on those
values and the sort key that makes witnesses and their text reproducible;
``local_obs``, ``local_eq``, ``local_geq``, ``value_key``,
``constraint_holds`` and the simulation game read the row.  The S case
compares class representatives with ``simulates``, the
constrained-simulation game; it and every other game of the package run
on the memoized, explicit-stack driver ``solve_game`` defined here: a game
constructor returns a position generator and the memo it fills, and a
position yields only the sub-positions that memo lacks, probing the memo
once per sub-position.  Each memoized walk of a term is a ``fold`` on it.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache, wraps

from .lts import initials, step, traces
from .terms import CanonicalTerm, Frozen

__all__ = [
    "CONSTRAINTS",
    "LocalObs",
    "local_obs",
    "local_eq",
    "local_geq",
    "local_key",
    "value_key",
    "value_repr",
    "LAYERS",
    "constraint_holds",
    "solve_game",
    "fold",
    "simulates",
]


class LocalObs(Frozen, namedtuple("LocalObs", "constraint value")):
    """Value of a local observation function at one state."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"LocalObs({self.constraint}, {value_repr(self.constraint, self.value)})"


# One row per constraint N: the value N observes of a state, (eq, geq) on
# those values, and the total sort key on them that makes witnesses
# reproducible.  Equality for U and C, superset for I and T; at S the value
# is the term itself, standing in for its simulation class, and the order is
# the simulation order ([[x]] >= [[y]] when y is simulated by x), decided by
# the game, never by equality of representatives.
Layer = namedtuple("Layer", "value eq geq key")


def _sorted(values) -> tuple:
    return tuple(sorted(values))


LAYERS = {
    "U": Layer(lambda p: None, operator.eq, operator.eq, lambda v: ()),
    "C": Layer(operator.attrgetter("is_nil"), operator.eq, operator.eq, lambda v: (v,)),
    "I": Layer(initials, operator.eq, operator.ge, _sorted),
    "T": Layer(traces, operator.eq, operator.ge, _sorted),
    "S": Layer(
        lambda p: p,
        lambda x, y: x is y or (simulates("U", x, y) and simulates("U", y, x)),
        lambda x, y: simulates("U", y, x),
        lambda v: v,
    ),
}

# Fineness order U < C < I < T < S; used for reporting only.
CONSTRAINTS = tuple(LAYERS)


@lru_cache(maxsize=None)
def local_obs(constraint: str, p: CanonicalTerm) -> LocalObs:
    return LocalObs(constraint, LAYERS[constraint].value(p))


def _values(constraint: str, l1: LocalObs, l2: LocalObs) -> tuple:
    for n in (l1.constraint, l2.constraint):
        if n != constraint:
            raise ValueError(f"observations carry constraint {n}, expected {constraint}")
    return l1.value, l2.value


def local_eq(constraint: str, l1: LocalObs, l2: LocalObs) -> bool:
    """The equivalence N on observation values."""
    return LAYERS[constraint].eq(*_values(constraint, l1, l2))


def local_geq(constraint: str, l1: LocalObs, l2: LocalObs) -> bool:
    """l1 dominates l2: equality for U/C, superset for I/T, inverse simulation for S."""
    return LAYERS[constraint].geq(*_values(constraint, l1, l2))


def value_key(constraint: str, value):
    """A total sort key on the observation values of one constraint, used for
    reproducible witnesses.  An S value is the term itself, in term order."""
    return LAYERS[constraint].key(value)


def local_key(obs: LocalObs):
    """``value_key`` of an observation."""
    return value_key(obs.constraint, obs.value)


def value_repr(constraint: str, value) -> str:
    """repr of an observation value with set elements in value_key order, so
    that rendered observations do not depend on the hash seed."""
    if isinstance(value, frozenset) and value:
        return "frozenset({" + ", ".join(map(repr, value_key(constraint, value))) + "})"
    return repr(value)


def constraint_holds(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    return LAYERS[constraint].eq(local_obs(constraint, p).value, local_obs(constraint, q).value)


def solve_game(node, root, memo: dict):
    """Value of the game position `root`, memoized in `memo`.

    ``node(key)`` is a generator over the position `key`, closed over
    `memo`.  It yields only the sub-positions its memo lacks, reads each
    value back from the memo once resumed, and stores the value of `key` in
    the memo before it returns; so a memoized position costs one dict read,
    and no generator is built or resumed for it.  Positions run on an
    explicit stack, never on the interpreter's.  Every game here moves to a
    smaller left term, or pair of terms, so no position waits on itself.
    """
    if root not in memo:
        stack = [node(root)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(node(sub))
    return memo[root]


def fold(combine, *, parts=step):
    """Decorator: ``f(*args, p, folded)`` becomes ``f(*args, p)``, where
    `folded` lists ``(label, f(*args, child))`` for each ``(label, child)``
    of ``parts(p)``, p's moves by default; f never returns None.  Each node
    is folded once per `args`, children first, as a position on ``solve_game``.
    The ``lru_cache``d ``.game(*args)`` builds the (node, memo) pair, and its
    ``cache_clear`` and ``cache_info`` are the fold's, so ``clear_caches()``
    empties it.  A warm read is one ``.game`` hit and one dict read."""

    @lru_cache(maxsize=None)
    def game(*args):
        memo = {}

        def node(p):
            folded = []
            for label, child in parts(p):
                if (value := memo.get(child)) is None:
                    yield child
                    value = memo[child]
                folded.append((label, value))
            memo[p] = combine(*args, p, folded)

        return node, memo

    @wraps(combine)
    def read(*args):
        node, memo = game(*args[:-1])
        value = memo.get(args[-1])
        return solve_game(node, args[-1], memo) if value is None else value

    read.game, read.cache_clear, read.cache_info = game, game.cache_clear, game.cache_info
    return read


@lru_cache(maxsize=None)
def _sim_game(constraint: str, answers):
    label, eq = LAYERS[constraint].value, LAYERS[constraint].eq
    memo = {}

    def node(key):
        p, q = key
        value = eq(label(p), label(q))
        if value:
            q_moves = answers(q)
            for a, p2 in step(p):
                for b, q2 in q_moves:
                    if b == a:
                        sub = (p2, q2)
                        if (held := memo.get(sub)) is None:
                            yield sub
                            held = memo[sub]
                        if held:
                            break
                else:
                    value = False
                    break
        memo[key] = value

    return node, memo


def simulates(constraint: str, p: CanonicalTerm, q: CanonicalTerm, answers=step) -> bool:
    """Is p simulated by q under the local constraint N?

    sim(p, q) = N(p, q) and every p -a-> p' of ``step(p)`` is answered by
    some (a, q') of ``answers(q)`` with sim(p', q').  Calls with the same
    `answers` (q's transition relation) share one memo.
    """
    node, memo = _sim_game(constraint, answers)
    return solve_game(node, (p, q), memo)
