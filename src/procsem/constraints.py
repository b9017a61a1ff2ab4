"""Local observation functions and the comparison structure on their values.

Each constraint N in {U, C, I, T, S} determines what can be seen of a single
state: nothing, termination, the initial offer, the trace set, or the state's
simulation class.  Two states satisfy the constraint exactly when their local
observations are equal, which is what makes the constrained-simulation layers
of the spectrum work.

The S case compares class representatives with ``simulates``, the
constrained-simulation game; it and every other game of the package run on
the memoized, explicit-stack driver ``solve_game`` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lts import initials, step, traces
from .terms import CanonicalTerm

__all__ = [
    "CONSTRAINTS",
    "LocalObs",
    "local_obs",
    "local_eq",
    "local_geq",
    "local_key",
    "constraint_holds",
    "solve_game",
    "simulates",
]

# Fineness order U < C < I < T < S; used for reporting only.
CONSTRAINTS = ("U", "C", "I", "T", "S")

@dataclass(frozen=True, slots=True)
class LocalObs:
    """Value of a local observation function at one state."""

    constraint: str
    value: object

    def __repr__(self) -> str:
        return f"LocalObs({self.constraint}, {self.value!r})"


@lru_cache(maxsize=None)
def local_obs(constraint: str, p: CanonicalTerm) -> LocalObs:
    if constraint == "U":
        return LocalObs("U", None)
    if constraint == "C":
        return LocalObs("C", p.is_nil)
    if constraint == "I":
        return LocalObs("I", initials(p))
    if constraint == "T":
        return LocalObs("T", traces(p))
    if constraint == "S":
        # The term itself stands in for its simulation class; comparisons go
        # through the simulation decision procedure, never through equality
        # of representatives.
        return LocalObs("S", p)
    raise ValueError(f"unknown constraint {constraint!r}")


def _check_same(l1: LocalObs, l2: LocalObs) -> str:
    if l1.constraint != l2.constraint:
        raise ValueError(f"mixed-constraint comparison: {l1.constraint} vs {l2.constraint}")
    return l1.constraint


def local_eq(constraint: str, l1: LocalObs, l2: LocalObs) -> bool:
    """The equivalence N on observation values."""
    n = _check_same(l1, l2)
    if n != constraint:
        raise ValueError(f"observations carry constraint {n}, expected {constraint}")
    if n == "S":
        return l1.value is l2.value or (
            simulates("U", l1.value, l2.value) and simulates("U", l2.value, l1.value)
        )
    return l1.value == l2.value


def local_geq(constraint: str, l1: LocalObs, l2: LocalObs) -> bool:
    """l1 dominates l2: equality for U/C, superset for I/T, inverse simulation for S."""
    n = _check_same(l1, l2)
    if n != constraint:
        raise ValueError(f"observations carry constraint {n}, expected {constraint}")
    if n in ("U", "C"):
        return l1.value == l2.value
    if n in ("I", "T"):
        return l1.value >= l2.value
    # [[p]] >= [[q]] in the S domain means q is simulated by p.
    return simulates("U", l2.value, l1.value)


def local_key(obs: LocalObs):
    """A total sort key on observation values, used for reproducible witnesses."""
    n = obs.constraint
    if n == "U":
        return ()
    if n == "C":
        return (obs.value,)
    if n == "I":
        return tuple(sorted(obs.value))
    if n == "T":
        return tuple(sorted(obs.value))
    return obs.value.key


def constraint_holds(constraint: str, p: CanonicalTerm, q: CanonicalTerm) -> bool:
    return local_eq(constraint, local_obs(constraint, p), local_obs(constraint, q))


def solve_game(node, root, memo: dict) -> bool:
    """Value of the game position `root`, memoized in `memo`.

    ``node(key)`` is a generator that yields the positions it needs, receives
    their values and returns the value of `key`.  Positions run on an explicit
    stack, never on the interpreter's.  Every game here moves to strictly
    smaller left terms, so no position ever waits on itself.
    """
    if root in memo:
        return memo[root]
    stack = [(root, node(root))]
    value = None
    while stack:
        key, game = stack[-1]
        try:
            sub = game.send(value)
        except StopIteration as stop:
            value = memo[key] = stop.value
            stack.pop()
            continue
        value = memo.get(sub)
        if value is None:
            stack.append((sub, node(sub)))
    return value


@lru_cache(maxsize=None)
def _sim_game(constraint: str, stepper):
    def node(key):
        p, q = key
        if not constraint_holds(constraint, p, q):
            return False
        q_moves = stepper(q)
        for a, p2 in stepper(p):
            for b, q2 in q_moves:
                if b == a and (yield (p2, q2)):
                    break
            else:
                return False
        return True

    return node, {}


def simulates(constraint: str, p: CanonicalTerm, q: CanonicalTerm, stepper=step) -> bool:
    """Is p simulated by q under the local constraint N?

    sim(p, q) = N(p, q) and every p -a-> p' is answered by some q -a-> q'
    with sim(p', q').  Calls with the same `stepper` (the transition
    relation) share one memo.
    """
    node, memo = _sim_game(constraint, stepper)
    return solve_game(node, (p, q), memo)
