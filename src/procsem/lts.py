"""Small-step transition relation and trace machinery over canonical terms.

A canonical term is a sum of prefixes, so its outgoing transitions are
literally its summands; targets are canonical by construction, which makes
the reachable transition graph a finite DAG and lets every fixpoint
computation below memoize on term identity.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import Action, CanonicalTerm, render_term, state_table

__all__ = [
    "step",
    "initials",
    "successors",
    "traces",
    "reachable",
    "transition_graph_dot",
]

Trace = tuple[Action, ...]


def step(p: CanonicalTerm) -> tuple[tuple[Action, CanonicalTerm], ...]:
    """All transitions of p, in canonical order: sorted by action, so
    ``groupby(step(p), itemgetter(0))`` reads the moves of each action in turn."""
    return p.summands


def successors(p: CanonicalTerm, action: Action) -> tuple[CanonicalTerm, ...]:
    """The targets of p's `action` transitions."""
    return tuple(q for a, q in p.summands if a == action)


@lru_cache(maxsize=None)
def initials(p: CanonicalTerm) -> frozenset[Action]:
    """The initial offer: actions p can immediately perform."""
    return frozenset(a for a, _ in p.summands)


@lru_cache(maxsize=None)
def traces(p: CanonicalTerm) -> frozenset[Trace]:
    """All action sequences p can perform, including the empty one."""
    out = {()}
    for a, q in p.summands:
        out.update((a,) + t for t in traces(q))
    return frozenset(out)


@lru_cache(maxsize=None)
def reachable(p: CanonicalTerm) -> tuple[CanonicalTerm, ...]:
    """All states reachable from p, each once, numbered as in
    ``terms.state_table``: p first, and each state before its successors."""
    return tuple(state_table(p)[1])


def transition_graph_dot(p: CanonicalTerm) -> str:
    """DOT rendering of the reachable transition graph, state i of
    ``terms.state_table`` as node n<i>."""
    states, index = state_table(p)
    labels = (render_term(s).replace('"', '\\"') for s in index)
    lines = ["digraph lts {", *(f'  n{i} [label="{label}"];' for i, label in enumerate(labels))]
    lines += (f'  n{i} -> n{j} [label="{a}"];' for i, state in enumerate(states) for a, j in state)
    return "\n".join(lines + ["}"])
