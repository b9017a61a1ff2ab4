"""Small-step transition relation and trace machinery over canonical terms.

A canonical term is a sum of prefixes, so its outgoing transitions are
literally its summands; targets are canonical by construction, which makes
the reachable transition graph a finite DAG and lets every fixpoint
computation below memoize on term identity.
"""

from __future__ import annotations

from functools import lru_cache

from .terms import Action, CanonicalTerm, render_term

__all__ = [
    "step",
    "initials",
    "successors",
    "traces",
    "completed_traces",
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
def completed_traces(p: CanonicalTerm) -> frozenset[Trace]:
    """Traces leading to a state with empty offer."""
    out = set()
    if p.is_nil:
        out.add(())
    for a, q in p.summands:
        out.update((a,) + t for t in completed_traces(q))
    return frozenset(out)


@lru_cache(maxsize=None)
def reachable(p: CanonicalTerm) -> tuple[CanonicalTerm, ...]:
    """All states reachable from p (p first, then DFS order, deduplicated).
    Walked on an explicit stack that holds each state's successors in
    reverse, so the first is visited next: a deep term is as safe as a wide one."""
    seen: dict[CanonicalTerm, None] = {}
    todo = [p]
    while todo:
        t = todo.pop()
        if t not in seen:
            seen[t] = None
            todo.extend(q for _, q in reversed(t.summands))
    return tuple(seen)


def transition_graph_dot(p: CanonicalTerm) -> str:
    """DOT rendering of the reachable transition graph."""
    states = reachable(p)
    index = {s: i for i, s in enumerate(states)}
    lines = ["digraph lts {"]
    for s, i in index.items():
        label = render_term(s).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for s, i in index.items():
        for a, q in s.summands:
            lines.append(f'  n{i} -> n{index[q]} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)
