import random
from functools import lru_cache

import pytest

from procsem.constraints import LAYERS, constraint_holds, local_obs
from procsem.lts import step
from procsem.observations import BranchingObs
from procsem.terms import canonicalize, enumerate_terms, parse_term


# 294,912 complete deterministic observations, above the world cap 2^16
MANY_WORLDS = " + ".join(
    f"{x}.({' + '.join(f'b.{y}.0' for y in 'abcdefgh')} + {x}.0)" for x in "abcdef"
)


def c(text: str):
    return canonicalize(parse_term(text))


@pytest.fixture(scope="session")
def pool1():
    """Exhaustive canonical terms of depth <= 1 over {a, b}."""
    return tuple(enumerate_terms({"a", "b"}, 1, 2))


@pytest.fixture(scope="session")
def pool2():
    """Exhaustive canonical terms of depth <= 2 over {a, b} (256 terms)."""
    return tuple(enumerate_terms({"a", "b"}, 2, 8))


def random_term(rng: random.Random, depth: int, alphabet=("a", "b", "c"), width: int = 3):
    """Random canonical term of the given depth bound."""
    from procsem.terms import NIL, prefix, sum_terms

    if depth == 0 or rng.random() < 0.15:
        return NIL
    parts = []
    for _ in range(rng.randint(1, width)):
        parts.append(prefix(rng.choice(alphabet), random_term(rng, depth - 1, alphabet, width)))
    return sum_terms(*parts)


@pytest.fixture(scope="session")
def random3():
    """Seeded random depth-3 terms over {a, b, c}."""
    rng = random.Random(20240817)
    return tuple(random_term(rng, 3) for _ in range(120))


@lru_cache(maxsize=None)
def bgo_count(constraint: str, p) -> int:
    """Exact size of the (unbounded) branching-observation set of p."""
    pairs = 0
    for _, q in step(p):
        pairs += bgo_count(constraint, q)
    return 2**pairs


@lru_cache(maxsize=None)
def completed_traces(p) -> frozenset:
    """Traces of p leading to a state with empty offer (an oracle: the
    library reads completed traces off the CT witness)."""
    out = {()} if p.is_nil else set()
    for a, q in step(p):
        out.update((a,) + t for t in completed_traces(q))
    return frozenset(out)


@lru_cache(maxsize=None)
def trace_table(constraint: str, p) -> tuple[frozenset, frozenset]:
    """(items, finals) of p's decorated traces: the (trace, label-value
    tuple) pairs, built from the successors' items, and the (trace, final
    value) pairs; index 1 (True) is what final-only rules compare."""
    head = local_obs(constraint, p).value
    items = {((), (head,))}
    for a, q in step(p):
        items.update(((a,) + trace, (head,) + xs) for trace, xs in trace_table(constraint, q)[0])
    return frozenset(items), frozenset((trace, xs[-1]) for trace, xs in items)


def unmatched(constraint: str, rule: tuple, p, q):
    """The (trace, value) pairs of p that no decorated trace of q on the
    same trace matches under `rule`, a (prefix, final) pair of
    ``spectrum.LINEAR_RULES``; values are finals if the rule has no prefix
    relation, else tuples of label values.  Every rule is reflexive, so only
    the pairs that q lacks are matched against q's values on their trace."""
    eq, geq = LAYERS[constraint].eq, LAYERS[constraint].geq
    relations = {
        "eq": eq,
        "geq": geq,
        "leq": lambda x, y: geq(y, x),
        "complete": lambda x, y: not y if not x else y >= x,
        # some final below x, and every element of x offered by one of them
        "meet": lambda x, ys: bool(below := [y for y in ys if geq(x, y)]) and not x.difference(*below),
    }
    prefix, final = rule
    mine, theirs = (trace_table(constraint, t)[prefix is None] for t in (p, q))
    pools = {}
    for trace, y in theirs:
        pools.setdefault(trace, []).append(y)
    for trace, x in mine - theirs:
        pool = pools.get(trace, [])
        if final == "meet":
            matched = relations["meet"](x, pool)
        elif prefix is None:
            matched = any(relations[final](x, y) for y in pool)
        else:
            matched = any(
                relations[final](x[-1], y[-1]) and all(map(relations[prefix], x[:-1], y[:-1])) for y in pool
            )
        if not matched:
            yield trace, x


def deterministic(t) -> bool:
    """No node of the term or branching observation t has two arcs with one action."""
    arcs = t.children if isinstance(t, BranchingObs) else t.summands
    actions = [a for a, _ in arcs]
    return len(actions) == len(set(actions)) and all(deterministic(u) for _, u in arcs)


def replay_sim_refutation(n, p, q, node, answers=step):
    """A node refutes (p, q) under constraint n, q answering by the
    transition relation `answers`: a constraint leaf fails n, and a move
    exists for p by ``step`` while its responses are exactly the same-action
    moves of ``answers(q)``, each refuted."""
    assert (node["p"], node["q"]) == (p, q)
    if node["kind"] == "constraint":
        assert not constraint_holds(n, p, q)
        return
    a, p2 = node["action"], node["after_p"]
    assert (a, p2) in step(p)
    responses = [q2 for b, q2 in answers(q) if b == a]
    assert len(responses) == len(node["responses"])
    for q2, sub in zip(responses, node["responses"]):
        replay_sim_refutation(n, p2, q2, sub, answers)


def replay_bisim_refutation(p, q, node):
    """A node refutes (p, q): its move exists on its side, its responses are
    exactly the other side's same-action moves, and each response refutes
    (moved state, answer), none of them by an identical answer.  Walks the
    tree on an explicit stack: it is as deep as the terms."""
    todo = [(p, q, node)]
    while todo:
        p, q, node = todo.pop()
        assert node["kind"] == "move" and (node["p"], node["q"]) == (p, q)
        mover, other = (p, q) if node["side"] == "left" else (q, p)
        a, moved = node["action"], node["after_p"]
        assert (a, moved) in step(mover)
        answers = [r for b, r in step(other) if b == a]
        assert len(answers) == len(node["responses"])
        for answer, sub in zip(answers, node["responses"]):
            assert answer is not moved
            todo.append((moved, answer, sub))
