import random
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, groupby, product
from operator import itemgetter

import pytest

from procsem.axioms import Axiom, X, Y, derive_leq
from procsem.constraints import LAYERS, LocalObs, constraint_holds, local_eq, local_obs
from procsem.logic import _GRAMMARS, TOP, Conj, Diamond, Formula, Neg, _conj_of, chain, conj, not_zero
from procsem.lts import step, successors
from procsem.observations import BranchingObs, ClosureSet, LinearObs
from procsem.operational import rule, saturate
from procsem.preorders import holds
from procsem.spectrum import SemanticsId, linear_rule, parse_semantics
from procsem.terms import NIL, CanonicalTerm, Choice, Prefix, canonicalize, enumerate_terms, parse_term, prefix, sum_terms


# 294,912 complete deterministic observations, above the world cap 2^16
MANY_WORLDS = " + ".join(
    f"{x}.({' + '.join(f'b.{y}.0' for y in 'abcdefgh')} + {x}.0)" for x in "abcdef"
)


# a.X + a.Y = a.(X + Y): sound in T, refuted in CT, in no catalog
T_AXIOM = Axiom(
    "T",
    Choice(Prefix("a", X), Prefix("a", Y)),
    Prefix("a", Choice(X, Y)),
    "equation",
    action_vars=("a",),
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


# The recursive walks that ``constraints.fold`` and the cover game of
# ``observations`` replaced, kept as references for them.


@lru_cache(maxsize=None)
def enum_lgo_reference(constraint: str, p) -> frozenset:
    head = local_obs(constraint, p)
    out = {LinearObs(head, ())}
    for a, q in step(p):
        for tail in enum_lgo_reference(constraint, q):
            out.add(LinearObs(head, ((a, tail.head),) + tail.steps))
    return frozenset(out)


@lru_cache(maxsize=None)
def enum_complete_dbgo_reference(constraint: str, p) -> frozenset:
    label = local_obs(constraint, p)
    per_action = [
        [(a, c) for _, q in moves for c in enum_complete_dbgo_reference(constraint, q)]
        for a, moves in groupby(step(p), itemgetter(0))
    ]
    return frozenset(BranchingObs(label, combo) for combo in product(*per_action))


@lru_cache(maxsize=None)
def enum_possible_worlds_reference(p) -> frozenset:
    per_action = [
        sorted({prefix(a, w) for _, q in moves for w in enum_possible_worlds_reference(q)})
        for a, moves in groupby(step(p), itemgetter(0))
    ]
    return frozenset(sum_terms(*combo) for combo in product(*per_action))


@lru_cache(maxsize=None)
def deter_reference(p):
    merged = ((a, sum_terms(*(q for _, q in moves))) for a, moves in groupby(step(p), itemgetter(0)))
    return CanonicalTerm(tuple((a, deter_reference(q)) for a, q in merged))


@lru_cache(maxsize=None)
def characteristic_sim_formula_reference(p) -> Formula:
    return conj(*[Diamond(a, characteristic_sim_formula_reference(q)) for a, q in step(p)])


@lru_cache(maxsize=None)
def bgo_member_reference(obs: BranchingObs, p) -> bool:
    n = obs.constraint
    if not local_eq(n, obs.label, local_obs(n, p)):
        return False
    for a, child in obs.children:
        if not any(b == a and bgo_member_reference(child, q) for b, q in step(p)):
            return False
    return True


@lru_cache(maxsize=None)
def covered_reference(constraint: str, p, candidates: tuple) -> bool:
    """The reference for ``bgo_leq(n, p, q)``, at candidates (q,)."""
    lp = local_obs(constraint, p)
    for q in candidates:
        if not local_eq(constraint, lp, local_obs(constraint, q)):
            continue
        if all(covered_reference(constraint, p2, successors(q, a)) for a, p2 in step(p)):
            return True
    return False


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


def conj_variants_reference(f: Formula):
    """The recursive conjunct-variant walk, the reference for
    ``logic._conj_variants``: a conjunction's own drops, then each member's
    variants put back in its place.  ``_minimize`` keeps the first good
    variant, so the stack walk must yield the same objects in this order."""
    if isinstance(f, Conj):
        members = f.members
        for i in range(len(members)):
            yield _conj_of(members[:i] + members[i + 1 :])
        for i, m in enumerate(members):
            rest = members[:i] + members[i + 1 :]
            for variant in conj_variants_reference(m):
                j = bisect_left(rest, variant)
                if j < len(rest) and rest[j] is variant:
                    yield _conj_of(rest)
                else:
                    yield _conj_of(rest[:j] + (variant,) + rest[j:])
    elif isinstance(f, Neg):
        for variant in conj_variants_reference(f.body):
            yield Neg(variant)
    elif isinstance(f, Diamond):
        for variant in conj_variants_reference(f.body):
            yield Diamond(f.action, variant)


def check_hnf_laws(z: str, pool) -> int:
    """Assert the two head-normal-form laws of z over `pool`: saturation is
    z-equivalent, and every related ordered pair derives through the head
    normal form of its larger side (``derive_leq`` raises on the first
    summand, at any depth, that the head normal form cannot match).
    Returns the number of derivations."""
    sem = parse_semantics(z)
    _, condition = rule(sem)
    for p in pool:
        h = saturate(condition, p)
        assert holds(sem, h, p) and holds(sem, p, h), (z, p)
    derived = 0
    for p, q in product(pool, repeat=2):
        if holds(sem, p, q):
            assert derive_leq(z, p, q).goal == (p, q)
            derived += 1
    return derived


def materialize(flavor: str, base, alphabet) -> frozenset:
    """The closure of the I observations `base` under the rule of `flavor`,
    written out over the offers of `alphabet`: every labelling of a trace
    of `base` that ``ClosureSet(flavor, base, "I")`` contains."""
    closure = ClosureSet(flavor, base, "I")
    subsets = [frozenset(part) for r in range(len(alphabet) + 1) for part in combinations(sorted(alphabet), r)]
    labels = [LocalObs("I", offer) for offer in subsets]
    out = set()
    for trace in {obs.trace() for obs in base}:
        for labelling in product(labels, repeat=len(trace) + 1):
            obs = LinearObs(labelling[0], tuple(zip(trace, labelling[1:])))
            if obs in closure:
                out.add(obs)
    return frozenset(out)


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
    flavor, n = sem.flavor, linear_rule(*sem)[0]
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
