import itertools
import random
import time
from collections import Counter

import pytest

from conftest import (
    bgo_member_reference,
    c,
    characteristic_sim_formula_reference,
    covered_reference,
    deter_reference,
    enum_complete_dbgo_reference,
    enum_lgo_reference,
    enum_possible_worlds_reference,
)
from procsem.constraints import (
    CONSTRAINTS,
    LocalObs,
    constraint_holds,
    local_eq,
    local_geq,
    local_obs,
    simulates,
    solve_game,
    value_key,
)
from procsem.lts import step, successors, traces
from procsem.terms import NIL, prefix, sum_terms


def test_local_obs_cases():
    assert local_obs("C", c("0")).value is True
    assert local_obs("C", c("a.0")).value is False
    assert local_obs("I", c("a.0 + b.c.0")).value == {"a", "b"}
    assert local_obs("T", c("a.b.0")).value == {(), ("a",), ("a", "b")}
    assert local_obs("U", c("a.0")).value is None
    assert local_obs("S", c("a.0")).value is c("a.0")


def test_local_obs_is_a_frozen_value():
    obs = local_obs("I", c("b.0 + a.0"))
    same = LocalObs("I", frozenset({"b", "a"}))
    assert obs == same and hash(obs) == hash(same) == hash(("I", frozenset({"a", "b"})))
    assert {same: 1}[obs] == 1
    assert obs != LocalObs("T", obs.value) and obs != ("I", obs.value)
    with pytest.raises(AttributeError):
        obs.value = frozenset()
    assert repr(obs) == "LocalObs(I, frozenset({'a', 'b'}))"


def test_local_geq_examples():
    geq = lambda n, p, q: local_geq(n, local_obs(n, c(p)), local_obs(n, c(q)))
    assert geq("I", "a.0+b.0", "a.0")
    assert not geq("I", "a.0", "a.0+b.0")
    # termination values compare by equality, not inclusion
    assert not geq("C", "a.0", "0")
    assert not geq("C", "0", "a.0")
    # simulation classes compare via the simulation order
    assert geq("S", "a.(b.0+c.0)", "a.b.0+a.c.0")
    assert not geq("S", "a.b.0+a.c.0", "a.(b.0+c.0)")


def test_constraint_holds_examples():
    assert constraint_holds("U", c("0"), c("a.b.0"))
    assert not constraint_holds("C", c("0"), c("a.0"))
    assert constraint_holds("I", c("a.b.0"), c("a.c.0"))
    assert not constraint_holds("T", c("a.b.0"), c("a.c.0"))


def test_mixed_constraint_comparison_rejected():
    with pytest.raises(ValueError):
        local_eq("I", local_obs("I", c("a.0")), local_obs("C", c("a.0")))
    with pytest.raises(ValueError):
        local_geq("C", local_obs("I", c("a.0")), local_obs("I", c("a.0")))


def test_compositional_hooks(pool1):
    from procsem.terms import prefix, sum_terms

    for p, q in itertools.product(pool1, repeat=2):
        s = sum_terms(p, q)
        assert local_obs("I", s).value == local_obs("I", p).value | local_obs("I", q).value
        assert local_obs("T", s).value == local_obs("T", p).value | local_obs("T", q).value
    for p in pool1:
        ap = prefix("a", p)
        assert local_obs("I", ap).value == {"a"}
        assert local_obs("T", ap).value == frozenset({()}) | {
            ("a",) + t for t in traces(p)
        }


def test_local_geq_is_a_preorder_and_eq_is_its_kernel(pool2):
    sample = pool2[:24]
    for n in ("U", "C", "I", "T", "S"):
        obs = [local_obs(n, p) for p in sample]
        for x in obs:
            assert local_geq(n, x, x)
        for x, y, z in itertools.islice(itertools.product(obs, repeat=3), 600):
            if local_geq(n, x, y) and local_geq(n, y, z):
                assert local_geq(n, x, z)
        for x, y in itertools.product(obs, repeat=2):
            assert local_eq(n, x, y) == (local_geq(n, x, y) and local_geq(n, y, x))
            if n != "S":  # an S key is the term, not its class
                assert (value_key(n, x.value) == value_key(n, y.value)) == local_eq(n, x, y)


def test_local_obs_identifies_constraint(pool2):
    # local_obs(N, p) = local_obs(N, q) exactly when the constraint holds
    sample = pool2[:32]
    for n in ("U", "C", "I", "T", "S"):
        for p, q in itertools.product(sample, repeat=2):
            assert constraint_holds(n, p, q) == local_eq(
                n, local_obs(n, p), local_obs(n, q)
            )


def _counted(node, memo, built: Counter, yielded: list):
    """`node`, counting the generators built per position and the positions
    yielded, and checking that none yields a position its memo holds or
    ends without its value."""

    def counted(key):
        built[key] += 1
        for sub in node(key):
            assert sub not in memo, (key, sub)
            yielded.append(sub)
            yield sub
        assert key in memo, key

    return counted


def test_positions_are_built_once_and_yield_only_misses(pool2):
    import procsem
    from procsem import constraints, observations, preorders

    procsem.clear_caches()
    rng = random.Random(2701)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(400)]
    # (game, the positions a pair (p, q) is decided at)
    games = [(constraints._sim_game(n, step), lambda p, q: [(p, q)]) for n in CONSTRAINTS]
    games += [
        (preorders._types_game(n), lambda p, q: [(p2, successors(q, a)) for a, p2 in step(p)])
        for n in CONSTRAINTS
    ]
    games.append((preorders._cover_game(), lambda p, q: [(p, (q,))]))
    games.append((observations.world_count.game(), lambda p, q: [p]))
    games += [(observations._cover_game(n), lambda p, q: [(p, (q,))]) for n in CONSTRAINTS]
    for (node, memo), roots in games:
        assert not memo
        built, yielded = Counter(), []
        counted = _counted(node, memo, built, yielded)
        for p, q in pairs:
            for root in roots(p, q):
                solve_game(counted, root, memo)
        assert set(built.values()) == {1}
        assert built.keys() == memo.keys()
        assert yielded


def test_folds_match_their_recursive_references(pool2, random3):
    """Every fold, and the cover game under ``bgo_member`` and ``bgo_leq``,
    gives the value of the recursion it replaced, and the same interned
    object for terms and formulas: over pool2 and the depth-3 terms, at every
    constraint, and for membership every complete deterministic observation
    of p against each of a sample of q."""
    from procsem.logic import characteristic_sim_formula
    from procsem.observations import bgo_leq, bgo_member, enum_complete_dbgo, enum_lgo, enum_possible_worlds
    from procsem.operational import deter

    pool = pool2 + random3
    for p in pool:
        assert deter(p) is deter_reference(p), p
        assert characteristic_sim_formula(p) is characteristic_sim_formula_reference(p), p
        assert enum_possible_worlds(p) == enum_possible_worlds_reference(p), p
    rng = random.Random(50)
    for n in CONSTRAINTS:
        qs = rng.sample(pool, 24)
        for p in pool:
            assert enum_lgo(n, p) == enum_lgo_reference(n, p), (n, p)
            assert enum_complete_dbgo(n, p) == enum_complete_dbgo_reference(n, p), (n, p)
            for q in qs:
                assert bgo_leq(n, p, q) == covered_reference(n, p, (q,)), (n, p, q)
                for obs in enum_complete_dbgo(n, p):
                    assert bgo_member(obs, q) == bgo_member_reference(obs, q), (obs, q)


def test_a_wide_position_decides_in_linear_time():
    import procsem

    procsem.clear_caches()
    # a.z.0 is answered by the last of 3,001 same-action summands
    wide = sum_terms(*(prefix("a", prefix(f"y{i:04}", NIL)) for i in range(3000)), prefix("a", prefix("z", NIL)))
    start = time.process_time()
    assert simulates("U", prefix("a", prefix("z", NIL)), wide)
    assert time.process_time() - start < 0.1


def test_deep_chains_decide_on_the_explicit_stack():
    import procsem
    from procsem.observations import world_count
    from procsem.preorders import decide
    from procsem.spectrum import parse_semantics

    procsem.clear_caches()
    chain = NIL
    for _ in range(5000):
        chain = prefix("a", chain)
    longer = prefix("a", chain)
    for name in ("S", "CS", "RS", "2S", "UPW", "C:db", "PW", "S:db", "I:bf", "I:bf⊇"):
        sem = parse_semantics(name)
        assert decide(sem, chain, chain).holds, name
        assert not decide(sem, longer, chain).holds, name
    assert world_count(chain) == 1
    assert world_count(sum_terms(prefix("a", chain), prefix("a", NIL))) == 2
