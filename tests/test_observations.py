import itertools
import random

import pytest

from conftest import bgo_count, c, deterministic, materialize
from procsem.constraints import LocalObs, local_key, local_obs, simulates
from procsem.lts import traces
from procsem.observations import (
    BranchingObs,
    ClosureSet,
    LinearObs,
    bgo_leq,
    bgo_member,
    dbgo_leq,
    enum_bgo,
    enum_complete_dbgo,
    enum_dbgo,
    enum_lgo,
    enum_possible_worlds,
    lgo_leq_via_closure,
)
import procsem.preorders as preorders
from procsem.spectrum import LINEAR_RULES, SemanticsId


def lgo(n, head, *steps):
    obs_head = LocalObs(n, head)
    return LinearObs(obs_head, tuple((a, LocalObs(n, l)) for a, l in steps))


def offers(*names):
    return frozenset(names)


def test_linear_obs_is_a_frozen_value():
    head, tail = LocalObs("I", frozenset("a")), LocalObs("I", frozenset())
    obs = LinearObs(head, (("a", tail),))
    same = LinearObs(LocalObs("I", frozenset("a")), (("a", LocalObs("I", frozenset())),))
    assert obs in enum_lgo("I", c("a.0"))
    assert obs == same and hash(obs) == hash(same) == hash((head, (("a", tail),)))
    assert {same: 1}[obs] == 1
    assert obs != LinearObs(head, ()) and obs != (head, (("a", tail),))
    with pytest.raises(AttributeError):
        obs.steps = ()
    assert repr(obs) == "<frozenset({'a'}),a,frozenset()>"


def _nested_key(o):
    """The observation order as a nested tuple of the whole tree: the oracle
    for ``BranchingObs.__lt__``.  Recursive, so for shallow trees only."""
    return (o.constraint, local_key(o.label), tuple(sorted((a, _nested_key(c)) for a, c in o.children)))


def test_observation_order_is_the_nested_key_order(pool2):
    rng = random.Random(2006)
    observations = set()
    for n in ("U", "I", "T", "S"):
        for p in pool2:
            observations.update(enum_bgo(n, p, 4)[0])
    sample = rng.sample(sorted(observations, key=_nested_key), 400)
    keys = {o: _nested_key(o) for o in sample}
    for o in sample:
        assert o.arcs == tuple(sorted(o.children, key=lambda ac: (ac[0], _nested_key(ac[1]))))
        for other in sample:
            assert (o < other) == (keys[o] < keys[other]), (o, other)


def _observation_chain(depth, leaf_action):
    label = LocalObs("U", None)
    out = BranchingObs(label, frozenset({(leaf_action, BranchingObs(label, frozenset()))}))
    for _ in range(depth - 1):
        out = BranchingObs(label, frozenset({("a", out)}))
    return out


def test_deep_observations_compare_without_recursion():
    x, y = _observation_chain(5000, "a"), _observation_chain(5000, "b")
    assert x.nodes == y.nodes == 5001
    assert x < y and not y < x and not x < x
    assert _observation_chain(5000, "a") is x


def test_enum_lgo_examples():
    assert enum_lgo("I", c("0")) == {lgo("I", offers())}
    got = enum_lgo("I", c("a.b.0"))
    expected = {
        lgo("I", offers("a")),
        lgo("I", offers("a"), ("a", offers("b"))),
        lgo("I", offers("a"), ("a", offers("b")), ("b", offers())),
    }
    assert got == expected


def test_lgo_at_U_is_traces(pool2):
    for p in pool2[:64]:
        assert {o.trace() for o in enum_lgo("U", p)} == traces(p)


def test_lgo_prefix_closed(pool2):
    for p in pool2[:32]:
        observations = enum_lgo("I", p)
        for obs in observations:
            for i in range(len(obs.steps)):
                assert LinearObs(obs.head, obs.steps[:i]) in observations


def bgo_of(n, label, children=()):
    return BranchingObs(LocalObs(n, label), frozenset(children))


def test_enum_bgo_base():
    got, truncated = enum_bgo("I", c("0"), 10)
    assert got == {bgo_of("I", offers())}
    assert not truncated


def test_bgo_mix_example():
    # one a-branch carrying both b-continuations exists only where the
    # branching happens late
    p = c("a.(b.c.0 + b.d.0)")
    q = c("a.b.c.0 + a.b.d.0")
    mixed = bgo_of(
        "I",
        offers("a"),
        [
            (
                "a",
                bgo_of(
                    "I",
                    offers("b"),
                    [
                        ("b", bgo_of("I", offers("c"))),
                        ("b", bgo_of("I", offers("d"))),
                    ],
                ),
            )
        ],
    )
    assert bgo_member(mixed, p)
    assert not bgo_member(mixed, q)
    full_p, _ = enum_bgo("I", p, 12)
    assert mixed in full_p
    full_q, _ = enum_bgo("I", q, 12)
    assert mixed not in full_q


def test_trivial_observation_always_present(pool2):
    for p in pool2[:40]:
        got, _ = enum_bgo("I", p, 3)
        assert bgo_of("I", local_obs("I", p).value) in got


def test_bgo_truncation_flag():
    p = c("a.b.0 + a.c.0 + b.a.0")
    small, truncated = enum_bgo("I", p, 2)
    assert truncated
    assert all(o.nodes <= 2 for o in small)
    full, truncated2 = enum_bgo("I", p, 64)
    assert not truncated2
    assert len(full) == bgo_count("I", p)


def test_bgo_child_pruning_closure(pool1):
    for p in pool1:
        full, _ = enum_bgo("I", p, 32)
        for obs in full:
            for a, child in obs.children:
                pruned = BranchingObs(obs.label, obs.children - {(a, child)})
                assert pruned in full


def test_bgo_compositional_recomputation(pool1):
    # observations of a sum merge child sets of the parts under the joined label
    from procsem.terms import sum_terms

    for p, q in itertools.islice(itertools.product(pool1, repeat=2), 16):
        s = sum_terms(p, q)
        full_s, _ = enum_bgo("I", s, 32)
        parts_p, _ = enum_bgo("I", p, 32)
        parts_q, _ = enum_bgo("I", q, 32)
        label = local_obs("I", s)
        rebuilt = set()
        for op, oq in itertools.product(parts_p, parts_q):
            rebuilt.add(BranchingObs(label, op.children | oq.children))
        assert rebuilt == full_s


def test_enum_dbgo_examples():
    p = c("a.(b.c.0 + b.d.0)")
    q = c("a.b.c.0 + a.b.d.0")
    dp, _ = enum_dbgo("I", p, 16)
    dq, _ = enum_dbgo("I", q, 16)
    assert dp == dq
    for obs in dp:
        assert deterministic(obs)


def test_dbgo_are_the_deterministic_bgo(pool1):
    for n in ("U", "C", "I", "T", "S"):
        for p in pool1:
            for max_nodes in range(1, 6):
                full, _ = enum_bgo(n, p, max_nodes)
                det, _ = enum_dbgo(n, p, max_nodes)
                assert det == {o for o in full if deterministic(o)}


def test_branching_enumeration_stops_past_the_cap(pool2):
    from procsem.observations import TruncationError

    for n in ("I", "U"):
        for p in pool2:
            for enum in (enum_bgo, enum_dbgo):
                for max_nodes in range(1, 7):
                    full = enum(n, p, max_nodes)
                    assert enum(n, p, max_nodes, len(full[0])) == full
                    with pytest.raises(TruncationError, match=f"more than {len(full[0]) - 1} "):
                        enum(n, p, max_nodes, len(full[0]) - 1)


def test_branching_truncation_counts_each_child_pair_once():
    # under U both a-successors offer the child <·>: counted twice, the
    # largest observation <·,{(a,<·>),(a,<·,{(a,<·>)}>)}> would seem to need 5 nodes
    p = c("a.0 + a.a.0")
    full, truncated = enum_bgo("U", p, 4)
    assert not truncated and max(o.nodes for o in full) == 4
    assert enum_bgo("U", p, 3)[1]


def test_dbgo_leq_checks_the_world_cap():
    from conftest import MANY_WORLDS
    from procsem.observations import TruncationError, world_count

    big = c(MANY_WORLDS)
    assert world_count(big) == 294912
    with pytest.raises(TruncationError, match="294912 complete deterministic observations exceed the cap 65536"):
        dbgo_leq("I", big, big)
    small = c("a.0 + a.b.0 + b.0 + b.c.0 + b.d.0")
    with pytest.raises(TruncationError, match="exceed the cap 5"):
        dbgo_leq("I", small, small, cap=5)
    assert dbgo_leq("I", small, small, cap=6)


def test_complete_dbgo_examples():
    assert enum_complete_dbgo("I", c("0")) == {bgo_of("I", offers())}
    assert len(enum_complete_dbgo("I", c("a.b.0 + a.c.0"))) == 2


def test_possible_worlds_examples():
    assert enum_possible_worlds(c("a.b.0")) == {c("a.b.0")}
    p = c("a.b.c.0 + a.(b.c.0 + d.0) + a.b.0")
    q = c("a.(b.c.0 + d.0) + a.b.0")
    assert enum_possible_worlds(q) < enum_possible_worlds(p)


def test_possible_worlds_are_ready_simulated(pool2):
    for p in pool2[:48]:
        for w in enum_possible_worlds(p):
            assert deterministic(w)
            assert preorders.decide_nsim("I", w, p).holds


def test_closure_laws_small():
    base = enum_lgo("I", c("a.b.0"))
    # the four named closures and the rule of every linear flavor
    for delta in ("=", "⊇", "f", "f⊇", *LINEAR_RULES):
        closure = ClosureSet(delta, base, "I")
        # extensive
        assert closure.contains_all(base)
        # idempotent + monotone via materialization over a 2-action alphabet
        alphabet = frozenset("ab")
        mat = materialize(delta, base, alphabet)
        again = materialize(delta, mat, alphabet)
        assert again == mat
        smaller = materialize(delta, set(itertools.islice(base, 1)), alphabet)
        assert smaller <= mat
    # the extended-ready rules compare offers, so they close no other labels
    with pytest.raises(ValueError, match="ER compares observations of constraint I"):
        ClosureSet("ER", enum_lgo("U", c("a.b.0")), "U")


def test_f_closure_forgets_intermediate_labels():
    base = {lgo("I", offers("a"), ("a", offers("b")))}
    closure = ClosureSet("f", base, "I")
    for x in (offers(), offers("a"), offers("b"), offers("a", "b")):
        assert lgo("I", x, ("a", offers("b"))) in closure
    assert lgo("I", offers("a"), ("a", offers())) not in closure


def test_closure_membership_decides_linear_orders(pool2):
    rng = random.Random(7)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(150)]
    # at S an observation value is a term standing for its simulation class
    for n, (delta, flavor) in itertools.product("IS", (("=", "l"), ("⊇", "l⊇"), ("f", "lf"), ("f⊇", "lf⊇"))):
        sem = SemanticsId(n, flavor)
        for p, q in pairs:
            assert lgo_leq_via_closure(n, delta, p, q) == preorders.holds(sem, p, q), (sem, p, q)


def test_bgo_leq_matches_materialized_inclusion(pool1):
    for p, q in itertools.product(pool1, repeat=2):
        full_p, _ = enum_bgo("I", p, 64)
        full_q, _ = enum_bgo("I", q, 64)
        assert (full_p <= full_q) == bgo_leq("I", p, q)


def test_dbgo_leq_matches_materialized_inclusion(pool1):
    for p, q in itertools.product(pool1, repeat=2):
        dp, _ = enum_dbgo("I", p, 64)
        dq, _ = enum_dbgo("I", q, 64)
        assert (dp <= dq) == dbgo_leq("I", p, q)


def test_two_separate_branches_may_share_one_successor():
    # several children of one observation node may be drawn from the same
    # successor, so the two-branch observation below belongs to the
    # late-choice process as well (and the early choice is ready-simulated
    # by the late one)
    two_branch = bgo_of(
        "I",
        offers("a"),
        [
            ("a", bgo_of("I", offers("b"), [("b", bgo_of("I", offers("c")))])),
            ("a", bgo_of("I", offers("b"), [("b", bgo_of("I", offers("d")))])),
        ],
    )
    late = c("a.(b.c.0 + b.d.0)")
    early = c("a.b.c.0 + a.b.d.0")
    assert bgo_member(two_branch, early)
    assert bgo_member(two_branch, late)
    assert simulates("I", early, late)
