import itertools

import pytest

from conftest import c
from procsem.constraints import (
    LocalObs,
    constraint_holds,
    local_eq,
    local_geq,
    local_obs,
)
from procsem.lts import traces


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


def test_local_obs_identifies_constraint(pool2):
    # local_obs(N, p) = local_obs(N, q) exactly when the constraint holds
    sample = pool2[:32]
    for n in ("U", "C", "I", "T", "S"):
        for p, q in itertools.product(sample, repeat=2):
            assert constraint_holds(n, p, q) == local_eq(
                n, local_obs(n, p), local_obs(n, q)
            )
