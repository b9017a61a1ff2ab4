import itertools
import random

import pytest

from conftest import c
from procsem.lts import initials, is_deterministic, step, traces
from procsem.operational import (
    OPERATIONAL_ZS,
    SaturationCapError,
    check_upto,
    decide_T_via_operational,
    decide_via_operational,
    deter,
    nd_saturate,
    reachable_Z,
    step_Z,
)
from procsem.preorders import linear_holds


def test_saturation_examples():
    base = c("a.b.0 + a.c.0")
    sat_f = nd_saturate("F", base)
    assert c("a.b.0 + a.c.0 + a.(b.0 + c.0)") in sat_f.saturation
    assert base in sat_f.saturation
    sat_rt = nd_saturate("RT", base)
    assert sat_rt.saturation == {base}
    assert nd_saturate("F", c("0")).saturation == {c("0")}


def test_saturation_members_stay_equivalent(pool2):
    rng = random.Random(17)
    sems = {"F": "lf⊇", "R": "lf", "FT": "l⊇", "RT": "l"}
    for z, flavor in sems.items():
        for p in rng.sample(list(pool2), 40):
            for member in nd_saturate(z, p).saturation:
                assert linear_holds("I", flavor, p, member)
                assert linear_holds("I", flavor, member, p)


def test_step_Z_extends_and_preserves_initials(pool2):
    rng = random.Random(19)
    for z in OPERATIONAL_ZS:
        for p in rng.sample(list(pool2), 60):
            moves = set(step_Z(z, p))
            assert moves >= set(step(p))
            assert {a for a, _ in moves} == initials(p)


def test_step_Z_example():
    assert ("a", c("b.0+c.0")) in step_Z("F", c("a.b.0+a.c.0"))
    assert step_Z("F", c("0")) == ()


def test_saturation_cap():
    wide = c(" + ".join(f"a.{t}" for t in ("b.0", "c.0", "d.0", "e.0", "(b.0+c.0)", "(d.0+e.0)")))
    with pytest.raises(SaturationCapError):
        nd_saturate("F", wide, cap=5)


def test_saturation_of_a_wide_term():
    # six same-action summands: many rewrites of a state yield the same merged summand
    wide = c(" + ".join(f"a.{t}" for t in ("b.0", "c.0", "d.0", "e.0", "(b.0+c.0)", "(d.0+e.0)")))
    assert len(nd_saturate("F", wide).saturation) == 512
    assert decide_via_operational("F", wide, wide).holds == linear_holds("I", "lf⊇", wide, wide)


def test_operational_agrees_with_direct_small(pool1):
    sems = {"F": "lf⊇", "R": "lf", "FT": "l⊇", "RT": "l"}
    for z, flavor in sems.items():
        for p, q in itertools.product(pool1, repeat=2):
            assert decide_via_operational(z, p, q).holds == linear_holds("I", flavor, p, q)


def test_trace_engine(pool1):
    p, q = c("a.(b.0+c.0)"), c("a.b.0+a.c.0")
    assert decide_T_via_operational(p, q).holds
    assert decide_T_via_operational(q, p).holds
    for x, y in itertools.product(pool1, repeat=2):
        assert decide_T_via_operational(x, y).holds == (traces(x) <= traces(y))


def test_deter_examples():
    assert deter(c("a.b.0 + a.c.0")) is c("a.(b.0+c.0)")
    det = c("a.(b.0+c.0)")
    assert deter(det) is det


def test_deter_properties(pool2):
    for p in pool2:
        d = deter(p)
        assert is_deterministic(d)
        assert traces(d) == traces(p)


def test_check_upto_examples():
    p, q = c("a.b.c.0 + a.b.d.0"), c("a.(b.c.0 + b.d.0)")
    assert check_upto("I", "F", p, q)
    assert check_upto("I", "F", q, p)
    assert check_upto("I", "F", p, p)
    with pytest.raises(ValueError):
        check_upto("T", "F", p, q)


def test_check_upto_agrees_with_operational(pool1):
    for z in OPERATIONAL_ZS:
        for p, q in itertools.product(pool1, repeat=2):
            assert check_upto("I", z, p, q) == decide_via_operational(z, p, q).holds


def test_trace_observer_saturation_cross_check(pool1):
    # experimental: the trace-conditioned saturation decides the trace-layer
    # linear semantics on tiny terms
    from procsem.preorders import greatest_simulation

    sems = {"R": "lf", "RT": "l"}
    states = tuple(
        dict.fromkeys(
            s for p in pool1 for s in reachable_Z("R", p, observer="T")
        )
    )
    for z, flavor in sems.items():
        def stepper(t, _z=z):
            return step_Z(_z, t, observer="T")

        all_states = tuple(
            dict.fromkeys(s for p in pool1 for s in reachable_Z(z, p, observer="T"))
        )
        table = greatest_simulation(all_states, "T", stepper)
        for p, q in itertools.product(pool1, repeat=2):
            assert (q in table[p]) == linear_holds("T", flavor, p, q), (z, p, q)


def test_reachable_Z_closed(pool1):
    for p in pool1:
        states = reachable_Z("F", p)
        for s in states:
            for _, t in step_Z("F", s):
                assert t in states
