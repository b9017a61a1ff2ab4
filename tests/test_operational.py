import itertools
import random
from functools import lru_cache, partial

import pytest

from conftest import c, replay_sim_refutation
from procsem.axioms import CONDITIONS
from procsem.lts import initials, is_deterministic, step, traces
from procsem.operational import (
    OPERATIONAL_ZS,
    SaturationCapError,
    check_upto,
    decide_T_via_operational,
    decide_via_operational,
    deter,
    reachable_Z,
    saturate,
    step_Z,
)
from procsem.preorders import linear_holds
from procsem.terms import CanonicalTerm, prefix, sum_terms

# six same-action summands: many rewrites of a state yield the same merged summand
WIDE = " + ".join(f"a.{t}" for t in ("b.0", "c.0", "d.0", "e.0", "(b.0+c.0)", "(d.0+e.0)"))


@lru_cache(maxsize=None)
def _oracle_splits(t: CanonicalTerm):
    summands = t.summands
    return tuple(
        (
            CanonicalTerm(tuple(s for i, s in enumerate(summands) if mask >> i & 1)),
            CanonicalTerm(tuple(s for i, s in enumerate(summands) if not mask >> i & 1)),
        )
        for mask in range(1 << len(summands))
    )


@lru_cache(maxsize=None)
def saturation_oracle(z: str, p: CanonicalTerm, observer: str = "I", cap: int = 128):
    """Every term that top-level merge rewrites reach from p, as an explicit
    set of states, or None past `cap` states.  A rewrite picks two
    same-action summands a.x and a.v of a state, splits v into y + w, and,
    when the condition accepts (x, y, w), adds the summand a.(x+y)."""
    cond = CONDITIONS["M_" + ("" if observer == "I" else "T-") + z]
    seen = {p}
    work = [p]
    while work:
        t = work.pop()
        merged = set(t.summands)
        for a, x in t.summands:
            for b, other in t.summands:
                if b != a:
                    continue
                for y, w in _oracle_splits(other):
                    summand = (a, sum_terms(x, y))
                    if summand in merged or not cond(x, y, w):
                        continue
                    merged.add(summand)
                    new = sum_terms(t, prefix(*summand))
                    if new not in seen:
                        if len(seen) >= cap:
                            return None
                        seen.add(new)
                        work.append(new)
    return frozenset(seen)


def test_saturation_examples():
    base = c("a.b.0 + a.c.0")
    sat_f = saturate("F", base)
    assert sat_f is c("a.b.0 + a.c.0 + a.(b.0 + c.0)")
    assert set(base.summands) <= set(sat_f.summands)
    assert saturate("RT", base) is base
    assert saturate("F", c("0")) is c("0")


def test_saturation_members_stay_equivalent(pool2):
    # the closure is the largest member of the saturation
    rng = random.Random(17)
    for z, flavor in OPERATIONAL_ZS.items():
        for p in rng.sample(list(pool2), 40):
            closure = saturate(z, p)
            assert linear_holds("I", flavor, p, closure)
            assert linear_holds("I", flavor, closure, p)


def test_saturation_is_the_union_of_the_oracle_states(pool2, random3):
    # step_Z reads the one closed term; the oracle unions the transitions of
    # every state a rewrite sequence reaches
    checked = 0
    for p in pool2 + random3[:40]:
        for z in OPERATIONAL_ZS:
            for observer in ("I", "T"):
                states = saturation_oracle(z, p, observer)
                if states is None:
                    continue
                checked += 1
                union = {move for state in states for move in step(state)}
                assert set(step(saturate(z, p, observer=observer))) == union, (z, p, observer)
    assert checked >= 2 * 4 * 280
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
    wide = c(WIDE)
    with pytest.raises(SaturationCapError):
        saturate("F", wide, cap=5)
    # the cap counts summands: W closes at 15
    assert len(saturate("F", wide, cap=15).summands) == 15
    with pytest.raises(SaturationCapError, match="14 summands"):
        saturate("F", wide, cap=14)


def test_saturation_of_a_wide_term():
    wide = c(WIDE)
    states = saturation_oracle("F", wide, cap=1000)
    assert len(states) == 512
    assert set(step_Z("F", wide)) == {move for state in states for move in step(state)}
    assert decide_via_operational("F", wide, wide).holds == linear_holds("I", "lf⊇", wide, wide)


def test_operational_agrees_with_direct_small(pool1):
    for z, flavor in OPERATIONAL_ZS.items():
        for p, q in itertools.product(pool1, repeat=2):
            assert decide_via_operational(z, p, q).holds == linear_holds("I", flavor, p, q)


def test_operational_witness_replays(pool2):
    rng = random.Random(7)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(150)]
    refuted = 0
    for z in OPERATIONAL_ZS:
        for p, q in pairs:
            verdict = decide_via_operational(z, p, q)
            if verdict.holds:
                assert verdict.witness is None
                continue
            refuted += 1
            replay_sim_refutation("I", p, q, verdict.witness, partial(step_Z, z))
    for p, q in pairs:
        verdict = decide_T_via_operational(p, q)
        if not verdict.holds:
            replay_sim_refutation("U", p, q, verdict.witness, partial(step_Z, "F"))
    assert refuted > 200
    # failures saturation gives q the answer a.(b.0+c.0), which no plain move is
    witness = decide_via_operational("F", c("a.(b.0+c.0+d.0)"), c("a.b.0 + a.c.0")).witness
    assert [sub["q"] for sub in witness["responses"]] == [c("b.0"), c("b.0+c.0"), c("c.0")]


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

    for z in ("R", "RT"):
        flavor = OPERATIONAL_ZS[z]

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
