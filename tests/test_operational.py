import itertools
import random
from collections import Counter
from functools import lru_cache, partial

import pytest

from conftest import c, deterministic, replay_sim_refutation
from procsem.lts import initials, step, traces
from procsem.operational import (
    CONDITIONS,
    SaturationCapError,
    decide_via_operational,
    deter,
    rule,
    saturate,
    step_Z,
)
from procsem.observations import decide_via_observations
from procsem.preorders import decide, holds
from procsem.spectrum import REDUCTIONS, UncoveredSemanticsError, parse_semantics, supported_ids
from procsem.terms import NIL, CanonicalTerm, prefix, sum_terms

# every semantics whose catalog is the choice, simulation and reduction axioms
COVERED = (
    ("T", "CT", "F", "R", "FT", "RT", "JOIN", "RV", "PF", "IF", "PFT", "IFT")
    + ("ER", "ERT", "ECR", "ECRT", "T:join", "T:meet")
    + tuple(f"{n}:{flavor}" for n in "UC" for flavor in ("l⊇", "lf", "lf⊇", "join", "meet"))
    + tuple(f"{n}:{flavor}" for n in "UCIT" for flavor in ("l⊆", "lf⊆"))
)
SEMS = tuple(parse_semantics(name) for name in COVERED)
RULE_CONDITIONS = sorted({rule(sem)[1] for sem in SEMS})

# Pairs that the direct and observational engines relate and the operational
# engine refutes, with the ids where it does (ROADMAP item 20).  The last pair
# needs p itself among the summands of q's saturation: it is sound to add to
# q, but no merge a.(x+y) of q's summands builds it.
INCOMPLETE = (
    ("c.(a.c.0 + b.c.0)", "c.(a.0 + b.c.0) + c.(a.c.0 + b.0 + c.0)", ("ERT", "ECRT", "I:l⊆")),
    ("c.(c.b.0 + c.c.0)", "c.(a.0 + c.c.0) + c.c.b.0", ("ERT", "ECRT", "I:l⊆")),
    ("b.(a.0 + a.b.0)", "b.a.0 + b.(a.b.0 + b.0)", ("ECRT",)),
    ("c.(c.b.0 + c.c.0)", "c.(a.0 + c.c.0) + c.(b.0 + c.b.0)", ("ERT", "ECRT", "I:l⊆")),
)
INCOMPLETE_CASES = [(p, q, name) for p, q, names in INCOMPLETE for name in names]

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
def saturation_oracle(condition: str, p: CanonicalTerm, cap: int = 128):
    """Every term that top-level merge rewrites reach from p, as an explicit
    set of states, or None past `cap` states.  A rewrite picks two
    same-action summands a.x and a.v of a state, splits v into y + w, and,
    when the condition accepts (x, y, w), adds the summand a.(x+y)."""
    cond = CONDITIONS[condition]
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


def test_rule_covers_exactly_the_axiomatized_semantics():
    assert len(SEMS) == len(set(SEMS)) == 36
    assert rule("F") == rule(parse_semantics("F")) == ("I", "M_F")
    assert rule("T") == ("U", "M_F") and rule("PF") == ("T", "M_T-R") and rule("ECRT") == ("C", "M_RT")
    assert len(RULE_CONDITIONS) == 12
    for sem in supported_ids():
        if sem in SEMS:
            n, condition = rule(sem)
            # a leq final asks U's simulation of the last label, over the I and T layers too
            assert n == ("U" if sem.flavor in ("l⊆", "lf⊆") and sem.constraint in "IT" else sem.constraint), sem
            assert condition in CONDITIONS
            continue
        with pytest.raises(UncoveredSemanticsError) as info:
            rule(sem)
        assert str(info.value) == f"operational engine does not cover {sem}"


def test_reductions_are_keyed_by_the_supported_ids():
    # a lookup with a supported id hits on identity, with no value comparison
    ids = {sem: sem for sem in supported_ids()}
    assert len(REDUCTIONS) == 36
    assert all(ids[sem] is sem for sem in REDUCTIONS)


def test_conditions_are_the_reduction_conditions():
    from procsem import axioms

    assert set(CONDITIONS) == {m for _, m in REDUCTIONS.values()}
    assert len(CONDITIONS) == 12 and set(REDUCTIONS) == set(SEMS)
    assert axioms.CONDITIONS is CONDITIONS


def test_saturation_examples():
    base = c("a.b.0 + a.c.0")
    sat_f = saturate("M_F", base)
    assert sat_f is c("a.b.0 + a.c.0 + a.(b.0 + c.0)")
    assert set(base.summands) <= set(sat_f.summands)
    assert saturate("M_RT", base) is base
    assert saturate("M_F", c("0")) is c("0")


def test_saturation_members_stay_equivalent(pool2):
    # the closure is the largest member of the saturation
    rng = random.Random(17)
    for sem in SEMS:
        condition = rule(sem)[1]
        for p in rng.sample(list(pool2), 40):
            closure = saturate(condition, p)
            assert decide(sem, p, closure).holds and decide(sem, closure, p).holds, (sem, p)


def test_saturation_is_the_union_of_the_oracle_states(pool2, random3):
    # step_Z reads the one closed term; the oracle unions the transitions of
    # every state a rewrite sequence reaches
    checked = 0
    for p in pool2 + random3[:40]:
        for condition in RULE_CONDITIONS:
            states = saturation_oracle(condition, p)
            if states is None:
                continue
            checked += 1
            union = {move for state in states for move in step(state)}
            assert set(step(saturate(condition, p))) == union, (condition, p)
    assert checked >= 12 * 280


def test_step_Z_extends_and_preserves_initials(pool2):
    rng = random.Random(19)
    for condition in RULE_CONDITIONS:
        for p in rng.sample(list(pool2), 60):
            moves = set(step_Z(condition, p))
            assert moves >= set(step(p))
            assert {a for a, _ in moves} == initials(p)


def test_step_Z_example():
    assert ("a", c("b.0+c.0")) in step_Z("M_F", c("a.b.0+a.c.0"))
    assert step_Z("M_F", c("0")) == ()


def test_saturation_cap():
    wide = c(WIDE)
    with pytest.raises(SaturationCapError):
        saturate("M_F", wide, cap=5)
    # the cap counts summands: W closes at 15
    assert len(saturate("M_F", wide, cap=15).summands) == 15
    with pytest.raises(SaturationCapError, match="14 summands"):
        saturate("M_F", wide, cap=14)


def test_each_closure_is_computed_once(pool2, monkeypatch):
    # a derivation sweep and then the operational engine, as in one round of
    # the relations benchmark: the head normal forms of the sweep (no cap
    # given) are the closures the engine saturates (cap given)
    import procsem
    from procsem import axioms, operational
    from procsem.preorders import holds

    procsem.clear_caches()
    computed = Counter()
    compute = operational._saturate

    def counted(condition, p, cap):
        computed[condition, p] += 1
        return compute(condition, p, cap)

    monkeypatch.setattr(operational, "_saturate", counted)
    terms = random.Random(16).sample(list(pool2), 32)
    for z in ("F", "R", "FT", "RT"):
        for p in terms:
            for q in terms:
                if holds(parse_semantics(z), p, q):
                    axioms.derive_leq(z, p, q)
    swept = sum(computed.values())
    for z in ("F", "R", "FT", "RT"):
        for p in terms:
            for q in terms:
                decide_via_operational(z, p, q)
    assert swept and set(computed.values()) == {1}
    key = next(iter(computed))
    procsem.clear_caches()
    saturate(*key)
    assert computed[key] == 2


def test_saturation_of_a_wide_term():
    wide = c(WIDE)
    states = saturation_oracle("M_F", wide, cap=1000)
    assert len(states) == 512
    assert set(step_Z("M_F", wide)) == {move for state in states for move in step(state)}
    assert decide_via_operational("F", wide, wide).holds == decide(parse_semantics("F"), wide, wide).holds


def test_operational_agrees_with_direct_small(pool1):
    for sem in SEMS:
        for p, q in itertools.product(pool1, repeat=2):
            assert decide_via_operational(sem, p, q).holds == decide(sem, p, q).holds, (sem, p, q)


def test_the_incomplete_pairs_are_related():
    for p, q, name in INCOMPLETE_CASES:
        sem = parse_semantics(name)
        assert holds(sem, c(p), c(q)) and decide_via_observations(sem, c(p), c(q)).holds, (p, q, name)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ERT, ECRT and I:l⊆ miss merges (ROADMAP item 20)")
@pytest.mark.parametrize("p, q, name", INCOMPLETE_CASES)
def test_operational_relates_the_incomplete_pairs(p, q, name):
    sem = parse_semantics(name)
    assert decide_via_operational(sem, c(p), c(q)).holds == holds(sem, c(p), c(q))


def test_no_merge_builds_the_summand_the_last_pair_needs():
    """p = c.(c.b.0 + c.c.0) is sound to add to q, but every merge c.(x+y)
    of q's c-summands that holds p's two summands keeps a.0 or b.0 of x, and
    is unsound: so no sound reduction condition relates p below q."""
    p_text, q_text, names = INCOMPLETE[-1]
    p, q = c(p_text), c(q_text)
    ((_, body),) = p.summands
    merges = {
        sum_terms(x, y)
        for (_, x), (_, v) in itertools.permutations(q.summands, 2)
        for y, _ in _oracle_splits(v)
    }
    covering = [m for m in merges if set(body.summands) <= set(m.summands)]
    assert {c("a.0 + c.c.0 + c.b.0"), c("b.0 + c.b.0 + c.c.0")} <= set(covering)
    for name in names:
        sem = parse_semantics(name)
        assert holds(sem, sum_terms(q, p), q)
        for merged in covering:
            assert not holds(sem, sum_terms(q, prefix("c", merged)), q), (name, merged)


def test_moving_a_shared_summand_into_y_keeps_every_condition(pool2):
    """The split argument of ``saturate``: when a condition accepts (x, y, w),
    moving a summand s of w that x also has into y leaves x + y as it is,
    and the condition still accepts, as I(s) ⊆ I(x) and traces(s) ⊆
    traces(x)."""
    terms = random.Random(47).sample([t for t in pool2 if len(t.summands) <= 3], 90)
    checked = 0
    for name, cond in CONDITIONS.items():
        for x, v in itertools.product(terms, repeat=2):
            for y, w in _oracle_splits(v):
                shared = set(w.summands).intersection(x.summands)
                if not shared or not cond(x, y, w):
                    continue
                for s in shared:
                    moved_y = sum_terms(y, prefix(*s))
                    moved_w = CanonicalTerm(tuple(t for t in w.summands if t != s))
                    assert sum_terms(x, moved_y) == sum_terms(x, y)
                    assert cond(x, moved_y, moved_w), (name, x, y, w, s)
                    checked += 1
    assert checked > 100_000, checked


def test_operational_witness_replays(pool2):
    rng = random.Random(7)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(150)]
    refuted = 0
    for sem in SEMS:
        n, condition = rule(sem)
        for p, q in pairs:
            verdict = decide_via_operational(sem, p, q)
            if verdict.holds:
                assert verdict.witness is None
                continue
            refuted += 1
            replay_sim_refutation(n, p, q, verdict.witness, partial(step_Z, condition))
    assert refuted > 3000
    # failures saturation gives q the answer a.(b.0+c.0), which no plain move is
    witness = decide_via_operational("F", c("a.(b.0+c.0+d.0)"), c("a.b.0 + a.c.0")).witness
    assert [sub["q"] for sub in witness["responses"]] == [c("b.0"), c("b.0+c.0"), c("c.0")]


def test_trace_engine(pool1):
    p, q = c("a.(b.0+c.0)"), c("a.b.0+a.c.0")
    assert decide_via_operational("T", p, q).holds
    assert decide_via_operational("T", q, p).holds
    for x, y in itertools.product(pool1, repeat=2):
        assert decide_via_operational("T", x, y).holds == (traces(x) <= traces(y))


def test_deter_examples():
    assert deter(c("a.b.0 + a.c.0")) is c("a.(b.0+c.0)")
    det = c("a.(b.0+c.0)")
    assert deter(det) is det


def test_deter_properties(pool2):
    for p in pool2:
        d = deter(p)
        assert deterministic(d)
        assert traces(d) == traces(p)


def test_operational_examples_and_a_deep_chain():
    p, q = c("a.b.c.0 + a.b.d.0"), c("a.(b.c.0 + b.d.0)")
    assert decide_via_operational("F", p, q).holds and decide_via_operational("F", q, p).holds
    # played on an explicit stack: a depth-2,000 chain needs no deep recursion
    chain = NIL
    for _ in range(2000):
        chain = prefix("a", chain)
    assert decide_via_operational("F", chain, chain).holds
    verdict = decide_via_operational("F", prefix("a", chain), chain)
    assert not verdict.holds
    node, moves = verdict.witness, 0
    while node["kind"] == "move":
        (node,) = node["responses"]
        moves += 1
    assert moves == 2000 and (node["p"], node["q"]) == (c("a.0"), NIL)
