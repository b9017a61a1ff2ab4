import functools
import itertools
import random

import pytest

from conftest import MANY_WORLDS, c
from procsem.constraints import constraint_holds, local_obs
from procsem.lts import initials, step
from procsem.observations import BranchingObs, enum_lgo
from procsem.preorders import (
    decide,
    decide_bisim,
    decide_db,
    decide_extended,
    decide_final_failure_sim,
    decide_final_ready_sim,
    decide_linear,
    decide_nsim,
    linear_holds,
    nsim_holds,
    nsim_table,
    sim_leq,
    spectrum_matrix,
)
from procsem.spectrum import CLASSIC_NAMES, SemanticsId, UnsupportedSemanticsError, parse_semantics


def test_bisim_examples():
    p = c("a.(b.0+c.0)")
    assert decide_bisim(p, p).holds
    assert not decide_bisim(p, c("a.b.0+a.c.0")).holds
    assert decide_bisim(c("a.0+0"), c("a.0")).holds


def test_nsim_examples():
    assert decide_nsim("U", c("a.b.0+a.c.0"), c("a.(b.0+c.0)")).holds
    assert not decide_nsim("U", c("a.(b.0+c.0)"), c("a.b.0+a.c.0")).holds
    assert decide_nsim("I", c("a.b.0"), c("a.b.0 + a.c.0")).holds
    assert not decide_nsim("C", c("0"), c("a.0")).holds


def test_nsim_witness_replays(pool2):
    rng = random.Random(3)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(120)]
    for n in ("U", "C", "I", "T", "S"):
        for p, q in pairs:
            verdict = decide_nsim(n, p, q)
            if verdict.holds:
                assert verdict.witness is None
            else:
                _replay_sim_refutation(n, verdict.witness)


def _replay_sim_refutation(n, node):
    if node["kind"] == "constraint":
        assert not constraint_holds(n, node["p"], node["q"])
        return
    a, p, q = node["action"], node["p"], node["q"]
    p2 = node["after_p"]
    assert (a, p2) in step(p)
    responses = [q2 for b, q2 in step(q) if b == a]
    assert len(responses) == len(node["responses"])
    for q2, sub in zip(responses, node["responses"]):
        _replay_sim_refutation(n, sub)


def test_linear_examples_failures_readiness():
    # failure-below across a widened offer
    assert decide_linear("I", "lf⊇", c("a.b.0"), c("a.0 + a.(b.0+c.0)")).holds
    verdict = decide_linear("I", "meet", c("a.b.0"), c("a.0 + a.(b.0+c.0)"))
    assert not verdict.holds
    assert verdict.witness["revival_action"] == "b"
    assert verdict.witness["unmatched"].trace() == ("a",)


def test_partial_offer_examples():
    p, q = c("a.b.0+a.c.0"), c("a.(b.0+c.0)")
    r = c("a.b.0+a.c.0+a.(b.0+c.0)")
    assert linear_holds("I", "l⊇", p, r) and linear_holds("I", "l⊇", r, p)
    assert not linear_holds("I", "lf⊆", r, p)
    assert linear_holds("I", "l⊆", q, r) and linear_holds("I", "l⊆", r, q)
    assert not linear_holds("I", "lf⊇", r, q)


def test_linear_witnesses_replay(pool2):
    rng = random.Random(11)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(80)]
    from procsem.constraints import local_eq, local_geq

    rules = {
        "l": lambda xs, ys: all(local_eq("I", x, y) for x, y in zip(xs, ys)),
        "lf⊇": lambda xs, ys: local_geq("I", xs[-1], ys[-1]),
    }
    for flavor, rule in rules.items():
        for p, q in pairs:
            verdict = decide_linear("I", flavor, p, q)
            if verdict.holds:
                continue
            obs = verdict.witness["unmatched"]
            assert obs in enum_lgo("I", p)
            for cand in enum_lgo("I", q):
                if cand.trace() == obs.trace():
                    assert not rule(obs.labels(), cand.labels())


def _oracle_rule(n: str, flavor: str):
    """The matching rule of a flavor on label tuples (p's, q's), written out
    with local_eq/local_geq; meet is handled by _oracle_meet."""
    from procsem.constraints import local_eq, local_geq

    eq = lambda x, y: local_eq(n, x, y)
    geq = lambda x, y: local_geq(n, x, y)
    leq = lambda x, y: local_geq(n, y, x)
    complete = lambda x, y: not y.value if not x.value else local_geq(n, y, x)
    pointwise = lambda rel: lambda xs, ys: all(rel(x, y) for x, y in zip(xs, ys))
    final = lambda rel: lambda xs, ys: rel(xs[-1], ys[-1])
    return {
        "l": pointwise(eq),
        "l⊇": pointwise(geq),
        "l⊆": pointwise(leq),
        "join": lambda xs, ys: eq(xs[-1], ys[-1]) and pointwise(geq)(xs[:-1], ys[:-1]),
        "lf": final(eq),
        "lf⊇": final(geq),
        "lf⊆": final(leq),
        "ER": final(leq),
        "ERT": pointwise(leq),
        "ECR": final(complete),
        "ECRT": pointwise(complete),
    }[flavor]


def _oracle_meet(n: str, obs, candidates):
    """(matched, revival action): some final of q below obs's final, and every
    element of obs's final offered by one of them."""
    from procsem.constraints import local_geq

    below = [cand.final for cand in candidates if local_geq(n, obs.final, cand.final)]
    if not below:
        return False, None
    key = lambda e: (len(e), e) if isinstance(e, tuple) else e
    for element in sorted(obs.final.value, key=key):
        if not any(element in y.value for y in below):
            return False, element
    return True, None


def _oracle_least_unmatched(n: str, flavor: str, p, q):
    """Brute force: the least observation of p by LinearObs.sort_key that no
    observation of q on the same trace matches, with its revival action."""
    if flavor == "meet" and n in ("U", "C"):
        flavor = "lf"  # the union of unit/termination values degenerates
    by_trace = {}
    for cand in enum_lgo(n, q):
        by_trace.setdefault(cand.trace(), []).append(cand)
    rule = None if flavor == "meet" else _oracle_rule(n, flavor)
    for obs in sorted(enum_lgo(n, p), key=lambda o: o.sort_key()):
        candidates = by_trace.get(obs.trace(), [])
        if rule is None:
            matched, element = _oracle_meet(n, obs, candidates)
            if not matched:
                return obs, element
        elif not any(rule(obs.labels(), cand.labels()) for cand in candidates):
            return obs, None
    return None, None


def test_linear_witnesses_are_least(pool2, random3):
    from procsem.spectrum import LINEAR_FLAVORS, supported_ids

    rng = random.Random(29)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(150)]
    pairs += [(rng.choice(random3), rng.choice(random3)) for _ in range(40)]
    linear = [(s.constraint, s.flavor) for s in supported_ids() if s.flavor in LINEAR_FLAVORS]
    assert len(linear) == 39
    extended = [("I", f) for f in ("ER", "ERT", "ECR", "ECRT")]
    refuted = revived = 0
    for p, q in pairs:
        for n, flavor in linear + extended:
            if (n, flavor) in extended:
                verdict = decide_extended(flavor, p, q)
            else:
                verdict = decide_linear(n, flavor, p, q)
            least, element = _oracle_least_unmatched(n, flavor, p, q)
            assert verdict.holds == (least is None), (n, flavor, p, q)
            if least is None:
                continue
            refuted += 1
            witness = verdict.witness
            assert witness["unmatched"] == least, (n, flavor, p, q)
            assert witness.get("revival_action") == element, (n, flavor, p, q)
            revived += element is not None
    assert refuted > 0 and revived > 0


def test_db_examples():
    assert decide_db("I", c("a.(b.c.0+b.d.0)"), c("a.b.c.0+a.b.d.0")).holds
    assert decide_db("I", c("a.b.c.0+a.b.d.0"), c("a.(b.c.0+b.d.0)")).holds
    p = c("a.b.c.0 + a.(b.c.0+d.0) + a.b.0")
    q = c("a.(b.c.0+d.0) + a.b.0")
    assert not decide_db("I", p, q).holds
    assert decide_db("I", q, p).holds
    assert decide_db("U", c("a.b.0+a.c.0"), c("a.(b.0+c.0)")).holds
    assert not decide_db("U", c("a.(b.0+c.0)"), c("a.b.0+a.c.0")).holds


def test_db_against_possible_worlds(pool2):
    from procsem.observations import enum_possible_worlds

    rng = random.Random(5)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(250)]
    for p, q in pairs:
        assert decide_db("I", p, q).holds == (
            enum_possible_worlds(p) <= enum_possible_worlds(q)
        )


def test_final_ready_examples():
    p = c("a.a.a.a.0")
    assert decide_final_ready_sim(p, p).holds
    q3 = c("a.a.0 + a.(a.a.0 + b.0) + a.(a.(a.a.0 + b.0) + b.0)")
    q4 = c("a.0 + a.(a.0+b.0) + a.(a.(a.0+b.0)+b.0) + a.(a.(a.(a.0+b.0)+b.0)+b.0)")
    assert decide_final_failure_sim(p, q4).holds
    assert not decide_final_ready_sim(p, q4).holds
    assert not decide_nsim("I", p, q3).holds
    # the mixed-stop observation refutes the final-ready game here
    assert not decide_final_ready_sim(p, q3).holds


def test_final_ready_cap():
    # beyond the 2^18 observations the enumerating decider once refused
    q3 = c("a.a.0 + a.(a.a.0 + b.0) + a.(a.(a.a.0 + b.0) + b.0)")
    assert decide_final_ready_sim(q3, q3).holds
    assert decide_final_failure_sim(q3, q3).holds


def test_extended_examples():
    assert decide_extended("ER", c("a.b.0"), c("a.(b.0+c.0)")).holds
    assert decide_extended("ECR", c("a.0"), c("a.0 + a.b.0")).holds
    assert not decide_extended("ECR", c("a.b.0"), c("a.0")).holds
    p = c("a.b.0 + b.0")
    assert decide_extended("ER", p, p).holds


def test_spectrum_matrix_examples():
    p = c("a.b.0")
    matrix = spectrum_matrix(p, p)
    assert all(cell == "≡" for cell in matrix.values())
    matrix2 = spectrum_matrix(c("a.(b.0+c.0)"), c("a.b.0+a.c.0"))
    assert matrix2[parse_semantics("T")] == "≡"
    assert matrix2[parse_semantics("S")] == "⊒"
    matrix3 = spectrum_matrix(c("a.b.0"), c("a.0+a.(b.0+c.0)"))
    assert matrix3[parse_semantics("F")] == "⊑"
    assert matrix3[parse_semantics("RV")] == "incomparable"


def test_semantics_id_validation():
    with pytest.raises(UnsupportedSemanticsError):
        SemanticsId("T", "bf")
    with pytest.raises(UnsupportedSemanticsError):
        SemanticsId("S", "meet")
    with pytest.raises(UnsupportedSemanticsError):
        SemanticsId("I", "ER")
    with pytest.raises(UnsupportedSemanticsError):
        parse_semantics("nonsense")
    assert parse_semantics("T:l>=") is not None
    assert parse_semantics("I:lf⊇") == CLASSIC_NAMES["F"]


def test_reflexive_transitive_sampled(pool2):
    rng = random.Random(9)
    sems = [parse_semantics(s) for s in ("RS", "F", "RT", "RV", "JOIN", "PW", "PF", "2S", "ER")]
    terms = [rng.choice(pool2) for _ in range(12)]
    for sem in sems:
        for p in terms:
            assert decide(sem, p, p).holds
        for p, q, r in itertools.islice(itertools.product(terms, repeat=3), 250):
            if decide(sem, p, q).holds and decide(sem, q, r).holds:
                assert decide(sem, p, r).holds


def test_join_is_the_meet_of_R_and_FT_relationwise(pool2):
    rng = random.Random(13)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(400)]
    for p, q in pairs:
        joined = linear_holds("I", "join", p, q)
        assert joined == (linear_holds("I", "lf", p, q) and linear_holds("I", "l⊇", p, q))


def test_meet_sits_between(pool2):
    rng = random.Random(14)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(400)]
    for p, q in pairs:
        meet = linear_holds("I", "meet", p, q)
        if linear_holds("I", "lf", p, q) or linear_holds("I", "l⊇", p, q):
            assert meet
        if meet:
            assert linear_holds("I", "lf⊇", p, q)


def test_nsim_table_agrees_with_decide(pool2):
    rng = random.Random(15)
    for n in ("U", "C", "I"):
        table = nsim_table(pool2, n)
        for _ in range(150):
            p, q = rng.choice(pool2), rng.choice(pool2)
            assert (q in table[p]) == nsim_holds(n, p, q)


def test_sim_leq_basics():
    assert sim_leq(c("a.0"), c("a.0+b.0"))
    assert not sim_leq(c("a.0+b.0"), c("a.0"))


def test_canonicalization_decides_bisimilarity(pool2):
    # independent oracle: the symmetric simulation game over raw steps
    from procsem.terms import enumerate_terms

    terms = tuple(enumerate_terms({"a", "b"}, 3, 2))  # depth-3 slice, width 2

    def bisimilar(p, q, memo={}):
        key = (p, q) if p.key <= q.key else (q, p)
        hit = memo.get(key)
        if hit is not None:
            return hit
        ok = all(
            any(b == a and bisimilar(p2, q2) for b, q2 in step(q)) for a, p2 in step(p)
        ) and all(
            any(b == a and bisimilar(q2, p2) for b, p2 in step(p)) for a, q2 in step(q)
        )
        memo[key] = ok
        return ok

    rng = random.Random(77)
    for _ in range(600):
        p, q = rng.choice(terms), rng.choice(terms)
        assert bisimilar(p, q) == (p is q)


def test_spectrum_matrix_cell_errors_do_not_abort():
    big = c(MANY_WORLDS)
    matrix = spectrum_matrix(big, big)
    for n in ("U", "C", "I", "T", "S"):
        cell = matrix[SemanticsId(n, "db")]
        assert isinstance(cell, dict) and "error" in cell
    assert matrix[parse_semantics("F")] == "≡"


def test_db_witness_replays():
    from procsem.observations import dbgo_member, enum_complete_dbgo

    p = c("a.b.c.0 + a.(b.c.0+d.0) + a.b.0")
    q = c("a.(b.c.0+d.0) + a.b.0")
    verdict = decide_db("I", p, q)
    assert not verdict.holds
    obs = verdict.witness["unmatched"]
    assert obs in enum_complete_dbgo("I", p)
    assert not dbgo_member(obs, q)


@functools.lru_cache(maxsize=None)
def _all_bgos_I(p):
    """Every branching observation of p at constraint I, enumerated."""
    label = local_obs("I", p)
    pool = [(a, obs) for a, p2 in step(p) for obs in _all_bgos_I(p2)]
    return frozenset(
        BranchingObs(label, frozenset(chosen))
        for r in range(len(pool) + 1)
        for chosen in itertools.combinations(pool, r)
    )


@functools.lru_cache(maxsize=None)
def _final_sim_match(obs, q, exact):
    """Does q match obs in the final-ready (exact) or final-failure game?
    Only leaves compare offers: equal to the observed one for final-ready,
    not at all for final-failure."""
    if not obs.children:
        return initials(q) == obs.label.value if exact else True
    return all(
        any(b == a and _final_sim_match(child, q2, exact) for b, q2 in step(q))
        for a, child in obs.children
    )


def test_final_branching_against_enumeration(pool2):
    from procsem.observations import bgo_count, bgo_member

    rng = random.Random(61)
    deciders = ((True, decide_final_ready_sim), (False, decide_final_failure_sim))
    checked = refuted = 0
    while checked < 200:
        p, q = rng.choice(pool2), rng.choice(pool2)
        if bgo_count("I", p) > 1 << 14:
            continue
        for exact, decider in deciders:
            verdict = decider(p, q)
            assert verdict.holds == all(_final_sim_match(o, q, exact) for o in _all_bgos_I(p))
            if not verdict.holds:
                w = verdict.witness["unmatched"]
                assert bgo_member(w, p) and not _final_sim_match(w, q, exact), (p, q, w)
                refuted += 1
        checked += 1
    assert refuted > 0


def test_final_ready_sits_between_rsim_and_readiness(pool2):
    from procsem.observations import bgo_count

    rng = random.Random(53)
    checked = 0
    while checked < 150:
        p, q = rng.choice(pool2), rng.choice(pool2)
        if bgo_count("I", p) > 1 << 14:
            continue
        bf = decide_final_ready_sim(p, q).holds
        if nsim_holds("I", p, q):
            assert bf, (p, q)
        if bf:
            assert linear_holds("I", "lf", p, q), (p, q)
            assert decide_final_failure_sim(p, q).holds
        checked += 1
