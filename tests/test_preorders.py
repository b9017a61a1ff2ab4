import functools
import itertools
import random

import pytest

from conftest import MANY_WORLDS, bgo_count, c, deterministic, replay_bisim_refutation, replay_sim_refutation
from procsem.constraints import local_obs, simulates
from procsem.lts import initials, step, traces
from procsem.observations import BranchingObs, enum_lgo
from procsem.preorders import Verdict, decide, decide_nsim, holds, spectrum_matrix
from procsem.spectrum import (
    BISIM,
    CLASSIC_NAMES,
    LINEAR_RULES,
    REDUCTIONS,
    SPECTRUM_ARROWS,
    SemanticsId,
    UnsupportedSemanticsError,
    classic_name,
    parse_semantics,
    supported_ids,
)


def test_bisim_examples():
    p = c("a.(b.0+c.0)")
    assert decide(BISIM, p, p).holds
    assert not decide(BISIM, p, c("a.b.0+a.c.0")).holds
    assert decide(BISIM, c("a.0+0"), c("a.0")).holds


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
                replay_sim_refutation(n, p, q, verdict.witness)


def test_bisim_witness_replays(pool2):
    rng = random.Random(4)
    refuted = 0
    for _ in range(300):
        p, q = rng.choice(pool2), rng.choice(pool2)
        verdict = decide(BISIM, p, q)
        if verdict.holds:
            assert p is q and verdict.witness is None
        else:
            refuted += 1
            replay_bisim_refutation(p, q, verdict.witness)
    assert refuted > 250
    # a right-side move: q's a-move to b.0 is answered by p's a-move to a.0
    node = decide(BISIM, c("a.a.0"), c("a.a.0 + a.b.0")).witness
    assert node["side"] == "right" and node["after_p"] is c("b.0")
    assert [(sub["p"], sub["q"]) for sub in node["responses"]] == [(c("b.0"), c("a.0"))]


def test_linear_examples_failures_readiness():
    # failure-below across a widened offer
    assert decide(SemanticsId("I", "lf⊇"), c("a.b.0"), c("a.0 + a.(b.0+c.0)")).holds
    verdict = decide(SemanticsId("I", "meet"), c("a.b.0"), c("a.0 + a.(b.0+c.0)"))
    assert not verdict.holds
    assert verdict.witness["revival_action"] == "b"
    assert verdict.witness["unmatched"].trace() == ("a",)


def test_partial_offer_examples():
    p, q = c("a.b.0+a.c.0"), c("a.(b.0+c.0)")
    r = c("a.b.0+a.c.0+a.(b.0+c.0)")
    assert holds(SemanticsId("I", "l⊇"), p, r) and holds(SemanticsId("I", "l⊇"), r, p)
    assert not holds(SemanticsId("I", "lf⊆"), r, p)
    assert holds(SemanticsId("I", "l⊆"), q, r) and holds(SemanticsId("I", "l⊆"), r, q)
    assert not holds(SemanticsId("I", "lf⊇"), r, q)


def test_partial_offers_below_simulation_are_no_collapse():
    """T:l⊆, T:lf⊆ and I:l⊆ relate a pair that simulation does not, so they
    are strictly coarser than S:l⊆ = S:lf⊆ = U:b: each path of p is matched
    by a path of q, but no single a-move of q answers both of p's branches."""
    p = c("a.(b.c.(e.0+f.0) + d.g.(h.0+k.0))")
    q = c("a.(b.c.(e.0+f.0) + d.g.h.0 + d.g.k.0) + a.(b.c.e.0 + b.c.f.0 + d.g.(h.0+k.0))")
    for name in ("T:l⊆", "T:lf⊆", "I:l⊆"):
        assert decide(parse_semantics(name), p, q).holds, name
    for name in ("S:l⊆", "S:lf⊆"):
        assert not decide(parse_semantics(name), p, q).holds, name
    verdict = decide(parse_semantics("U:b"), p, q)
    assert not verdict.holds
    replay_sim_refutation("U", p, q, verdict.witness)


def test_s_partial_offer_witnesses_come_from_the_tables(pool2):
    """S:l⊆ and S:lf⊆ are decided by simulation; a refuted cell's witness is
    still the least unmatched decorated trace of the tables."""
    from procsem.preorders import _lgo_witness
    from procsem.spectrum import linear_rule

    rng = random.Random(61)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(400)]
    for flavor in ("l⊆", "lf⊆"):
        sem = SemanticsId("S", flavor)
        refuted = 0
        for p, q in pairs:
            verdict = decide(sem, p, q)
            assert verdict.holds == simulates("U", p, q), (flavor, p, q)
            if not verdict.holds:
                expected = Verdict(False, _lgo_witness(*linear_rule("S", flavor), str(sem), p, q))
                assert verdict.to_json() == expected.to_json(), (flavor, p, q)
                refuted += 1
        assert refuted > 100, flavor


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
            verdict = decide(SemanticsId("I", flavor), p, q)
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
    refuted = trace_refuted = collapse_refuted = root_refuted = revived = 0
    for p, q in pairs:
        for n, flavor in linear + extended:
            sem = CLASSIC_NAMES[flavor] if (n, flavor) in extended else SemanticsId(n, flavor)
            verdict = decide(sem, p, q)
            least, element = _oracle_least_unmatched(n, flavor, p, q)
            assert verdict.holds == (least is None), (n, flavor, p, q)
            if least is None:
                continue
            refuted += 1
            if not traces(p) <= traces(q):
                trace_refuted += 1
            elif n in ("U", "C"):
                collapse_refuted += 1
            else:
                root_refuted += not least.steps
            witness = verdict.witness
            assert witness["unmatched"] == least, (n, flavor, p, q)
            assert witness.get("revival_action") == element, (n, flavor, p, q)
            revived += element is not None
    # witnesses of directions refuted at the trace layer, by the collapse
    # laws and on the empty trace are least too
    assert refuted > trace_refuted > 0 and revived > 0
    assert collapse_refuted > 0 and root_refuted > 0


def test_trace_tables_against_enumeration(pool2, random3):
    from procsem.constraints import CONSTRAINTS
    from procsem.preorders import _trace_table

    terms = pool2 + tuple(random.Random(31).sample(random3, 40))
    for n in CONSTRAINTS:
        for p in terms:
            items, finals = _trace_table(n, p)
            expected = {(o.trace(), tuple(l.value for l in o.labels())) for o in enum_lgo(n, p)}
            assert items == expected, (n, p)
            assert finals == {(o.trace(), o.final.value) for o in enum_lgo(n, p)}, (n, p)


def test_equality_rules_decide_by_inclusion_alone(monkeypatch, pool2):
    import procsem
    from procsem import preorders

    def refuse(*args):
        raise RuntimeError("witness built")

    procsem.clear_caches()
    monkeypatch.setattr(preorders, "_lgo_witness", refuse)
    rng = random.Random(41)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(200)]
    names = ("I:l", "I:lf", "C:l⊆", "C:lf⊆")
    verdicts = [decide(parse_semantics(name), p, q) for name in names for p, q in pairs]
    assert not all(verdicts)
    # no per-trace pools, and no witness until one is read
    assert preorders._pools.cache_info().currsize == 0
    refuted = next(verdict for verdict in verdicts if not verdict)
    with pytest.raises(RuntimeError, match="witness built"):
        refuted.witness


def _trace_refuted_pairs(terms, rng, count):
    pairs = []
    while len(pairs) < count:
        p, q = rng.choice(terms), rng.choice(terms)
        if not traces(p) <= traces(q):
            pairs.append((p, q))
    return pairs


def test_trace_refuted_linear_cells_build_no_table(pool2):
    import procsem
    from procsem import preorders
    from procsem.spectrum import LINEAR_FLAVORS

    procsem.clear_caches()
    pairs = _trace_refuted_pairs(pool2, random.Random(43), 100)
    linear = [s for s in supported_ids() if s.flavor in LINEAR_FLAVORS]
    extended = [parse_semantics(name) for name in ("ER", "ERT", "ECR", "ECRT")]
    assert len(linear) == 39
    verdicts = [decide(sem, p, q) for sem in linear + extended for p, q in pairs]
    assert not any(verdicts)
    assert preorders._trace_table.cache_info().currsize == 0
    assert preorders._pools.cache_info().currsize == 0
    verdicts[0].witness
    assert preorders._trace_table.cache_info().currsize > 0


def test_collapsed_linear_cells_build_no_table(pool2):
    import procsem
    from procsem import preorders
    from procsem.spectrum import LINEAR_FLAVORS

    procsem.clear_caches()
    rng = random.Random(53)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(300)]
    collapsed = [s for s in supported_ids() if s.constraint in ("U", "C") and s.flavor in LINEAR_FLAVORS]
    collapsed += [SemanticsId("S", "l⊆"), SemanticsId("S", "lf⊆")]
    assert len(collapsed) == 18
    cells = [(sem, p, q) for sem in collapsed for p, q in pairs]
    verdicts = [decide(*cell) for cell in cells]
    assert any(verdicts)
    # some cells are refuted past the trace layer, by completed traces at C
    assert any(not verdict and traces(p) <= traces(q) for verdict, (_, p, q) in zip(verdicts, cells))
    assert preorders._trace_table.cache_info().currsize == 0
    assert preorders._pools.cache_info().currsize == 0
    next(verdict for verdict in verdicts if not verdict).witness
    assert preorders._trace_table.cache_info().currsize > 0


def _perturbed_pairs(rng, pool2, count):
    """(p, p + a.(x + y)) for a random p of depth 2 to 4 over {a, b} with a
    summand a.x, and y a pool2 term, prefixed half of the time."""
    from conftest import random_term
    from procsem.terms import prefix, sum_terms

    pairs = []
    while len(pairs) < count:
        p = random_term(rng, rng.randint(2, 4), ("a", "b"))
        if p.summands:
            a, x = rng.choice(p.summands)
            y = rng.choice(pool2)
            y = prefix(rng.choice("ab"), y) if rng.random() < 0.5 else y
            pairs.append((p, sum_terms(p, prefix(a, sum_terms(x, y)))))
    return pairs


def test_spectrum_matrix_agrees_with_decide(pool2, random3):
    """Every bit of every linear row, and every other cell, in both
    directions, on pairs that run every layer of a row: random pairs,
    trace-equal pairs (every table difference runs) and perturbed pairs,
    which tell the S ids b, db, l, lf and join apart."""
    rng = random.Random(59)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(1040)]
    pairs += [(rng.choice(random3), rng.choice(random3)) for _ in range(20)]
    by_traces = {}
    for p in pool2 + random3:
        by_traces.setdefault(traces(p), []).append(p)
    classes = [terms for terms in by_traces.values() if len(terms) > 1]
    pairs += [tuple(rng.sample(rng.choice(classes), 2)) for _ in range(300)]
    # one pair for each way the perturbation search tells the five S ids apart
    pairs += [
        (c("a.(a.0 + a.(a.0 + b.0) + a.b.0)"), c("a.(a.0 + a.(a.0 + b.0)) + a.(a.(a.0 + b.0) + a.b.0)")),
        (c("b.b.(a.(a.0 + b.0) + a.b.0) + b.b.(a.(a.0 + b.0) + b.b.0)"),
         c("b.b.a.(a.0 + b.0) + b.(b.(a.(a.0 + b.0) + b.b.0) + b.a.b.0)")),
        (c("a.(a.a.0 + b.(a.0 + b.0) + b.b.0)"), c("a.(a.a.0 + b.(a.0 + b.0)) + a.b.b.0")),
    ]
    pairs += _perturbed_pairs(random.Random(8), pool2, 300)
    at_s = [parse_semantics(f"S:{flavor}") for flavor in ("b", "db", "l", "lf", "join")]
    patterns = set()
    cell = {(True, True): "≡", (True, False): "⊑", (False, True): "⊒", (False, False): "incomparable"}
    for p, q in pairs:
        expected = {sem: cell[decide(sem, p, q).holds, decide(sem, q, p).holds] for sem in supported_ids()}
        assert spectrum_matrix(p, q) == expected, (p, q)
        for x, y in ((p, q), (q, p)):
            patterns.add(tuple(holds(sem, x, y) for sem in at_s))
    # the three separations, and the pairs that all five relate or refute
    assert patterns > {
        (False, True, True, True, True), (False, False, False, True, False), (False, False, False, True, True)
    }


def test_spectrum_matrix_stays_lazy(pool2, random3):
    """A row refuted at the trace layer, and every U and C row, builds no
    table, and no matrix groups q's table into ``_pools``."""
    import procsem
    from procsem import preorders

    procsem.clear_caches()
    rng = random.Random(71)
    refuted = [(p, q) for p, q in _trace_refuted_pairs(pool2, rng, 400) if not traces(q) <= traces(p)]
    assert len(refuted) > 100
    for p, q in refuted:
        assert set(spectrum_matrix(p, q).values()) == {"incomparable"}
    assert preorders._trace_table.cache_info().currsize == 0
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(300)]
    rows = {n: [preorders._row(n, p, q) for p, q in pairs] for n in ("U", "C")}
    assert 0 in rows["C"] and any(rows["C"]) and any(rows["U"])
    assert preorders._trace_table.cache_info().currsize == 0
    pairs += [(rng.choice(random3), rng.choice(random3)) for _ in range(100)]
    for p, q in pairs:
        spectrum_matrix(p, q)
    assert preorders._trace_table.cache_info().currsize > 0
    assert preorders._pools.cache_info().currsize == 0


def test_every_semantics_refines_trace_inclusion(pool2, random3):
    rng = random.Random(47)
    pairs = _trace_refuted_pairs(pool2, rng, 300) + _trace_refuted_pairs(random3, rng, 60)
    for p, q in pairs:
        for sem in supported_ids():
            assert not decide(sem, p, q).holds, (sem, p, q)


def test_trace_game_is_trace_inclusion(pool2, random3):
    from procsem.preorders import _traced

    rng = random.Random(61)
    pairs = itertools.chain(
        itertools.product(pool2, repeat=2), ((rng.choice(random3), rng.choice(random3)) for _ in range(3000))
    )
    for p, q in pairs:
        assert _traced(p, q) == (traces(p) <= traces(q)), (p, q)


def test_ungated_families_refute_trace_refuted_pairs(pool2, random3):
    """The entry points gate every family on ``_traced``; each family refutes
    such pairs on its own as well, so the gate changes no verdict.  At U a
    linear rule is trace inclusion by definition, so U has no row here."""
    from procsem.constraints import CONSTRAINTS
    from procsem.preorders import _ROW_RULES, _covered, _db_included, _included

    rng = random.Random(67)
    pairs = _trace_refuted_pairs(pool2, rng, 300) + _trace_refuted_pairs(random3, rng, 60)
    for p, q in pairs:
        assert not any(simulates(n, p, q) for n in CONSTRAINTS), (p, q)
        assert not any(_db_included(n, p, q) for n in CONSTRAINTS), (p, q)
        assert not _covered(p, (q,), True) and not _covered(p, (q,), False), (p, q)
        for n in ("C", "I", "T", "S"):
            assert not any(_included((n, rule), p, q) for rule in _ROW_RULES[n]), (n, p, q)


def test_witnesses_are_built_on_first_read(monkeypatch):
    from procsem import preorders

    def refuse(*args):
        raise RuntimeError("witness built")

    for name in ("_sim_refutation", "_bisim_refutation", "_uncovered_bgo", "_lgo_witness", "_db_witness"):
        monkeypatch.setattr(preorders, name, refuse)
    p, q = c("a.(b.0+c.0)"), c("0")
    for name in ("B", "S", "2S", "I:bf", "I:bf⊇", "PW", "UPW", "T", "RT", "F", "RV", "S:l⊇", "ER", "ERT", "ECR", "ECRT"):
        verdict = decide(parse_semantics(name), p, q)
        assert verdict.holds is False, name
        with pytest.raises(RuntimeError, match="witness built"):
            verdict.witness


def test_clear_caches(pool2):
    import procsem
    from procsem import axioms, logic
    from procsem.preorders import _trace_table
    from procsem.spectrum import supported_ids

    rng = random.Random(17)
    cells = [(sem, rng.choice(pool2), rng.choice(pool2)) for _ in range(20) for sem in supported_ids()]
    before = [decide(*cell).to_json() for cell in cells]
    unread = [decide(*cell) for cell in cells]
    names = ("B", "S", "PW", "RT", "F", "RV", "S:l", "S:l⊇", "S:lf", "T:l⊆")
    separated = [(name, p, q) for name in names for _, p, q in cells[:: len(supported_ids())]]
    separations = [logic.distinguish(*cell) for cell in separated]
    assert any(separations)
    derived = [(z, p, q) for z in ("F", "RT") for p in pool2[:24] for q in pool2[:24] if holds(parse_semantics(z), p, q)]
    derivations = [axioms.derive_leq(*cell) for cell in derived]
    memos = (
        _trace_table,
        logic._contains,
        logic._in_grammar,
        logic.characteristic_sim_formula,
        axioms._answer,
        axioms._steps,
    )
    assert all(memo.cache_info().currsize for memo in memos)
    procsem.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert [verdict.to_json() for verdict in unread] == before
    assert [decide(*cell).to_json() for cell in cells] == before
    assert [logic.distinguish(*cell) for cell in separated] == separations
    assert [axioms.derive_leq(*cell) for cell in derived] == derivations


def test_clear_caches_empties_every_cache_and_game_memo(pool2):
    import sys

    import procsem
    from procsem import constraints, logic, observations, operational, preorders
    from procsem.constraints import CONSTRAINTS

    def games():
        stepper = operational._stepper("M_F", operational.DEFAULT_SATURATION_CAP)
        out = [constraints._sim_game(n, step) for n in CONSTRAINTS] + [constraints._sim_game("I", stepper)]
        out += [preorders._types_game(n) for n in CONSTRAINTS]
        out += [preorders._cover_game(exact) for exact in (True, False)]
        return out + [preorders._trace_game(), observations._world_game()]

    rng = random.Random(29)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(40)]
    for p, q in pairs:
        for sem in supported_ids():
            decide(sem, p, q)
        for name in ("B", "S", "PW", "RT", "F", "RV", "S:l", "T:l⊆"):
            logic.distinguish(name, p, q)
        operational.decide_via_operational("F", p, q)
        observations.world_count(p)
    assert all(memo for _, memo in games())
    procsem.clear_caches()
    caches = [
        (name, attr, value.cache_info().currsize)
        for name, module in list(sys.modules.items())
        if name.startswith("procsem.")
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert len(caches) > 30
    assert [cache for cache in caches if cache[2]] == []
    assert not any(memo for _, memo in games())


def test_db_examples():
    assert decide(SemanticsId("I", "db"), c("a.(b.c.0+b.d.0)"), c("a.b.c.0+a.b.d.0")).holds
    assert decide(SemanticsId("I", "db"), c("a.b.c.0+a.b.d.0"), c("a.(b.c.0+b.d.0)")).holds
    p = c("a.b.c.0 + a.(b.c.0+d.0) + a.b.0")
    q = c("a.(b.c.0+d.0) + a.b.0")
    assert not decide(SemanticsId("I", "db"), p, q).holds
    assert decide(SemanticsId("I", "db"), q, p).holds
    assert decide(SemanticsId("U", "db"), c("a.b.0+a.c.0"), c("a.(b.0+c.0)")).holds
    assert not decide(SemanticsId("U", "db"), c("a.(b.0+c.0)"), c("a.b.0+a.c.0")).holds


def test_db_against_possible_worlds(pool2):
    from procsem.observations import enum_possible_worlds

    rng = random.Random(5)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(250)]
    for p, q in pairs:
        assert decide(SemanticsId("I", "db"), p, q).holds == (
            enum_possible_worlds(p) <= enum_possible_worlds(q)
        )


def test_final_ready_examples():
    p = c("a.a.a.a.0")
    assert decide(SemanticsId("I", "bf"), p, p).holds
    q3 = c("a.a.0 + a.(a.a.0 + b.0) + a.(a.(a.a.0 + b.0) + b.0)")
    q4 = c("a.0 + a.(a.0+b.0) + a.(a.(a.0+b.0)+b.0) + a.(a.(a.(a.0+b.0)+b.0)+b.0)")
    assert decide(SemanticsId("I", "bf⊇"), p, q4).holds
    assert not decide(SemanticsId("I", "bf"), p, q4).holds
    assert not decide_nsim("I", p, q3).holds
    # the mixed-stop observation refutes the final-ready game here
    assert not decide(SemanticsId("I", "bf"), p, q3).holds


def test_final_ready_cap():
    # beyond the 2^18 observations the enumerating decider once refused
    q3 = c("a.a.0 + a.(a.a.0 + b.0) + a.(a.(a.a.0 + b.0) + b.0)")
    assert decide(SemanticsId("I", "bf"), q3, q3).holds
    assert decide(SemanticsId("I", "bf⊇"), q3, q3).holds


def test_extended_examples():
    assert decide(CLASSIC_NAMES["ER"], c("a.b.0"), c("a.(b.0+c.0)")).holds
    assert decide(CLASSIC_NAMES["ECR"], c("a.0"), c("a.0 + a.b.0")).holds
    assert not decide(CLASSIC_NAMES["ECR"], c("a.b.0"), c("a.0")).holds
    p = c("a.b.0 + b.0")
    assert decide(CLASSIC_NAMES["ER"], p, p).holds


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


def test_semantics_id_is_a_frozen_value():
    sem = SemanticsId("I", "b")
    assert sem == parse_semantics("RS") == parse_semantics("I:b")
    assert hash(sem) == hash(parse_semantics("RS")) == hash(("I", "b"))
    assert {parse_semantics("RS"): "RS"}[sem] == "RS"
    assert sem != SemanticsId("I", "db") and sem != ("I", "b")
    for other in supported_ids():
        same = SemanticsId(other.constraint, other.flavor)
        assert same == other == parse_semantics(str(other)) and hash(same) == hash(other)
    with pytest.raises(AttributeError):
        sem.flavor = "db"
    with pytest.raises(AttributeError):
        del sem.constraint
    assert repr(sem) == "SemanticsId(constraint='I', flavor='b')"


def test_supported_ids_share_the_classic_objects():
    named = [sem for sem in supported_ids() if classic_name(sem) is not None]
    assert len(named) == len(CLASSIC_NAMES)
    for sem in named:
        assert sem is CLASSIC_NAMES[classic_name(sem)]


GRID_PIN = "e2d1eca383c98d662ae72d0a2c10426f66c01296caee30954745e9ab7c7f17c7"


def test_the_grid_is_pinned():
    """The ids in order, the arrows in order, the reductions, and the class
    and message of every probed (constraint, flavor), hashed from ordered
    tuples so that the digest does not depend on the hash seed."""
    import hashlib

    probes = []
    for n in ("B", "U", "C", "I", "T", "S", "X"):
        for f in ("bisim", "b", "db", "bf", "bf⊇", *LINEAR_RULES, "nonsense"):
            try:
                probes.append((n, f, "ok", str(SemanticsId(n, f))))
            except ValueError as err:
                probes.append((n, f, type(err).__name__, str(err)))
    grid = (supported_ids(), SPECTRUM_ARROWS, tuple(REDUCTIONS.items()), tuple(probes))
    assert hashlib.sha256(repr(grid).encode()).hexdigest() == GRID_PIN


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
        joined = holds(SemanticsId("I", "join"), p, q)
        assert joined == (holds(SemanticsId("I", "lf"), p, q) and holds(SemanticsId("I", "l⊇"), p, q))


def test_meet_sits_between(pool2):
    rng = random.Random(14)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(400)]
    for p, q in pairs:
        meet = holds(SemanticsId("I", "meet"), p, q)
        if holds(SemanticsId("I", "lf"), p, q) or holds(SemanticsId("I", "l⊇"), p, q):
            assert meet
        if meet:
            assert holds(SemanticsId("I", "lf⊇"), p, q)


def test_simulates_agrees_with_decide(pool2):
    rng = random.Random(15)
    for n in ("U", "C", "I"):
        sem = SemanticsId(n, "b")
        for _ in range(150):
            p, q = rng.choice(pool2), rng.choice(pool2)
            assert decide(sem, p, q).holds == holds(sem, p, q) == simulates(n, p, q)


def test_plain_simulation_basics():
    assert simulates("U", c("a.0"), c("a.0+b.0"))
    assert not simulates("U", c("a.0+b.0"), c("a.0"))


def test_canonicalization_decides_bisimilarity(pool2):
    # independent oracle: the symmetric simulation game over raw steps
    from procsem.terms import enumerate_terms

    terms = tuple(enumerate_terms({"a", "b"}, 3, 2))  # depth-3 slice, width 2

    def bisimilar(p, q, memo={}):
        key = (p, q) if p < q else (q, p)
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
    # deciding enumerates no world, so no cell stops at the world cap:
    # every db cell of 294,912 worlds is decided
    big = c(MANY_WORLDS)
    matrix = spectrum_matrix(big, big)
    for n in ("U", "C", "I", "T", "S"):
        assert matrix[SemanticsId(n, "db")] == "≡"
    assert matrix[parse_semantics("F")] == "≡"


def test_db_decides_without_enumerating_worlds():
    import procsem
    from procsem.observations import TruncationError, enum_complete_dbgo
    from procsem.terms import prefix, sum_terms

    big = c(MANY_WORLDS)
    fewer = sum_terms(*(prefix(a, t) for a, t in big.summands[1:]))
    procsem.clear_caches()
    verdicts = [
        decide(SemanticsId(n, "db"), x, y)
        for n in ("U", "C", "I", "T", "S")
        for x, y in ((big, fewer), (fewer, big))
    ]
    assert enum_complete_dbgo.cache_info().currsize == 0
    refuted = decide(SemanticsId("I", "db"), big, fewer)
    assert not refuted.holds and sum(not v.holds for v in verdicts) >= 5
    with pytest.raises(TruncationError, match="294912 complete deterministic observations exceed the cap"):
        refuted.witness
    assert enum_complete_dbgo.cache_info().currsize == 0


def test_db_witness_replays():
    from procsem.observations import bgo_member, enum_complete_dbgo

    p = c("a.b.c.0 + a.(b.c.0+d.0) + a.b.0")
    q = c("a.(b.c.0+d.0) + a.b.0")
    verdict = decide(SemanticsId("I", "db"), p, q)
    assert not verdict.holds
    obs = verdict.witness["unmatched"]
    assert obs in enum_complete_dbgo("I", p)
    assert deterministic(obs) and not bgo_member(obs, q)


def test_db_types_against_world_enumeration(pool2, random3):
    import procsem
    from procsem import preorders
    from procsem.observations import bgo_member, dbgo_leq, enum_complete_dbgo, world_count
    from procsem.terms import sum_terms

    @functools.lru_cache(maxsize=None)
    def worlds(p):  # the recursive count world_count replaced
        total = 1
        for a in sorted(initials(p)):
            total *= sum(worlds(q) for b, q in step(p) if b == a)
        return total

    # after a, the worlds of p have two incomparable types over the two
    # x-successors of q; each b-world meets only one of them
    q = c("x.(a.0 + b.c.0) + x.(a.c.0 + b.0)")
    pairs = [(c("x.(a.0 + a.c.0 + b.0)"), q), (c("x.(a.0 + a.c.0 + b.c.0)"), q)]
    rng = random.Random(47)
    pairs += itertools.product(pool2[::4], repeat=2)
    for _ in range(60):
        p = rng.choice(random3)
        pairs += [(p, p), (p, sum_terms(p, rng.choice(random3))), (p, rng.choice(random3))]
    assert all(world_count(p) == worlds(p) for p, _ in pairs)
    held = refuted = 0
    for n in ("U", "C", "I", "T", "S"):
        for p, q in pairs:
            verdict = decide(SemanticsId(n, "db"), p, q)
            assert verdict.holds == dbgo_leq(n, p, q), (n, p, q)
            if verdict.holds:
                held += max(map(len, traces(p))) == 3
                continue
            refuted += 1
            least = min(
                (o for o in enum_complete_dbgo(n, p) if not bgo_member(o, q)),
                key=lambda o: (o.nodes, o),
            )
            assert verdict.witness == {"kind": "dbgo", "unmatched": least}, (n, p, q)
    assert held > 0 and refuted > 0
    assert preorders._types_game("I")[1]
    procsem.clear_caches()
    assert not preorders._types_game("I")[1]


def test_db_decides_deep_chains():
    from procsem.terms import NIL, prefix

    chain = NIL
    for _ in range(2000):
        chain = prefix("a", chain)
    other = prefix("b", chain)
    for name in ("UPW", "C:db", "PW", "S:db"):
        sem = parse_semantics(name)
        assert decide(sem, chain, chain).holds, name
        assert not decide(sem, chain, other).holds, name


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
    from procsem.observations import bgo_member

    rng = random.Random(61)
    deciders = ((True, SemanticsId("I", "bf")), (False, SemanticsId("I", "bf⊇")))
    checked = refuted = 0
    while checked < 200:
        p, q = rng.choice(pool2), rng.choice(pool2)
        if bgo_count("I", p) > 1 << 14:
            continue
        for exact, sem in deciders:
            verdict = decide(sem, p, q)
            assert verdict.holds == all(_final_sim_match(o, q, exact) for o in _all_bgos_I(p))
            if not verdict.holds:
                w = verdict.witness["unmatched"]
                assert bgo_member(w, p) and not _final_sim_match(w, q, exact), (p, q, w)
                refuted += 1
        checked += 1
    assert refuted > 0


def test_final_ready_sits_between_rsim_and_readiness(pool2):
    rng = random.Random(53)
    checked = 0
    while checked < 150:
        p, q = rng.choice(pool2), rng.choice(pool2)
        if bgo_count("I", p) > 1 << 14:
            continue
        bf = decide(SemanticsId("I", "bf"), p, q).holds
        if simulates("I", p, q):
            assert bf, (p, q)
        if bf:
            assert holds(SemanticsId("I", "lf"), p, q), (p, q)
            assert decide(SemanticsId("I", "bf⊇"), p, q).holds
        checked += 1


def test_final_failure_branching_is_simulation(pool2, random3):
    # as decided, I:bf⊇ compares no offers: its cover game's leaf test is
    # "some state answers", so it plays U-simulation (as _final_sim_match,
    # the oracle above, does)
    sem = SemanticsId("I", "bf⊇")
    for pool in (pool2, random3):
        related = 0
        for p in pool:
            for q in pool:
                verdict = holds(sem, p, q)
                assert verdict == simulates("U", p, q), (p, q)
                related += verdict
        assert 0 < related < len(pool) ** 2


def test_holding_verdicts():
    from procsem.operational import decide_via_operational

    p = c("a.(b.0+c.0)")
    verdicts = [
        decide_nsim("S", p, p),
        decide(BISIM, p, p),
        decide(SemanticsId("I", "meet"), p, p),
        decide(SemanticsId("I", "db"), p, p),
        decide(CLASSIC_NAMES["ECRT"], p, p),
        decide(SemanticsId("I", "bf"), p, p),
        decide(SemanticsId("I", "bf⊇"), p, p),
        decide_via_operational("F", p, p),
        decide_via_operational("T", p, p),
    ]
    for verdict in verdicts:
        assert verdict == Verdict(True)
        assert verdict.to_json() == {"holds": True, "witness": None}
