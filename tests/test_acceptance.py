"""Acceptance suite: eleven criteria over the exhaustive small-term pool.

Pool = every canonical term of depth <= 2 over {a, b} (256 terms, 65536
ordered pairs), plus seeded random depth-3 terms over {a, b, c}.  Each
test prints one PASS/FAIL line (run pytest with -s to see them all).

Two sub-claims of the transcribed example corpus are recorded conflicts, not
failures; see the corpus notes and the conflict line printed by criterion 7.
Criteria 3 and 8 each check a depth-3 sample in tests of their own.  Sampling
choices (criteria 3, 5, 8 and 11) keep the suite inside the mandated
ten-minute budget and are deterministic.
"""

import itertools
import random

import pytest

from conftest import (
    T_AXIOM,
    c,
    check_hnf_laws,
    completed_traces,
    materialize,
    random_term,
    sample_formulas,
    unmatched,
)
from procsem import axioms as ax
from procsem import logic as lg
from procsem import operational as op
from procsem import preorders as pr
from procsem.constraints import simulates
from procsem.corpus import run_corpus
from procsem.lts import traces
from procsem.observations import ClosureSet, bgo_leq, decide_via_observations, enum_lgo, world_count
from procsem.spectrum import (
    LINEAR_RULES,
    REDUCTIONS,
    SPECTRUM_ARROWS,
    SemanticsId,
    linear_rule,
    parse_semantics,
    supported_ids,
)
from procsem.terms import enumerate_terms, prefix, sum_terms

AB = frozenset("ab")
ABC = frozenset("abc")
OBSERVED_PAIRS = 4096
TRACES = parse_semantics("T")

# The ids whose reduction condition is sound but too strong: at depth 3 the
# operational engine refutes some pairs that the direct engine relates (the
# FOUND: line of CHANGES.md on ERT, ECRT and I:l⊆; ROADMAP item 20).
OPERATIONAL_INCOMPLETE = frozenset(parse_semantics(name) for name in ("ERT", "ECRT", "I:l⊆"))


def covered_by(pathway):
    """The supported semantics that `pathway` characterizes."""
    return [sem for sem in supported_ids() if pathway in pr.coverage(sem)]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2}] {status}  {name}{(' - ' + detail) if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def pool():
    return tuple(enumerate_terms({"a", "b"}, 2, 8))


@pytest.fixture(scope="module")
def deep_terms():
    """Random depth-3 terms over {a,b,c} whose world counts stay enumerable."""
    rng = random.Random(987654)
    out = []
    while len(out) < 120:
        t = random_term(rng, 3)
        if world_count(t) <= 4096:
            out.append(t)
    return tuple(out)


@pytest.fixture(scope="module")
def deep_included(deep_terms):
    """The ordered pairs of distinct depth-3 terms whose traces are included."""
    return [(p, q) for p in deep_terms for q in deep_terms if p != q and pr.holds(TRACES, p, q)]


@pytest.fixture(scope="module")
def sim_tables(pool):
    return {n: {p: {q for q in pool if simulates(n, p, q)} for p in pool} for n in ("U", "C", "I", "T", "S")}


@pytest.fixture(scope="module")
def direct_rows(pool, sim_tables):
    """rows(sem)[i] has bit j set when pool[i] lies below pool[j] in sem,
    by the direct engine; computed once per semantics."""
    cache = {}

    def rows(sem):
        if sem not in cache:
            cache[sem] = _rows(pool, lambda p, q: _holds(sem, p, q, sim_tables))
        return cache[sem]

    return rows


def _rows(pool, holds):
    out = []
    for p in pool:
        bits = 0
        for j, q in enumerate(pool):
            if holds(p, q):
                bits |= 1 << j
        out.append(bits)
    return out


def _holds(sem: SemanticsId, p, q, tables=None):
    if tables is not None and sem.flavor == "b":
        return q in tables[sem.constraint][p]
    return pr.holds(sem, p, q)


# ---------------------------------------------------------------------------


def test_criterion_1_simulation_oracles(pool, sim_tables, deep_terms):
    checked = 0
    for n in ("U", "C", "I", "T", "S"):
        table = sim_tables[n]
        for p in pool:
            row = table[p]
            for q in pool:
                assert (q in row) == bgo_leq(n, p, q), (n, p, q)
                checked += 1
    # randomized depth-3 extension
    rng = random.Random(2)
    for _ in range(40):
        p, q = rng.choice(deep_terms), rng.choice(deep_terms)
        for n in ("U", "C", "I", "T", "S"):
            assert pr.decide_nsim(n, p, q).holds == bgo_leq(n, p, q), (n, p, q)
            checked += 1
    report(1, "constrained simulations match observation-set inclusion", True, f"{checked} pairs")


def _failures(p, alphabet):
    out = set()
    subsets = [frozenset(s) for r in range(len(alphabet) + 1) for s in itertools.combinations(sorted(alphabet), r)]
    for obs in enum_lgo("I", p):
        offer = obs.final.value
        for refusal in subsets:
            if not (refusal & offer):
                out.add((obs.trace(), refusal))
    return out


def _ready_pairs(p):
    return {(obs.trace(), obs.final.value) for obs in enum_lgo("I", p)}


def test_criterion_2_failures_readiness_oracles(pool):
    fail_sets = {p: _failures(p, AB) for p in pool}
    ready_sets = {p: _ready_pairs(p) for p in pool}
    failures, readiness = parse_semantics("F"), parse_semantics("R")
    for p in pool:
        for q in pool:
            assert pr.holds(failures, p, q) == (fail_sets[p] <= fail_sets[q])
            assert pr.holds(readiness, p, q) == (ready_sets[p] <= ready_sets[q])
    report(2, "failures/readiness pair oracles agree", True, f"{2 * len(pool) ** 2} checks")


def test_criterion_3_three_engines(pool, direct_rows):
    # direct and operational on every pair of each operational semantics;
    # direct and observational on a seeded sample of pairs of each
    # observational semantics
    rng = random.Random(6)
    sample = [(rng.choice(pool), rng.choice(pool)) for _ in range(OBSERVED_PAIRS)]
    mismatches = observed = 0
    operational_ids = covered_by("operational")
    for sem in operational_ids:
        operational = _rows(pool, lambda p, q: op.decide_via_operational(sem, p, q).holds)
        mismatches += sum(x != y for x, y in zip(operational, direct_rows(sem)))
    for sem in covered_by("observational"):
        for p, q in sample:
            mismatches += decide_via_observations(sem, p, q).holds != _holds(sem, p, q)
            observed += 1
    report(3, "direct/observational/operational engines agree", mismatches == 0,
           f"{len(operational_ids)} semantics x {len(pool) ** 2} pairs, {observed} observational, "
           f"{mismatches} mismatches")


def test_criterion_3_operational_at_depth_3():
    """The operational engine against the direct one on the trace-included
    pairs of 150 seeded depth-3 terms over {a, b, c}, for every id of
    ``REDUCTIONS``: sound in every id, and complete in every id but those of
    ``OPERATIONAL_INCOMPLETE``."""
    rng = random.Random(1)
    terms = tuple(dict.fromkeys(random_term(rng, 3) for _ in range(150)))
    pairs = [(p, q) for p in terms for q in terms if p != q and pr.holds(TRACES, p, q)]
    unsound = incomplete = known = 0
    for sem in REDUCTIONS:
        for p, q in pairs:
            operational, direct = op.decide_via_operational(sem, p, q).holds, pr.holds(sem, p, q)
            unsound += operational and not direct
            if direct and not operational:
                if sem in OPERATIONAL_INCOMPLETE:
                    known += 1
                else:
                    incomplete += 1
    report(3, "operational engine sound, and complete outside ERT, ECRT and I:l⊆, at depth 3",
           unsound == incomplete == 0,
           f"{len(REDUCTIONS)} semantics x {len(pairs)} trace-included pairs, {unsound} unsound, "
           f"{incomplete} incomplete, {known} related pairs refuted in ERT, ECRT or I:l⊆")


def test_criterion_3_observational_at_depth_3(deep_included):
    rng = random.Random(7)
    sample = rng.sample(deep_included, min(1500, len(deep_included)))
    ids = covered_by("observational")
    mismatches = sum(decide_via_observations(sem, p, q).holds != pr.holds(sem, p, q) for sem in ids for p, q in sample)
    report(3, "direct/observational engines agree at depth 3", mismatches == 0,
           f"{len(ids)} semantics x {len(sample)} trace-included pairs, {mismatches} mismatches")


def test_criterion_4_spectrum_monotonicity(deep_terms):
    rng = random.Random(3)
    ids = sorted({s for edge in SPECTRUM_ARROWS for s in edge}, key=str)
    pairs = [(rng.choice(deep_terms), rng.choice(deep_terms)) for _ in range(1000)]
    violations = 0
    for p, q in pairs:
        verdicts = {sem: _holds(sem, p, q) for sem in ids}
        for finer, coarser in SPECTRUM_ARROWS:
            if verdicts[finer] and not verdicts[coarser]:
                violations += 1
    report(4, "every spectrum arrow is monotone on random depth-3 pairs",
           violations == 0, f"{len(pairs)} pairs x {len(SPECTRUM_ARROWS)} arrows over {len(ids)} semantics")


def test_criterion_5_axiom_soundness(pool):
    pool1 = tuple(enumerate_terms({"a", "b"}, 1, 2))
    rng = random.Random(4)
    total = 0
    for sem in covered_by("axioms"):
        name = str(sem)
        for form in ("order", "equivalence"):
            for axiom in ax.axiom_catalog(sem, form):
                exhaustive = ax.check_soundness(axiom, sem, pool1, ["a", "b"])
                assert exhaustive.sound, (name, form, axiom.name, exhaustive.violations[:1])
                # check_soundness samples by Random(0): a fresh order of the
                # pool gives every call instances of its own
                shuffled = rng.sample(pool, len(pool))
                sampled = ax.check_soundness(axiom, sem, shuffled, ["a", "b"], max_instances=250)
                assert sampled.sound, (name, form, axiom.name, sampled.violations[:1])
                total += exhaustive.checked + sampled.checked
    # the three documented refutations must each produce a violation
    probes = [
        (ax.nd_axiom("M_F", False), "FT"),
        (T_AXIOM, "CT"),
        (ax.ns_axiom("U", False), "CS"),
    ]
    for axiom, sem_name in probes:
        rep = ax.check_soundness(axiom, parse_semantics(sem_name), pool1, ["a", "b"])
        assert not rep.sound, (axiom.name, sem_name)
    report(5, "axiom catalogs sound; documented probes refuted", True, f"{total} instances")


def test_criterion_6_hnf_laws(pool):
    derived = sum(check_hnf_laws(z, pool) for z in ("F", "R", "FT", "RT"))
    report(6, "head-normal-form laws hold for F, R, FT, RT", True,
           f"{len(pool)} terms, {len(pool) ** 2} pairs each, {derived} derivations")


def test_criterion_7_regression_corpus():
    rep = run_corpus()
    assert rep.ok, rep.mismatches
    # formula-level claims frozen alongside the corpus rows
    claims = [
        ("a.b.0 + a.0 + a.(b.d.0+c.0+e.0)", "a.b.0 + a.(b.d.0+c.0) + a.(b.d.0+c.0+e.0)", "<a>(~<b>T & ~<c>T)"),
        ("a.b.0 + a.(b.d.0+c.0) + a.(b.d.0+c.0+e.0)", "a.b.0 + a.b.d.0 + a.(b.d.0+c.0+e.0)", "<a>(~<e>T & <c>T)"),
        ("a.b.0 + a.b.d.0 + a.(b.d.0+c.0+e.0)", "a.b.0 + a.(b.d.0+c.0+e.0)", "<a>(~<c>T & <b>(~<e>T & <d>T))"),
        ("a.b.c.0 + a.b.(c.0+d.0) + a.b.d.0", "a.b.c.0 + a.b.d.0", "<a><b>(<c>T & <d>T)"),
        ("a.(b.c.0+b.d.0)", "a.b.c.0 + a.b.d.0", "<a>(<b><c>T & <b><d>T)"),
        ("a.b.c.0 + a.(b.c.0+d.0) + a.b.0", "a.(b.c.0+d.0) + a.b.0", "<a>(~<d>T & <b><c>T)"),
        ("a.b.0", "a.0 + a.(b.0+c.0)", "<a>(<b>T & ~<c>T)"),
    ]
    for left, right, formula in claims:
        f = lg.parse_formula(formula)
        assert lg.sat(c(left), f) and not lg.sat(c(right), f), formula
    # deterministic forms stay trace-equivalent across the pool
    for t in enumerate_terms({"a", "b"}, 2, 8):
        assert traces(op.deter(t)) == traces(t)
    print(
        "[criterion  7] NOTE  one transcribed sub-claim (chain final-ready-below the"
        " three-branch grading) is refuted by the faithful definitions; the corpus"
        " records the computed verdict (see the decisions ledger)."
    )
    report(7, "regression corpus and frozen formulas reproduce", True, f"{rep.rows} rows")


def test_criterion_8_logic_round_trip(pool, direct_rows):
    rng = random.Random(5)
    distinguished = preserved = 0
    formula_ids = covered_by("logic")
    assert formula_ids == covered_by("distinguish")
    for sem in formula_ids:
        name = str(sem)
        below = direct_rows(sem)
        # refuted pairs yield separating formulas of the grammar
        false_pairs = []
        for i, p in enumerate(pool):
            bits = below[i]
            for j, q in enumerate(pool):
                if not bits >> j & 1:
                    false_pairs.append((p, q))
        for p, q in rng.sample(false_pairs, min(250, len(false_pairs))):
            f = lg.distinguish(sem, p, q, AB)
            assert f is not None
            assert lg.sat(p, f) and not lg.sat(q, f) and lg.in_sublogic(f, sem, AB)
            distinguished += 1
        # grammar formulas are preserved along the preorder
        formulas = sample_formulas(sem, AB, rng, 3, 200)
        for f in formulas:
            assert lg.in_sublogic(f, sem, AB), (name, lg.render_formula(f))
        masks = []
        for p in pool:
            m = 0
            for k, f in enumerate(formulas):
                if lg.sat(p, f):
                    m |= 1 << k
            masks.append(m)
        for i, p in enumerate(pool):
            bits = below[i]
            mask_p = masks[i]
            for j in range(len(pool)):
                if bits >> j & 1 and mask_p & ~masks[j]:
                    raise AssertionError(f"preservation broken for {name}")
        preserved += len(formulas)
    report(
        8,
        "logic round trip: separation on refuted pairs, preservation on related ones",
        True,
        f"{len(formula_ids)} semantics, {distinguished} separations, 200 formulas each",
    )


def test_criterion_8_separation_at_depth_3(deep_terms, deep_included):
    """Separating formulas over {a, b, c} on up to 80 refuted depth-3 pairs
    per semantics, drawn from the trace-included pairs and as many random
    ones."""
    rng = random.Random(8)
    candidates = deep_included + [(rng.choice(deep_terms), rng.choice(deep_terms)) for _ in deep_included]
    ids = covered_by("logic")
    separated = 0
    for sem in ids:
        refuted = [(p, q) for p, q in candidates if not pr.holds(sem, p, q)]
        for p, q in rng.sample(refuted, min(80, len(refuted))):
            f = lg.distinguish(sem, p, q, ABC)
            assert f is not None, (str(sem), p, q)
            assert lg.sat(p, f) and not lg.sat(q, f) and lg.in_sublogic(f, sem, ABC), (str(sem), p, q)
            separated += 1
    report(8, "separating formulas on refuted depth-3 pairs", True,
           f"{len(ids)} semantics, {separated} separations")


def test_criterion_9_closure_laws(pool):
    rng = random.Random(6)
    law_checks = 0
    for flavor in LINEAR_RULES:
        for _ in range(200):
            base = set()
            for _ in range(rng.randint(1, 3)):
                base |= set(enum_lgo("I", rng.choice(pool)))
            base = frozenset(rng.sample(sorted(base, key=lambda o: o.sort_key()), rng.randint(1, min(8, len(base)))))
            closure = ClosureSet(flavor, base, "I")
            assert closure.contains_all(base), flavor  # extensive
            materialized = materialize(flavor, base, AB)
            again = materialize(flavor, materialized, AB)
            assert again == materialized, flavor  # idempotent
            smaller = frozenset(rng.sample(sorted(base, key=lambda o: o.sort_key()), max(1, len(base) // 2)))
            assert materialize(flavor, smaller, AB) <= materialized, flavor  # monotone
            law_checks += 1
    report(9, "the matching rule of every linear flavor is a closure", True,
           f"{len(LINEAR_RULES)} rules x 200 random sets = {law_checks}")


def test_criterion_10_collapse_laws(pool, deep_terms):
    """Checked on the decorated-trace tables of the oracle (`unmatched` is
    empty exactly when the rule holds), not through the decider, which uses
    these laws."""
    from procsem.spectrum import LINEAR_FLAVORS as ALL_LINEAR

    trace_sets = {p: traces(p) for p in pool}
    ct_sets = {p: completed_traces(p) for p in pool}
    # the (constraint, rule) of all eight flavors; at U and C meet's rule is lf's
    rules = {linear_rule(n, flavor) for n in ("U", "C") for flavor in ALL_LINEAR}
    checks = 0
    for p in pool:
        for q in pool:
            trace_incl = trace_sets[p] <= trace_sets[q]
            expected = {"U": trace_incl, "C": trace_incl and ct_sets[p] <= ct_sets[q]}
            for n, rule in rules:
                matched = next(iter(unmatched(n, rule, p, q)), None) is None
                assert matched == expected[n], (n, rule, p, q)
                checks += 1
    # at S the partial-offer rules l⊆ and lf⊆ are plain simulation
    s_rules = [linear_rule("S", flavor)[1] for flavor in ("l⊆", "lf⊆")]
    for terms in (pool, deep_terms):
        for p in terms:
            for q in terms:
                expected = simulates("U", p, q)
                for rule in s_rules:
                    assert (next(iter(unmatched("S", rule, p, q)), None) is None) == expected, (rule, p, q)
                    checks += 1
    report(10, "all eight linear flavors collapse at U and C, l⊆ and lf⊆ at S", True, f"{checks} checks")


def test_criterion_11_precongruence(pool, deep_terms):
    """Every preorder is a precongruence for prefix and sum, as the
    inequational reading of the axiom catalogs presumes: p below q gives
    a.p below a.q and p + r below q + r, for any action a and term r."""
    rng = random.Random(11)
    terms = pool + deep_terms
    checked = 0
    for sem in supported_ids():
        related = []
        for sample, count in ((pool, 100), (deep_terms, 50)):
            pairs = ((rng.choice(sample), rng.choice(sample)) for _ in range(6 * count))
            related += [(p, q) for p, q in pairs if pr.holds(sem, p, q)][:count]
        for p, q in related:
            a, r = rng.choice("abc"), rng.choice(terms)
            assert pr.holds(sem, prefix(a, p), prefix(a, q)), (str(sem), p, q, a)
            assert pr.holds(sem, sum_terms(p, r), sum_terms(q, r)), (str(sem), p, q, r)
            checked += 1
    report(11, "every preorder is a precongruence for prefix and sum", True,
           f"{len(supported_ids())} semantics, {checked} related pairs")
