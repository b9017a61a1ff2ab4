import hashlib
import itertools
import random

import pytest

from conftest import c
from procsem.axioms import (
    B_AXIOMS,
    CONDITIONS,
    PW_AXIOM,
    T_AXIOM,
    axiom_catalog,
    check_soundness,
    derive_leq,
    nd_axiom,
    ns_axiom,
    verify_hnf_laws,
)
from procsem.lts import initials, step, traces
from procsem.operational import rule, saturate
from procsem.preorders import decide, holds
from procsem.spectrum import UncoveredSemanticsError, parse_semantics, supported_ids
from procsem.terms import NIL, prefix, render_term, sum_terms


def test_catalog_contents():
    names = lambda sem, form="order": [a.name for a in axiom_catalog(sem, form)]
    assert names("B") == ["B1", "B2", "B3", "B4"]
    assert names("F") == ["B1", "B2", "B3", "B4", "RS", "ND^F"]
    assert names("RV") == ["B1", "B2", "B3", "B4", "RS", "ND^R∨FT"]
    assert names("JOIN") == ["B1", "B2", "B3", "B4", "RS", "ND^R∧FT"]
    assert names("T") == ["B1", "B2", "B3", "B4", "S", "ND^F"]
    assert names("CT") == ["B1", "B2", "B3", "B4", "CS", "ND^F"]
    assert names("F", "equivalence") == ["B1", "B2", "B3", "B4", "RS≡", "ND^F≡"]
    assert names("PW") == ["B1", "B2", "B3", "B4", "RS", "PW"]
    assert names("PW", "equivalence") == ["B1", "B2", "B3", "B4", "PW"]
    assert names("ER") == ["B1", "B2", "B3", "B4", "S", "ND^R"]
    assert names("ECRT") == ["B1", "B2", "B3", "B4", "CS", "ND^RT"]
    # the trace layer needs the equational reduction schema
    assert names("PF") == ["B1", "B2", "B3", "B4", "TS", "ND^T-R≡"]


def test_catalogs_are_pinned():
    # every catalog of both forms, or its refusal, rendered; the two-axiom
    # catalogs are built from spectrum.REDUCTIONS
    lines = []
    for sem in supported_ids():
        for form in ("order", "equivalence"):
            try:
                lines.append(f"{sem} {form}: " + " | ".join(str(a) for a in axiom_catalog(sem, form)))
            except UncoveredSemanticsError as e:
                lines.append(f"{sem} {form}: {e}")
    assert len(lines) == 112
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6748ec14d1b8805c19a231e2ff2bb614641c076524a3e8314023ed5ef1f4b67a"


@pytest.mark.parametrize("bad", ["I:bf", "SF", "2S", "I:l⊆", "U:db"])
def test_catalog_rejections(bad):
    with pytest.raises(UncoveredSemanticsError):
        axiom_catalog(bad)


def test_condition_table():
    a0, b0, nil = c("a.0"), c("b.0"), c("0")
    assert CONDITIONS["M_F"](a0, b0, nil)
    assert CONDITIONS["M_R"](c("a.0+b.0"), a0, b0)
    assert not CONDITIONS["M_R"](a0, b0, nil)
    assert CONDITIONS["M_FT"](b0, a0, a0)
    assert not CONDITIONS["M_FT"](b0, a0, b0)
    assert CONDITIONS["M_RT"](a0, c("a.b.0"), nil)
    assert CONDITIONS["M_T-R"](c("a.b.0+a.0"), c("a.b.0"), nil)


# The twelve reduction conditions written out, the reference for the table
# that ``operational`` builds from six merge rules over a layer's order.
WRITTEN_CONDITIONS = {
    "M_F": lambda x, y, w: True,
    "M_R": lambda x, y, w: initials(x) >= initials(y),
    "M_FT": lambda x, y, w: initials(w) <= initials(y),
    "M_RT": lambda x, y, w: initials(x) == initials(y) and initials(w) <= initials(y),
    "M_R∧FT": lambda x, y, w: initials(x) >= initials(y) and initials(w) <= initials(y),
    "M_R∨FT": lambda x, y, w: initials(x) >= initials(y) or initials(w) <= initials(y),
    "M_T-F": lambda x, y, w: True,
    "M_T-R": lambda x, y, w: traces(x) >= traces(y),
    "M_T-FT": lambda x, y, w: traces(w) <= traces(y),
    "M_T-RT": lambda x, y, w: traces(x) == traces(y) and traces(w) <= traces(y),
    "M_T-R∧FT": lambda x, y, w: traces(x) >= traces(y) and traces(w) <= traces(y),
    "M_T-R∨FT": lambda x, y, w: traces(x) >= traces(y) or traces(w) <= traces(y),
}


def test_condition_implications(pool1):
    assert list(CONDITIONS) == list(WRITTEN_CONDITIONS)
    assert CONDITIONS["M_F"](None, None, None) and CONDITIONS["M_T-F"](None, None, None)  # F reads no value
    for x, y, w in itertools.product(pool1, repeat=3):
        for name, reference in WRITTEN_CONDITIONS.items():
            assert CONDITIONS[name](x, y, w) == reference(x, y, w), (name, x, y, w)
        if CONDITIONS["M_RT"](x, y, w):
            assert CONDITIONS["M_FT"](x, y, w) and CONDITIONS["M_R"](x, y, w)
        if CONDITIONS["M_FT"](x, y, w) or CONDITIONS["M_R"](x, y, w):
            assert CONDITIONS["M_F"](x, y, w)
        assert CONDITIONS["M_R∧FT"](x, y, w) == (
            CONDITIONS["M_R"](x, y, w) and CONDITIONS["M_FT"](x, y, w)
        )
        assert CONDITIONS["M_R∨FT"](x, y, w) == (
            CONDITIONS["M_R"](x, y, w) or CONDITIONS["M_FT"](x, y, w)
        )


def test_soundness_positive(pool1):
    rs = ns_axiom("I", False)
    report = check_soundness(rs, "F", pool1, ["a", "b"])
    assert report.sound and report.checked > 0
    ndr = nd_axiom("M_R", False)
    report2 = check_soundness(ndr, "R", pool1, ["a", "b"])
    assert report2.sound


def test_soundness_negative_probes(pool1):
    ndf = nd_axiom("M_F", False)
    rep = check_soundness(ndf, "FT", pool1, ["a", "b"])
    assert not rep.sound and rep.violations
    rep_t = check_soundness(T_AXIOM, "T", pool1, ["a", "b"])
    assert rep_t.sound
    rep_ct = check_soundness(T_AXIOM, "CT", pool1, ["a", "b"])
    assert not rep_ct.sound
    # the documented violating instance: merging a terminated with a live branch
    assert any(
        render_term(lhs) == "a.0 + a.b.0" or render_term(rhs) == "a.(b.0)"
        for _, _, lhs, rhs in rep_ct.violations
    ) or rep_ct.violations
    rep_s = check_soundness(ns_axiom("U", False), "CS", pool1, ["a", "b"])
    assert not rep_s.sound


def test_equational_and_inequational_forms_agree_semantically(pool1):
    # every instance of the equational reduction schema is semantically valid
    # exactly where the order schema plus simulation axiom put it
    for z, sem_name in (("F", "F"), ("R", "R"), ("FT", "FT"), ("RT", "RT")):
        sem = parse_semantics(sem_name)
        order = nd_axiom("M_" + z, False)
        equational = nd_axiom("M_" + z, True)
        for axiom in (order, equational):
            rep = check_soundness(axiom, sem, pool1, ["a", "b"])
            assert rep.sound, (z, axiom.name, rep.violations[:1])


def test_hnf_examples():
    assert saturate("M_F", c("a.b.0")) is c("a.b.0")
    saturated = saturate("M_F", c("a.b.0 + a.c.0"))
    assert c("a.(b.0+c.0)").summands[0] in saturated.summands
    assert saturate("M_RT", c("a.b.0 + a.c.0")) is c("a.b.0 + a.c.0")
    assert saturate("M_F", c("0")) is c("0")


def test_hnf_idempotent_on_examples():
    for condition in ("M_F", "M_R", "M_FT", "M_RT"):
        t = saturate(condition, c("a.b.0 + a.c.0 + b.0"))
        assert saturate(condition, t) is t


def test_verify_hnf_laws_small(pool1):
    for z in ("F", "R", "FT", "RT"):
        report = verify_hnf_laws(z, pool1)
        assert report.ok, (z, report.equivalence_failures, report.matching_failures)


def test_tehnf_small():
    t = saturate("M_F", c("a.b.0 + a.c.0"))
    assert c("a.(b.0+c.0)").summands[0] in t.summands
    # the trace-conditioned rule merges trace-included bodies only
    t2 = saturate("M_T-RT", c("a.b.0 + a.c.0"))
    assert t2 is c("a.b.0 + a.c.0")
    assert decide(parse_semantics("F"), t, c("a.b.0 + a.c.0")).holds


def test_derivation_reconstruction(pool1):
    rng = random.Random(31)
    pairs = [(p, q) for p in pool1 for q in pool1]
    for z, sem_name in (("F", "F"), ("RT", "RT")):
        sem = parse_semantics(sem_name)
        for p, q in pairs:
            if not holds(sem, p, q):
                with pytest.raises(ValueError):
                    derive_leq(z, p, q)
                continue
            derivation = derive_leq(z, p, q)
            rules = [s["rule"] for s in derivation.steps]
            assert rules, (z, p, q)
            for step_ in derivation.steps:
                if step_["rule"] == "hnf-saturate":
                    # saturation is semantics-preserving
                    assert decide(sem, step_["from"], step_["to"]).holds
                    assert decide(sem, step_["to"], step_["from"]).holds


def test_axiom_instance_machinery():
    ax = nd_axiom("M_FT", False)
    subst = {"X": c("a.0"), "Y": c("b.0"), "Z": c("0")}
    assert ax.instance_ok(subst)
    lhs, rhs = ax.instantiate(subst, {"a": "a"})
    assert render_term(lhs) == "a.(a.0 + b.0)"
    assert render_term(rhs) == "a.a.0 + a.(b.0)".replace("a.(b.0)", "a.b.0")
    assert str(ax).startswith("(ND^FT)")
    assert PW_AXIOM.action_vars == ("a", "b")
    assert len(B_AXIOMS) == 4


def test_derivation_reconstruction_depth2(pool2):
    rng = random.Random(47)
    for z in ("F", "R", "FT", "RT"):
        sem = parse_semantics(z)
        found = 0
        tried = 0
        while found < 60 and tried < 6000:
            tried += 1
            p, q = rng.choice(pool2), rng.choice(pool2)
            if not holds(sem, p, q):
                continue
            derivation = derive_leq(z, p, q)
            assert derivation.steps
            found += 1
        assert found >= 40, (z, found)


def oracle_derive(z, p, q):
    """The completeness recipe written out recursively, one fresh dict per
    step and nothing shared: the steps derive_leq must give, in order."""
    sem = parse_semantics(z)
    _, condition = rule(sem)
    steps = []

    def derive(p, q):
        if p.is_nil:
            assert q.is_nil
            steps.append({"rule": "refl", "term": p})
            return
        h = saturate(condition, q)
        steps.append({"rule": "hnf-saturate", "from": q, "to": h, "z": z})
        chosen = []
        for a, x in p.summands:
            match = next(y for b, y in step(h) if b == a and holds(sem, x, y))
            derive(x, match)
            steps.append({"rule": "prefix", "action": a, "from": x, "to": match})
            chosen.append((a, match))
        target = sum_terms(*[prefix(a, body) for a, body in chosen])
        assert initials(p) == initials(h)
        steps.append(
            {"rule": "sum+RS", "from": p, "via": target, "to": h, "side_condition": "I(p)=I(hnf(q))"}
        )
        steps.append({"rule": "hnf-below", "from": h, "to": q})

    derive(p, q)
    return steps


DERIVED_IDS = ("RT", "FT", "R", "F", "JOIN", "RV")


def holding_pairs(z, pool, rng, count):
    sem = parse_semantics(z)
    pairs = ((rng.choice(pool), rng.choice(pool)) for _ in range(40 * count))
    return [(p, q) for p, q in pairs if holds(sem, p, q)][:count]


def test_derivations_follow_the_recursive_recipe(pool2):
    rng = random.Random(59)
    for z in DERIVED_IDS:
        pairs = holding_pairs(z, pool2, rng, 150)
        assert len(pairs) == 150, z
        for p, q in pairs:
            derivation = derive_leq(z, p, q)
            assert derivation.z == z and derivation.goal == (p, q)
            expected = oracle_derive(z, p, q)
            assert len(derivation.steps) == len(expected)
            for got, want in zip(derivation.steps, expected):
                assert list(got.items()) == list(want.items()), (z, p, q)


def test_derivations_share_read_only_steps(pool2):
    rng = random.Random(61)
    shared = 0
    for z in ("F", "RT"):
        for p, q in holding_pairs(z, pool2, rng, 60):
            steps = derive_leq(z, p, q).steps
            assert derive_leq(z, p, q).steps is steps
            for k, step_ in enumerate(steps):
                if step_["rule"] != "prefix":
                    continue
                # the subgoal's own derivation holds the very step objects
                sub = derive_leq(z, step_["from"], step_["to"]).steps
                assert all(x is y for x, y in zip(sub, steps[k - len(sub) : k]))
                shared += 1
            with pytest.raises(TypeError):
                steps[0]["rule"] = "refl"
            with pytest.raises(TypeError):
                steps[0] = {"rule": "refl"}
    assert shared > 100


def test_derivations_refuse_uncovered_semantics():
    derived = []
    for sem in supported_ids():
        try:
            derivation = derive_leq(str(sem), NIL, NIL)
        except UncoveredSemanticsError as exc:
            assert str(exc) == f"head normal form derivations do not cover {sem}"
            with pytest.raises(UncoveredSemanticsError):
                verify_hnf_laws(str(sem), [NIL])
            continue
        assert [s["rule"] for s in derivation.steps] == ["refl"]
        derived.append(str(sem))
    assert tuple(derived) == DERIVED_IDS
