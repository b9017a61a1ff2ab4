import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _random_hml, c, conj_variants_reference, sample_formulas
from procsem.logic import (
    TOP,
    UnrealizablePinError,
    Conj,
    Diamond,
    Neg,
    base_constraint_logic,
    chain,
    conj,
    distinguish,
    formula_from_observation,
    in_sublogic,
    not_zero,
    parse_formula,
    render_formula,
    sat,
    zero_formula,
)
from procsem.observations import ClosureSet, bgo_member, enum_bgo, enum_lgo
from procsem.preorders import coverage, decide, holds
from procsem.spectrum import UncoveredSemanticsError, parse_semantics, supported_ids

AB = frozenset("ab")

P1 = "a.b.0 + a.0 + a.(b.d.0 + c.0 + e.0)"
P2 = "a.b.0 + a.(b.d.0 + c.0) + a.(b.d.0 + c.0 + e.0)"
P3 = "a.b.0 + a.b.d.0 + a.(b.d.0 + c.0 + e.0)"
P4 = "a.b.0 + a.(b.d.0 + c.0 + e.0)"
P5 = "a.b.c.0 + a.b.(c.0+d.0) + a.b.d.0"
P6 = "a.b.c.0 + a.b.d.0"
P7 = "a.(b.c.0 + b.d.0)"
P8 = "a.(b.c.0 + b.d.0) + a.b.c.0"


def test_sat_base():
    assert sat(c("0"), TOP)
    assert sat(c("a.0"), parse_formula("<a>T"))
    assert not sat(c("a.0"), parse_formula("<b>T"))
    assert sat(c("a.0"), parse_formula("~<b>T"))


@pytest.mark.parametrize(
    "formula,sat_term,unsat_term",
    [
        ("<a>(~<b>T & ~<c>T)", P1, P2),
        ("<a>(~<e>T & <c>T)", P2, P3),
        ("<a>(~<c>T & <b>(~<e>T & <d>T))", P3, P4),
        ("<a><b>(<c>T & <d>T)", P5, P6),
        ("<a>(<b><c>T & <b><d>T)", P7, P6),
        ("<a>(~<d>T & <b><c>T)", "a.b.c.0 + a.(b.c.0+d.0) + a.b.0", "a.(b.c.0+d.0) + a.b.0"),
    ],
)
def test_separating_formula_examples(formula, sat_term, unsat_term):
    f = parse_formula(formula)
    assert sat(c(sat_term), f)
    assert not sat(c(unsat_term), f)


def test_formula_parse_render_roundtrip_examples():
    for text in ("T", "~<a>T", "<a>(<b>T & ~<c>T)", "<a><b>T & T"):
        f = parse_formula(text)
        assert parse_formula(render_formula(f)) is f


# Tokens of the seeded formula strings: the grammar's own, plus tokens that
# start nothing and an empty one.
FORMULA_TOKENS = ("T", "~", "<a>", "<bc>", "<", ">", "&", "(", ")", " ", "\t", "?", "a", "0", "")
FORMULA_PARSER_PIN = (13240, "c0566924efb160b92d9abbd7215346b60a70726fdfcb1da810d7782afe3a5157")


def _seeded_formula_tokens(rng, depth):
    """The tokens of a random formula; one node in 25 is a random token instead."""
    roll = rng.random()
    if roll < 0.04:
        return [rng.choice(FORMULA_TOKENS)]
    if depth == 0 or roll < 0.3:
        return [rng.choice(("T", " T"))]
    if roll < 0.45:
        return [rng.choice(("~", "~ "))] + _seeded_formula_tokens(rng, depth - 1)
    if roll < 0.65:
        diamond = rng.choice((["<a>"], ["<bc>"], ["<", "a", ">"], ["<", "bc", " ", ">"]))
        return diamond + _seeded_formula_tokens(rng, depth - 1)
    if roll < 0.85:
        left = _seeded_formula_tokens(rng, depth - 1)
        return left + [rng.choice(("&", " & "))] + _seeded_formula_tokens(rng, depth - 1)
    return ["("] + _seeded_formula_tokens(rng, depth - 1) + [")"]


def test_formula_parser_output_is_pinned():
    """20,000 seeded strings, a quarter of them with one token dropped: the
    rendered parse, or the error's message and offset, of each."""
    import hashlib

    from procsem.logic import FormulaParseError

    rng = random.Random(48)
    rows, parsed = [], 0
    for _ in range(20_000):
        tokens = _seeded_formula_tokens(rng, 5)
        if rng.random() < 0.25:
            del tokens[rng.randrange(len(tokens))]
        try:
            rows.append(render_formula(parse_formula("".join(tokens))))
            parsed += 1
        except FormulaParseError as err:
            rows.append(f"{err}|{err.offset}")
    assert (parsed, hashlib.sha256("\n".join(rows).encode()).hexdigest()) == FORMULA_PARSER_PIN


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        return TOP
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return TOP
    if kind == 1:
        return Diamond(draw(st.sampled_from("ab")), draw(formulas(depth=depth - 1)))
    if kind == 2:
        return Neg(draw(formulas(depth=depth - 1)))
    return conj(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_formula_roundtrip_property(f):
    assert parse_formula(render_formula(f)) is f


def test_deep_formulas_parse_print_and_satisfy_in_loops():
    """Formulas 5,000 deep in ``~``, ``<a>`` and ``(`` round-trip, and
    ``sat`` answers them: no level takes a frame of the interpreter."""
    negations, diamonds, groups = TOP, TOP, TOP
    for _ in range(5000):
        negations, diamonds = Neg(negations), Diamond("a", diamonds)
        groups = Diamond("a", conj(groups, Diamond("b", TOP)))
    for f in (negations, diamonds, groups):
        assert parse_formula(render_formula(f)) is f
    assert render_formula(groups).count("(") == 4999
    assert parse_formula("(" * 5000 + "T" + ")" * 5000) is TOP
    assert sat(c("0"), negations) and not sat(c("a.0"), diamonds) and not sat(c("a.0"), groups)


def test_conj_normalization():
    assert Conj([]) is TOP
    assert Conj([TOP, TOP]) is TOP
    f = parse_formula("<a>T")
    assert Conj([f]) is f
    assert Conj([f, TOP]) is f


def _nested_key(f):
    """The formula order as a nested tuple of the whole tree: the oracle for
    ``Formula.__lt__``.  Recursive, so for shallow formulas only."""
    if isinstance(f, Conj):
        return ("&", *map(_nested_key, f.members))
    if isinstance(f, Diamond):
        return ("<>", f.action, _nested_key(f.body))
    if isinstance(f, Neg):
        return ("~", _nested_key(f.body))
    return ("T",)


def test_conj_variants_merge_an_equal_member():
    from procsem.logic import _conj_variants

    f = parse_formula("<a><b>T & <a>(<b>T & <c>T)")
    variants = [render_formula(g) for g in _conj_variants(f)]
    # the last drops <c>T inside the first member, which leaves <a><b>T, the
    # second member: the two merge into one, not a conjunction of equals
    assert variants == ["<a><b>T", "<a>(<b>T & <c>T)", "<a><b>T & <a><c>T", "<a><b>T"]


def test_conj_variants_match_the_recursive_reference():
    from procsem.logic import _conj_variants

    rng = random.Random(49)
    sems = [s for s in supported_ids() if "logic" in coverage(s)]
    assert len(sems) == 50
    variants = 0
    for sem in sems:
        for f in sample_formulas(sem, AB, rng, 4, 30):
            expected = list(conj_variants_reference(f))
            got = list(_conj_variants(f))
            assert len(got) == len(expected) and all(map(operator.is_, got, expected)), (str(sem), render_formula(f))
            variants += len(got)
    assert variants > 10 * len(sems)


def test_formula_order_is_the_nested_key_order(pool2):
    rng = random.Random(2006)
    formulas = {TOP}
    for name in ("B", "S", "RS", "PW", "RT", "F", "T:l", "S:l⊇", "I:lf⊆"):
        formulas.update(sample_formulas(name, "abc", rng, 3, 30))
        for _ in range(30):
            f = distinguish(name, rng.choice(pool2), rng.choice(pool2), AB)
            if f is not None:
                formulas.add(f)
    keys = {f: _nested_key(f) for f in formulas}
    for f in formulas:
        if isinstance(f, Conj):
            assert list(f.members) == sorted(f.members, key=_nested_key)
        for g in formulas:
            assert (f < g) == (keys[f] < keys[g]), (f, g)


def test_deep_formulas_compare_without_recursion():
    x, y = chain("a" * 4999 + "a"), chain("a" * 4999 + "b")
    assert x < y and not y < x and not x < x
    assert Neg(x) < Neg(y) and Conj([x, TOP]) is x
    assert Conj([x, y]).members == (x, y)


def test_base_constraint_logics():
    lc = base_constraint_logic("C", AB)
    assert lc.contains(not_zero(AB))
    assert not lc.contains(parse_formula("<a>T"))
    li = base_constraint_logic("I", AB)
    assert li.contains(parse_formula("<a>T"))
    lt = base_constraint_logic("T", AB)
    assert lt.contains(parse_formula("<a><b>T"))
    assert not lt.contains(parse_formula("~<a>T"))
    ls = base_constraint_logic("S", AB)
    assert ls.contains(parse_formula("<a>(<b>T & <a>T)"))
    assert not ls.contains(parse_formula("<a>~<b>T"))


def test_in_sublogic_examples():
    alpha = frozenset("abce")
    f = parse_formula("<a>(~<e>T & <c>T)")
    # a mixed final conjunction lives in the readiness grammar, and as a
    # refusal-then-offer chain in the failure-trace grammar
    assert in_sublogic(f, "R", alpha)
    assert in_sublogic(f, "FT", alpha)
    assert in_sublogic(f, "RT", alpha)
    assert in_sublogic(f, "RS", alpha)
    # negation-free offer probes are not failure formulas at the end
    g = parse_formula("<a>(<b>T & <c>T)")
    assert in_sublogic(g, "R", alpha)
    assert not in_sublogic(g, "F", alpha)
    assert not in_sublogic(parse_formula("~~<a>T"), "RS", alpha)
    # branching conjunction under a prefix splits RS from every linear grammar
    h = parse_formula("<a>(<b><c>T & <b><d>T)")
    assert in_sublogic(h, "RS", frozenset("abcd"))
    assert not in_sublogic(h, "RT", frozenset("abcd"))
    assert not in_sublogic(h, "PW", frozenset("abcd"))  # repeated action b
    k = parse_formula("<a>(~<d>T & <b><c>T)")
    assert in_sublogic(k, "PW", frozenset("abcd"))


def test_meet_grammar():
    alpha = frozenset("abc")
    assert in_sublogic(parse_formula("<a>(<b>T & ~<c>T)"), "RV", alpha)
    assert in_sublogic(parse_formula("<a>~<c>T"), "RV", alpha)  # failure final
    assert not in_sublogic(parse_formula("<a>(<b>T & <c>T)"), "RV", alpha)


def test_join_grammar_is_union():
    alpha = frozenset("abc")
    ft_formula = parse_formula("<a>(~<c>T & <b>T)")
    r_formula = parse_formula("<a>(<b>T & <c>T)")
    for f in (ft_formula, r_formula):
        assert in_sublogic(f, "JOIN", alpha)


# The four grammar checkers that ``logic._GRAMMARS`` replaced, written out as
# the reference its one walker must agree with.


def _ref_flatten(f):
    return f.members if isinstance(f, Conj) else () if f is TOP else (f,)


def _ref_leaf(logic, f, mode):
    if mode in ("eq", "pos") and logic.contains(f):
        return True
    return mode in ("eq", "neg") and isinstance(f, Neg) and logic.contains(f.body)


def _ref_split(logic, f, mode):
    leaves, continuations = [], []
    for m in _ref_flatten(f):
        if _ref_leaf(logic, m, mode):
            leaves.append(m)
        elif isinstance(m, Diamond):
            continuations.append(m)
        else:
            return None
    return leaves, continuations


def _ref_branching(logic, f):
    if _ref_leaf(logic, f, "eq"):
        return True
    if isinstance(f, Diamond):
        return _ref_branching(logic, f.body)
    if isinstance(f, Conj):
        return all(_ref_branching(logic, m) for m in f.members)
    return f is TOP


def _ref_det_branching(logic, f):
    split = _ref_split(logic, f, "eq")
    if split is None:
        return False
    actions = [d.action for d in split[1]]
    return len(actions) == len(set(actions)) and all(_ref_det_branching(logic, d.body) for d in split[1])


def _ref_linear(logic, f, mid, last):
    split = _ref_split(logic, f, last)
    if split is None:
        return False
    leaves, continuations = split
    if len(continuations) > 1:
        return False
    if not continuations:
        return True
    if leaves and mid is None:
        return False
    return _ref_linear(logic, continuations[0].body, mid, last)


def _ref_meet(logic, f):
    parts = _ref_flatten(f)
    positives = sum(1 for m in parts if logic.contains(m))
    negatives = sum(1 for m in parts if not logic.contains(m) and isinstance(m, Neg) and logic.contains(m.body))
    if positives + negatives == len(parts) and positives <= 1:
        return True
    return len(parts) == 1 and isinstance(parts[0], Diamond) and _ref_meet(logic, parts[0].body)


_REF_LINEAR = {
    "l": ("eq", "eq"),
    "l⊇": ("neg", "neg"),
    "l⊆": ("pos", "pos"),
    "lf": (None, "eq"),
    "lf⊇": (None, "neg"),
    "lf⊆": (None, "pos"),
    "ER": (None, "pos"),
    "ERT": ("pos", "pos"),
}


def _ref_in_sublogic(f, sem, alphabet):
    # ER and ERT compare offers: their formulas pin I's labels
    logic = base_constraint_logic("I" if sem.flavor in ("ER", "ERT") else sem.constraint, alphabet)
    if sem.flavor == "b":
        return _ref_branching(logic, f)
    if sem.flavor == "db":
        return _ref_det_branching(logic, f)
    if sem.flavor == "meet":
        return _ref_meet(logic, f)
    if sem.flavor == "join":
        return _ref_linear(logic, f, *_REF_LINEAR["l⊇"]) or _ref_linear(logic, f, *_REF_LINEAR["lf"])
    return _ref_linear(logic, f, *_REF_LINEAR[sem.flavor])


def test_grammar_walker_matches_the_written_out_grammars():
    rng = random.Random(31)
    sems = [s for s in supported_ids() if s.flavor != "bisim" and "logic" in coverage(s)]
    assert len(sems) == 49
    for alphabet in (AB, frozenset("abc")):
        fs = [_random_hml(alphabet, rng, rng.randint(1, 4)) for _ in range(2000)]
        for sem in sems:
            fs += sample_formulas(sem, alphabet, rng, 3, 20)
        members = 0
        for sem in sems:
            for f in fs:
                expected = _ref_in_sublogic(f, sem, alphabet)
                assert in_sublogic(f, sem, alphabet) == expected, (str(sem), render_formula(f))
                members += expected
        assert members > 20 * len(sems)


# sha256 of the rendered sample_formulas(sem, AB, Random(9), 3, 40) of every id
# with a grammar, one "id: formula" line each: property tests draw their
# formulas from this sampler, so a change of its draws must be deliberate.
SAMPLER_PIN = (2000, "770882e4228c5c9c26e21ac1966612cbda079566a0e202122570d9efcd375d2f")


def test_sampler_output_is_pinned():
    import hashlib

    lines = [
        f"{sem}: {render_formula(f)}"
        for sem in supported_ids()
        if "logic" in coverage(sem)
        for f in sample_formulas(sem, AB, random.Random(9), 3, 40)
    ]
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == SAMPLER_PIN


def test_zero_formula_semantics():
    z = zero_formula(AB)
    assert sat(c("0"), z)
    assert not sat(c("a.0"), z)
    assert sat(c("b.0"), not_zero(AB))


def _closure_member(constraint, flavor, obs, term):
    closure = ClosureSet(flavor, enum_lgo(constraint, term), constraint)
    return obs in closure


@pytest.mark.parametrize("constraint", ["U", "C", "I"])
def test_correspondence_linear(pool2, constraint):
    rng = random.Random(21)
    sample_terms = [rng.choice(pool2) for _ in range(18)]
    for source in sample_terms[:6]:
        observations = sorted(enum_lgo(constraint, source), key=lambda o: o.sort_key())[:6]
        for obs in observations:
            for flavor in ("l⊇", "lf", "lf⊇", "l⊆", "lf⊆"):
                sem = parse_semantics(f"{constraint}:{flavor}")
                if str(sem) in ("C:l⊆", "C:lf⊆"):  # their grammars characterize T, not CT
                    with pytest.raises(UncoveredSemanticsError):
                        formula_from_observation(obs, sem, AB)
                    continue
                try:
                    f = formula_from_observation(obs, sem, AB)
                except UnrealizablePinError:
                    # unrealizable pins exist only at constraint C
                    assert constraint == "C"
                    continue
                assert in_sublogic(f, sem, AB)
                for x in sample_terms:
                    assert sat(x, f) == _closure_member(constraint, flavor, obs, x)
            # exact (ready-trace style) correspondence: plain membership
            sem = parse_semantics(f"{constraint}:l")
            f = formula_from_observation(obs, sem, AB)
            assert in_sublogic(f, sem, AB)
            for x in sample_terms:
                assert sat(x, f) == (obs in enum_lgo(constraint, x))


def test_correspondence_branching(pool1):
    for source in pool1:
        full, _ = enum_bgo("I", source, 16)
        for obs in sorted(full, key=lambda o: (o.nodes, o))[:8]:
            f = formula_from_observation(obs, "RS", AB)
            assert in_sublogic(f, "RS", AB)
            for x in pool1:
                assert sat(x, f) == bgo_member(obs, x)


def test_correspondence_trace_constraint(pool1):
    # trace-set labels need bounded negative pins; check exactness
    for source in pool1:
        for obs in sorted(enum_lgo("T", source), key=lambda o: o.sort_key())[:4]:
            f = formula_from_observation(obs, "T:lf", AB)
            for x in pool1:
                assert sat(x, f) == _closure_member("T", "f", obs, x)


def test_correspondence_simulation_constraint(pool1):
    context = tuple(pool1)
    for source in pool1:
        for obs in sorted(enum_lgo("S", source), key=lambda o: o.sort_key())[:4]:
            f = formula_from_observation(obs, "S:lf⊇", AB, context)
            for x in pool1:
                assert sat(x, f) == _closure_member("S", "f⊇", obs, x)


DISTINGUISH_IDS = [
    "B",
    "S",
    "CS",
    "RS",
    "TS",
    "2S",
    "T",
    "CT",
    "RT",
    "FT",
    "R",
    "F",
    "PW",
    "UPW",
    "PF",
    "IF",
    "SF",
    "RV",
    "JOIN",
    "I:l⊆",
    "I:lf⊆",
]


@pytest.mark.parametrize("sem_name", DISTINGUISH_IDS)
def test_distinguish_round_trip(pool2, sem_name):
    sem = parse_semantics(sem_name)
    rng = random.Random(hash(sem_name) & 0xFFFF)
    alphabet = AB
    done = 0
    attempts = 0
    while done < 25 and attempts < 4000:
        attempts += 1
        p, q = rng.choice(pool2), rng.choice(pool2)
        if decide(sem, p, q).holds:
            assert distinguish(sem, p, q, alphabet) is None
            continue
        f = distinguish(sem, p, q, alphabet)
        # distinguish itself asserts the contract; re-check it independently
        assert sat(p, f) and not sat(q, f)
        assert in_sublogic(f, sem, alphabet)
        done += 1
    assert done > 0


def test_distinguish_rejections():
    with pytest.raises(UncoveredSemanticsError):
        distinguish("I:bf", c("a.0"), c("b.0"))
    with pytest.raises(UncoveredSemanticsError):
        distinguish("ECR", c("a.0"), c("b.0"))
    with pytest.raises(UncoveredSemanticsError):
        distinguish("C:lf⊆", c("a.0"), c("a.b.0"))


def test_distinguish_needs_every_action_in_the_alphabet():
    p, q = c("a.0"), c("a.b.0 + c.0")
    for sem in ("RT", "F", "RS", "PW", "B", "T"):
        with pytest.raises(ValueError, match="the alphabet misses the actions b, c"):
            distinguish(sem, p, q, frozenset("a"))
    assert distinguish("T", q, p, frozenset("abc")) is not None


def test_distinguish_examples():
    # possible-worlds counterexample formula
    p = c("a.b.c.0 + a.(b.c.0+d.0) + a.b.0")
    q = c("a.(b.c.0+d.0) + a.b.0")
    f = distinguish("PW", p, q)
    reference = parse_formula("<a>(~<d>T & <b><c>T)")
    assert sat(p, reference) and not sat(q, reference)
    assert sat(p, f) and not sat(q, f)
    assert distinguish("RS", p, p) is None
    # revivals vs failures split
    assert distinguish("F", c("a.b.0"), c("a.0+a.(b.0+c.0)")) is None
    g = distinguish("RV", c("a.b.0"), c("a.0+a.(b.0+c.0)"))
    assert g is not None and in_sublogic(g, "RV", frozenset("abc"))


def test_preservation_sampled(pool2):
    """Sampled grammar formulas are sound: for every semantics with a
    grammar, none holds in p and fails in q on a pair the decider relates."""
    rng = random.Random(9)
    terms = rng.sample(pool2, 48)
    for sem in supported_ids():
        if "logic" not in coverage(sem):
            continue
        fs = sample_formulas(sem, AB, rng, 3, 40)
        for f in fs:
            assert in_sublogic(f, sem, AB), (str(sem), render_formula(f))
        holding = {p: {f for f in fs if sat(p, f)} for p in terms}
        for p in terms:
            for q in terms:
                if holds(sem, p, q):
                    unsound = holding[p] - holding[q]
                    assert not unsound, (str(sem), p, q, render_formula(min(unsound)))


def test_disjunction_preservation_spotcheck(pool2):
    rng = random.Random(123)
    sem = parse_semantics("F")
    fs = sample_formulas(sem, AB, rng, 3, 30)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(80)]
    for p, q in pairs:
        if not decide(sem, p, q).holds:
            continue
        for f1, f2 in itertools.islice(itertools.combinations(fs, 2), 40):
            either_p = sat(p, f1) or sat(p, f2)
            either_q = sat(q, f1) or sat(q, f2)
            assert not either_p or either_q


ARROW_GRAMMAR_PAIRS = [
    ("RT", "RS"),  # the simulation grammar contains the linear ones
    ("FT", "RT"),
    ("R", "RT"),
    ("F", "FT"),
    ("F", "R"),
    ("RV", "R"),
    ("F", "RV"),
    ("RT", "PW"),
    ("PW", "RS"),
    ("R", "JOIN"),
    ("FT", "JOIN"),
    ("F", "T:lf⊇"),
    ("T", "CT"),
    # the completed-trace point carries all six linear grammars; containment
    # under the F arrow holds for the matching (final-failure) one
    ("C:lf⊇", "F"),
    ("C:lf", "R"),
]


@pytest.mark.parametrize("coarser,finer", ARROW_GRAMMAR_PAIRS)
def test_grammar_containment(coarser, finer):
    rng = random.Random(hash((coarser, finer)) & 0xFFFF)
    fs = sample_formulas(parse_semantics(coarser), AB, rng, 3, 60)
    for f in fs:
        assert in_sublogic(f, parse_semantics(finer), AB), render_formula(f)


def test_formula_from_observation_shapes():
    from procsem.constraints import LocalObs
    from procsem.observations import LinearObs

    empty = LinearObs(LocalObs("I", frozenset()), ())
    f = formula_from_observation(empty, "RT", AB)
    assert f is parse_formula("~<a>T & ~<b>T")
    ready = LinearObs(
        LocalObs("I", frozenset("a")), (("a", LocalObs("I", frozenset("b"))),)
    )
    g = formula_from_observation(ready, "R", AB)
    assert g is parse_formula("<a>(<b>T & ~<a>T)")
    h = formula_from_observation(ready, "F", AB)
    assert h is parse_formula("<a>~<a>T")


def test_formula_from_observation_stays_in_its_grammar(pool2):
    # a linear flavor's observation formula lies in that flavor's grammar, or
    # the pin is unrealizable (constraint C only); join, whose grammar is the
    # union of the l⊇ and lf grammars, has no observation formula; C:l⊆ and
    # C:lf⊆ have no grammar
    abc = frozenset("abc")
    linear = ("l", "l⊇", "l⊆", "lf", "lf⊇", "lf⊆", "meet", "join")
    sems = [s for s in supported_ids() if s.constraint != "S" and s.flavor in linear and "logic" in coverage(s)]
    rng = random.Random(29)
    sources = [c("a.(a.0 + b.0) + a.(b.0 + c.0)")] + rng.sample(list(pool2), 8)
    built = 0
    for sem in sems:
        for source in sources:
            for obs in sorted(enum_lgo(sem.constraint, source), key=lambda o: o.sort_key())[:8]:
                if sem.flavor == "join":
                    with pytest.raises(UncoveredSemanticsError):
                        formula_from_observation(obs, sem, abc)
                    continue
                try:
                    f = formula_from_observation(obs, sem, abc)
                except ValueError:
                    assert sem.constraint == "C"
                    continue
                built += 1
                assert in_sublogic(f, sem, abc), (sem, obs, render_formula(f))
    assert built > 500


def test_base_logics_contain_not_zero():
    for n in ("C", "I", "T", "S"):
        assert base_constraint_logic(n, AB).contains(not_zero(AB)), n
    assert not base_constraint_logic("U", AB).contains(not_zero(AB))


# (semantics, p, q, rendered formula) for refuted cells over the depth-2 pool:
# distinguish is deterministic, so these pin its output byte for byte.
DISTINGUISH_PINS = [
    ('B', 'a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0',
     'a.a.0 + a.b.0 + b.0 + b.(a.0 + b.0)', '<a>(~<a>T & ~<b>T)'),
    ('B', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.(a.0 + b.0)', 'a.b.0 + b.a.0', '<a>~<b>T'),
    ('S', 'a.0 + a.a.0 + b.a.0', 'a.0 + a.b.0 + b.b.0', '<a><a>T'),
    ('S', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.a.0', 'a.a.0 + a.(a.0 + b.0) + a.b.0 + b.0 + b.b.0',
     '<b><a>T'),
    ('CS', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.0 + b.(a.0 + b.0)', 'a.0 + b.a.0',
     '<a>~(~<a>T & ~<b>T)'),
    ('CS', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0)', 'a.0 + a.b.0 + b.b.0', '<a><a>T'),
    ('RS', 'a.0 + a.b.0 + b.a.0 + b.(a.0 + b.0)', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.(a.0 + b.0)',
     '<a>(<b>T & ~<a>T)'),
    ('RS', 'a.0 + a.a.0 + a.b.0 + b.(a.0 + b.0) + b.b.0', 'b.0 + b.b.0', '<a>T'),
    ('TS', '0', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0', '~<a>T'),
    ('TS', 'a.0 + a.a.0 + b.0 + b.a.0', 'a.0 + a.(a.0 + b.0) + b.0 + b.a.0 + b.b.0', '~<a><b>T'),
    ('2S', 'a.0 + a.a.0 + a.b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0',
     'a.0 + a.a.0 + a.(a.0 + b.0) + b.0 + b.a.0', '<b><b>T'),
    ('2S', 'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.b.0',
     'a.a.0 + a.b.0 + b.a.0 + b.(a.0 + b.0)', '<a>(<a>T & <b>T)'),
    ('T', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.b.0', 'a.b.0 + b.a.0 + b.(a.0 + b.0)', '<a><a>T'),
    ('T', 'a.0 + b.0 + b.a.0 + b.(a.0 + b.0)', 'b.0 + b.a.0', '<a>T'),
    ('CT', 'a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0)',
     'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0', '<b>~~(~<a>T & ~<b>T)'),
    ('CT', 'a.0 + a.(a.0 + b.0) + a.b.0 + b.0', 'a.0 + a.a.0 + b.a.0 + b.(a.0 + b.0)', '<a><b>T'),
    ('RT', 'a.a.0 + a.(a.0 + b.0) + b.a.0 + b.(a.0 + b.0)', 'a.(a.0 + b.0) + a.b.0 + b.(a.0 + b.0)',
     '<a>~<b>T'),
    ('RT', 'a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0',
     'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.b.0', '<b>~<b>T'),
    ('FT', 'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0', 'a.a.0 + b.(a.0 + b.0) + b.b.0', '~<b>T'),
    ('FT', 'a.a.0 + b.(a.0 + b.0) + b.b.0', 'a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0)', '<a>~<b>T'),
    ('R', 'a.0 + a.b.0 + b.0 + b.(a.0 + b.0)', 'a.0 + a.a.0 + b.a.0', '<a><b>T'),
    ('R', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0', 'a.0 + b.0 + b.a.0 + b.b.0',
     '<a><a>T'),
    ('F', 'a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.(a.0 + b.0)',
     'a.0 + a.(a.0 + b.0) + b.(a.0 + b.0) + b.b.0', '<b>~<b>T'),
    ('F', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.b.0', 'a.a.0 + b.0 + b.(a.0 + b.0)', '<a>~<a>T'),
    ('PW', 'a.0 + a.b.0 + b.(a.0 + b.0)', 'a.(a.0 + b.0) + a.b.0 + b.b.0', '<b><a>T'),
    ('PW', 'a.(a.0 + b.0) + a.b.0 + b.a.0 + b.(a.0 + b.0)', 'a.0 + a.(a.0 + b.0) + b.0 + b.b.0',
     '<b><a>T'),
    ('UPW', 'a.0 + a.(a.0 + b.0) + b.(a.0 + b.0) + b.b.0', 'a.a.0 + a.(a.0 + b.0) + a.b.0',
     '<b><b>T'),
    ('UPW', 'a.(a.0 + b.0) + a.b.0', 'a.b.0 + b.b.0', '<a><a>T'),
    ('PF', 'a.a.0 + a.b.0 + b.0', 'a.0 + a.a.0 + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0',
     '~<b><b>T'),
    ('PF', 'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.0 + b.(a.0 + b.0) + b.b.0',
     'a.0 + b.0 + b.a.0 + b.b.0', '<a><b>T'),
    ('IF', 'a.0 + b.0 + b.b.0', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.0 + b.a.0', '~<b><a>T'),
    ('IF', 'a.a.0 + a.b.0 + b.0 + b.a.0', 'a.0 + a.(a.0 + b.0) + a.b.0 + b.0', '<b><a>~<b>T'),
    ('SF', 'a.a.0 + a.(a.0 + b.0) + a.b.0 + b.0 + b.(a.0 + b.0) + b.b.0',
     'a.(a.0 + b.0) + a.b.0 + b.0 + b.a.0', '<a>~<b>T'),
    ('SF', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0', 'b.b.0',
     '<a>~<b>T'),
    ('RV', 'a.(a.0 + b.0) + a.b.0 + b.0 + b.b.0', 'a.(a.0 + b.0) + a.b.0 + b.(a.0 + b.0) + b.b.0',
     '<b>~<b>T'),
    ('RV', 'a.(a.0 + b.0)', 'a.0 + b.0 + b.(a.0 + b.0)', '~<b>T'),
    ('JOIN', 'a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0)', 'a.0 + b.0', '<a><b>~<b>T'),
    ('JOIN', 'a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.b.0',
     'a.0 + a.(a.0 + b.0) + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0)', '<b>(<b>~<b>T & ~<a>T)'),
    ('I:l⊆', 'a.0 + a.(a.0 + b.0) + b.0 + b.a.0 + b.(a.0 + b.0)',
     'a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.b.0', '<b>(<a>T & <b>T)'),
    ('I:l⊆', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.0 + b.a.0 + b.b.0', 'a.(a.0 + b.0) + a.b.0 + b.a.0',
     '<b><b>T'),
    ('I:lf⊆', 'a.0 + b.b.0', 'a.(a.0 + b.0) + a.b.0 + b.0', '<b><b>T'),
    ('I:lf⊆', 'a.a.0 + a.(a.0 + b.0) + a.b.0 + b.a.0 + b.b.0', 'a.(a.0 + b.0) + a.b.0 + b.0',
     '<b><a>T'),
    ('T:lf', 'a.a.0 + a.b.0 + b.a.0 + b.b.0', 'a.(a.0 + b.0) + a.b.0 + b.0 + b.a.0', '<b><b>T'),
    ('T:lf', 'a.0 + a.b.0 + b.0 + b.a.0 + b.b.0', 'a.0 + a.a.0 + a.(a.0 + b.0) + b.a.0',
     '~<a><a>T'),
]


def test_distinguish_pinned_formulas():
    for sem_name, p, q, formula in DISTINGUISH_PINS:
        assert render_formula(distinguish(sem_name, c(p), c(q), AB)) == formula, (sem_name, p, q)


# (lines, sha256) of the rendered distinguishing formulas of the first 12
# refuted cells of 160 seeded pairs (120 from pool2, 40 from random3), for
# every id that distinguish covers, one "id: p | q | formula" line each.
DISTINGUISH_PIN = (600, "df3ee819482905958798813b3964dc08167380355ae77e35b6b63741d4a857e7")


def test_distinguish_formulas_are_pinned(pool2, random3):
    import hashlib

    rng = random.Random(2727)
    pairs = [(rng.choice(pool2), rng.choice(pool2)) for _ in range(120)]
    pairs += [(rng.choice(random3), rng.choice(random3)) for _ in range(40)]
    lines = []
    for sem in supported_ids():
        if "distinguish" not in coverage(sem):
            continue
        refuted = [(p, q) for p, q in pairs if not holds(sem, p, q)][:12]
        assert refuted, sem
        lines += [f"{sem}: {p} | {q} | {render_formula(distinguish(sem, p, q))}" for p, q in refuted]
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) == DISTINGUISH_PIN
