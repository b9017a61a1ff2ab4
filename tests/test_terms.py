import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c
from procsem.terms import (
    Choice,
    Nil,
    OpenTermError,
    ParseError,
    Prefix,
    Var,
    canonicalize,
    count_terms,
    enumerate_terms,
    parse_term,
    render_term,
    term_from_json,
    term_to_json,
)


def test_parse_base_cases():
    assert parse_term("0") == Nil()
    assert parse_term("a.(b.0 + c.0)") == Prefix("a", Choice(Prefix("b", Nil()), Prefix("c", Nil())))
    # prefix binds tighter than +
    assert parse_term("a.b.0 + a.c.0") == Choice(
        Prefix("a", Prefix("b", Nil())), Prefix("a", Prefix("c", Nil()))
    )


def test_raw_terms_are_frozen_values():
    t = parse_term("a.(X + 0)")
    same = Prefix("a", Choice(Var("X"), Nil()))
    assert t == same and hash(t) == hash(same) == hash(("a", Choice(Var("X"), Nil())))
    assert {same: 1}[t] == 1
    assert Nil() == Nil() and hash(Nil()) == hash(()) and Nil() != Var("X") and t != ("a", t.body)
    with pytest.raises(AttributeError):
        t.action = "b"
    with pytest.raises(AttributeError):
        Var("X").name = "Y"
    assert repr(t) == "Prefix('a', Choice(Var('X'), Nil()))"


def test_value_classes_are_named_tuples():
    from procsem.constraints import LocalObs
    from procsem.observations import LinearObs
    from procsem.spectrum import SemanticsId

    head = LocalObs("I", frozenset("a"))
    values = [
        Nil(), Prefix("a", Nil()), Choice(Nil(), Var("X")), Var("X"),
        head, LinearObs(head, (("a", LocalObs("I", frozenset())),)), SemanticsId("I", "b"),
    ]
    for value in values:
        fields = tuple(value)
        assert not hasattr(value, "__dict__") and fields == tuple(getattr(value, f) for f in value._fields)
        assert value == type(value)(*fields) and hash(value) == hash(fields)
        assert value != fields and not value == fields
    # equal fields, another class: not equal
    assert Prefix("a", Nil()) != Choice("a", Nil()) and LocalObs("I", "b") != SemanticsId("I", "b")


def test_parse_variables_and_whitespace():
    assert parse_term("  X +a.Y ") == Choice(Var("X"), Prefix("a", Var("Y")))
    assert parse_term("a . 0") == Prefix("a", Nil())


@pytest.mark.parametrize(
    "text",
    ["", "a", "a.", "(a.0", "a.0 +", "A.0", ".0", "a.0)"],
)
def test_parse_errors_carry_offsets(text):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert err.value.offset >= 0


# Tokens of the seeded parser strings: the grammar's own, plus characters
# that start no token and an empty one.
PARSE_TOKENS = ("0", "a", "b", "cd", "X", "Y1", "A", "1", ".", "+", "(", ")", " ", "\t", "")
PARSER_PIN = (13185, "c0f2883d25bc61ade1d2b45435374cfe8a7d75b20a05c92d3f121ea89f5004af")


def _seeded_term_tokens(rng, depth):
    """The tokens of a random term; one node in 25 is a random token instead."""
    roll = rng.random()
    if roll < 0.04:
        return [rng.choice(PARSE_TOKENS)]
    if depth == 0 or roll < 0.3:
        return [rng.choice(("0", "X", "Y1"))]
    if roll < 0.65:
        return [rng.choice(("a", "b", "cd")), rng.choice((".", " .", ". "))] + _seeded_term_tokens(rng, depth - 1)
    if roll < 0.85:
        return _seeded_term_tokens(rng, depth - 1) + [rng.choice(("+", " + "))] + _seeded_term_tokens(rng, depth - 1)
    return ["("] + _seeded_term_tokens(rng, depth - 1) + [")"]


def test_parser_output_is_pinned():
    """20,000 seeded strings, a quarter of them with one token dropped: the
    parsed tree, or the error's message, offset and expected set, of each."""
    import hashlib
    import random

    rng = random.Random(29)
    rows, parsed = [], 0
    for _ in range(20_000):
        tokens = _seeded_term_tokens(rng, 5)
        if rng.random() < 0.25:
            del tokens[rng.randrange(len(tokens))]
        try:
            rows.append(repr(parse_term("".join(tokens))))
            parsed += 1
        except ParseError as err:
            rows.append(f"{err}|{err.offset}|{err.expected}")
    assert (parsed, hashlib.sha256("\n".join(rows).encode()).hexdigest()) == PARSER_PIN


def test_deep_raw_terms_parse_and_print_in_loops():
    # 5,000 prefixes deep with a sum at each level: "a.(a.(...0 + b.0) + b.0)"
    text = "a.(" * 5000 + "0" + " + b.0)" * 5000
    assert render_term(parse_term(text)) == text


def test_render_examples():
    assert render_term(Nil()) == "0"
    assert render_term(Prefix("a", Nil())) == "a.0"
    assert render_term(canonicalize(parse_term("b.0+a.0"))) == "a.0 + b.0"


def test_canonicalize_unit_idempotence_dedup():
    assert c("a.0 + 0") is c("a.0")
    assert c("a.0 + a.0") is c("a.0")
    assert c("(a.0 + b.0) + a.0") is c("a.0 + b.0")
    t = c("b.a.0 + a.(b.0+0+b.0)")
    assert canonicalize(t) is t


def test_canonicalize_rejects_open_terms():
    with pytest.raises(OpenTermError):
        canonicalize(parse_term("a.X"))


def test_enumerate_terms_small():
    assert [render_term(t) for t in enumerate_terms({"a"}, 0, 1)] == ["0"]
    assert sorted(render_term(t) for t in enumerate_terms({"a"}, 1, 1)) == ["0", "a.0"]


def test_enumerate_terms_against_counting():
    # independent count: sums over the summand pool with width <= 2
    terms = list(enumerate_terms({"a", "b"}, 2, 2))
    depth1 = [t for t in enumerate_terms({"a", "b"}, 1, 2)]
    pool = 2 * len(depth1)
    from math import comb

    expected = 1 + comb(pool, 1) + comb(pool, 2)
    assert len(terms) == expected == 37
    assert len(set(terms)) == len(terms)


def test_count_terms_matches_enumerate_terms():
    for alphabet in ("a", "ab", "abc"):
        for depth in range(3):
            for width in range(1, 4):
                n = count_terms(alphabet, depth, width, 1 << 21)
                assert n == len(list(enumerate_terms(set(alphabet), depth, width))), (alphabet, depth, width)
    assert count_terms("ab", 3, 2, 1 << 21) == 2776 == len(list(enumerate_terms({"a", "b"}, 3, 2)))
    assert count_terms("abc", 3, 2, 1 << 21) == 242_557
    assert count_terms("ab", 3, 3, 1 << 21) == 1_072_632
    # past the cap the count stops: depth 50 would have astronomically many digits
    assert count_terms("ab", 4, 2, 1 << 21) > 1 << 21
    assert 1 << 21 < count_terms("abcdefgh", 50, 8, 1 << 21) <= 1 << 22


def test_enumerate_terms_builds_deep_levels_in_a_loop():
    terms = list(enumerate_terms(("a",), 1500, 1))
    assert len(terms) == len(set(terms)) == 1501
    assert all(x < y for x, y in zip(terms, terms[1:]))


def test_enumerate_terms_exhaustive_powerset():
    # with width 8 every nonempty subset of the 8 summands appears
    terms = list(enumerate_terms({"a", "b"}, 2, 8))
    assert len(terms) == 256


def test_json_roundtrip(pool2):
    # a state table names each state once, parents first; it reads back to
    # the term itself, at any depth
    t = c("a.(b.0+c.0) + b.0")
    assert term_to_json(t) == {"root": 0, "states": [[["a", 1], ["b", 2]], [["b", 2], ["c", 2]], []]}
    assert term_to_json(c("0")) == {"root": 0, "states": [[]]}
    for t in pool2 + (c("a." * 2000 + "0"),):
        blob = json.dumps(term_to_json(t), sort_keys=True)
        assert canonicalize(term_from_json(json.loads(blob))) is t
    with pytest.raises(ValueError):
        term_from_json({"root": 0, "states": [[["a", 0]]]})


@st.composite
def raw_terms(draw, depth=3):
    if depth == 0:
        return Nil()
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Nil()
    if kind <= 2:
        return Prefix(draw(st.sampled_from("ab")), draw(raw_terms(depth=depth - 1)))
    return Choice(draw(raw_terms(depth=depth - 1)), draw(raw_terms(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(raw_terms())
def test_roundtrip_parse_render(t):
    assert canonicalize(parse_term(render_term(t))) is canonicalize(t)


@settings(max_examples=200, deadline=None)
@given(raw_terms())
def test_canonical_idempotent(t):
    ct = canonicalize(t)
    assert canonicalize(ct) is ct


def _nested_key(t):
    """The term order as a nested tuple of the whole tree: the oracle for
    ``CanonicalTerm.__lt__``.  Recursive, so for shallow terms only."""
    return tuple((a, _nested_key(body)) for a, body in t.summands)


def test_summand_order_is_total(pool2):
    assert len(set(pool2)) == len(pool2)
    assert sorted(pool2) == list(pool2) == sorted(reversed(pool2))
    assert not any(t < t for t in pool2)


def test_term_order_is_the_nested_key_order(pool2, random3):
    keys = {t: _nested_key(t) for t in pool2 + random3}
    for terms in (pool2, random3):
        for a in terms:
            for b in terms:
                assert (a < b) == (keys[a] < keys[b]), (a, b)


def test_interning_is_atomic_across_threads():
    """Threads that build the same new term, formula and branching
    observation at once get one object for each.  Bisimilarity is identity
    on canonical forms, so two objects for one term would be a wrong
    verdict."""
    from procsem.constraints import LocalObs
    from procsem.logic import TOP, Conj, Diamond, Neg
    from procsem.observations import BranchingObs
    from procsem.terms import NIL, prefix, sum_terms

    workers, rounds = 8, 200
    barrier = threading.Barrier(workers, timeout=60)
    label = LocalObs("U", None)
    leaf = BranchingObs(label, frozenset())
    built = [[] for _ in range(workers)]

    def build(out):
        for r in range(rounds):
            a, b = f"race{r}a", f"race{r}b"  # new actions, so new nodes
            barrier.wait()
            out.append((
                sum_terms(prefix(a, NIL), prefix(b, prefix(a, NIL))),
                Conj([Diamond(a, TOP), Neg(Diamond(b, TOP))]),
                BranchingObs(label, frozenset({(a, leaf), (b, leaf)})),
            ))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(len(out) == rounds for out in built)
    for r in range(rounds):
        for k in range(3):
            assert len({id(out[r][k]) for out in built}) == 1, (r, k)
