from conftest import c, completed_traces
from procsem.lts import (
    initials,
    reachable,
    step,
    traces,
    transition_graph_dot,
)


def test_step_examples():
    assert step(c("0")) == ()
    assert step(c("a.(b.0+c.0)")) == (("a", c("b.0+c.0")),)
    assert set(step(c("a.b.0 + a.c.0"))) == {("a", c("b.0")), ("a", c("c.0"))}


def test_initials_examples():
    assert initials(c("0")) == frozenset()
    assert initials(c("a.0 + b.0")) == {"a", "b"}
    assert initials(c("a.(b.0+c.0)")) == {"a"}


def test_initials_compositional(pool2):
    from procsem.terms import prefix, sum_terms

    for p in pool2[:40]:
        for q in pool2[:40:3]:
            assert initials(sum_terms(p, q)) == initials(p) | initials(q)
        assert initials(prefix("a", p)) == {"a"}


def test_traces_examples():
    assert traces(c("0")) == {()}
    expected = {(), ("a",), ("a", "b"), ("a", "c")}
    assert traces(c("a.(b.0+c.0)")) == expected
    assert traces(c("a.b.0+a.c.0")) == expected


def test_completed_traces():
    assert completed_traces(c("a.0 + a.b.0")) == {("a",), ("a", "b")}
    assert completed_traces(c("0")) == {()}
    assert () not in completed_traces(c("a.0"))


def depth(p):
    return 1 + max((depth(q) for _, q in step(p)), default=-1)


def test_traces_prefix_closed(pool2):
    for p in pool2[:64]:
        ts = traces(p)
        assert () in ts
        for t in ts:
            assert t[:-1] in ts or not t
            assert len(t) <= depth(p)


def test_reachable_bounded(pool2):
    for p in pool2[:64]:
        states = reachable(p)
        assert states[0] is p
        # as terms.state_table numbers them: tallest first, then in DFS order
        assert states == tuple(sorted(_subsums(p), key=depth, reverse=True))
        # bounded by the number of distinct sub-sums plus nil
        assert len(states) <= sum(1 for _ in _subsums(p)) + 1


def _subsums(p, seen=None):
    if seen is None:
        seen = set()
    if p not in seen:
        seen.add(p)
        yield p
        for _, q in p.summands:
            yield from _subsums(q, seen)


def test_reachable_deep_chain():
    from procsem.terms import NIL, prefix

    states = [NIL]
    for _ in range(2000):
        states.append(prefix("a", states[-1]))
    assert reachable(states[-1]) == tuple(reversed(states))


def test_dot_export():
    dot = transition_graph_dot(c("a.(b.0+c.0)"))
    assert dot.startswith("digraph") and '"a.(b.0 + c.0)"' in dot and "-> n" in dot
