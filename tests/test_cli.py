import hashlib
import itertools
import json
import os
import re
import shlex
import string
import subprocess
import sys
from pathlib import Path

from conftest import MANY_WORLDS, c, replay_bisim_refutation
import procsem
from procsem import cli
from procsem.cli import main
from procsem.corpus import default_corpus_path, run_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compare_holds(capsys):
    code, out, _ = run(capsys, "compare", "--semantics", "T", "a.(b.0+c.0)", "a.b.0+a.c.0")
    assert code == 0 and "True" in out


def test_compare_fails_with_witness(capsys):
    code, out, _ = run(
        capsys, "--json", "compare", "--semantics", "S", "a.(b.0+c.0)", "a.b.0+a.c.0"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False and payload["witness"]


def test_compare_engines_agree(capsys):
    for engine in ("direct", "observational", "operational"):
        code, _, _ = run(
            capsys, "compare", "--engine", engine, "--semantics", "F",
            "a.b.c.0+a.b.d.0", "a.(b.c.0+b.d.0)",
        )
        assert code == 0


def test_observational_ready_simulation_traces(capsys):
    # distinct S-equivalent states on the same trace: at S a decorated trace
    # is matched by mutual simulation of its labels, not by equal terms
    p = "a.0 + a.(a.0 + b.0) + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0"
    q = "a.0 + a.a.0 + a.(a.0 + b.0) + a.b.0 + b.0 + b.a.0 + b.(a.0 + b.0) + b.b.0"
    for engine in ("direct", "observational"):
        code, _, err = run(capsys, "compare", "--engine", engine, "--semantics", "S:l", p, q)
        assert code == 0 and err == "", engine


def test_refusals_name_no_supported_ids(capsys):
    # a valid id that a pathway does not characterize is not an unknown id
    for argv, message in (
        (("in-logic", "--semantics", "ER", "T"), "ER has no logical characterization"),
        (("distinguish", "--semantics", "I:bf", "a.0", "b.0"), "I:bf has no distinguishing formulas"),
        (("axioms", "list", "--semantics", "I:bf"), "I:bf is conjectured not to be finitely axiomatizable"),
        (("axioms", "list", "--semantics", "S:b"), "no axiomatization is known for 2S"),
        (("compare", "--engine", "observational", "--semantics", "I:bf", "a.0", "a.0"),
         "observational engine does not cover I:bf"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "compare", "--semantics", "T", "a..0", "0")
    assert code == 2 and "bad term" in err
    code2, _, err2 = run(capsys, "compare", "--semantics", "XXL", "a.0", "0")
    assert code2 == 2


def test_cap_exit_3(capsys):
    # the direct engine decides without enumerating worlds; only a witness,
    # which enumerates p's worlds, meets the world cap
    code, _, _ = run(capsys, "compare", "--semantics", "PW", MANY_WORLDS, MANY_WORLDS)
    assert code == 0
    fewer = MANY_WORLDS[: MANY_WORLDS.index(" + f.(")]
    # the world count is checked before any enumeration, on every engine
    for argv in (
        ("compare", "--semantics", "PW", MANY_WORLDS, fewer),
        ("--json", "compare", "--semantics", "UPW", MANY_WORLDS, fewer),
        ("distinguish", "--semantics", "PW", MANY_WORLDS, fewer),
        ("compare", "--engine", "observational", "--semantics", "PW", MANY_WORLDS, MANY_WORLDS),
        ("observe", "--kind", "cdbgo", MANY_WORLDS),
        ("observe", "--kind", "pw", MANY_WORLDS),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.count("\n") == 1 and "exceed the cap 65536" in err, argv
    six = "a.0 + a.b.0 + b.0 + b.c.0 + b.d.0"
    observational = ("compare", "--engine", "observational", "--semantics", "PW")
    code, _, err = run(capsys, *observational, "--cap", "5", six, six)
    assert code == 3 and "6 complete deterministic observations exceed the cap 5" in err
    code, _, _ = run(capsys, *observational, "--cap", "6", six, six)
    assert code == 0


def test_observe_stops_past_the_branching_cap(capsys):
    # 2^32 branching observations: enumeration stops at the cap, in a child
    # process, as the observations it builds stay interned
    wide = "a.(a.0+b.0+c.0) + a.(a.0+b.0) + b.(a.0+c.0) + c.(a.0+b.0+c.0+d.0)"
    env = dict(os.environ, PYTHONPATH=str(Path(procsem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "procsem.cli", "observe", "--kind", "bgo", wide],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == "" and proc.stderr.count("\n") == 1
    assert "more than 65536 branching observations within the node bound" in proc.stderr
    code, out, _ = run(capsys, "--json", "observe", "--kind", "bgo", "--max-nodes", "5", wide)
    assert code == 0 and len(json.loads(out)["observations"]) == 252
    code, out, _ = run(capsys, "--json", "observe", "--kind", "dbgo", wide)
    assert code == 0 and not json.loads(out)["truncated"]
    # the cost follows the term, not the node bound
    code, out, _ = run(capsys, "--json", "observe", "--kind", "bgo", "--max-nodes", "100000000", "a.b.0")
    assert code == 0 and len(json.loads(out)["observations"]) == 4
    # under U the three a-successors share children: 2^12 observations, not 2^20
    shared = "a.(a.0+b.0+c.0) + a.(a.0+c.0) + a.(a.0+c.0+d.0)"
    code, out, _ = run(capsys, "--json", "observe", "--kind", "bgo", "--constraint", "U", shared)
    assert code == 0 and len(json.loads(out)["observations"]) == 1 << 12


def test_deep_operational_refutation(capsys):
    # the refutation is about 600 moves deep: it is built and printed
    # without an interpreter frame per move, as a flat list of nodes over a
    # table that names each of the 1,203 states of p and q once.  Plain
    # simulation (T) ends with the b move q cannot answer, ready simulation
    # with the offers {b}, {c}
    p, q = "a." * 600 + "b.0", "a." * 600 + "c.0"
    for sem, moves in (("T", 601), ("F", 600)):
        code, out, err = run(capsys, "--json", "compare", "--engine", "operational", "--semantics", sem, p, q)
        assert code == 1 and err == ""
        assert out.startswith('{"holds": false, "witness": {"nodes": [{"action": "a"')
        witness = json.loads(out)["witness"]
        assert [node["kind"] for node in witness["nodes"]].count("move") == moves
        assert len(witness["nodes"]) == 601 and len(witness["states"]) == 1203
    code, out, err = run(capsys, "compare", "--engine", "operational", "--semantics", "R", p, q)
    assert code == 1 and err == "" and out.count("kind: move") == 600 and out.count("kind: constraint") == 1


def test_json_output_is_json_dumps(capsys):
    p, q = "a.(b.0+c.0)", "a.b.0+a.c.0"
    code, out, _ = run(capsys, "--json", "compare", "--semantics", "S", p, q)
    verdict = procsem.decide(procsem.parse_semantics("S"), c(p), c(q))
    assert code == 1 and out == json.dumps(verdict.to_json(), sort_keys=True, ensure_ascii=False) + "\n"


def test_cap_must_be_positive(capsys):
    p = "a.0+a.b.0"
    observational = ("compare", "--engine", "observational", "--semantics", "PW")
    code, _, err = run(capsys, *observational, "--cap", "1", p, p)
    assert code == 3 and "cap" in err
    code, out, err = run(capsys, "compare", "--semantics", "PW", "--cap", "1", p, p)
    assert code == 2 and out == "" and err.count("\n") == 1 and "not to direct" in err
    for cap in ("0", "-1", "x"):
        code, _, err = run(capsys, "compare", "--semantics", "PW", "--cap", cap, p, p)
        assert code == 2 and "positive integer" in err, cap
    check = ("axioms", "check", "--semantics", "F")
    for option, value, message in (
        ("--depth", "-1", "non-negative integer"),
        ("--width", "0", "positive integer"),
        ("--max-instances", "-1", "positive integer"),
        ("--max-instances", "0", "positive integer"),
    ):
        code, _, err = run(capsys, *check, option, value)
        assert code == 2 and message in err, option
    code, _, err = run(capsys, "observe", "--kind", "bgo", "--max-nodes", "0", "a.b.0")
    assert code == 2 and "positive integer" in err
    for alphabet in (",a", "a,b,1", "a,,b", "", "A"):
        for argv in (check, ("in-logic", "--semantics", "F", "<a>T"), ("distinguish", "--semantics", "F", "a.0", "b.0")):
            code, _, err = run(capsys, *argv, "--alphabet", alphabet)
            assert code == 2 and "not an action" in err, (argv, alphabet)
    for sem in ("RT", "F", "RS", "PW", "B", "T"):
        code, out, err = run(capsys, "distinguish", "--semantics", sem, "--alphabet", "a", "a.0", "a.b.0")
        assert code == 2 and out == "" and err == "error: the alphabet misses the actions b\n", sem


def test_compare_cap_reaches_operational_engine(capsys):
    w = "a.b.0 + a.c.0 + a.d.0 + a.e.0 + a.(b.0+c.0) + a.(d.0+e.0)"
    code, _, err = run(capsys, "compare", "--engine", "operational", "--semantics", "F", "--cap", "5", w, w)
    assert code == 3 and "cap" in err


def test_operational_cap_counts_the_simulator_only(capsys):
    # S7 saturates to 201 summands under M_F, but as the simulated side it
    # only makes its own moves
    s7 = " + ".join(f"a.({x}.0 + {y}.0)" for x, y in zip("bcdefgh", "cdefghi"))
    small = "a.b.0 + a.c.0"
    argv = ("compare", "--engine", "operational", "--semantics", "F", "--cap", "20")
    code, _, err = run(capsys, *argv, s7, small)
    assert code == 1 and err == ""
    code, out, err = run(capsys, *argv, small, s7)
    assert code == 3 and out == "" and "exceeded 20 summands" in err


def test_operational_engine_covers_every_axiomatized_layer(capsys):
    # each pair holds in the next coarser semantics and fails in this one
    for sem, p, q in (
        ("PF", "a.0", "a.0 + a.a.0"),
        ("IFT", "a.0", "a.0 + a.a.0"),
        ("T:meet", "a.0", "a.0 + a.a.0"),
        ("ER", "a.(a.0 + b.0)", "a.a.0 + a.b.0"),
        ("ECRT", "a.(a.0 + b.0)", "a.a.0 + a.b.0"),
        ("C:lf", "0", "a.0"),
    ):
        direct, _, _ = run(capsys, "compare", "--semantics", sem, p, q)
        code, _, err = run(capsys, "compare", "--engine", "operational", "--semantics", sem, p, q)
        assert code == direct == 1 and err == "", sem
    for sem in ("S", "PW", "SF", "I:bf", "C:l⊆", "B"):
        code, out, err = run(capsys, "compare", "--engine", "operational", "--semantics", sem, "a.0", "a.0")
        assert code == 2 and out == "" and err == f"error: operational engine does not cover {sem}\n", sem


def test_operational_engine_on_a_depth3_term(capsys):
    # the saturation of t has 32 summands; as a set of rewritten terms it
    # passes 1,000 states
    t = "a.0 + a.(a.(a.0 + c.0) + a.c.0) + a.(b.0 + b.(a.0 + c.0) + c.(b.0 + c.0))"
    code, _, _ = run(capsys, "compare", "--engine", "operational", "--semantics", "F", t, t)
    assert code == 0


def test_final_ready_on_a_full_depth3_term(capsys):
    # the bf cap message once needed a 2^{2^k}-digit integer and raised ValueError
    t1 = "a.0+b.0+c.0"
    t2 = "+".join(f"{x}.({t1})" for x in "abc")
    t3 = "+".join(f"{x}.({t2})" for x in "abc")
    code, _, _ = run(capsys, "compare", "--semantics", "I:bf", t3, t3)
    assert code == 0


def test_deep_chain(capsys):
    # the parser and canonicalizer read a chain of prefixes in a loop; these
    # ids decide on explicit stacks: the games, the trace game that gates
    # them all and, on its own, decides the U flavors, and at S:l⊆ and S:lf⊆
    # simulation (the ids that read trace tables or labels still recurse)
    chain = "a." * 3000 + "0"
    for sem in ("B", "2S", "S:db", "RS", "PW", "I:bf", "I:bf⊇", "CS", "C:db", "S", "UPW",
                "T", "U:l⊇", "U:lf", "U:lf⊇", "U:l⊆", "U:lf⊆", "U:join", "U:meet", "S:l⊆", "S:lf⊆"):
        code, _, _ = run(capsys, "compare", "--semantics", sem, chain, chain)
        assert code == 0, sem


def test_sum_of_deep_chains_with_a_common_prefix(capsys):
    # X and Y differ only in their last action, so ordering the summands of
    # X + Y walks the whole chain
    x, y = "a." * 498 + "a.0", "a." * 498 + "b.0"
    for sem in ("S", "RS", "B"):
        code, _, err = run(capsys, "compare", "--semantics", sem, f"{x} + {y}", x)
        assert code == 1 and err == "", sem


def test_deep_bisimulation_witness(capsys):
    # the witness prints its terms, so rendering them must not recurse either
    p, q = "a." * 1200 + "b.0", "a." * 1200 + "c.0"
    for sem in ("B", "S"):
        code, _, err = run(capsys, "--json", "compare", "--semantics", sem, p, q)
        assert code == 1 and err == "", sem
    replay_bisim_refutation(c(p), c(q), procsem.decide(procsem.parse_semantics("B"), c(p), c(q)).witness)


def test_extreme_inputs(capsys):
    """Every row answers with its verdict's exit code, and no traceback or
    internal error.  Trace inclusion is a game on an explicit stack, so T
    and a spectrum of two trace-incomparable chains answer.  Rows that wait
    on other work are not here yet: the 35 ids that read decorated-trace
    tables, completed traces or T labels (F, RT, CT, TS, ``T:db`` and the
    others past U but ``S:l⊆`` and ``S:lf⊆``) recurse once per level in
    ``_trace_table``, ``lts.completed_traces`` or ``lts.traces``, so a
    ``spectrum`` of trace-related chains does too;
    a refuted ``db`` cell builds its witness by the recursive
    ``enum_complete_dbgo``, ``distinguish --semantics B|S`` recurses over
    the refutation tree, and formulas 2,000 deep in ``~``, ``<a>`` and
    ``(`` recurse in the formula parser and in ``sat``."""
    chain = "a." * 2000 + "0"
    p, q = "a." * 2000 + "b.0", "a." * 2000 + "c.0"
    parentheses = "(" * 2000 + "a.0" + ")" * 2000
    wide = " + ".join(f"a.y{i}.0" for i in range(2000))
    rows = [
        (0, "--json", "lts", chain),
        (0, "lts", chain),
        *((1, "--json", "compare", "--semantics", sem, p, q) for sem in ("B", "S", "I:bf", "I:bf⊇")),
        (1, "compare", "--semantics", "B", p, q),
        (0, "spectrum", p, q),
        (0, "compare", "--semantics", "T", chain, chain),
        (0, "compare", "--semantics", "F", parentheses, "a.0"),
        (0, "spectrum", parentheses, "a.0"),
        (1, "compare", "--semantics", "T", wide, "a.0"),
        (1, "compare", "--semantics", "B", wide, "a.0"),
    ]
    for expected, *argv in rows:
        code, _, err = run(capsys, *argv)
        assert code == expected and "Traceback" not in err and "internal error" not in err, argv[:4]
    # the trace game refutes both directions, so no other game is played
    code, out, _ = run(capsys, "--json", "spectrum", p, q)
    assert code == 0 and set(json.loads(out).values()) == {"incomparable"}


def test_witness_output_is_linear_in_the_depth(capsys):
    # each state is named once and each (p, q) pair is one node, so twice
    # the depth prints about twice the bytes
    sizes = []
    for n in (1000, 2000):
        code, out, err = run(capsys, "--json", "compare", "--semantics", "B", "a." * n + "b.0", "a." * n + "c.0")
        assert code == 1 and err == ""
        sizes.append(len(out.encode()))
    assert sizes[1] < 1 << 20 and sizes[1] <= 2.1 * sizes[0], sizes


def test_deeply_nested_parentheses(capsys):
    code, out, err = run(capsys, "compare", "--semantics", "F", "(" * 3000 + "a.0" + ")" * 3000, "a.0")
    assert code == 0 and "True" in out and err == ""


def test_deep_and_shared_terms_build():
    from procsem.terms import NIL, prefix, sum_terms

    chain = NIL
    for _ in range(20_000):
        chain = prefix("a", chain)
    assert len(chain.summands) == 1
    # t(n+1) = a.t(n) + b.t(n): exponential as a tree, 61 distinct subterms
    t = NIL
    for _ in range(60):
        t = sum_terms(prefix("a", t), prefix("b", t))
    assert [a for a, _ in t.summands] == ["a", "b"]
    x, y = prefix("a", NIL), prefix("b", NIL)
    for _ in range(4_999):
        x, y = prefix("a", x), prefix("a", y)
    assert sum_terms(y, x).summands == x.summands + y.summands


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken\ndecider")

    monkeypatch.setattr(cli.preorders, "decide", broken)
    code, _, err = run(capsys, "compare", "--semantics", "T", "a.0", "a.0")
    assert code == 4
    assert err == "internal error: RuntimeError: broken decider\n"


def test_deeper_chain_never_exits_1(capsys):
    # the recursive parser gives up at depth 1,200: an internal error, not "fails"
    chain = "a." * 1200 + "0"
    code, _, err = run(capsys, "compare", "--semantics", "S", chain, chain)
    assert code in (0, 4)
    assert "Traceback" not in err and err.count("\n") <= 1


def test_wide_sum_answers(capsys):
    # the parser nests a sum's spine to the left, 999 levels deep here
    wide = " + ".join(f"a.y{i}.0" for i in range(1000))
    code, out, err = run(capsys, "compare", "--semantics", "T", wide, "a.0")
    assert code == 1 and "holds: False" in out and err == ""


def test_lts_json(capsys):
    code, out, _ = run(capsys, "--json", "lts", "a.b.0")
    assert code == 0
    assert json.loads(out) == {
        "encoding": {"root": 0, "states": [[["a", 1]], [["b", 2]], []]},
        "term": "a.b.0",
        "transitions": [{"action": "a", "from": 0, "to": 1}],
    }
    code, out, _ = run(capsys, "--json", "lts", "a.0 + b.c.0")
    assert code == 0
    # 0 is named once, although both summands reach it
    assert json.loads(out) == {
        "encoding": {"root": 0, "states": [[["a", 2], ["b", 1]], [["c", 2]], []]},
        "term": "a.0 + b.c.0",
        "transitions": [{"action": "a", "from": 0, "to": 2}, {"action": "b", "from": 0, "to": 1}],
    }


_P, _Q, _R = "a.b.0+a.c.0", "a.(b.0+c.0)", "a.(b.0+c.b.0)+a.c.0+b.0"

# (argv, exit code, stdout of `procsem --json argv`): the text itself when
# short, else "sha256:" and its digest.  Witnesses of every engine and kind
# are here, so a change in how any of them is rendered shows.
_PINNED_JSON = [
    (("compare", "--semantics", "RT", "a.b.0", "a.c.0"), 1,
     '{"holds": false, "witness": {"kind": "lgo", "semantics": "RT", "unmatched": [["a"], "a", ["b"]]}}\n'),
    (("compare", "--semantics", "RV", "a.b.0", "a.0+a.(b.0+c.0)"), 1,
     '{"holds": false, "witness": {"kind": "lgo", "revival_action": "b", "semantics": "RV", '
     '"unmatched": [["a"], "a", ["b"]]}}\n'),
    (("compare", "--semantics", "S", _Q, _P), 1,
     '{"holds": false, "witness": {"nodes": ['
     '{"action": "a", "after_p": 2, "kind": "move", "p": 0, "q": 1, "responses": [1, 2]}, '
     '{"action": "c", "after_p": 5, "kind": "move", "p": 2, "q": 3, "responses": []}, '
     '{"action": "b", "after_p": 5, "kind": "move", "p": 2, "q": 4, "responses": []}], '
     '"states": [[["a", 2]], [["a", 3], ["a", 4]], [["b", 5], ["c", 5]], [["b", 5]], [["c", 5]], []]}}\n'),
    (("compare", "--semantics", "B", _P, _Q), 1,
     '{"holds": false, "witness": {"nodes": ['
     '{"action": "a", "after_p": 2, "kind": "move", "p": 0, "q": 1, "responses": [1], "side": "left"}, '
     '{"action": "c", "after_p": 5, "kind": "move", "p": 2, "q": 4, "responses": [], "side": "right"}], '
     '"states": [[["a", 2], ["a", 3]], [["a", 4]], [["b", 5]], [["c", 5]], [["b", 5], ["c", 5]], []]}}\n'),
    (("compare", "--semantics", "S:lf", _P, _Q), 1,
     '{"holds": false, "witness": {"kind": "lgo", "semantics": "S:lf", '
     '"states": [[["a", 1], ["a", 2]], [["b", 3]], [["c", 3]], []], "unmatched": [0]}}\n'),
    (("compare", "--semantics", "PW", _Q, _P), 1,
     '{"holds": false, "witness": {"kind": "dbgo", "unmatched": '
     '"<frozenset({\'a\'}),{(a,<frozenset({\'b\', \'c\'}),{(b,<frozenset(),{}>),(c,<frozenset(),{}>)}>)}>"}}\n'),
    (("compare", "--semantics", "I:bf", _P, _Q), 1,
     '{"holds": false, "witness": {"kind": "bgo", "unmatched": "<frozenset({\'a\'}),{(a,<frozenset({\'b\'}),{}>)}>"}}\n'),
    (("compare", "--semantics", "PFT", _R, _P), 1,
     '{"holds": false, "witness": {"kind": "lgo", "semantics": "PFT", '
     '"unmatched": [["", "a", "ab", "ac", "acb", "b"]]}}\n'),
    (("compare", "--semantics", "ECRT", _R, _Q), 1,
     '{"holds": false, "witness": {"kind": "lgo", "semantics": "ECRT", "unmatched": [["a", "b"]]}}\n'),
    (("compare", "--engine", "observational", "--semantics", "RT", "a.b.0", "a.c.0"), 1,
     '{"holds": false, "witness": null}\n'),
    (("compare", "--engine", "operational", "--semantics", "PF", "a.0", "a.0+a.a.0"), 1,
     '{"holds": false, "witness": {"nodes": [{"constraint": "T", "kind": "constraint", "p": 1, "q": 0}], '
     '"states": [[["a", 2], ["a", 1]], [["a", 2]], []]}}\n'),
    (("compare", "--engine", "operational", "--semantics", "RT", _R, _Q), 1,
     '{"holds": false, "witness": {"nodes": [{"constraint": "I", "kind": "constraint", "p": 0, "q": 2}], '
     '"states": [[["a", 1], ["a", 4], ["b", 6]], [["b", 6], ["c", 3]], [["a", 5]], [["b", 6]], [["c", 6]], '
     '[["b", 6], ["c", 6]], []]}}\n'),
    (("spectrum", _P, _Q), 0, "sha256:97104bfa319fe416260cc67b2e38e20bba69ecdf271beed058b0c49f20aa4ce9"),
    (("spectrum", _R, _Q), 0, "sha256:929060a884d5e0225f8f568861fe306478d69fd9f29655172ab5cae6f0133a6b"),
    (("observe", "--kind", "lgo", _R), 0,
     "sha256:e4278ff7b1445d80bd4129e8d326c69e90ba88c52064e37d32976de24d5e9009"),
    (("observe", "--kind", "lgo", "--constraint", "T", _P), 0,
     "sha256:a3f2a9669467eea094ede1a71a5c78b3cf29f3de6c9ac40862b5ffa6ac73a667"),
    (("observe", "--kind", "lgo", "--constraint", "S", _P), 0,
     '{"observations": [[0], [0, "a", 1], [0, "a", 2], [0, "a", 1, "b", 3], [0, "a", 2, "c", 3]], '
     '"states": [[["a", 1], ["a", 2]], [["b", 3]], [["c", 3]], []], "truncated": false}\n'),
    (("observe", "--kind", "bgo", _R), 0,
     "sha256:050a5fc401a8b1c0fb45b593ad6f8e34ecce8f7a1afa2f677790d7fc4ee444ea"),
    (("observe", "--kind", "cdbgo", _R), 0,
     "sha256:fb9d641d8e6d32b7da1af74cad8967478cdc900ee53dd0d1ecd6d2c1d47c5d80"),
    (("observe", "--kind", "pw", _R), 0,
     '{"observations": ["a.(b.0 + c.b.0) + b.0", "a.c.0 + b.0"], "truncated": false}\n'),
    (("distinguish", "--semantics", "RV", "a.b.0", "a.0+a.(b.0+c.0)"), 1,
     '{"formula": "<a>(<b>T & ~<c>T)", "holds": false}\n'),
    (("distinguish", "--semantics", "PW", _Q, _P), 1, '{"formula": "<a>(<b>T & <c>T)", "holds": false}\n'),
    (("axioms", "list", "--semantics", "RV"), 0,
     "sha256:f9c64f25c4abfd651e5737afca01a16b2bdfe8e2c96f49f4bc8c389424c55ecb"),
    (("lts", _R), 0,
     '{"encoding": {"root": 0, "states": [[["a", 1], ["a", 3], ["b", 4]], [["b", 4], ["c", 2]], [["b", 4]], '
     '[["c", 4]], []]}, "term": "a.(b.0 + c.b.0) + a.c.0 + b.0", "transitions": ['
     '{"action": "a", "from": 0, "to": 1}, {"action": "a", "from": 0, "to": 3}, {"action": "b", "from": 0, "to": 4}]}\n'),
    (("deter", _R), 0,
     '{"deterministic_form": "a.(b.0 + c.b.0) + b.0", "term": "a.(b.0 + c.b.0) + a.c.0 + b.0"}\n'),
]


def test_json_outputs_are_pinned(capsys):
    for argv, pinned_code, pinned in _PINNED_JSON:
        code, out, err = run(capsys, "--json", *argv)
        if pinned.startswith("sha256:"):
            out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
        assert (code, out, err) == (pinned_code, pinned, ""), argv


def test_plain_decorated_traces_at_s_name_states(capsys):
    # the labels of an S decorated trace are terms: plain text names them
    # by the states of the one table printed beside them, as --json does
    code, out, err = run(capsys, "compare", "--semantics", "S:lf", _P, _Q)
    assert (code, out, err) == (1, "holds: False\nwitness:\n  kind: lgo\n  unmatched:\n    s0\n"
                                   "  semantics: S:lf\n  states:\n    s0 = a.s1 + a.s2\n    s1 = b.s3\n"
                                   "    s2 = c.s3\n    s3 = 0\n", "")
    code, out, err = run(capsys, "observe", "--kind", "lgo", "--constraint", "S", "a.b.0")
    assert (code, out, err) == (0, "observations:\n  s0\n  s0\n  a\n  s1\n  s0\n  a\n  s1\n  b\n  s2\n"
                                   "states:\n  s0 = a.s1\n  s1 = b.s2\n  s2 = 0\ntruncated: False\n", "")


def test_readme_examples_stay_true(capsys):
    # each "procsem" line of README's CLI section exits as its comment says
    # (0 where it says nothing), and each "$ procsem" example prints what
    # README shows below it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("## CLI")
    examples = []  # (command line, the output README shows or None)
    for kind, body in re.findall(r"```(\w+)\n(.*?)```", readme[start : readme.index("\n## ", start)], re.S):
        if kind == "sh":
            examples += [(line, None) for line in body.splitlines()]
        else:
            examples += [example.split("\n", 1) for example in body.split("$ ")[1:]]
    assert len(examples) >= 17
    for line, shown in examples:
        said = re.search(r"# exit (\d)", line)
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (int(said[1]) if said else 0, ""), line
        assert shown in (None, out), line


def test_closed_pipe_exit_141():
    # about 1 MB of output, far more than a pipe buffers, from a 112 KB
    # argument (one argument may hold 128 KB): lts of 14,000 distinct prefixes
    actions = ("".join(letters) for letters in itertools.product(string.ascii_lowercase, repeat=3))
    term = "+".join(f"a.{b}.0" for b in itertools.islice(actions, 14000))
    env = dict(os.environ, PYTHONPATH=str(Path(procsem.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "procsem.cli", "lts", term],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait() == 141
    assert b"Traceback" not in err


def test_spectrum_all_equal(capsys):
    code, out, _ = run(capsys, "--json", "spectrum", "a.b.0", "a.b.0")
    assert code == 0
    payload = json.loads(out)
    assert set(payload.values()) == {"≡"}


def test_json_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "--json", "spectrum", "a.(b.0+c.0)", "a.b.0+a.c.0")
        outs.add(out)
    assert len(outs) == 1
    # branching observations print offers and trace sets: the text must not
    # depend on the hash seed of the interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(procsem.__file__).parents[1]))
    commands = (
        ["--json", "compare", "--semantics", "T:db", "a.(a.0+b.0)+b.0", "a.0+b.0"],
        ["--json", "observe", "--kind", "cdbgo", "a.(a.0+b.0)+b.0"],
    )
    for argv in commands:
        outs = {
            subprocess.run(
                [sys.executable, "-m", "procsem.cli", *argv],
                capture_output=True, env=dict(env, PYTHONHASHSEED=seed), timeout=60,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(outs) == 1, argv


def test_plain_lts_names_transition_ends_as_the_encoding_does(capsys):
    code, out, err = run(capsys, "lts", "a.(b.0 + c.b.0) + a.c.0 + b.0")
    assert (code, err) == (0, "")
    assert out == (
        "term: a.(b.0 + c.b.0) + a.c.0 + b.0\n"
        "encoding:\n"
        "  root: s0\n"
        "  states:\n"
        "    s0 = a.s1 + a.s3 + b.s4\n"
        "    s1 = b.s4 + c.s2\n"
        "    s2 = b.s4\n"
        "    s3 = c.s4\n"
        "    s4 = 0\n"
        "transitions:\n"
        "  s0 -a-> s1\n"
        "  s0 -a-> s3\n"
        "  s0 -b-> s4\n"
    )


def test_observe_and_lts(capsys):
    code, out, _ = run(capsys, "--json", "observe", "--kind", "lgo", "--constraint", "I", "a.b.0")
    assert code == 0 and len(json.loads(out)["observations"]) == 3
    code2, out2, _ = run(capsys, "--json", "observe", "--kind", "pw", "a.b.0+a.c.0")
    assert json.loads(out2)["observations"] == ["a.b.0", "a.c.0"]
    code3, out3, _ = run(capsys, "lts", "--dot", "a.b.0")
    assert code3 == 0 and out3.startswith("digraph")


def test_check_formula_and_logic(capsys):
    code, _, _ = run(capsys, "check-formula", "a.(b.0+c.0)", "<a>(<b>T & <c>T)")
    assert code == 0
    code2, _, _ = run(capsys, "check-formula", "a.b.0+a.c.0", "<a>(<b>T & <c>T)")
    assert code2 == 1
    code3, out3, _ = run(capsys, "in-logic", "--semantics", "F", "--alphabet", "a,b", "<a>~<b>T")
    assert code3 == 0
    # without --alphabet the formula's own actions are the alphabet
    assert run(capsys, "in-logic", "--semantics", "F", "<a>~<b>T") == (code3, out3, "")
    code4, _, _ = run(capsys, "in-logic", "--semantics", "F", "--alphabet", "a,b", "<a><b>T & <a>T")
    assert code4 == 1


def test_distinguish_cli(capsys):
    code, out, _ = run(
        capsys, "--json", "distinguish", "--semantics", "RV", "a.b.0", "a.0+a.(b.0+c.0)"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["formula"]
    code2, out2, _ = run(capsys, "--json", "distinguish", "--semantics", "F", "a.b.0", "a.0+a.(b.0+c.0)")
    assert code2 == 0 and json.loads(out2)["formula"] is None


def test_axioms_cli(capsys):
    code, out, _ = run(capsys, "--json", "axioms", "list", "--semantics", "F")
    assert code == 0 and "ND^F" in out
    code2, out2, _ = run(
        capsys, "--json", "axioms", "check", "--semantics", "F", "--depth", "1", "--width", "2"
    )
    assert code2 == 0
    reports = json.loads(out2)["reports"]
    assert all(not r["violations"] for r in reports)
    code3, _, _ = run(capsys, "axioms", "list", "--semantics", "I:bf")
    assert code3 == 2


def test_axioms_check_counts_the_pool_first(capsys, monkeypatch):
    import procsem.terms

    enumerate_terms = procsem.terms.enumerate_terms

    def pool_upto_depth_3(alphabet, depth, width):
        assert depth <= 3, "a depth-4 pool was built"
        return enumerate_terms(alphabet, depth, width)

    monkeypatch.setattr(procsem.terms, "enumerate_terms", pool_upto_depth_3)
    check = ("axioms", "check", "--semantics", "F")
    # 15,415,129 terms: refused before one is built
    code, out, err = run(capsys, *check, "--depth", "4", "--alphabet", "a,b")
    assert (code, out) == (3, "") and err == (
        "error: the pool of --depth 4 and --width 2 over 2 actions has more than 2097152 terms\n"
    )
    code, out, err = run(capsys, *check, "--depth", "3", "--width", "3", "--alphabet", "a,b,c")
    assert (code, out) == (3, "") and "more than 2097152 terms" in err
    code, out, err = run(capsys, "--json", *check)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == (0, "a4bf6a695c1da804d9dff7c35d41462ecd38c113ca752d43fa0101f3f21da7c3", "")


def test_deter_cli(capsys):
    code, out, _ = run(capsys, "--json", "deter", "a.b.0+a.c.0")
    assert code == 0 and json.loads(out)["deterministic_form"] == "a.(b.0 + c.0)"


def test_corpus_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "--json", "corpus")
    assert code == 0 and json.loads(out)["mismatches"] == []
    code2, _, _ = run(capsys, "corpus", default_corpus_path())
    assert code2 == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name":"x","p":"a.0","q":"0","semantics":"T","expect":"eq","note":""}\n')
    code3, _, _ = run(capsys, "corpus", str(bad))
    assert code3 == 1
    code4, _, _ = run(capsys, "corpus", str(tmp_path / "missing.jsonl"))
    assert code4 == 2


def test_malformed_corpus_rows_exit_2(capsys, tmp_path):
    good = {"name": "x", "p": "a.0", "q": "a.0", "semantics": "F", "expect": "eq"}
    rows = [[1, 2], "row", {**good, "p": 5}, {**good, "semantics": ["F"]}, {**good, "expect": ["eq"]}]
    path = tmp_path / "rows.jsonl"
    for row in rows:
        path.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
        code, out, err = run(capsys, "corpus", str(path))
        assert (code, out) == (2, "") and err.startswith("error: bad corpus row: row 2: "), row


def test_corpus_module_ok():
    report = run_corpus()
    assert report.ok and report.rows >= 40


def test_exit_code_contract_over_pool(capsys):
    import random

    from procsem.preorders import holds
    from procsem.spectrum import SemanticsId
    from procsem.terms import enumerate_terms, render_term

    pool = list(enumerate_terms({"a", "b"}, 2, 4))
    rng = random.Random(42)
    for _ in range(25):
        p, q = rng.choice(pool), rng.choice(pool)
        code, _, _ = run(capsys, "compare", "--semantics", "F", render_term(p), render_term(q))
        assert code == (0 if holds(SemanticsId("I", "lf⊇"), p, q) else 1)
