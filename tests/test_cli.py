import json
import os
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
        (("compare", "--engine", "observational", "--semantics", "RV", "a.0", "a.0"),
         "observational engine does not cover RV"),
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
    # without an interpreter frame per move.  Plain simulation (T) ends with
    # the b move q cannot answer, ready simulation with the offers {b}, {c}
    p, q = "a." * 600 + "b.0", "a." * 600 + "c.0"
    for sem, moves in (("T", 601), ("F", 600)):
        code, out, err = run(capsys, "--json", "compare", "--engine", "operational", "--semantics", sem, p, q)
        assert code == 1 and err == ""
        assert out.startswith('{"holds": false, "witness": {"action": "a"') and out.count('"kind": "move"') == moves
    code, out, err = run(capsys, "compare", "--engine", "operational", "--semantics", "R", p, q)
    assert code == 1 and err == "" and out.count("kind: move") == 600 and out.count("kind: constraint") == 1


def test_json_output_is_json_dumps(capsys):
    from procsem.cli import _dumps

    for payload in ({}, [], {"b": {}, "a": ['x"y', 2.5, None, True]}, {1: (2, "é")}, [[[]]]):
        assert _dumps(payload) == json.dumps(payload, sort_keys=True, ensure_ascii=False)
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
    chain = "a." * 700 + "0"
    for sem in ("S", "I:bf"):
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
    p, q = "a." * 900 + "0", "a." * 900 + "b.0"
    code, _, err = run(capsys, "--json", "compare", "--semantics", "B", p, q)
    assert code == 1 and err == ""
    replay_bisim_refutation(c(p), c(q), procsem.decide(procsem.parse_semantics("B"), c(p), c(q)).witness)


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


def test_closed_pipe_exit_141():
    # about 1 MB of output, far more than a pipe buffers
    term = "+".join("a." * k + "b.0" for k in range(1, 61))
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
    code3, _, _ = run(capsys, "in-logic", "--semantics", "F", "--alphabet", "a,b", "<a>~<b>T")
    assert code3 == 0
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
