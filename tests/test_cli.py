import json

from conftest import MANY_WORLDS
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


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "compare", "--semantics", "T", "a..0", "0")
    assert code == 2 and "bad term" in err
    code2, _, err2 = run(capsys, "compare", "--semantics", "XXL", "a.0", "0")
    assert code2 == 2


def test_cap_exit_3(capsys):
    code, _, err = run(capsys, "compare", "--semantics", "PW", MANY_WORLDS, MANY_WORLDS)
    assert code == 3 and "cap" in err


def test_compare_cap_reaches_operational_engine(capsys):
    w = "a.b.0 + a.c.0 + a.d.0 + a.e.0 + a.(b.0+c.0) + a.(d.0+e.0)"
    code, _, err = run(capsys, "compare", "--engine", "operational", "--semantics", "F", "--cap", "5", w, w)
    assert code == 3 and "cap" in err


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

    from procsem.preorders import linear_holds
    from procsem.terms import enumerate_terms, render_term

    pool = list(enumerate_terms({"a", "b"}, 2, 4))
    rng = random.Random(42)
    for _ in range(25):
        p, q = rng.choice(pool), rng.choice(pool)
        code, _, _ = run(capsys, "compare", "--semantics", "F", render_term(p), render_term(q))
        assert code == (0 if linear_holds("I", "lf⊇", p, q) else 1)
