"""The coverage table: which pathways characterize each semantics, read from
the pathways' own refusals, and the README's copy of it, which pins the
exact sets."""

from pathlib import Path

from procsem.cli import main
from procsem.preorders import PATHWAYS, coverage
from procsem.spectrum import supported_ids

README = Path(__file__).parents[1] / "README.md"

# the CLI command that reaches each pathway, on the pair (0, 0) or the formula T
COMMANDS = {
    "direct": ("compare", "--semantics", "{}", "0", "0"),
    "observational": ("compare", "--engine", "observational", "--semantics", "{}", "0", "0"),
    "operational": ("compare", "--engine", "operational", "--semantics", "{}", "0", "0"),
    "axioms": ("axioms", "list", "--semantics", "{}"),
    "logic": ("in-logic", "--semantics", "{}", "T"),
    "distinguish": ("distinguish", "--semantics", "{}", "0", "0"),
}


def test_coverage_counts():
    totals = {name: sum(name in coverage(sem) for sem in supported_ids()) for name in PATHWAYS}
    assert totals == {
        "direct": 56,
        "observational": 53,
        "operational": 36,
        "axioms": 42,
        "logic": 50,
        "distinguish": 50,
    }


def test_one_refusal_on_every_pathway(capsys):
    # coverage lets only UncoveredSemanticsError through, so no supported id
    # meets UnsupportedSemanticsError on any pathway; on the CLI a covered
    # pathway answers (0 lies below 0, T is in every grammar) and an
    # uncovered one refuses in one line, with no list of supported ids
    assert set(COMMANDS) == set(PATHWAYS)
    for sem in supported_ids():
        covered = coverage(sem)
        for name, argv in COMMANDS.items():
            code = main([arg.format(sem) for arg in argv])
            out, err = capsys.readouterr()
            if name in covered:
                assert code == 0 and err == "", (sem, name, err)
            else:
                assert code == 2 and out == "" and err.count("\n") == 1, (sem, name, err)
                assert str(sem) in err and "supported ids" not in err, (sem, name, err)


def coverage_table() -> str:
    """The README's Coverage table in Markdown, computed from ``coverage``:
    one row per supported id, its classic name first where it has one."""
    rows = {sem: coverage(sem) for sem in supported_ids()}
    lines = ["| semantics | " + " | ".join(PATHWAYS) + " |", "|---" * (len(PATHWAYS) + 1) + "|"]
    for sem, covered in rows.items():
        generic = f"{sem.constraint}:{sem.flavor}"
        name = f"`{sem}`" if str(sem) == generic or sem.flavor == "bisim" else f"`{sem}` = `{generic}`"
        lines.append(f"| {name} | " + " | ".join("✓" if path in covered else "" for path in PATHWAYS) + " |")
    totals = (str(sum(path in covered for covered in rows.values())) for path in PATHWAYS)
    lines.append("| total | " + " | ".join(totals) + " |")
    return "\n".join(lines)


def test_readme_table_is_the_coverage():
    section = README.read_text(encoding="utf-8").split("\n## Coverage\n", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    expected = coverage_table()
    assert table == expected, f"the README's Coverage table is stale; paste this one:\n{expected}"
