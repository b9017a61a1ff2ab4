"""Command-line front-end.

Exit codes: 0 relation holds / success, 1 relation fails (witness reported),
2 usage or parse error, 3 resource cap exceeded, 4 internal error (a one-line
message on stderr, no traceback), 141 the reader closed standard output
(128 + SIGPIPE, as a shell reports a process killed by a closed pipe).  With
--json all output is deterministic (sorted keys), and every JSON output is
flat: a term, a witness or the decorated traces at S name each state
once, in a ``terms.state_table``, and a refutation tree is a list of
nodes, so ``json.dumps`` prints any of them, however deep the terms.

Only the decide core is imported at start-up; each subcommand imports the
engine modules it uses (``logic``, ``axioms``, ``corpus``, and
``operational`` through ``preorders.engine``), so ``compare`` on the direct
engine and ``spectrum`` load none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import preorders
from .constraints import CONSTRAINTS
from .lts import transition_graph_dot
from .observations import (
    DEFAULT_WORLD_CAP,
    TruncationError,
    check_world_cap,
    enum_bgo,
    enum_complete_dbgo,
    enum_dbgo,
    enum_lgo,
    enum_possible_worlds,
)
from .spectrum import UncoveredSemanticsError, UnsupportedSemanticsError, parse_semantics
from .terms import (
    ACTION_RE,
    OpenTermError,
    ParseError,
    canonicalize,
    parse_term,
    render_term,
    term_to_json,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

# The most terms ``axioms check`` builds, counted before it builds any: the
# depth-3 pools over a, b (width 3, 1,072,632 terms) and a, b, c (width 2) fit.
AXIOM_POOL_CAP = 1 << 21


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


def _term(text: str):
    try:
        return canonicalize(parse_term(text))
    except (ParseError, OpenTermError) as exc:
        raise CliError(f"bad term {text!r}: {exc}", EXIT_USAGE) from exc


def _formula(text: str):
    from . import logic as logic_mod

    try:
        return logic_mod.parse_formula(text)
    except logic_mod.FormulaParseError as exc:
        raise CliError(f"bad formula {text!r}: {exc}", EXIT_USAGE) from exc


def _emit(args, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
        _pretty(payload)


def _named(value, prefix="s"):
    """An index into a payload's "states" (or, prefix "n", its "nodes") as
    plain text names it, a list of them as one line; other values as they are."""
    if isinstance(value, list):
        return "[" + ", ".join(str(_named(v, prefix)) for v in value) + "]"
    return f"{prefix}{value}" if type(value) is int else value


_LINES = {
    "states": lambda i, state: f"s{i} = " + (" + ".join(f"{a}.s{j}" for a, j in state) or "0"),
    "transitions": lambda i, t: f"s{t['from']} -{t['action']}-> s{t['to']}",
    "nodes": lambda i, node: f"n{i}: " + ", ".join(
        f"{k}: {_named(v, 'n' if k == 'responses' else 's')}" for k, v in node.items()
    ),
}


def _pretty(payload, indent="", named=False) -> None:
    """Indented text, one line per leaf, per state (``s3 = a.s4 + b.s5``),
    per transition (``s0 -a-> s3``) and per refutation node.  Inside a
    payload that carries a "states" table every integer names a state
    (``s3``).  Payloads are a few levels deep."""
    if isinstance(payload, list):
        for item in payload:
            _pretty(item, indent, named)
    elif not isinstance(payload, dict):
        print(f"{indent}{_named(payload) if named else payload}")
    else:
        named = named or "states" in payload
        for key, value in payload.items():
            if key in _LINES:
                value = [_LINES[key](i, entry) for i, entry in enumerate(value)]
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _pretty(value, indent + "  ", named)
            else:
                print(f"{indent}{key}: {_named(value) if named else value}")


def _cmd_compare(args) -> int:
    sem = parse_semantics(args.semantics)
    p, q = _term(args.p), _term(args.q)
    if args.engine == "direct" and args.cap is not None:
        message = "--cap applies to the observational and operational engines, not to direct"
        raise CliError(message, EXIT_USAGE)
    decider = preorders.engine(args.engine)
    try:
        verdict = decider(sem, p, q) if args.cap is None else decider(sem, p, q, args.cap)
        payload = verdict.to_json()  # reads the witness, which a world cap may stop
    except TruncationError as exc:  # a world, observation or saturation cap
        raise CliError(str(exc), EXIT_CAP) from exc
    _emit(args, payload)
    return EXIT_OK if verdict.holds else EXIT_FAILS


def _cmd_spectrum(args) -> int:
    p, q = _term(args.p), _term(args.q)
    matrix = preorders.spectrum_matrix(p, q)
    _emit(args, preorders.matrix_json(matrix))
    return EXIT_OK


def _cmd_lts(args) -> int:
    p = _term(args.p)
    if args.dot:
        print(transition_graph_dot(p))
        return EXIT_OK
    # transitions name their states by index into the encoding: the term prints once
    encoding = term_to_json(p)
    transitions = [{"from": 0, "action": a, "to": j} for a, j in encoding["states"][encoding["root"]]]
    _emit(args, {"term": render_term(p), "encoding": encoding, "transitions": transitions})
    return EXIT_OK


def _cmd_observe(args) -> int:
    p = _term(args.p)
    n = args.constraint
    truncated = False
    try:
        if args.kind == "lgo":
            payload = preorders.lgo_json(sorted(enum_lgo(n, p), key=lambda o: o.sort_key()))
        elif args.kind == "pw":
            check_world_cap(p)
            payload = {"observations": sorted(render_term(w) for w in enum_possible_worlds(p))}
        else:
            if args.kind == "cdbgo":
                check_world_cap(p)
                obs = enum_complete_dbgo(n, p)
            else:
                fn = enum_bgo if args.kind == "bgo" else enum_dbgo
                obs, truncated = fn(n, p, args.max_nodes, DEFAULT_WORLD_CAP)
            payload = {"observations": [repr(o) for o in sorted(obs, key=lambda o: (o.nodes, o))]}
    except TruncationError as exc:
        raise CliError(str(exc), EXIT_CAP) from exc
    _emit(args, {**payload, "truncated": truncated})
    return EXIT_OK


def _cmd_check_formula(args) -> int:
    from . import logic as logic_mod

    p = _term(args.p)
    f = _formula(args.formula)
    holds = logic_mod.sat(p, f)
    _emit(args, {"term": render_term(p), "formula": logic_mod.render_formula(f), "sat": holds})
    return EXIT_OK if holds else EXIT_FAILS


def _cmd_in_logic(args) -> int:
    from . import logic as logic_mod

    sem = parse_semantics(args.semantics)
    f = _formula(args.formula)
    alphabet = args.alphabet or logic_mod.formula_actions(f)
    member = logic_mod.in_sublogic(f, sem, alphabet)
    _emit(args, {"formula": logic_mod.render_formula(f), "semantics": str(sem), "member": member})
    return EXIT_OK if member else EXIT_FAILS


def _cmd_distinguish(args) -> int:
    from . import logic as logic_mod

    sem = parse_semantics(args.semantics)
    p, q = _term(args.p), _term(args.q)
    try:
        formula = logic_mod.distinguish(sem, p, q, args.alphabet)
    except ValueError as exc:  # an uncovered semantics, or actions the alphabet misses
        raise CliError(str(exc), EXIT_USAGE) from exc
    except TruncationError as exc:
        raise CliError(str(exc), EXIT_CAP) from exc
    if formula is None:
        _emit(args, {"holds": True, "formula": None})
        return EXIT_OK
    _emit(args, {"holds": False, "formula": logic_mod.render_formula(formula)})
    return EXIT_FAILS


def _cmd_axioms(args) -> int:
    from . import axioms as ax

    sem = parse_semantics(args.semantics)
    catalog = ax.axiom_catalog(sem, args.form)
    if args.axioms_command == "list":
        _emit(args, {"semantics": str(sem), "form": args.form, "axioms": [str(a) for a in catalog]})
        return EXIT_OK
    # check
    from .terms import count_terms, enumerate_terms

    alphabet = args.alphabet
    if count_terms(alphabet, args.depth, args.width, AXIOM_POOL_CAP) > AXIOM_POOL_CAP:
        message = (
            f"the pool of --depth {args.depth} and --width {args.width} over {len(alphabet)} actions"
            f" has more than {AXIOM_POOL_CAP} terms"
        )
        raise CliError(message, EXIT_CAP)
    pool = list(enumerate_terms(alphabet, args.depth, args.width))
    reports = []
    violated = False
    for axiom in catalog:
        rep = ax.check_soundness(
            axiom, sem, pool, sorted(alphabet), max_instances=args.max_instances
        )
        reports.append(rep.to_json())
        violated = violated or not rep.sound
    _emit(args, {"semantics": str(sem), "reports": reports})
    return EXIT_FAILS if violated else EXIT_OK


def _cmd_deter(args) -> int:
    from . import operational as op_mod

    p = _term(args.p)
    _emit(args, {"term": render_term(p), "deterministic_form": render_term(op_mod.deter(p))})
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from . import corpus as corpus_mod

    if args.path:
        try:
            with open(args.path) as handle:
                lines = [line for line in handle if line.strip()]
        except OSError as exc:
            raise CliError(f"cannot read corpus: {exc}", EXIT_USAGE) from exc
    else:
        lines = None
    try:
        report = corpus_mod.run_corpus(lines)
    except ValueError as exc:
        raise CliError(f"bad corpus row: {exc}", EXIT_USAGE) from exc
    _emit(args, report.to_json())
    return EXIT_OK if report.ok else EXIT_FAILS


def _alphabet_arg(text: str) -> frozenset:
    actions = text.split(",")
    bad = [a for a in actions if not ACTION_RE.fullmatch(a)]
    if bad:
        raise argparse.ArgumentTypeError(f"not an action: {bad[0]!r}")
    return frozenset(actions)


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def _natural_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output"
    )
    parser = argparse.ArgumentParser(
        prog="procsem",
        description="Decide process preorders and equivalences over finite choice-prefix terms.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    compare = add_parser("compare", help="decide one semantics for a term pair")
    compare.add_argument("--semantics", required=True)
    compare.add_argument(
        "--engine", choices=("direct", "observational", "operational"), default="direct"
    )
    compare.add_argument("--cap", type=_positive_int, default=None)
    compare.add_argument("p")
    compare.add_argument("q")
    compare.set_defaults(func=_cmd_compare)

    spectrum = add_parser("spectrum", help="full matrix over every semantics")
    spectrum.add_argument("p")
    spectrum.add_argument("q")
    spectrum.set_defaults(func=_cmd_spectrum)

    lts = add_parser("lts", help="transitions or DOT graph of a term")
    lts.add_argument("--dot", action="store_true")
    lts.add_argument("p")
    lts.set_defaults(func=_cmd_lts)

    observe = add_parser("observe", help="enumerate observations of a term")
    observe.add_argument("--kind", choices=("lgo", "bgo", "dbgo", "cdbgo", "pw"), required=True)
    observe.add_argument("--constraint", choices=CONSTRAINTS, default="I")
    observe.add_argument("--max-nodes", type=_positive_int, default=64)
    observe.add_argument("p")
    observe.set_defaults(func=_cmd_observe)

    check = add_parser("check-formula", help="satisfaction of a modal formula")
    check.add_argument("p")
    check.add_argument("formula")
    check.set_defaults(func=_cmd_check_formula)

    inlogic = add_parser("in-logic", help="grammar membership of a formula")
    inlogic.add_argument("--semantics", required=True)
    inlogic.add_argument("--alphabet", type=_alphabet_arg, default=None)
    inlogic.add_argument("formula")
    inlogic.set_defaults(func=_cmd_in_logic)

    dist = add_parser("distinguish", help="synthesize a separating formula")
    dist.add_argument("--semantics", required=True)
    dist.add_argument("--alphabet", type=_alphabet_arg, default=None)
    dist.add_argument("p")
    dist.add_argument("q")
    dist.set_defaults(func=_cmd_distinguish)

    ax = add_parser("axioms", help="axiom catalogs and soundness sweeps")
    ax_sub = ax.add_subparsers(dest="axioms_command", required=True)
    ax_list = ax_sub.add_parser("list", parents=[shared])
    ax_list.add_argument("--semantics", required=True)
    ax_list.add_argument("--form", choices=("order", "equivalence"), default="order")
    ax_list.set_defaults(func=_cmd_axioms)
    ax_check = ax_sub.add_parser("check", parents=[shared])
    ax_check.add_argument("--semantics", required=True)
    ax_check.add_argument("--form", choices=("order", "equivalence"), default="order")
    ax_check.add_argument("--depth", type=_natural_int, default=1)
    ax_check.add_argument("--width", type=_positive_int, default=2)
    ax_check.add_argument("--alphabet", type=_alphabet_arg, default="a,b")
    ax_check.add_argument("--max-instances", type=_positive_int, default=2000)
    ax_check.set_defaults(func=_cmd_axioms)

    deter = add_parser("deter", help="deterministic (trace-preserving) form")
    deter.add_argument("p")
    deter.set_defaults(func=_cmd_deter)

    corpus = add_parser("corpus", help="re-verify the frozen regression corpus")
    corpus.add_argument("path", nargs="?", default=None)
    corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (UnsupportedSemanticsError, UncoveredSemanticsError) as exc:
        # an unknown semantics, or a valid one that the pathway does not characterize
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away: silence the flush the interpreter makes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
