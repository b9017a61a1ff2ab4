"""BCCSP terms: parsing, printing, canonical forms and substitution.

The term language has nil, action prefix and binary choice.  Open terms may
additionally contain variables (uppercase X/Y/Z identifiers); every decision
procedure in the package works on closed terms only, variables exist for the
axiom machinery.

Two representations coexist:

* ``Term`` is the raw syntax tree produced by the parser (``Nil``,
  ``Prefix``, ``Choice``, ``Var``).
* ``CanonicalTerm`` is the ACI+unit normal form: a duplicate-free, totally
  ordered tuple of prefix summands.  Canonical terms are hash-consed, so
  equality is identity and they can be used freely as dict keys.  Two closed
  terms get the same canonical form exactly when the four choice axioms
  (commutativity, associativity, idempotence, nil unit) prove them equal.

Terms and modal formulas share one parser and one printer, both in loops, and
``canonicalize`` builds a normal form on one stack of open sums, so inputs
and outputs of any depth take no recursion: ``parse_sums`` reads the shape
sum := operand (op operand)*, operand := unary* (atom | "(" sum ")"), over a
grammar's hooks, and ``render_pieces`` prints a node from the pieces
(strings, and nodes still to print) that a function gives for it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial, reduce
from itertools import combinations
from math import comb
from typing import Iterator

__all__ = [
    "Action",
    "Term",
    "Nil",
    "Prefix",
    "Choice",
    "Var",
    "CanonicalTerm",
    "NIL",
    "ParseError",
    "OpenTermError",
    "parse_term",
    "render_term",
    "canonicalize",
    "free_variables",
    "enumerate_terms",
    "count_terms",
    "state_table",
    "term_to_json",
    "term_from_json",
    "prefix",
    "sum_terms",
]

ACTION_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
VAR_RE = re.compile(r"[X-Z][A-Za-z0-9_]*")
SPACE_RE = re.compile(r"\s*")  # white space as str.isspace has it

Action = str


class Frozen:
    """Immutable values, mixed into a ``namedtuple``: equal only to values of
    their own class, hashed as the tuple of their fields."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Term(Frozen):
    """Base class for raw syntax trees."""

    __slots__ = ()


class Nil(Term, namedtuple("Nil", "")):
    __slots__ = ()


class Prefix(Term, namedtuple("Prefix", "action body")):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"Prefix({self.action!r}, {self.body!r})"


class Choice(Term, namedtuple("Choice", "left right")):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"Choice({self.left!r}, {self.right!r})"


class Var(Term, namedtuple("Var", "name")):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


# the sum of raw terms, nested to the left as the parser nests it
choices = partial(reduce, Choice)


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class OpenTermError(ValueError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(f"open term; free variables: {', '.join(self.names)}")


class CanonicalTerm:
    """A closed term in ACI+unit normal form: a sorted tuple of summands.

    ``summands`` is a duplicate-free tuple of ``(action, CanonicalTerm)``
    pairs sorted by the term order of ``__lt__``; the empty tuple is the nil
    process.  Instances are interned on ``summands`` itself: bodies are
    interned too, so a lookup hashes and compares the term's width, never
    its tree, and building the same normal form twice yields the same
    object, also in concurrent threads: a new node is built in full and
    stored with one ``dict.setdefault``.  Equality and hashing are those of
    object identity.
    """

    __slots__ = ("summands",)

    _interned: dict[tuple, "CanonicalTerm"] = {}

    def __new__(cls, summands: tuple[tuple[Action, "CanonicalTerm"], ...]):
        hit = cls._interned.get(summands)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.summands = summands
        return cls._interned.setdefault(summands, self)

    def __lt__(self, other: "CanonicalTerm") -> bool:
        """The term order: summands compared in turn, by action and then by
        body (nil least).  Only the first differing pair of bodies is ever
        entered, so a loop walks it."""
        x, y = self, other
        while x is not y:
            for (a, s), (b, t) in zip(x.summands, y.summands):
                if a != b:
                    return a < b
                if s is not t:
                    x, y = s, t
                    break
            else:
                return len(x.summands) < len(y.summands)
        return False

    @property
    def is_nil(self) -> bool:
        return not self.summands

    def __str__(self) -> str:
        return render_term(self)

    def __repr__(self) -> str:
        return f"<{render_term(self)}>"


NIL = CanonicalTerm(())


def prefix(action: Action, body: CanonicalTerm) -> CanonicalTerm:
    return CanonicalTerm(((action, body),))


def sum_terms(*parts: CanonicalTerm) -> CanonicalTerm:
    """Canonical sum of canonical terms (dedup + sort, nil summands vanish)."""
    pool = set()
    for part in parts:
        pool.update(part.summands)
    return CanonicalTerm(tuple(sorted(pool)))


def parse_sums(text: str, op: str, unary, atom, join, fail, end: str, starts: tuple = ()):
    """Read `text` as one sum, in loops, by the shape terms and formulas share:
    sum := operand (`op` operand)* ; operand := unary* (atom | "(" sum ")"),
    where `op` is one character.

    Past white space, ``unary(text, pos)`` reads one operator as (wrap, the
    position after it), where ``wrap(body)`` builds the operand around its
    body, and ``atom(text, pos)`` reads an atom as (node, the position after
    it); either gives None where `pos` starts no such token.  An operand is
    its atom wrapped by its operators from the inside out, and a sum is
    ``join`` of its operands.  An open group waits on a stack with its sum's
    operands so far and the operators before it, so nesting takes no
    recursion.  A syntax error is raised as ``fail(message, offset,
    expected)``: `end` is the message at an early end of input, and
    `starts` names what may start an operand.
    """
    pos, groups, operands, wraps = 0, [], [], []
    while True:
        pos = SPACE_RE.match(text, pos).end()
        if pos == len(text):
            raise fail(end, pos, starts)
        if read := unary(text, pos):
            wraps.append(read[0])
            pos = read[1]
        elif text[pos] == "(":
            groups.append((operands, wraps))
            pos, operands, wraps = pos + 1, [], []
        elif read := atom(text, pos):
            node, pos = read
            while True:  # close the operand, then each group it ends
                for wrap in reversed(wraps):
                    node = wrap(node)
                operands.append(node)
                pos = SPACE_RE.match(text, pos).end()
                if text.startswith(op, pos):
                    pos, wraps = pos + 1, []
                    break
                node = join(operands)
                if not groups:
                    if pos < len(text):
                        raise fail(f"unexpected {text[pos]!r}", pos, (f"'{op}'", "end of input"))
                    return node
                if not text.startswith(")", pos):
                    raise fail("unbalanced parenthesis", pos, ("')'",))
                pos += 1
                operands, wraps = groups.pop()
        else:
            raise fail(f"unexpected {text[pos]!r}", pos, starts)


def _prefix(text: str, pos: int):
    if m := ACTION_RE.match(text, pos):
        pos = SPACE_RE.match(text, m.end()).end()
        if not text.startswith(".", pos):
            raise ParseError("prefix needs '.'", pos, ("'.'",))
        return partial(Prefix, m.group()), pos + 1


def _nil_or_var(text: str, pos: int):
    if text[pos] == "0":
        return Nil(), pos + 1
    if m := VAR_RE.match(text, pos):
        return Var(m.group()), m.end()


def parse_term(text: str) -> Term:
    """Parse a term; raises ParseError with offset on bad input.

    term := sum ; sum := prefix ("+" prefix)* ;
    prefix := "0" | action "." prefix | "(" sum ")" | var
    """
    if not text.strip():
        raise ParseError("empty input", 0, ("term",))
    return parse_sums(
        text, "+", _prefix, atom=_nil_or_var, join=choices, fail=ParseError, end="unexpected end of input",
        starts=("'0'", "action", "'('", "variable"),
    )


def render_pieces(root, pieces) -> str:
    """The text of `root`, printed on a stack: ``pieces(node)`` gives a
    node's text as a sequence of strings and of nodes still to print, so
    deep nodes take no recursion."""
    out, todo = [], [root]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        else:
            todo += reversed(pieces(node))
    return "".join(out)


def _term_pieces(t: Term | CanonicalTerm):
    if isinstance(t, CanonicalTerm):
        out = [] if t.summands else ["0"]
        for k, (action, body) in enumerate(t.summands):
            head = f"{' + ' if k else ''}{action}."
            out += (head + "(", body, ")") if len(body.summands) > 1 else (head, body)
        return out
    if isinstance(t, Prefix):
        return (f"{t.action}.(", t.body, ")") if isinstance(t.body, Choice) else (f"{t.action}.", t.body)
    if isinstance(t, Choice):
        return t.left, " + ", t.right
    if isinstance(t, Nil):
        return ("0",)
    if isinstance(t, Var):
        return (t.name,)
    raise TypeError(f"not a term: {t!r}")


def render_term(term: Term | CanonicalTerm) -> str:
    """Deterministic concrete syntax; reparsing preserves the canonical form."""
    return render_pieces(term, _term_pieces)


def free_variables(term: Term) -> frozenset[str]:
    names = set()
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            names.add(t.name)
        elif isinstance(t, Prefix):
            todo.append(t.body)
        elif isinstance(t, Choice):
            todo += (t.left, t.right)
    return frozenset(names)


def canonicalize(term: Term | CanonicalTerm) -> CanonicalTerm:
    """ACI-flatten, erase nil summands, dedupe and sort.  Idempotent.

    One stack holds the open sums, each as (its prefix's action, operands
    still to read, summands read): a prefix opens a sum for its body, a
    sum's spine flattens into operands, and a closed sum is sorted once."""
    if isinstance(term, CanonicalTerm):
        return term
    names = free_variables(term)
    if names:
        raise OpenTermError(names)
    sums = [(None, [term], set())]
    while True:
        action, todo, pool = sums[-1]
        if todo:
            t = todo.pop()
            if isinstance(t, Choice):
                todo += (t.right, t.left)
            elif isinstance(t, Prefix):
                sums.append((t.action, [t.body], set()))
            elif not isinstance(t, Nil):
                raise TypeError(f"cannot canonicalize {t!r}")
        else:
            sums.pop()
            out = CanonicalTerm(tuple(sorted(pool)))
            if not sums:
                return out
            sums[-1][2].add((action, out))


def enumerate_terms(
    alphabet: frozenset[Action] | set[Action] | tuple[Action, ...],
    max_depth: int,
    max_width: int,
) -> Iterator[CanonicalTerm]:
    """Yield every canonical closed term of depth <= max_depth, each once.

    ``max_width`` bounds the number of summands per sum.  Emission order is
    the canonical term order, so the stream is deterministic.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    actions = sorted(set(alphabet))
    if not actions:
        raise ValueError("alphabet must be nonempty")
    yield from _terms_upto(actions, max_depth, max_width)


def count_terms(alphabet, max_depth: int, max_width: int, cap: int) -> int:
    """How many terms ``enumerate_terms`` yields, counted without building
    one: n_0 = 1 and n_d = sum over k <= max_width of C(|alphabet| * n_{d-1}, k).
    Counting stops at the first sum past `cap`, which it returns, so a doubly
    exponential pool is never counted out."""
    count = 1
    for _ in range(max_depth):
        pool, count = len(set(alphabet)) * count, 0
        for k in range(min(max_width, pool) + 1):
            count += comb(pool, k)
            if count > cap:
                return count
    return count


def _terms_upto(actions: list[Action], depth: int, width: int) -> list[CanonicalTerm]:
    """The terms of depth <= `depth` in term order, built level by level.
    Each level's summand pool is sorted, as `actions` and the level below
    are, so the term order is the order of the index tuples of the summands."""
    terms = [NIL]
    for _ in range(depth):
        pool = [(a, t) for a in actions for t in terms]
        picks = range(len(pool))
        combos = sorted(c for size in range(min(width, len(pool)) + 1) for c in combinations(picks, size))
        terms = [CanonicalTerm(tuple(pool[i] for i in combo)) for combo in combos]
    return terms


def state_table(*roots: CanonicalTerm) -> tuple[list, dict]:
    """(states, index): every state the roots reach, once, parents first:
    tallest first (height: the longest path down to 0), then in order of
    discovery, so each summand names a larger index.  A state lists its
    ``[action, index]`` pairs (nil: []); `index` numbers the states."""
    found, height, todo = {}, {}, list(reversed(roots))
    while todo:
        t = todo[-1]
        found.setdefault(t, len(found))
        missing = [body for _, body in reversed(t.summands) if body not in height]
        if not missing:
            todo.pop()
            height[t] = max((height[body] + 1 for _, body in t.summands), default=0)
        else:
            todo += missing
    order = sorted(found, key=lambda t: (-height[t], found[t]))
    index = {t: i for i, t in enumerate(order)}
    return [[[a, index[body]] for a, body in t.summands] for t in order], index


def term_to_json(term: CanonicalTerm) -> dict:
    """Stable JSON encoding of a canonical term over its ``state_table``,
    whose only tallest state is the term; ``term_from_json`` reads it back."""
    return {"root": 0, "states": state_table(term)[0]}


def term_from_json(obj) -> CanonicalTerm:
    """The canonical term a state table encodes, built from its last state
    back: each summand names a later state, so it is built first."""
    states, built = obj["states"], {}
    for i in reversed(range(len(states))):
        if not all(i < j < len(states) for _, j in states[i]):
            raise ValueError(f"state {i} names a state that does not follow it")
        built[i] = sum_terms(*(prefix(a, built[j]) for a, j in states[i]))
    return built[obj["root"]]
