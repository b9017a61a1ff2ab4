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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

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
    "UnboundVariableError",
    "OpenTermError",
    "parse_term",
    "render_term",
    "canonicalize",
    "substitute",
    "free_variables",
    "term_depth",
    "enumerate_terms",
    "term_to_json",
    "term_from_json",
    "prefix",
    "sum_terms",
]

ACTION_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
VAR_RE = re.compile(r"[X-Z][A-Za-z0-9_]*")

Action = str


class Term:
    """Base class for raw syntax trees."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Nil(Term):
    def __repr__(self) -> str:
        return "Nil()"


@dataclass(frozen=True, slots=True)
class Prefix(Term):
    action: Action
    body: Term

    def __repr__(self) -> str:
        return f"Prefix({self.action!r}, {self.body!r})"


@dataclass(frozen=True, slots=True)
class Choice(Term):
    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"Choice({self.left!r}, {self.right!r})"


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class OpenTermError(ValueError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(f"open term; free variables: {', '.join(self.names)}")


class CanonicalTerm:
    """A closed term in ACI+unit normal form: a sorted tuple of summands.

    ``summands`` is a duplicate-free tuple of ``(action, CanonicalTerm)``
    pairs sorted by action name and then by the recursive order of bodies
    (nil least).  The empty tuple is the nil process.  Instances are interned:
    building the same normal form twice yields the same object, so equality
    and hashing are those of object identity.
    """

    __slots__ = ("summands", "key", "_depth")

    _interned: dict[tuple, "CanonicalTerm"] = {}

    def __new__(cls, summands: tuple[tuple[Action, "CanonicalTerm"], ...]):
        key = tuple((a, t.key) for a, t in summands)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self.summands = summands
        self.key = key
        self._depth = 1 + max((t._depth for _, t in summands), default=-1)
        cls._interned[key] = self
        return self

    def __lt__(self, other: "CanonicalTerm") -> bool:
        return self.key < other.key

    def __le__(self, other: "CanonicalTerm") -> bool:
        return self is other or self.key < other.key

    @property
    def depth(self) -> int:
        return self._depth

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


class _Parser:
    """Recursive-descent parser for the external grammar.

    term := sum ; sum := prefix ("+" prefix)* ;
    prefix := "0" | action "." prefix | "(" sum ")" | var
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("empty input", 0, ("term",))
        term = self.parse_sum()
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"unexpected {self.text[self.pos]!r}", self.pos, ("'+'", "end of input")
            )
        return term

    def parse_sum(self) -> Term:
        term = self.parse_prefix()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "+":
                self.pos += 1
                term = Choice(term, self.parse_prefix())
            else:
                return term

    def parse_prefix(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos, ("'0'", "action", "'('", "variable"))
        ch = self.text[self.pos]
        if ch == "0":
            self.pos += 1
            return Nil()
        if ch == "(":
            self.pos += 1
            inner = self.parse_sum()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                raise ParseError("unbalanced parenthesis", self.pos, ("')'",))
            self.pos += 1
            return inner
        m = ACTION_RE.match(self.text, self.pos)
        if m:
            action = m.group()
            self.pos = m.end()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ".":
                raise ParseError("prefix needs '.'", self.pos, ("'.'",))
            self.pos += 1
            return Prefix(action, self.parse_prefix())
        m = VAR_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Var(m.group())
        raise ParseError(f"unexpected {ch!r}", self.pos, ("'0'", "action", "'('", "variable"))


def parse_term(text: str) -> Term:
    """Parse a term; raises ParseError with offset on bad input."""
    return _Parser(text).parse()


def _render_raw(term: Term) -> str:
    if isinstance(term, Nil):
        return "0"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Prefix):
        body = term.body
        if isinstance(body, Choice):
            return f"{term.action}.({_render_raw(body)})"
        return f"{term.action}.{_render_raw(body)}"
    if isinstance(term, Choice):
        return f"{_render_raw(term.left)} + {_render_raw(term.right)}"
    raise TypeError(f"not a term: {term!r}")


def render_term(term: Term | CanonicalTerm) -> str:
    """Deterministic concrete syntax; reparsing preserves the canonical form."""
    if isinstance(term, CanonicalTerm):
        if term.is_nil:
            return "0"
        parts = []
        for action, body in term.summands:
            if body.is_nil:
                parts.append(f"{action}.0")
            elif len(body.summands) == 1:
                parts.append(f"{action}.{render_term(body)}")
            else:
                parts.append(f"{action}.({render_term(body)})")
        return " + ".join(parts)
    return _render_raw(term)


def free_variables(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Prefix):
        return free_variables(term.body)
    if isinstance(term, Choice):
        return free_variables(term.left) | free_variables(term.right)
    return frozenset()


def canonicalize(term: Term | CanonicalTerm) -> CanonicalTerm:
    """ACI-flatten, erase nil summands, dedupe and sort.  Idempotent."""
    if isinstance(term, CanonicalTerm):
        return term
    names = free_variables(term)
    if names:
        raise OpenTermError(names)
    return _canon(term)


def _canon(term: Term) -> CanonicalTerm:
    if isinstance(term, Nil):
        return NIL
    if isinstance(term, Prefix):
        return prefix(term.action, _canon(term.body))
    if isinstance(term, Choice):
        return sum_terms(_canon(term.left), _canon(term.right))
    raise TypeError(f"cannot canonicalize {term!r}")


def substitute(term: Term, subst: Mapping[str, Term]) -> Term:
    """Apply a substitution; every variable of ``term`` must be bound."""
    if isinstance(term, Var):
        try:
            return subst[term.name]
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, Prefix):
        return Prefix(term.action, substitute(term.body, subst))
    if isinstance(term, Choice):
        return Choice(substitute(term.left, subst), substitute(term.right, subst))
    return term


def term_depth(term: Term | CanonicalTerm) -> int:
    if isinstance(term, CanonicalTerm):
        return term.depth
    if isinstance(term, (Nil, Var)):
        return 0
    if isinstance(term, Prefix):
        return 1 + term_depth(term.body)
    if isinstance(term, Choice):
        return max(term_depth(term.left), term_depth(term.right))
    raise TypeError(f"not a term: {term!r}")


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
    yield from sorted(_terms_upto(tuple(actions), max_depth, max_width), key=lambda t: t.key)


def _terms_upto(actions: tuple[Action, ...], depth: int, width: int) -> set[CanonicalTerm]:
    if depth == 0:
        return {NIL}
    bodies = _terms_upto(actions, depth - 1, width)
    pool = sorted(((a, t) for a in actions for t in bodies))
    out = {NIL}
    for size in range(1, min(width, len(pool)) + 1):
        for combo in combinations(pool, size):
            out.add(CanonicalTerm(tuple(combo)))
    return out


def term_to_json(term: Term | CanonicalTerm):
    """Stable JSON encoding: {"nil":true} | {"prefix":{...}} | {"sum":[...]}."""
    if isinstance(term, CanonicalTerm):
        if term.is_nil:
            return {"nil": True}
        if len(term.summands) == 1:
            a, body = term.summands[0]
            return {"prefix": {"a": a, "p": term_to_json(body)}}
        return {"sum": [{"prefix": {"a": a, "p": term_to_json(b)}} for a, b in term.summands]}
    if isinstance(term, Nil):
        return {"nil": True}
    if isinstance(term, Prefix):
        return {"prefix": {"a": term.action, "p": term_to_json(term.body)}}
    if isinstance(term, Choice):
        flat = []
        stack = [term]
        while stack:
            node = stack.pop()
            if isinstance(node, Choice):
                stack.append(node.right)
                stack.append(node.left)
            else:
                flat.append(term_to_json(node))
        return {"sum": flat}
    raise TypeError(f"not encodable: {term!r}")


def term_from_json(obj) -> Term:
    if "nil" in obj:
        return Nil()
    if "prefix" in obj:
        return Prefix(obj["prefix"]["a"], term_from_json(obj["prefix"]["p"]))
    if "sum" in obj:
        parts = [term_from_json(item) for item in obj["sum"]]
        term = parts[0]
        for part in parts[1:]:
            term = Choice(term, part)
        return term
    raise ValueError(f"not a term object: {obj!r}")
