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
from itertools import combinations
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
    "term_to_json",
    "term_from_json",
    "prefix",
    "sum_terms",
]

ACTION_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
VAR_RE = re.compile(r"[X-Z][A-Za-z0-9_]*")

Action = str


class Frozen:
    """Immutable values: ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Term(Frozen):
    """Base class for raw syntax trees."""

    __slots__ = ()


class Nil(Term):
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ or NotImplemented

    def __hash__(self):
        return hash(())

    def __repr__(self) -> str:
        return "Nil()"


class Prefix(Term):
    __slots__ = ("action", "body")

    def __init__(self, action: Action, body: Term):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.action, self.body) == (other.action, other.body)

    def __hash__(self):
        return hash((self.action, self.body))

    def __repr__(self) -> str:
        return f"Prefix({self.action!r}, {self.body!r})"


class Choice(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"Choice({self.left!r}, {self.right!r})"


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))

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
    yield from sorted(_terms_upto(tuple(actions), max_depth, max_width))


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
