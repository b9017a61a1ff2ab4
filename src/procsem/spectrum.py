"""Identifiers for the points of the extended spectrum.

A semantics is a (constraint, flavor) pair.  Flavors:

* ``bisim``      - bisimilarity (constraint-independent)
* ``b``          - constrained simulation (the branching backbone)
* ``db``         - deterministic-branching (possible-worlds style)
* ``bf``/``bf⊇`` - final-ready / final-failure branching (constraint I only)
* ``l``/``l⊇``/``lf``/``lf⊇`` - the linear diamond (ready-trace, failure-trace,
  readiness, failures when the constraint is I)
* ``l⊆``/``lf⊆`` - partial offer traces / partial offers
* ``join``/``meet`` - lattice completion of the diamond (revivals = meet at I)
* ``ER``/``ERT``/``ECR``/``ECRT`` - the extended-ready family

Classic one-word names (F, RT, PW, RV, ...) are accepted everywhere; so is
the generic ``N:flavor`` syntax with ASCII fallbacks for the set symbols.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import pairwise

from .terms import Frozen

__all__ = [
    "SemanticsId",
    "LINEAR_RULES",
    "linear_rule",
    "RELATION_PARTS",
    "REDUCTIONS",
    "parse_semantics",
    "supported_ids",
    "classic_name",
    "CLASSIC_NAMES",
    "SPECTRUM_ARROWS",
    "BRACKETS",
    "UnsupportedSemanticsError",
    "UncoveredSemanticsError",
]

LINEAR_FLAVORS = ("l", "l⊇", "lf", "lf⊇", "l⊆", "lf⊆", "join", "meet")
_EXTENDED_READY = ("ER", "ERT", "ECR", "ECRT")

# The matching rules of the linear and extended-ready flavors on decorated
# traces (van Glabbeek 2001): flavor -> (relation on the labels before the
# last, None when only the last counts; relation on the last label).  A
# relation holds of a label x of p and y of q: "eq" (x N y), "geq" (x
# dominates y), "leq" (y dominates x), "complete" (leq, and an empty offer
# only by an empty one), or "meet", on all of q's finals on the trace: some
# lie below x, and their union covers x.
LINEAR_RULES = {
    "l": ("eq", "eq"),
    "l⊇": ("geq", "geq"),
    "l⊆": ("leq", "leq"),
    "join": ("geq", "eq"),
    "lf": (None, "eq"),
    "lf⊇": (None, "geq"),
    "lf⊆": (None, "leq"),
    "meet": (None, "meet"),
    "ER": (None, "leq"),
    "ERT": ("leq", "leq"),
    "ECR": (None, "complete"),
    "ECRT": ("complete", "complete"),
}
# The flavors of one layer, in the order of ``supported_ids()``.
_LAYER_FLAVORS = ("b", "db", "bf", "bf⊇") + LINEAR_FLAVORS
ALL_FLAVORS = ("bisim",) + _LAYER_FLAVORS + _EXTENDED_READY

# The layers, finest constraint first.  A flavor lives at all five, unless
# ``_PLACES`` names where it lives and why it lives nowhere else.
_LAYERS = ("S", "T", "I", "C", "U")
_PLACES = {
    "bisim": (("B",), "bisimilarity takes no constraint"),
    "bf": (("I",), "final-ready/final-failure branching exist only at constraint I"),
    "bf⊇": (("I",), "final-ready/final-failure branching exist only at constraint I"),
    "meet": (("T", "I", "C", "U"), "no meet at constraint S: the union of simulation classes is not a class"),
    "ER": (("U",), "extended ready semantics live at constraint U"),
    "ERT": (("U",), "extended ready semantics live at constraint U"),
    "ECR": (("C",), "extended complete ready semantics live at constraint C"),
    "ECRT": (("C",), "extended complete ready semantics live at constraint C"),
}


def linear_rule(constraint: str, flavor: str) -> tuple[str, tuple | None]:
    """(constraint whose labels are compared, rule) of a flavor named at
    `constraint`: the extended-ready family compares offers (I), and meet at
    U and C is lf, as a union of unit or termination values is one of them.
    A flavor with no linear rule compares `constraint`'s labels, by None."""
    if flavor in _EXTENDED_READY:
        return "I", LINEAR_RULES[flavor]
    if flavor == "meet" and constraint in ("U", "C"):
        return constraint, LINEAR_RULES["lf"]
    return constraint, LINEAR_RULES.get(flavor)


_ASCII_FLAVOR = {
    "l>=": "l⊇",
    "lf>=": "lf⊇",
    "l<=": "l⊆",
    "lf<=": "lf⊆",
    "bf>=": "bf⊇",
}


class UnsupportedSemanticsError(ValueError):
    """An id that names no point of the spectrum."""

    def __init__(self, message: str):
        super().__init__(message + f"; supported ids: {', '.join(sorted(CLASSIC_NAMES))} or N:flavor")


class UncoveredSemanticsError(ValueError):
    """A valid id that a pathway does not characterize: an engine with no
    decider, no axiom catalog, no grammar or no distinguishing formulas for
    it.  Each pathway raises it in one place, and ``preorders.coverage``
    reads it."""


class SemanticsId(Frozen, namedtuple("SemanticsId", "constraint flavor")):
    """One point of the spectrum: a (constraint, flavor) pair, checked when built."""

    __slots__ = ()

    def __new__(cls, constraint: str, flavor: str):
        if flavor not in ALL_FLAVORS:
            raise UnsupportedSemanticsError(f"unknown flavor {flavor!r}")
        places, why = _PLACES.get(flavor, (_LAYERS, None))
        if constraint not in places:
            # bisimilarity refuses every constraint; a layer flavor first refuses one that is no layer
            if constraint not in _LAYERS and flavor != "bisim":
                why = f"unknown constraint {constraint!r}"
            raise UnsupportedSemanticsError(why)
        return super().__new__(cls, constraint, flavor)

    def __str__(self) -> str:
        name = classic_name(self)
        return name if name else f"{self.constraint}:{self.flavor}"


# Every point of the spectrum: bisimilarity; the flavors that live at each
# layer, layer by layer; the extended-ready ids.
_SUPPORTED_IDS = tuple(
    SemanticsId(n, f)
    for n, f in (
        *((n, "bisim") for n in _PLACES["bisim"][0]),
        *((n, f) for n in _LAYERS for f in _LAYER_FLAVORS),
        *((n, f) for f in _EXTENDED_READY for n in _PLACES[f][0]),
    )
    if n in _PLACES.get(f, (_LAYERS,))[0]
)
# The grid objects by (constraint, flavor): every id in the tables below is
# one of them, so a lookup keyed by an id hits on identity.
_ID = {(sem.constraint, sem.flavor): sem for sem in _SUPPORTED_IDS}
BISIM = _ID["B", "bisim"]

# Classic names from the literature for points of the spectrum.
CLASSIC_NAMES: dict[str, SemanticsId] = {
    "B": BISIM,
    "S": _ID["U", "b"],
    "CS": _ID["C", "b"],
    "RS": _ID["I", "b"],
    "TS": _ID["T", "b"],
    "2S": _ID["S", "b"],
    "T": _ID["U", "l"],
    "CT": _ID["C", "l"],
    "RT": _ID["I", "l"],
    "FT": _ID["I", "l⊇"],
    "R": _ID["I", "lf"],
    "F": _ID["I", "lf⊇"],
    "PW": _ID["I", "db"],
    "UPW": _ID["U", "db"],
    "PF": _ID["T", "lf"],
    "IF": _ID["T", "lf⊇"],
    "PFT": _ID["T", "l"],
    "IFT": _ID["T", "l⊇"],
    "SF": _ID["S", "lf⊇"],
    "RV": _ID["I", "meet"],
    "JOIN": _ID["I", "join"],
    "ER": _ID["U", "ER"],
    "ERT": _ID["U", "ERT"],
    "ECR": _ID["C", "ECR"],
    "ECRT": _ID["C", "ECRT"],
}

_BY_ID = {v: k for k, v in reversed(list(CLASSIC_NAMES.items()))}


def classic_name(sem: SemanticsId) -> str | None:
    return _BY_ID.get(sem)


def parse_semantics(text: str) -> SemanticsId:
    token = text.strip()
    if token in CLASSIC_NAMES:
        return CLASSIC_NAMES[token]
    if ":" in token:
        constraint, flavor = (part.strip() for part in token.split(":", 1))
        flavor = _ASCII_FLAVOR.get(flavor, flavor)
        # the grid object, or the constructor's refusal
        return _ID.get((constraint, flavor)) or SemanticsId(constraint, flavor)
    raise UnsupportedSemanticsError(f"unknown semantics {text!r}")


def supported_ids() -> tuple[SemanticsId, ...]:
    """Every decidable point of the spectrum, deterministic order."""
    return _SUPPORTED_IDS


# The parts of each relation of ``LINEAR_RULES``: its pin mode in ``logic``'s
# grammars (None: no pin realizes it), the merge rule it asks of the last label
# ("": none) and the relations it implies.  ``logic``'s linear grammar rows,
# ``REDUCTIONS`` and the linear arrows are derived from them.  By hand: meet's
# merge rule, as R∨FT is no conjunction of parts; l⊇ -> meet, as its argument
# reads past the last label: matching the trace extended by each action of the
# last offer gives finals below that offer which cover it.
RELATION_PARTS = {
    None: (None, "", (None,)),
    "eq": ("eq", "R", (None, "eq", "geq", "leq", "complete", "meet")),
    "geq": ("neg", "", (None, "geq")),
    "leq": ("pos", "R", (None, "leq")),
    "complete": (None, "R", (None, "leq", "complete")),
    "meet": ("rev", "R∨FT", (None, "geq", "meet")),
}


def _reduction(constraint: str, flavor: str) -> tuple[str, str]:
    """(N, M) of an id whose rule compares I's or T's labels.  A prefix
    relation that asks R asks RT, which absorbs R, else FT; N is U for a leq
    final and C for a complete final, as the simulation axiom then asks what
    the last label does."""
    layer, (prefix, final) = linear_rule(constraint, flavor)
    merge = RELATION_PARTS[final][1]
    if prefix is not None:
        head = "RT" if RELATION_PARTS[prefix][1] else "FT"
        merge = f"{merge}∧{head}" if merge and head == "FT" else head
    n = {"leq": "U", "complete": "C"}.get(final, constraint)
    return n, {"I": "M_", "T": "M_T-"}[layer] + (merge or "F")


# sem -> (N, M) for every family that the choice axioms, a simulation axiom
# with constraint N and a reduction axiom with condition M (an
# ``operational.CONDITIONS`` name) axiomatize (arXiv 1304.6574); the operational
# engine decides sem as N-simulation up to M-saturation.  By hand: at U and C
# every linear flavor collapses to (completed) traces, where every merge is sound.
REDUCTIONS: dict[SemanticsId, tuple[str, str]] = {
    **{sem: _reduction(*sem) for sem in _SUPPORTED_IDS
       if sem.flavor in LINEAR_RULES and linear_rule(*sem)[0] in ("T", "I")},
    **{_ID[n, f]: (n, "M_F") for n in ("U", "C") for f in LINEAR_FLAVORS},
}


def _linear_arrows(layer: str) -> list:
    """The finer -> coarser edges among the ids whose rules compare `layer`'s
    labels, but those with an id strictly between their ends: a rule is finer
    than another when each of its parts implies the other's."""
    ids = [sem for sem in _SUPPORTED_IDS if sem.flavor in LINEAR_RULES and linear_rule(*sem)[0] == layer]
    below = {(s, t) for s in ids for t in ids if s is not t and (
        (s.flavor, t.flavor) == ("l⊇", "meet")
        or all(y in RELATION_PARTS[x][2] for x, y in zip(LINEAR_RULES[s.flavor], LINEAR_RULES[t.flavor])))}
    strict = below - {(t, s) for s, t in below}
    return [(s, t) for s in ids for t in ids if (s, t) in below
            and not any((s, m) in strict and (m, t) in strict for m in ids)]


# The finer -> coarser edges, layers by constraint fineness: S, T, I, C, U.  By
# hand, as no relation's parts state them: b -> db -> l, RS -> I:bf -> R (an
# I-simulation answers the cover game, which asks for every ready pair of p),
# and the vertical arrows.
SPECTRUM_ARROWS: tuple[tuple[SemanticsId, SemanticsId], ...] = (
    # bisimilarity, then b from layer to layer
    *pairwise((BISIM, *(_ID[n, "b"] for n in _LAYERS))),
    *(edge for n in _LAYERS for edge in (*pairwise(_ID[n, f] for f in ("b", "db", "l")), *_linear_arrows(n))),
    *pairwise(_ID["I", f] for f in ("b", "bf", "lf")),
    # vertical arrows between consecutive layers, flavor by flavor
    *((_ID[m, f], _ID[n, f]) for m, n in pairwise(_LAYERS) for f in ("db", "l", "l⊇", "lf", "lf⊇")),
)

# The brackets that the arrows put around a game: id -> (ids whose holding
# makes it hold, ids whose refutation refutes it), each a path of
# SPECTRUM_ARROWS.  SF -> IF settles S's mask game, as every id that reads
# that game lies below SF; N:b -> M:b to the next coarser layer M, N:b -> N:db
# -> N:l within a layer, and RS -> I:bf -> R.  Each bracket names only ids
# whose game is bracketed before it or not at all, so SF comes before 2S,
# whose refuter S:l reads S's mask game.
BRACKETS: dict[SemanticsId, tuple[tuple[SemanticsId, ...], tuple[SemanticsId, ...]]] = {
    _ID["S", "lf⊇"]: ((), (_ID["T", "lf⊇"],)),
    **{_ID[n, "b"]: ((), (_ID[m, "b"], _ID[n, "l"])) for m, n in pairwise(reversed(_LAYERS))},
    **{_ID[n, "db"]: ((_ID[n, "b"],), (_ID[n, "l"],)) for n in _LAYERS},
    _ID["I", "bf"]: ((_ID["I", "b"],), (_ID["I", "lf"],)),
}
