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


def linear_rule(constraint: str, flavor: str) -> tuple[str, tuple]:
    """(constraint whose labels are compared, rule) of a flavor named at
    `constraint`: the extended-ready family compares offers (I), and meet at
    U and C is lf, as a union of unit or termination values is one of them."""
    if flavor in _EXTENDED_READY:
        return "I", LINEAR_RULES[flavor]
    if flavor == "meet" and constraint in ("U", "C"):
        return constraint, LINEAR_RULES["lf"]
    return constraint, LINEAR_RULES[flavor]


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
        constraint, flavor = token.split(":", 1)
        constraint, flavor = constraint.strip(), _ASCII_FLAVOR.get(flavor, flavor).strip()
        # the grid object, or the constructor's refusal
        return _ID.get((constraint, flavor)) or SemanticsId(constraint, flavor)
    raise UnsupportedSemanticsError(f"unknown semantics {text!r}")


def supported_ids() -> tuple[SemanticsId, ...]:
    """Every decidable point of the spectrum, deterministic order."""
    return _SUPPORTED_IDS


# The equational and operational characterizations of every family that the
# choice axioms axiomatize with one simulation axiom and one reduction axiom
# (arXiv 1304.6574): sem -> (N, M), the constraint of the simulation axiom and
# the condition (an ``operational.CONDITIONS`` name) of the reduction axiom;
# the operational engine decides sem as N-simulation up to M-saturation.  A
# condition is one of six merge rules over one layer's order: ``_REDUCTION``
# names the rule of each linear flavor, run over the I layer (M_…) at I and
# over the T layer (M_T-…) at T.  At U and C every linear flavor collapses to
# (completed) traces, where every merge is sound (F); the extended ready ids
# merge by the I layer's R and RT.
_REDUCTION = {"l": "RT", "l⊇": "FT", "lf": "R", "lf⊇": "F", "join": "R∧FT", "meet": "R∨FT"}
REDUCTIONS: dict[SemanticsId, tuple[str, str]] = {
    **{
        _ID[n, flavor]: (n, prefix + m)
        for n, prefix in (("I", "M_"), ("T", "M_T-"))
        for flavor, m in _REDUCTION.items()
    },
    **{_ID[n, flavor]: (n, "M_F") for n in ("U", "C") for flavor in _REDUCTION},
    _ID["U", "ER"]: ("U", "M_R"),
    _ID["U", "ERT"]: ("U", "M_RT"),
    _ID["C", "ECR"]: ("C", "M_R"),
    _ID["C", "ECRT"]: ("C", "M_RT"),
}


# The finer -> coarser edges of one layer, the real diamond included.
#
# Layer order by constraint fineness: S, T, I, C, U.  Within a layer:
# b -> db -> l -> {l⊇, lf} -> lf⊇, refined at I by the join/meet diamond
# RT -> join -> {FT, R} -> meet -> F.  By ``LINEAR_RULES``, l -> l⊆ and
# lf -> lf⊆ (eq implies leq) and l⊆ -> lf⊆ (a rule that matches every
# label matches the last) at every layer.  join is (geq, eq), so l -> join
# -> {l⊇, lf} (eq implies geq) at every layer too, S included; S has no
# meet.
_WITHIN = (
    ("b", "db"), ("db", "l"), ("l", "l⊇"), ("l", "lf"), ("l⊇", "lf⊇"), ("lf", "lf⊇"),
    ("l", "l⊆"), ("lf", "lf⊆"), ("l⊆", "lf⊆"), ("l", "join"), ("join", "l⊇"), ("join", "lf"),
    ("l⊇", "meet"), ("lf", "meet"), ("meet", "lf⊇"),
)
SPECTRUM_ARROWS: tuple[tuple[SemanticsId, SemanticsId], ...] = (
    # bisimilarity, then b from layer to layer
    *pairwise((BISIM, *(_ID[n, "b"] for n in _LAYERS))),
    # the diagram of one layer, wherever both its ends live
    *((_ID[n, f], _ID[n, g]) for n in _LAYERS for f, g in _WITHIN if (n, f) in _ID and (n, g) in _ID),
    # vertical arrows between consecutive layers, flavor by flavor
    *((_ID[m, f], _ID[n, f]) for m, n in pairwise(_LAYERS) for f in ("db", "l", "l⊇", "lf", "lf⊇")),
)

# The brackets that the arrows put around the b and db games: id -> (ids
# whose holding makes it hold, ids whose refutation refutes it), each a path
# of SPECTRUM_ARROWS: N:b -> M:b to the next coarser layer M, and N:b -> N:db
# -> N:l within a layer.  Coarser layers first, so each bracket names only
# ids listed before it or outside the table.
BRACKETS: dict[SemanticsId, tuple[tuple[SemanticsId, ...], tuple[SemanticsId, ...]]] = {
    **{_ID[n, "b"]: ((), (_ID[m, "b"], _ID[n, "l"])) for m, n in pairwise(reversed(_LAYERS))},
    **{_ID[n, "db"]: ((_ID[n, "b"],), (_ID[n, "l"],)) for n in _LAYERS},
}
