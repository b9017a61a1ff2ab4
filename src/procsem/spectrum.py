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
    "UnsupportedSemanticsError",
    "UncoveredSemanticsError",
]

LINEAR_FLAVORS = ("l", "l⊇", "lf", "lf⊇", "l⊆", "lf⊆", "join", "meet")

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
ALL_FLAVORS = ("bisim", "b", "db", "bf", "bf⊇") + tuple(LINEAR_RULES)


def linear_rule(constraint: str, flavor: str) -> tuple[str, tuple]:
    """(constraint whose labels are compared, rule) of a flavor named at
    `constraint`: the extended-ready family compares offers (I), and meet at
    U and C is lf, as a union of unit or termination values is one of them."""
    if flavor in ("ER", "ERT", "ECR", "ECRT"):
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
        if flavor == "bisim":
            if constraint != "B":
                raise UnsupportedSemanticsError("bisimilarity takes no constraint")
        elif constraint not in ("U", "C", "I", "T", "S"):
            raise UnsupportedSemanticsError(f"unknown constraint {constraint!r}")
        elif flavor in ("bf", "bf⊇") and constraint != "I":
            raise UnsupportedSemanticsError("final-ready/final-failure branching exist only at constraint I")
        elif flavor in ("ER", "ERT") and constraint != "U":
            raise UnsupportedSemanticsError("extended ready semantics live at constraint U")
        elif flavor in ("ECR", "ECRT") and constraint != "C":
            raise UnsupportedSemanticsError("extended complete ready semantics live at constraint C")
        elif flavor == "meet" and constraint == "S":
            raise UnsupportedSemanticsError(
                "no meet at constraint S: the union of simulation classes is not a class"
            )
        return super().__new__(cls, constraint, flavor)

    def __str__(self) -> str:
        name = classic_name(self)
        return name if name else f"{self.constraint}:{self.flavor}"


BISIM = SemanticsId("B", "bisim")

# Classic names from the literature for points of the spectrum.
CLASSIC_NAMES: dict[str, SemanticsId] = {
    "B": BISIM,
    "S": SemanticsId("U", "b"),
    "CS": SemanticsId("C", "b"),
    "RS": SemanticsId("I", "b"),
    "TS": SemanticsId("T", "b"),
    "2S": SemanticsId("S", "b"),
    "T": SemanticsId("U", "l"),
    "CT": SemanticsId("C", "l"),
    "RT": SemanticsId("I", "l"),
    "FT": SemanticsId("I", "l⊇"),
    "R": SemanticsId("I", "lf"),
    "F": SemanticsId("I", "lf⊇"),
    "PW": SemanticsId("I", "db"),
    "UPW": SemanticsId("U", "db"),
    "PF": SemanticsId("T", "lf"),
    "IF": SemanticsId("T", "lf⊇"),
    "PFT": SemanticsId("T", "l"),
    "IFT": SemanticsId("T", "l⊇"),
    "SF": SemanticsId("S", "lf⊇"),
    "RV": SemanticsId("I", "meet"),
    "JOIN": SemanticsId("I", "join"),
    "ER": SemanticsId("U", "ER"),
    "ERT": SemanticsId("U", "ERT"),
    "ECR": SemanticsId("C", "ECR"),
    "ECRT": SemanticsId("C", "ECRT"),
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
        flavor = _ASCII_FLAVOR.get(flavor, flavor)
        return SemanticsId(constraint.strip(), flavor.strip())
    raise UnsupportedSemanticsError(f"unknown semantics {text!r}")


def _supported_ids() -> tuple[SemanticsId, ...]:
    out = [BISIM]
    for n in ("S", "T", "I", "C", "U"):
        out.append(SemanticsId(n, "b"))
        out.append(SemanticsId(n, "db"))
        if n == "I":
            out.append(SemanticsId("I", "bf"))
            out.append(SemanticsId("I", "bf⊇"))
        for flavor in LINEAR_FLAVORS:
            if flavor == "meet" and n == "S":
                continue
            out.append(SemanticsId(n, flavor))
    out += [
        SemanticsId("U", "ER"),
        SemanticsId("U", "ERT"),
        SemanticsId("C", "ECR"),
        SemanticsId("C", "ECRT"),
    ]
    # the CLASSIC_NAMES objects themselves, so that classic_name hits on identity
    return tuple(CLASSIC_NAMES.get(classic_name(sem), sem) for sem in out)


_SUPPORTED_IDS = _supported_ids()


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
# Keyed by the ``supported_ids()`` objects, so that a lookup hits on identity.
_IDS = {sem: sem for sem in _SUPPORTED_IDS}
REDUCTIONS: dict[SemanticsId, tuple[str, str]] = {
    **{
        _IDS[SemanticsId(n, flavor)]: (n, prefix + m)
        for n, prefix in (("I", "M_"), ("T", "M_T-"))
        for flavor, m in _REDUCTION.items()
    },
    **{_IDS[SemanticsId(n, flavor)]: (n, "M_F") for n in ("U", "C") for flavor in _REDUCTION},
    CLASSIC_NAMES["ER"]: ("U", "M_R"),
    CLASSIC_NAMES["ERT"]: ("U", "M_RT"),
    CLASSIC_NAMES["ECR"]: ("C", "M_R"),
    CLASSIC_NAMES["ECRT"]: ("C", "M_RT"),
}


def _arrows() -> tuple[tuple[SemanticsId, SemanticsId], ...]:
    """Finer -> coarser edges of the extended spectrum plus the real diamond.

    Layer order by constraint fineness: S, T, I, C, U.  Within a layer:
    b -> db -> l -> {l⊇, lf} -> lf⊇, refined at I by the join/meet diamond
    RT -> join -> {FT, R} -> meet -> F.  By ``LINEAR_RULES``, l -> l⊆ and
    lf -> lf⊆ (eq implies leq) and l⊆ -> lf⊆ (a rule that matches every
    label matches the last) at every layer.  join is (geq, eq), so l -> join
    -> {l⊇, lf} (eq implies geq) at every layer too, S included; S has no
    meet.
    """
    edges: list[tuple[SemanticsId, SemanticsId]] = []

    def sid(n, f):
        return SemanticsId(n, f)

    layers = ("S", "T", "I", "C", "U")
    for n in layers:
        edges.append((BISIM, sid(n, "b")) if n == "S" else (sid(layers[layers.index(n) - 1], "b"), sid(n, "b")))
    for n in layers:
        edges.append((sid(n, "b"), sid(n, "db")))
        edges.append((sid(n, "db"), sid(n, "l")))
        edges.append((sid(n, "l"), sid(n, "l⊇")))
        edges.append((sid(n, "l"), sid(n, "lf")))
        edges.append((sid(n, "l⊇"), sid(n, "lf⊇")))
        edges.append((sid(n, "lf"), sid(n, "lf⊇")))
        edges.append((sid(n, "l"), sid(n, "l⊆")))
        edges.append((sid(n, "lf"), sid(n, "lf⊆")))
        edges.append((sid(n, "l⊆"), sid(n, "lf⊆")))
        edges.append((sid(n, "l"), sid(n, "join")))
        edges.append((sid(n, "join"), sid(n, "l⊇")))
        edges.append((sid(n, "join"), sid(n, "lf")))
        if n != "S":
            edges.append((sid(n, "l⊇"), sid(n, "meet")))
            edges.append((sid(n, "lf"), sid(n, "meet")))
            edges.append((sid(n, "meet"), sid(n, "lf⊇")))
    # Vertical arrows between consecutive layers, flavor by flavor.
    for upper, lower in zip(layers, layers[1:]):
        for flavor in ("db", "l", "l⊇", "lf", "lf⊇"):
            edges.append((sid(upper, flavor), sid(lower, flavor)))
    return tuple(dict.fromkeys(edges))


SPECTRUM_ARROWS = _arrows()
