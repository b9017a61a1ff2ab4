"""Axiom schemas, soundness sweeps, head-normal-form laws and proof replay.

The catalog is generated from three schema families: the choice axioms (the
bisimilarity base), one simulation axiom per constraint (conditional on the
constraint relation), and one nondeterminism-reduction schema whose side
condition selects the linear semantics.  Side conditions are semantic
predicates evaluated on closed instances, never symbolic.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import NamedTuple, Sequence

from . import preorders
from .constraints import constraint_holds
from .lts import initials, step
from .operational import CONDITIONS, saturate
from .spectrum import REDUCTIONS, SemanticsId, UncoveredSemanticsError, classic_name, parse_semantics
from .terms import NIL, CanonicalTerm, Choice, Nil, Prefix, Term, Var, prefix, render_term, sum_terms

__all__ = [
    "Axiom",
    "CONDITIONS",
    "axiom_catalog",
    "SoundnessReport",
    "check_soundness",
    "HnfLawReport",
    "verify_hnf_laws",
    "Derivation",
    "derive_leq",
]

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def _plus(*parts: Term) -> Term:
    out = parts[0]
    for p in parts[1:]:
        out = Choice(out, p)
    return out


class Axiom(NamedTuple):
    """An (in)equation schema over open terms with a semantic side condition.

    ``action_vars`` are placeholder actions instantiated over the alphabet;
    ``condition`` names an entry of CONDITIONS (on X, Y, Z) and
    ``n_condition`` a constraint, related on X, Y by ``constraint_holds``.
    """

    name: str
    lhs: Term
    rhs: Term
    kind: str  # "inequation" | "equation"
    condition: str | None = None
    n_condition: str | None = None
    action_vars: tuple[str, ...] = ()

    def variables(self) -> tuple[str, ...]:
        from .terms import free_variables

        return tuple(sorted(free_variables(self.lhs) | free_variables(self.rhs)))

    def instance_ok(self, subst: dict[str, CanonicalTerm]) -> bool:
        x, y, w = (subst.get(v, NIL) for v in ("X", "Y", "Z"))
        if self.condition is not None and not CONDITIONS[self.condition](x, y, w):
            return False
        if self.n_condition is not None and not constraint_holds(self.n_condition, x, y):
            return False
        return True

    def instantiate(
        self, subst: dict[str, CanonicalTerm], actions: dict[str, str]
    ) -> tuple[CanonicalTerm, CanonicalTerm]:
        return _instance(self.lhs, subst, actions), _instance(self.rhs, subst, actions)

    def __str__(self) -> str:
        rel = "=" if self.kind == "equation" else "<="
        parts = []
        if self.n_condition is not None:
            parts.append(f"N_{self.n_condition}(X,Y)")
        if self.condition is not None:
            parts.append(f"{self.condition}(X,Y,Z)")
        cond = " and ".join(parts)
        head = f"{cond} => " if cond else ""
        return f"({self.name}) {head}{render_term(self.lhs)} {rel} {render_term(self.rhs)}"


def _instance(t: Term, subst: dict[str, CanonicalTerm], actions: dict[str, str]) -> CanonicalTerm:
    """The canonical term of schema `t` with its variables and placeholder
    actions replaced."""
    if isinstance(t, Var):
        return subst[t.name]
    if isinstance(t, Prefix):
        return prefix(actions.get(t.action, t.action), _instance(t.body, subst, actions))
    if isinstance(t, Choice):
        return sum_terms(_instance(t.left, subst, actions), _instance(t.right, subst, actions))
    return NIL


# ---------------------------------------------------------------------------
# The catalog

B_AXIOMS = (
    Axiom("B1", Choice(Choice(X, Y), Z), Choice(X, Choice(Y, Z)), "equation"),
    Axiom("B2", Choice(X, Y), Choice(Y, X), "equation"),
    Axiom("B3", Choice(X, X), X, "equation"),
    Axiom("B4", Choice(X, Nil()), X, "equation"),
)


def ns_axiom(constraint: str, equational: bool) -> Axiom:
    """The simulation axiom of constraint N, named after N's simulation."""
    name = classic_name(SemanticsId(constraint, "b"))
    if not equational:
        return Axiom(name, X, Choice(X, Y), "inequation", n_condition=constraint)
    return Axiom(
        name + "≡",
        Prefix("a", Choice(X, Y)),
        Choice(Prefix("a", Choice(X, Y)), Prefix("a", Y)),
        "equation",
        n_condition=constraint,
        action_vars=("a",),
    )


def nd_axiom(condition: str, equational: bool) -> Axiom:
    label = condition.removeprefix("M_")
    lhs_core = Prefix("a", Choice(X, Y))
    rhs_core = Choice(Prefix("a", X), Prefix("a", Choice(Y, Z)))
    if not equational:
        return Axiom(
            f"ND^{label}", lhs_core, rhs_core, "inequation", condition=condition, action_vars=("a",)
        )
    return Axiom(
        f"ND^{label}≡",
        Choice(rhs_core, lhs_core),
        rhs_core,
        "equation",
        condition=condition,
        action_vars=("a",),
    )


PW_AXIOM = Axiom(
    "PW",
    Prefix("a", _plus(Prefix("b", X), Prefix("b", Y), Z)),
    Choice(Prefix("a", Choice(Prefix("b", X), Z)), Prefix("a", Choice(Prefix("b", Y), Z))),
    "equation",
    action_vars=("a", "b"),
)

T_AXIOM = Axiom(
    "T",
    Choice(Prefix("a", X), Prefix("a", Y)),
    Prefix("a", Choice(X, Y)),
    "equation",
    action_vars=("a",),
)


def axiom_catalog(sem: SemanticsId | str, form: str = "order") -> tuple[Axiom, ...]:
    """The axiom set for one point of the spectrum, order or equivalence
    form; UncoveredSemanticsError where no axiomatization is known."""
    if isinstance(sem, str):
        sem = parse_semantics(sem)
    if form not in ("order", "equivalence"):
        raise ValueError("form must be 'order' or 'equivalence'")
    eq = form == "equivalence"
    flavor, n = sem.flavor, sem.constraint

    if flavor == "bisim":
        return B_AXIOMS
    if flavor in ("bf", "bf⊇"):
        raise UncoveredSemanticsError(f"{sem} is conjectured not to be finitely axiomatizable")
    # at the 2-nested layer S the conditions would range over simulation classes
    if flavor in ("l⊆", "lf⊆") or n == "S" or (flavor == "db" and n != "I"):
        raise UncoveredSemanticsError(f"no axiomatization is known for {sem}")
    if flavor == "b":
        return B_AXIOMS + (ns_axiom(n, eq),)
    if flavor == "db":
        if eq:
            return B_AXIOMS + (PW_AXIOM,)
        return B_AXIOMS + (ns_axiom("I", False), PW_AXIOM)
    n, condition = REDUCTIONS[sem]
    # at T the inequational reduction schema is unsound for the R/F
    # conditions at this layer; the equational form works for all four
    return B_AXIOMS + (ns_axiom(n, eq), nd_axiom(condition, eq or n == "T"))


# ---------------------------------------------------------------------------
# Soundness sweeps


class SoundnessReport(NamedTuple):
    axiom: str
    semantics: str
    checked: int
    skipped: int
    violations: list

    @property
    def sound(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "axiom": self.axiom,
            "semantics": self.semantics,
            "checked": self.checked,
            "skipped_by_condition": self.skipped,
            "violations": [
                {
                    "substitution": {k: render_term(v) for k, v in subst.items()},
                    "actions": actions,
                    "lhs": render_term(lhs),
                    "rhs": render_term(rhs),
                }
                for subst, actions, lhs, rhs in self.violations
            ],
        }


def check_soundness(
    axiom: Axiom,
    sem: SemanticsId | str,
    pool: Sequence[CanonicalTerm],
    alphabet: Sequence[str],
    max_instances: int | None = None,
    rng: random.Random | None = None,
) -> SoundnessReport:
    """Instantiate the axiom over the pool and check every instance with the
    decision engine.  Violations are collected, not raised."""
    if isinstance(sem, str):
        sem = parse_semantics(sem)
    variables = axiom.variables()
    actions = sorted(set(alphabet))
    pool = list(pool)
    total = len(pool) ** len(variables) * len(actions) ** len(axiom.action_vars)
    if max_instances is not None and total > max_instances:
        rng = rng or random.Random(0)
        instances = (
            (
                tuple(rng.choice(pool) for _ in variables),
                tuple(rng.choice(actions) for _ in axiom.action_vars),
            )
            for _ in range(max_instances)
        )
    else:
        instances = (
            (combo, binding)
            for combo in product(pool, repeat=len(variables))
            for binding in product(actions, repeat=len(axiom.action_vars))
        )
    checked = skipped = 0
    violations = []
    for combo, binding in instances:
        subst = dict(zip(variables, combo))
        if not axiom.instance_ok(subst):
            skipped += 1
            continue
        action_map = dict(zip(axiom.action_vars, binding))
        lhs, rhs = axiom.instantiate(subst, action_map)
        checked += 1
        ok = preorders.holds(sem, lhs, rhs)
        if ok and axiom.kind == "equation":
            ok = preorders.holds(sem, rhs, lhs)
        if not ok:
            violations.append((subst, action_map, lhs, rhs))
    return SoundnessReport(axiom.name, str(sem), checked, skipped, violations)


# ---------------------------------------------------------------------------
# Head normal forms (operational.saturate) and their laws


class HnfLawReport(NamedTuple):
    z: str
    equivalence_failures: list
    matching_failures: list
    terms_checked: int
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return not self.equivalence_failures and not self.matching_failures


def _hnf_rule(z: str) -> tuple[SemanticsId, str]:
    """The semantics z names and its reduction condition.  The head normal
    form recipe matches offers, so z must have an operational rule at
    constraint I; UncoveredSemanticsError otherwise."""
    sem = parse_semantics(z)
    n, condition = REDUCTIONS.get(sem, (None, None))
    if n != "I":
        raise UncoveredSemanticsError(f"head normal form derivations do not cover {sem}")
    return sem, condition


def verify_hnf_laws(z: str, pool: Sequence[CanonicalTerm]) -> HnfLawReport:
    """Check that the head normal form (``operational.saturate``) is a
    Z-equivalent saturation and that every related ordered pair of `pool`
    matches summand-wise through the head normal form of the larger side."""
    sem, condition = _hnf_rule(z)
    pool = list(pool)
    equivalence_failures = []
    for p in pool:
        h = saturate(condition, p)
        if not (preorders.holds(sem, h, p) and preorders.holds(sem, p, h)):
            equivalence_failures.append(p)
    matching_failures = []
    pairs_checked = 0
    for p, q in product(pool, repeat=2):
        if not preorders.holds(sem, p, q):
            continue
        pairs_checked += 1
        for a, derivative in p.summands:
            if _answer(sem, saturate(condition, q), a, derivative) is None:
                matching_failures.append((p, q, a, derivative))
    return HnfLawReport(z, equivalence_failures, matching_failures, len(pool), pairs_checked)


@lru_cache(maxsize=None)
def _answer(sem: SemanticsId, h: CanonicalTerm, a: str, x: CanonicalTerm):
    """The first a-move of the head normal form h whose target lies above x
    in sem, or None; derivations share subgoals, so it is memoized."""
    for b, y in step(h):
        if b == a and preorders.holds(sem, x, y):
            return y


# ---------------------------------------------------------------------------
# Derivation reconstruction (the completeness recipe, replayed and checked)


class Derivation(NamedTuple):
    """A proof of goal[0] <= goal[1] in z.  Its steps are read-only
    mappings, each with a "rule" key, and a tuple shared with every other
    derivation of the same goal in z."""

    z: str
    goal: tuple[CanonicalTerm, CanonicalTerm]
    steps: tuple[MappingProxyType, ...]


def derive_leq(z: str, p: CanonicalTerm, q: CanonicalTerm) -> Derivation:
    """Reconstruct a proof of p <= q from {choice axioms, simulation axiom,
    reduction axiom} by recursing through the head normal form of q.

    Follows the structural-induction completeness recipe; every simulation
    step's side condition (equal offers) is checked during replay.  Raises
    UncoveredSemanticsError unless z is RT, FT, R, F, JOIN or RV, and
    ValueError if the relation does not hold.
    """
    sem, _ = _hnf_rule(z)
    if not preorders.holds(sem, p, q):
        raise ValueError(f"{render_term(p)} is not below {render_term(q)} in {sem}")
    return Derivation(z, (p, q), _steps(z, p, q))


@lru_cache(maxsize=None)
def _steps(z: str, p: CanonicalTerm, q: CanonicalTerm) -> tuple[MappingProxyType, ...]:
    """The steps of p <= q in z, in replay order.  Subgoals recur across
    and within derivations, so each is derived once and its steps are
    shared."""
    if p.is_nil:
        if not q.is_nil:
            raise AssertionError("nil is only below nil in the ready-simulation layers")
        return (_record("refl", {"term": p}),)
    sem, condition = _hnf_rule(z)
    h = saturate(condition, q)
    steps = [_record("hnf-saturate", {"from": q, "to": h, "z": z})]
    chosen = []
    for a, derivative in p.summands:
        match = _answer(sem, h, a, derivative)
        if match is None:
            raise AssertionError("summand matching failed; completeness recipe broken")
        steps += _steps(z, derivative, match)
        steps.append(_record("prefix", {"action": a, "from": derivative, "to": match}))
        chosen.append((a, match))
    target = sum_terms(*[prefix(a, body) for a, body in chosen])
    if initials(p) != initials(h):
        raise AssertionError("simulation axiom side condition violated")
    steps.append(
        _record("sum+RS", {"from": p, "via": target, "to": h, "side_condition": "I(p)=I(hnf(q))"})
    )
    steps.append(_record("hnf-below", {"from": h, "to": q}))
    return tuple(steps)


def _record(rule: str, detail: dict) -> MappingProxyType:
    return MappingProxyType({"rule": rule, **detail})
