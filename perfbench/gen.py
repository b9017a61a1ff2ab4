"""Seeded input generator: term text for every workload.

A term is modelled as a frozenset of ``(action, subterm)`` summands, which
is exactly the ACI+unit normal form procsem computes, so two generated
terms are different text exactly when they are different canonical terms.
Nothing here imports procsem: the program only ever sees the text.

Draws are stratified by term size so that different seeds give comparable
load.  The size class of a term is its branching exponent (log2 of its
number of branching observations, ``sum(2 ** exponent(child))``) and its
number of nodes; the exponent decides how large the observation sets behind
the ``bf``/``bf⊇`` cells are, which dominates the cost of a spectrum.  A
workload's profile is the list of size classes at k equal-frequency quantile
midpoints of a fixed reference population: the 256-term pool at depth 2, a
fixed-seed sample of the random generator at depth 3.  Every round draws one
term of each class from the seeded source, so every seed gets the same mix
of sizes and different terms.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

Tree = frozenset  # of (action, Tree)

NIL: Tree = frozenset()


def render(t: Tree) -> str:
    """Term text in procsem's grammar, summands in a fixed order."""
    if not t:
        return "0"
    parts = []
    for a, body in t:
        inner = render(body)
        if len(body) > 1:
            inner = "(" + inner + ")"
        parts.append(f"{a}.{inner}")
    return "+".join(sorted(parts))


def bgo_exponent(t: Tree) -> int:
    """log2 of the number of branching observations of t."""
    return sum(2 ** bgo_exponent(body) for _, body in t)


def nodes(t: Tree) -> int:
    return sum(1 + nodes(body) for _, body in t)


def pool_d2() -> list[Tree]:
    """All 256 canonical terms of depth <= 2 over {a, b}."""
    depth1 = [frozenset(c) for r in range(3) for c in combinations((("a", NIL), ("b", NIL)), r)]
    prefixes = [(a, body) for a in "ab" for body in depth1]
    return [frozenset(c) for r in range(len(prefixes) + 1) for c in combinations(prefixes, r)]


def random_tree(rng: random.Random, depth: int, alphabet=("a", "b", "c"), width: int = 3) -> Tree:
    """The shape of the acceptance suite's random depth-3 generator."""
    if depth == 0 or rng.random() < 0.15:
        return NIL
    return frozenset(
        (rng.choice(alphabet), random_tree(rng, depth - 1, alphabet, width))
        for _ in range(rng.randint(1, width))
    )


SIZE_CAP_EXPONENT = 18  # procsem's cap on branching observations is 2**18
DIGITS_EXPONENT = 14284  # 2**14284 has 4300 decimal digits, Python's int-to-str limit


def size_class(t: Tree):
    """(exponent class, nodes).  Terms with at most 2**18 branching
    observations are classed by the exact exponent, larger ones by whether
    the count prints in 4300 decimal digits."""
    e = bgo_exponent(t)
    if e <= SIZE_CAP_EXPONENT:
        return (e, nodes(t))
    return ("over-cap" if e <= DIGITS_EXPONENT else "over-digits", nodes(t))


def _class_order(c):
    e, n = c
    return (e == "over-digits", e == "over-cap", e if isinstance(e, int) else 0, n)


def profile(reference: list[Tree], k: int) -> list:
    """The size classes at the k quantile midpoints of a reference population."""
    ordered = sorted(map(size_class, reference), key=_class_order)
    n = len(ordered)
    return [ordered[(2 * i + 1) * n // (2 * k)] for i in range(k)]


def draw_from_pool(pool: list[Tree], slots: list, rng: random.Random) -> list[Tree]:
    """Distinct pool terms, one of each slot's size class."""
    by_class: dict = {}
    for t in sorted(pool, key=render):
        by_class.setdefault(size_class(t), []).append(t)
    wanted = Counter(slots)
    chosen = {c: rng.sample(by_class[c], wanted[c]) for c in sorted(wanted, key=_class_order)}
    return [chosen[c].pop() for c in slots]


def draw_from_generator(slots: list, rng: random.Random, depth: int) -> list[Tree]:
    """Terms of the random generator, drawn until each slot's class is met."""
    out = []
    for c in slots:
        t = random_tree(rng, depth)
        while size_class(t) != c:
            t = random_tree(rng, depth)
        out.append(t)
    return out


def fold_pairs(k: int) -> list[tuple[int, int]]:
    """Slot i against slot k-1-i: every pair puts a small term on the left
    and a large one on the right, the same way for every seed."""
    return [(i, k - 1 - i) for i in range(k // 2)]


REFERENCE_D3 = 20000


@lru_cache(maxsize=None)
def profiles(workload: str, k: int) -> tuple:
    if workload == "spectrum-d3":
        rng = random.Random("reference")
        reference = [random_tree(rng, 3) for _ in range(REFERENCE_D3)]
    else:
        reference = pool_d2()
    return tuple(profile(reference, k))


def make_round(workload: str, seed: int, round_index: int, params: dict) -> dict:
    """The inputs of one round: term text plus what to do with it."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    if workload == "relations-d2":
        slots = profiles(workload, params["terms"])
        terms = draw_from_pool(pool_d2(), list(slots), rng)
        return {
            "workload": workload,
            "terms": [render(t) for t in terms],
            "sample_seed": rng.randrange(2**32),
            "explain_per_semantics": params["explain_per_semantics"],
        }
    k = 2 * params["pairs"]
    slots = list(profiles(workload, k))
    if workload == "spectrum-d2":
        terms = draw_from_pool(pool_d2(), slots, rng)
    elif workload == "spectrum-d3":
        terms = draw_from_generator(slots, rng, 3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "terms": [render(t) for t in terms], "pairs": fold_pairs(k)}
