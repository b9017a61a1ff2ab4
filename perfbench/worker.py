"""One round of a workload, in a fresh interpreter.

Reads the round's job (JSON, one line) from stdin, sets the memory ceiling,
imports procsem from ``<checkout>/src``, parses and canonicalizes the term
text, and prints ``ready``.  Then it runs the timed phase, reads the peak
resident set size, runs the oracle checks, and prints one JSON line with the
round's results.  With ``"trace": true`` it installs the spans of
``spans.py`` before the timed phase and skips the oracle checks.

Ops are timed by the CPU time of this thread, which the
kernel counts without the time the host ran other tenants on the CPU (steal)
or the scheduler ran other processes; procsem is single-threaded and does no
I/O, so on an idle machine it equals the wall-clock time.  Each reading of
that clock costs about a microsecond, which the ops' times include.

A shared host also changes how much work a CPU second does (clock frequency,
a busy hyperthread sibling) by up to half, for seconds to minutes at a time.
So before an op, once ``SLICE_EVERY`` seconds of op time have passed since
the last one, the round takes a reference point: the CPU time of a fixed
slice of reference work (median of three).  The ops between two points are
scaled by the mean of the two to a host on which a slice takes
``NOMINAL_SLICE_S``; the sum is the round's ``norm_s``.

Every op is one public call; an op that raises is counted as failed and the
round continues.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, thread_time

MEMORY_CEILING = 2 << 30  # bytes of address space, well below an 8 GB host's memory

EXIT_SETUP = 3

# The 50 semantics of acceptance criterion 8, in its order: every point of
# the spectrum that has a formula pathway, hence every one but bf and bf⊇.
LINEAR_FLAVORS = ("l", "l⊇", "lf", "lf⊇", "l⊆", "lf⊆")
CONSTRAINTS = ("U", "C", "I", "T", "S")
RELATE_IDS = (
    ["B"]
    + [f"{n}:b" for n in CONSTRAINTS]
    + [f"{n}:db" for n in CONSTRAINTS]
    + [f"{n}:{fl}" for n in CONSTRAINTS for fl in LINEAR_FLAVORS]
    + [f"{n}:join" for n in CONSTRAINTS]
    + [f"{n}:meet" for n in ("U", "C", "I", "T")]
)
# Partial offers at constraint C have no separating formulas (documented).
NO_DISTINGUISH = ("C:l⊆", "C:lf⊆")
# The four linear semantics the axiom and operational engines cover.
OPERATIONAL = {"F": "I:lf⊇", "R": "I:lf", "FT": "I:l⊇", "RT": "I:l"}
# Closure operator of the observational engine for the offer-layer flavors.
CLOSURE_DELTA = {"l⊇": "⊇", "lf": "f", "lf⊇": "f⊇"}
AB = frozenset("ab")


SLICE_EVERY = 0.1  # seconds of op CPU time between reference points
SLICE_STEPS = 8000  # about 1 ms on the 2-CPU host the benchmark was tuned on
NOMINAL_SLICE_S = 0.001


def reference_slice() -> float:
    """CPU seconds of one slice: integer arithmetic only, so that neither
    procsem's memory nor the garbage collector changes its speed."""
    j = 0
    t0 = thread_time()
    for _ in range(SLICE_STEPS):
        j = (j * 1103515245 + 12345) & 0xFFFF
    return thread_time() - t0


class Round:
    """Op accounting shared by the workloads."""

    def __init__(self):
        self.latencies: list[float] = []
        self.points: list[float] = []  # slice CPU time at each reference point
        self.since_point = 0.0
        self.norm_s = 0.0
        self.failures: Counter = Counter()
        self.digest = hashlib.sha256()
        self.wrong = 0
        self.checked = 0
        self.cells = 0
        self.cap_cells = 0
        self.extra: dict[str, float] = {"logic.formula_nodes": 0, "axioms.derivation_steps": 0}

    def call(self, fn, *args):
        """Time one op (CPU seconds); returns (ok, result)."""
        if not self.points or self.since_point >= SLICE_EVERY:
            self.reference_point()
        t0 = thread_time()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is counted and the round goes on
            self.op_done(thread_time() - t0)
            self.failures[type(exc).__name__] += 1
            return False, exc
        self.op_done(thread_time() - t0)
        return True, result

    def op_done(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.since_point += seconds

    def reference_point(self) -> None:
        """Scale the ops since the last point by the mean slice time of the
        two points around them; a point is the median of three slices."""
        point = statistics.median(reference_slice() for _ in range(3))
        if self.points:
            self.norm_s += self.since_point * NOMINAL_SLICE_S / ((self.points[-1] + point) / 2)
        self.points.append(point)
        self.since_point = 0.0

    def check(self, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.wrong += 1

    def record(self, text: str) -> None:
        self.digest.update(text.encode())
        self.digest.update(b"\n")


def peak_rss_kib() -> int:
    """Peak resident set size of this interpreter.  Linux carries the
    parent's resident size over into ``ru_maxrss`` across fork and exec, so
    the high-water mark of this process's own memory map (``VmHWM``) is read
    where the system has it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def load_procsem(src: Path):
    sys.path.insert(0, str(src))
    import procsem

    if Path(procsem.__file__).resolve().parent != (src / "procsem").resolve():
        raise ImportError(f"procsem imported from {procsem.__file__}, not from {src}")
    return procsem


# ---------------------------------------------------------------------------
# spectrum-d2 and spectrum-d3: one spectrum_matrix call per op


def timed_spectrum(ps, job, terms, rnd: Round):
    matrices = []
    for i, j in job["pairs"]:
        ok, out = rnd.call(ps.preorders.spectrum_matrix, terms[i], terms[j])
        if ok:
            cells = ps.preorders.matrix_json(out)
            rnd.record(json.dumps(cells, sort_keys=True, ensure_ascii=False))
            rnd.cap_cells += sum(isinstance(c, dict) for c in cells.values())
        else:
            rnd.record(f"raised {type(out).__name__}")
        rnd.cells += len(ps.spectrum.supported_ids())
        matrices.append(out if ok else None)
    return matrices


def _directions(cell):
    if isinstance(cell, dict):
        return None
    return cell in ("≡", "⊑"), cell in ("≡", "⊒")


def check_spectrum(ps, job, terms, matrices, rnd: Round) -> None:
    from procsem.observations import bgo_leq, lgo_leq_via_closure
    from procsem.spectrum import SPECTRUM_ARROWS, SemanticsId

    for (i, j), matrix in zip(job["pairs"], matrices):
        if matrix is None:
            continue
        p, q = terms[i], terms[j]
        for n in ("U", "C", "I"):
            dirs = _directions(matrix[SemanticsId(n, "b")])
            if dirs is not None:
                rnd.check(dirs == (bgo_leq(n, p, q), bgo_leq(n, q, p)))
        for flavor, delta in CLOSURE_DELTA.items():
            dirs = _directions(matrix[SemanticsId("I", flavor)])
            if dirs is not None:
                rnd.check(dirs == (lgo_leq_via_closure("I", delta, p, q), lgo_leq_via_closure("I", delta, q, p)))
        known = {sem: _directions(cell) for sem, cell in matrix.items()}
        for finer, coarser in SPECTRUM_ARROWS:
            if known[finer] is None or known[coarser] is None:
                continue
            for side in (0, 1):
                rnd.check(not known[finer][side] or known[coarser][side])


# ---------------------------------------------------------------------------
# relations-d2: library use over a term subset, one public call per op


def timed_relations(ps, job, terms, rnd: Round):
    from procsem import axioms, logic, operational, preorders
    from procsem.spectrum import parse_semantics

    n = len(terms)
    sems = [parse_semantics(name) for name in RELATE_IDS]
    # relate: every ordered pair, every semantics
    verdicts = {}
    for name, sem in zip(RELATE_IDS, sems):
        bits = bytearray(n * n)
        for i, p in enumerate(terms):
            for j, q in enumerate(terms):
                ok, out = rnd.call(preorders.decide, sem, p, q)
                if ok:
                    bits[i * n + j] = 1 + out.holds
                elif isinstance(out, ps.observations.TruncationError):
                    rnd.cap_cells += 1
        rnd.cells += n * n
        verdicts[name] = bits
        rnd.record(name + ":" + bits.hex())
    # explain: distinguishing formulas on a sample of refuted cells
    rng = random.Random(job["sample_seed"])
    formulas = []
    for name, sem in zip(RELATE_IDS, sems):
        if name in NO_DISTINGUISH:
            continue
        refuted = [divmod(k, n) for k, v in enumerate(verdicts[name]) if v == 1]
        for i, j in rng.sample(refuted, min(job["explain_per_semantics"], len(refuted))):
            ok, f = rnd.call(logic.distinguish, sem, terms[i], terms[j], AB)
            if ok:
                formulas.append((sem, i, j, f))
            rnd.record(f"{name}:{i}:{j}:" + (logic.render_formula(f) if ok and f is not None else repr(f)))
    # prove: derivations for the holding pairs of F, R, FT and RT
    derivations = []
    for z, name in OPERATIONAL.items():
        for k, v in enumerate(verdicts[name]):
            if v == 2:
                i, j = divmod(k, n)
                ok, d = rnd.call(axioms.derive_leq, z, terms[i], terms[j])
                if ok:
                    derivations.append(d)
                rnd.record(f"{z}:{i}:{j}:" + (str(len(d.steps)) if ok else "raised"))
    # cross-check: the operational engine on every pair
    operational_verdicts = {}
    for z in OPERATIONAL:
        bits = bytearray(n * n)
        for i, p in enumerate(terms):
            for j, q in enumerate(terms):
                ok, out = rnd.call(operational.decide_via_operational, z, p, q)
                if ok:
                    bits[i * n + j] = 1 + out.holds
        operational_verdicts[z] = bits
        rnd.record(z + ":operational:" + bits.hex())
    rnd.extra["logic.formula_nodes"] = sum(formula_nodes(f) for _, _, _, f in formulas)
    rnd.extra["axioms.derivation_steps"] = sum(len(d.steps) for d in derivations)
    return verdicts, formulas, derivations, operational_verdicts


def formula_nodes(f) -> int:
    from procsem.logic import Conj, Diamond, Neg

    if isinstance(f, Conj):
        return 1 + sum(formula_nodes(m) for m in f.members)
    if isinstance(f, (Neg, Diamond)):
        return 1 + formula_nodes(f.body)
    return 1


def check_relations(ps, job, terms, results, rnd: Round) -> None:
    from procsem.logic import in_sublogic, sat
    from procsem.observations import bgo_leq, lgo_leq_via_closure

    verdicts, formulas, derivations, operational_verdicts = results
    n = len(terms)
    for i, p in enumerate(terms):
        for j, q in enumerate(terms):
            k = i * n + j
            for c in ("U", "C", "I"):
                v = verdicts[f"{c}:b"][k]
                if v:
                    rnd.check((v == 2) == bgo_leq(c, p, q))
            for flavor, delta in CLOSURE_DELTA.items():
                v = verdicts[f"I:{flavor}"][k]
                if v:
                    rnd.check((v == 2) == lgo_leq_via_closure("I", delta, p, q))
            for z, name in OPERATIONAL.items():
                direct, other = verdicts[name][k], operational_verdicts[z][k]
                if direct and other:
                    rnd.check(direct == other)
    for sem, i, j, f in formulas:
        p, q = terms[i], terms[j]
        rnd.check(f is not None and sat(p, f) and not sat(q, f) and in_sublogic(f, sem, AB))
    for d in derivations:
        rnd.check(len(d.steps) > 0)


# ---------------------------------------------------------------------------


WORKLOADS = {
    "spectrum-d2": (timed_spectrum, check_spectrum),
    "spectrum-d3": (timed_spectrum, check_spectrum),
    "relations-d2": (timed_relations, check_relations),
}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    try:
        ps = load_procsem(Path(job["src"]))
        from procsem.terms import canonicalize, parse_term

        terms = [canonicalize(parse_term(text)) for text in job["terms"]]
    except Exception as exc:  # the checkout cannot run the benchmark at all
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SETUP
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0

    timed, check = WORKLOADS[job["workload"]]
    tracer = sites = None
    if job["trace"]:
        import spans

        sites = spans.cache_sites(spans.procsem_modules())
        tracer = spans.Tracer()
        tracer.install()
    rnd = Round()
    t0 = perf_counter()
    results = timed(ps, job, terms, rnd)
    rnd.reference_point()
    wall = perf_counter() - t0
    peak_rss_mb = peak_rss_kib() / 1024
    ops = len(rnd.latencies)
    out = {
        "ops": ops,
        "failed": sum(rnd.failures.values()),
        "failures": dict(rnd.failures),
        "wall_s": wall,
        "cpu_s": sum(rnd.latencies),
        "slice_s": statistics.median(rnd.points),
        "norm_s": rnd.norm_s,
        "peak_rss_mb": peak_rss_mb,
        "cells": rnd.cells,
        "cap_cells": rnd.cap_cells,
        "digest": rnd.digest.hexdigest(),
    }
    if tracer is None:
        check(ps, job, terms, results, rnd)
        out.update(latencies=rnd.latencies, wrong=rnd.wrong, checked=rnd.checked)
    else:
        counts = {"preorders.cap_cells": rnd.cap_cells, **rnd.extra}
        out["layers"] = spans.layer_metrics(tracer, sites, ops, counts)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
