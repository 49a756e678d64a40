"""Named verification suites behind the command-line `verify` command.

Each suite runs a fixed battery of exact checks and reports one line per
assertion; suites are deterministic given the seed.  The heavy sweeps the
test suite runs live in the package tests; these are the desk-scale
versions meant for interactive use and CI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import analysis, circuit, lfsr, reduction
from .bitvec import FLIP, prefix_xor


@dataclass
class SuiteResult:
    name: str
    lines: list
    ok: bool

    def text(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return "\n".join(self.lines + [f"{self.name}: {status}"]) + "\n"


def _line(lines, ok_all, ok, msg) -> bool:
    lines.append(f"{'ok' if ok else 'FAIL'} {msg}")
    return ok_all and ok


# ---------------------------------------------------------------------------

def suite_lemma7(ell: int) -> SuiteResult:
    """Exact cycle counts of the trinomial family registers."""
    lines = []
    ok = True
    rep = lfsr.family_cycle_counts(ell)
    for name in sorted(rep.counts):
        got = rep.counts[name]
        want = rep.expected[name]
        summary = "+".join(str(got[p]) for p in sorted(got))
        ok = _line(lines, ok, got == want,
                   f"{name}: {summary} cycles {'OK' if got == want else got}")
    ok = ok and rep.ok
    if not rep.ok:
        lines.append("FAIL structural closure (complements / shared cycles)")
    else:
        lines.append("ok complement closure and shared short cycles")
    return SuiteResult(f"lemma7 ell={ell}", lines, ok)


def suite_min_sizes(seed: int = 1) -> SuiteResult:
    """Vertex counts and the integer-minimum behaviour of the min blocks.

    A gadget of width m >= 2 is one recorded stamp, which the lane passes
    run through the bit-sliced comparator, not gate by gate; so each is
    also evaluated as an embedded copy, which has no record and runs the
    block's own gates, and both must give the integer minimum."""
    lines = []
    ok = True
    rng = random.Random(seed)
    for m in range(1, 17):
        g = circuit.gadget_min(m)
        want = (13 * m * m + 37 * m - 44) // 2
        ok = _line(lines, ok, g.size == want, f"min_{m} size {g.size} == {want}")
        if m <= 6:
            pairs = list(range(1 << (2 * m)))
        else:
            pairs = [rng.getrandbits(2 * m) for _ in range(10_000)]
        b = circuit.Builder(2 * m)
        gates = b.build(b.embed(g, b.inputs()))
        good = True
        for masks in (gates.evaluate_batch(pairs), g.evaluate_batch(pairs)):
            for j, a in enumerate(pairs):
                got = 0
                for i, mk in enumerate(masks):
                    got |= ((mk >> j) & 1) << i
                x, y = a & ((1 << m) - 1), a >> m
                if got != min(x, y):
                    good = False
                    break
        ok = _line(lines, ok, good,
                   f"min_{m} gates and comparator match integer minimum "
                   f"on {len(pairs)} pairs")
    lines.append("sizes match (13m^2+37m-44)/2 for m=1..16" if ok else
                 "size or behaviour mismatch")
    return SuiteResult("min-sizes", lines, ok)


def suite_conjprop(ell: int) -> SuiteResult:
    """The five exact facts about the window-difference and parity maps."""
    lines = []
    ok = True
    maps = reduction.Alg2Maps(ell)
    n = 2 * ell + 1
    total = 1 << n
    ones = total - 1
    pi, chi = maps.pi_int, maps.chi
    fam = lfsr.LfsrFamily.for_ell(ell)
    p0_step, p1_step = lfsr.linear_step(fam.p0), lfsr.linear_step(fam.p1)

    ok = _line(lines, ok, all(
        chi(v ^ 1) == chi(v) ^ 1 and chi(v ^ ones) == chi(v) ^ 1
        and pi(v ^ 1) == pi(v) ^ 1 and p0_step(pi(v)) == pi(p1_step(v))
        for v in range(total)), "(i) conjugate/complement parity and map commutation")

    # pi maps the 2^n states onto the 2^(n-1) words: when every word has
    # the two distinct preimages u and u ^ ones, no word has room for a third.
    # Bit j + 1 of u is the parity of bits 0..j of w
    ok = _line(lines, ok, all(
        pi(u := prefix_xor(w, 2 * ell) << 1) == pi(u ^ ones) == w
        for w in range(1 << (2 * ell))),
        "(ii) each difference word has the two prefix-parity preimages")

    # marks[v] = 1 where v is an n-window of a p0 cycle: the window from
    # state s is s with its successor's bits one place up
    marks = bytearray(total)
    for s in range(1 << (2 * ell)):
        marks[s | p0_step(s) << 1] = 1
    ok = _line(lines, ok, bytes(map(chi, range(total))) == marks.translate(FLIP),
               "(iii) parity separates the two cycle families")
    ok = _line(lines, ok, not int.from_bytes(marks[0::2], "little")
               & int.from_bytes(marks[1::2], "little"),
               "(iv) conjugation crosses to the complement family")
    w0_shift = 2 * ell - 1
    ok = _line(lines, ok, all(
        (p1_step(v) >> 1) == p0_step(v >> 1) ^ (chi(v) << w0_shift)
        for v in range(total)), "(v) window of the long step is the short step plus parity")
    return SuiteResult(f"conjprop ell={ell}", lines, ok)


# ---------------------------------------------------------------------------
# instance populations

def all_small_circuits(r: int) -> list:
    """Every r-input truth table as a circuit, r <= 2."""
    if r > 2:
        raise ValueError("exhaustive population is for r <= 2")
    return [circuit.from_truth_table(circuit.TruthTable(r, t))
            for t in range(1 << (1 << r))]


def sample_circuits(r: int, count: int, seed: int) -> list:
    """Deterministic mix of satisfiable and unsatisfiable r-input circuits.

    Includes the corner cases the builders special-case: a witness at the
    all-zero input, a witness at the all-ones input, constant-false, and
    contradictions of the shape g AND NOT g.
    """
    rng = random.Random(seed)
    n = 1 << r
    out = []

    def table(bits):
        return circuit.from_bits(bits)

    special = []
    w0 = [0] * n
    w0[0] = 1
    special.append(table(w0))                      # witness at all-zeros
    w1 = [0] * n
    w1[n - 1] = 1
    special.append(table(w1))                      # witness at all-ones
    special.append(table([0] * n))                 # constant false
    b = circuit.Builder(r)
    g = table([rng.randint(0, 1) for _ in range(n)])
    w = b.embed(g, b.inputs())[0]
    special.append(b.build(b.AND(w, b.NOT(w))))    # structural contradiction
    out.extend(special)
    while len(out) < count:
        if rng.random() < 0.3:
            bits = [0] * n                         # more unsatisfiable variety
            c = table(bits)
        else:
            density = rng.choice([0.05, 0.2, 0.5])
            bits = [1 if rng.random() < density else 0 for _ in range(n)]
            c = table(bits)
        out.append(c)
    out = out[:count]
    if not (any(c.is_satisfiable() is not None for c in out)
            and any(c.is_satisfiable() is None for c in out)):
        raise ValueError(f"a population of {count} r={r} circuits does not "
                         f"hold both verdicts; take a count of at least 3")
    return out


#: the largest sample a suite takes.  sample_circuits holds every circuit
#: before the first is decided: 10,000 at r = 6 take about 1 s and 7 MB to
#: make, and biconditional-irr decides them in about 20 s (2-vCPU guest,
#: CPython 3.11.7)
MAX_SAMPLE_COUNT = 10_000


def population(r: int, count: int, seed: int) -> list:
    """The suites' inputs: every r-input circuit for r <= 2, else a sample.
    r and count are checked before any 2^r work: past 2 *
    EXHAUSTIVE_ELL_BOUND the builders give a stage-19 register the oracles
    refuse and a stage-36 instance with no register, a sample slice to
    a negative count would drop circuits from its end, and a count past
    MAX_SAMPLE_COUNT would fill memory before any output."""
    r_max = 2 * reduction.EXHAUSTIVE_ELL_BOUND
    if not 1 <= r <= r_max:
        raise ValueError(f"input count r={r} is outside 1..{r_max}")
    if count < 1:
        raise ValueError(f"circuit count {count} is below 1")
    if count > MAX_SAMPLE_COUNT:
        raise ValueError(f"circuit count {count} is above {MAX_SAMPLE_COUNT}")
    return all_small_circuits(r) if r <= 2 else sample_circuits(r, count, seed)


# ---------------------------------------------------------------------------

def suite_biconditional_irr(r: int, seed: int = 1, count: int = 20) -> SuiteResult:
    """Irreducibility of the built register must match satisfiability."""
    lines = []
    ok = True
    pop = population(r, count, seed)
    agree = 0
    for f0 in pop:
        sat = f0.is_satisfiable() is not None
        inst = reduction.build_irreducibility_fsr(f0)
        irr = analysis.is_irreducible(inst.fsr)
        good = irr == sat
        agree += good
        ok = ok and good
        if not good:
            lines.append(f"FAIL r={r} table={f0.truth_table().mask:#x} "
                         f"sat={sat} irreducible={irr}")
    lines.append(f"{agree}/{len(pop)} truth tables consistent")
    return SuiteResult(f"biconditional-irr r={r}", lines, ok)


def suite_biconditional_dec(r: int, seed: int = 1, count: int = 20) -> SuiteResult:
    """Indecomposability of the built register must match satisfiability;
    unsatisfiable inputs must reproduce the linear register bit-exactly."""
    lines = []
    ok = True
    pop = population(r, count, seed)
    agree = 0
    for f0 in pop:
        sat = f0.is_satisfiable() is not None
        inst = reduction.build_indecomposability_fsr(f0)
        if inst.stage <= 4:
            rep = analysis.is_decomposable(inst.fsr, "brute")
        else:
            rep = analysis.is_decomposable(inst.fsr, "guided")
        good = rep.decomposable == (not sat)
        if not sat:
            p1f = lfsr.lfsr_of(lfsr.LfsrFamily.for_ell(inst.ell).p1)
            good = good and inst.fsr == p1f
        agree += good
        ok = ok and good
        if not good:
            lines.append(f"FAIL r={r} table={f0.truth_table().mask:#x} "
                         f"sat={sat} decomposable={rep.decomposable}")
    lines.append(f"{agree}/{len(pop)} truth tables consistent")
    return SuiteResult(f"biconditional-dec r={r}", lines, ok)


def suite_lemma11(ell: int, seed: int = 1) -> SuiteResult:
    """Join-graph facts for one satisfiable and one unsatisfiable instance:
    acyclic, long cycles never isolated, short cycles all isolated exactly
    in the unsatisfiable case."""
    lines = []
    ok = True
    oracle = reduction.Alg1Oracle(ell)      # refuses a bad ell first
    r = 2 if ell == 1 else 2 * ell - 1
    rng = random.Random(seed)
    n = 1 << r
    sat_bits = [0] * n
    sat_bits[rng.randrange(n)] = 1
    cases = [("sat", circuit.from_bits(sat_bits)),
             ("unsat", circuit.from_bits([0] * n))]
    lam = oracle.lam_table()
    for tag, f0 in cases:
        inst = reduction.build_irreducibility_fsr(f0)
        graph = analysis.cycle_join_graph(oracle.base, inst.fsr, lam)
        ok = _line(lines, ok, graph.is_acyclic(), f"{tag}: graph acyclic")
        ok = _line(lines, ok, all(not graph.isolated(c) for c in oracle.c6),
                   f"{tag}: every long cycle non-isolated")
        shorts = [c for c in oracle.cycles if oracle.p0_side(c)]
        all_iso = all(graph.isolated(c) for c in shorts)
        ok = _line(lines, ok, all_iso == (tag == "unsat"),
                   f"{tag}: short cycles all isolated iff unsatisfiable")
        ok = _line(lines, ok, graph.verify_join_identity(),
                   f"{tag}: components map one-to-one onto joined cycles")
    return SuiteResult(f"lemma11 ell={ell}", lines, ok)


SUITES = {
    "lemma7": lambda args: suite_lemma7(args.ell),
    "lemma11": lambda args: suite_lemma11(args.ell, args.seed),
    "biconditional-irr": lambda args: suite_biconditional_irr(
        args.r, args.seed, args.count),
    "biconditional-dec": lambda args: suite_biconditional_dec(
        args.r, args.seed, args.count),
    "min-sizes": lambda args: suite_min_sizes(args.seed),
    "conjprop": lambda args: suite_conjprop(args.ell),
}
