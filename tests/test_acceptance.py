"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is exact;
the stated runtime budgets are asserted with the instance-building time
included where the criterion covers it.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from fsrkit import analysis as A
from fsrkit import circuit as C
from fsrkit import fsr as F
from fsrkit import lfsr as L
from fsrkit import reduction as R
from fsrkit import verify as V


@dataclass
class Record:
    f0: C.Circuit
    sat: bool
    inst: R.ReductionInstance
    subs: list = field(default=None)


def build_records(kind, circuits):
    out = []
    for f0 in circuits:
        sat = f0.is_satisfiable() is not None
        if kind == "irr":
            inst = R.build_irreducibility_fsr(f0)
        else:
            inst = R.build_indecomposability_fsr(f0)
        out.append(Record(f0=f0, sat=sat, inst=inst))
    return out


@pytest.fixture(scope="module")
def irr_l1():
    t0 = time.monotonic()
    recs = build_records("irr", V.all_small_circuits(1) + V.all_small_circuits(2))
    return recs, time.monotonic() - t0


@pytest.fixture(scope="module")
def irr_l3():
    t0 = time.monotonic()
    circuits = V.sample_circuits(5, 10, seed=101) + \
        V.sample_circuits(6, 10, seed=102)
    recs = build_records("irr", circuits)
    return recs, time.monotonic() - t0


@pytest.fixture(scope="module")
def dec_l1():
    t0 = time.monotonic()
    recs = build_records("dec", V.all_small_circuits(1) + V.all_small_circuits(2))
    return recs, time.monotonic() - t0


@pytest.fixture(scope="module")
def dec_l3():
    t0 = time.monotonic()
    circuits = V.sample_circuits(5, 5, seed=201) + \
        V.sample_circuits(6, 5, seed=202)
    recs = build_records("dec", circuits)
    return recs, time.monotonic() - t0


def report(num, label, t):
    print(f"\nACCEPTANCE {num:>2} {label}: PASS ({t:.2f}s)")


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_family_cycle_structures():
    t0 = time.monotonic()
    for ell in (1, 3):
        rep = L.family_cycle_counts(ell)
        assert rep.ok
        assert rep.counts == rep.expected
    r1 = L.family_cycle_counts(1)
    assert r1.counts["p0"] == {1: 1, 3: 1}
    assert r1.counts["p1"] == {1: 2, 3: 2}
    assert r1.counts["p2"] == {1: 1, 3: 1, 6: 2}
    r3 = L.family_cycle_counts(3)
    assert r3.counts["p0"] == {1: 1, 9: 7}
    assert r3.counts["p1"] == {1: 2, 9: 14}
    assert r3.counts["p2"] == {1: 1, 9: 7, 18: 224}
    dt = time.monotonic() - t0
    assert dt < 1.0
    report(1, "family cycle structures exact at ell in {1,3}", dt)


# -- 2 ------------------------------------------------------------------------

def test_criterion_02_minimum_blocks():
    t0 = time.monotonic()
    rng = random.Random(2)
    for m in range(1, 17):
        g = C.gadget_min(m)
        assert g.size == (13 * m * m + 37 * m - 44) // 2
        if m <= 6:
            pairs = list(range(1 << (2 * m)))
        else:
            pairs = [rng.getrandbits(2 * m) for _ in range(10_000)]
        masks = g.evaluate_batch(pairs)
        for j, a in enumerate(pairs):
            got = 0
            for i, mk in enumerate(masks):
                got |= ((mk >> j) & 1) << i
            assert got == min(a & ((1 << m) - 1), a >> m)
    dt = time.monotonic() - t0
    assert dt < 5.0
    report(2, "minimum-block sizes and behaviour, m=1..16", dt)


# -- 3 and 4: irreducibility biconditional -------------------------------------

def _check_irr_biconditional(recs):
    for rec in recs:
        rec.subs = A.find_subfsrs(rec.inst.fsr)
        irreducible = not rec.subs
        assert irreducible == rec.sat, (
            f"table={rec.f0.truth_table().mask:#x} sat={rec.sat} "
            f"irreducible={irreducible}")


def test_criterion_03_irreducibility_biconditional_ell1(irr_l1):
    recs, build_t = irr_l1
    t0 = time.monotonic()
    assert len(recs) == 20
    _check_irr_biconditional(recs)
    dt = time.monotonic() - t0 + build_t
    assert dt < 10.0
    report(3, "irreducible iff satisfiable, all 20 tables at ell=1", dt)


def test_criterion_04_irreducibility_biconditional_ell3(irr_l3):
    recs, build_t = irr_l3
    t0 = time.monotonic()
    assert len(recs) >= 20
    assert any(r.sat for r in recs) and any(not r.sat for r in recs)
    assert all(r.inst.stage == 12 for r in recs)
    _check_irr_biconditional(recs)
    dt = time.monotonic() - t0 + build_t
    assert dt < 600.0
    report(4, f"irreducible iff satisfiable, {len(recs)} circuits at ell=3", dt)


# -- 5 and 6: indecomposability biconditional ----------------------------------

def test_criterion_05_indecomposability_biconditional_ell1(dec_l1):
    recs, build_t = dec_l1
    t0 = time.monotonic()
    assert len(recs) == 20
    for rec in recs:
        rep = A.is_decomposable(rec.inst.fsr, "brute")
        assert rep.complete
        assert rep.decomposable == (not rec.sat), (
            f"table={rec.f0.truth_table().mask:#x}")
        if rep.decomposable:
            assert F.product_fsr(rep.outer, rep.inner) == rec.inst.fsr
    dt = time.monotonic() - t0 + build_t
    assert dt < 10.0
    report(5, "decomposable iff unsatisfiable, all 20 tables at ell=1", dt)


def test_criterion_06_indecomposability_biconditional_ell3(dec_l3):
    recs, build_t = dec_l3
    t0 = time.monotonic()
    assert len(recs) >= 10
    assert any(r.sat for r in recs) and any(not r.sat for r in recs)
    p1_register = L.lfsr_of(L.LfsrFamily.for_ell(3).p1)
    for rec in recs:
        guided = A.is_decomposable(rec.inst.fsr, "guided")
        brute = A.is_decomposable(rec.inst.fsr, "brute", max_inner_stage=3)
        assert guided.decomposable == (not rec.sat)
        assert brute.decomposable == guided.decomposable
        if not rec.sat:
            assert rec.inst.fsr == p1_register  # bit-exact linear register
        if guided.decomposable:
            assert F.product_fsr(guided.outer, guided.inner) == rec.inst.fsr
    dt = time.monotonic() - t0 + build_t
    assert dt < 600.0
    report(6, f"decomposable iff unsatisfiable, {len(recs)} circuits at ell=3",
           dt)


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_join_graph_properties(irr_l1, irr_l3):
    t0 = time.monotonic()
    for ell, (recs, _) in ((1, irr_l1), (3, irr_l3)):
        oracle = R.Alg1Oracle(ell)
        base = L.lfsr_of(oracle.family.p2)
        lam = oracle.lam_table()
        shorts = [c for c in oracle.cycles if oracle.p0_side(c)]
        for rec in recs:
            graph = A.cycle_join_graph(base, rec.inst.fsr, lam)
            assert graph.is_acyclic()
            assert all(not graph.isolated(c) for c in oracle.c6)
            all_isolated = all(graph.isolated(c) for c in shorts)
            assert all_isolated == (not rec.sat)
            assert graph.verify_join_identity()
    dt = time.monotonic() - t0
    report(7, "join graphs acyclic; isolation pattern matches verdict", dt)


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_subregister_stages(irr_l1, irr_l3):
    t0 = time.monotonic()
    found = 0
    for ell, (recs, _) in ((1, irr_l1), (3, irr_l3)):
        for rec in recs:
            subs = rec.subs if rec.subs is not None \
                else A.find_subfsrs(rec.inst.fsr)
            for sub in subs:
                found += 1
                assert sub.stage == 2 * ell
    assert found > 0
    dt = time.monotonic() - t0
    report(8, f"all {found} sub-registers found have stage exactly 2*ell", dt)


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_toggle_field_equality(irr_l1, irr_l3, dec_l1, dec_l3):
    t0 = time.monotonic()
    for ell, (recs, _) in ((1, irr_l1), (3, irr_l3)):
        oracle = R.Alg1Oracle(ell)
        width = 4 * ell - 1
        for rec in recs:
            table = rec.inst.f3_table
            assert len(table) == 1 << width
            circuit_bits = tuple(rec.inst.f3_circuit.truth_table().bits())
            assert circuit_bits == table
            ref = R.f3_reference_irr(ell, rec.f0, oracle)
            assert all(ref(x) == table[x] for x in range(1 << width))
    for ell, (recs, _) in ((1, dec_l1), (3, dec_l3)):
        maps = R.Alg2Maps(ell)
        width = 2 * ell
        for rec in recs:
            table = rec.inst.f3_table
            assert len(table) == 1 << width
            circuit_bits = tuple(rec.inst.f3_circuit.truth_table().bits())
            assert circuit_bits == table
            ref = R.f3_reference_dec(ell, rec.inst.f2_table, maps)
            assert all(ref(x) == table[x] for x in range(1 << width))
    dt = time.monotonic() - t0
    report(9, "semantic, circuit and reference toggle fields all agree", dt)


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_size_bounds(irr_l1, irr_l3, dec_l1, dec_l3):
    t0 = time.monotonic()
    for recs, _ in (irr_l1, irr_l3):
        for rec in recs:
            rep = rec.inst.size_report
            assert rep.f1_size < 37908 * rec.f0.size ** 4
    for recs, _ in (dec_l1, dec_l3):
        for rec in recs:
            rep = rec.inst.size_report
            assert rep.f1_size <= 264 * rec.f0.size ** 3
    dt = time.monotonic() - t0
    report(10, "every emitted circuit is inside its size ceiling", dt)


# -- 11 -----------------------------------------------------------------------

def _conjugate_minimum_sweep(count):
    rng = random.Random(1103)
    for _ in range(count):
        n = rng.randint(2, 10)
        gmask = rng.getrandbits(1 << (n - 1))
        table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1) for s in range(1 << n)]
        total = 1 << n
        least = [0] * total
        seen = bytearray(total)
        for seed in range(total):
            if seen[seed]:
                continue
            orbit = []
            s = seed
            while not seen[s]:
                seen[s] = 1
                orbit.append(s)
                s = (s >> 1) | (table[s] << (n - 1))
            mn = min(orbit)
            for v in orbit:
                least[v] = mn
        for u in range(total):
            assert min(least[u], least[u ^ 1]) < min(u, u ^ 1) or u in (0, 1)


def _window_equivalence_sweep(count):
    rng = random.Random(1105)
    outcomes = set()
    for _ in range(count):
        cycles = {F.Cycle([rng.randint(0, 1)
                           for _ in range(rng.randint(1, 10))])
                  for _ in range(rng.randint(1, 4))}
        m = rng.randint(1, 6)
        # the three window statements, each computed directly: the
        # m-windows number the period sum; dropping the first, or the last,
        # bit is injective on the (m+1)-windows
        wins = set().union(*(c.window_ints(m + 1) for c in cycles))
        a = (len(set().union(*(c.window_ints(m) for c in cycles)))
             == sum(c.period for c in cycles))
        b = len({w >> 1 for w in wins}) == len(wins)
        c = len({w & ((1 << m) - 1) for w in wins}) == len(wins)
        assert a == b == c
        outcomes.add(a)
    assert outcomes == {True, False}


def _round_trip_sweep():
    for n in range(1, 6):
        for gmask in range(1 << (1 << (n - 1))):
            table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                     for s in range(1 << n)]
            f = F.Fsr(n, table=table)
            assert F.fsr_from_cycles(F.cycle_structure(f).cycles, n) == f


def _cascade_sweep(count):
    rng = random.Random(1111)
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, min(6, 12 - n))
        fmask = rng.getrandbits(1 << (n - 1)) if n > 1 else rng.getrandbits(1)
        gmask = rng.getrandbits(1 << (m - 1)) if m > 1 else rng.getrandbits(1)
        f = F.Fsr(n, table=[(s & 1) ^ ((fmask >> (s >> 1)) & 1)
                            for s in range(1 << n)])
        g = F.Fsr(m, table=[(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                            for s in range(1 << m)])
        cs = F.simulate_cascade(f, g)
        assert sum(c.period for c in cs) == 1 << (n + m)
        assert cs == F.cycle_structure(F.product_fsr(f, g))


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    _conjugate_minimum_sweep(1000)
    _window_equivalence_sweep(1000)
    for ell in (1, 3):
        assert V.suite_conjprop(ell).ok
    _round_trip_sweep()
    _cascade_sweep(100)
    dt = time.monotonic() - t0
    assert dt < 300.0
    report(11, "conjugate-minimum, window equivalences, round trips, cascades",
           dt)
