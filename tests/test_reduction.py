import functools
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fsrkit import analysis as A
from fsrkit import circuit as C
from fsrkit import cli
from fsrkit import fsr as F
from fsrkit import lfsr as L
from fsrkit import reduction as R
from fsrkit import verify
from fsrkit.bitvec import mask_to_bits


def test_ell_for():
    assert R.ell_for(1) == (0, 1)
    assert R.ell_for(2) == (0, 1)
    assert R.ell_for(3) == (1, 3)
    assert R.ell_for(6) == (1, 3)
    assert R.ell_for(7) == (2, 9)
    assert R.ell_for(18) == (2, 9)
    assert R.ell_for(19) == (3, 27)
    with pytest.raises(ValueError):
        R.ell_for(0)
    for r in range(1, 40):
        _, ell = R.ell_for(r)
        assert r <= 2 * ell <= 3 * r - 1


def test_f2_table_cases():
    # constant-0 input stays constant-0
    assert R.f2_table(C.TruthTable.from_bits([0, 0])).bits() == bytes([0, 0])
    # constant-1: zero input pinned to 0, all-ones stays 1
    assert R.f2_table(C.TruthTable.from_bits([1, 1])).bits() == bytes([0, 1])
    # negation: witness at the zero input moves to the all-ones input
    assert R.f2_table(C.TruthTable.from_bits([1, 0])).bits() == bytes([0, 1])
    assert R.f2_table(C.TruthTable.from_bits([0, 1])).bits() == bytes([0, 1])


def test_f2_preserves_satisfiability():
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        f2 = R.f2_table(C.TruthTable.from_bits(bits))
        assert (f2.mask != 0) == (mask != 0)
        assert f2[0] == 0


def test_f2_transform_circuit_matches_table():
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        f0 = C.from_bits(bits)
        assert R.f2_transform(f0).truth_table() == \
            R.f2_table(C.TruthTable.from_bits(bits))


# -- hand-traced toggle tables at ell = 1 ------------------------------------

def test_alg1_f3_table_unsat():
    inst = R.build_irreducibility_fsr(C.from_bits([0, 0]))
    assert inst.f3_table == (0, 1, 0, 0, 0, 0, 0, 0)


def test_alg1_f3_table_sat():
    inst = R.build_irreducibility_fsr(C.from_bits([0, 1]))
    assert inst.f3_table == (0, 1, 0, 1, 0, 0, 0, 0)


def test_alg1_instance_shape():
    inst = R.build_irreducibility_fsr(C.from_bits([0, 1]))
    assert inst.stage == 4 and inst.ell == 1 and inst.k == 0
    assert F.is_nonsingular(inst.fsr)
    assert A.is_irreducible(inst.fsr)
    # an instance is its kind and its circuit: the semantic field and the
    # normalized table are made only when read
    assert inst == R.ReductionInstance("irr", inst.f0)
    assert "f3_semantic" not in vars(inst) and inst.f2_table is None
    with pytest.raises(KeyError):
        R.ReductionInstance("xor", inst.f0)


def test_alg1_unsat_contains_base_subregister():
    inst = R.build_irreducibility_fsr(C.from_bits([0, 0]))
    subs = A.find_subfsrs(inst.fsr)
    assert any(s.fsr == L.lfsr_of(L.parse_poly("x^2 + x + 1")) for s in subs)
    assert not A.is_irreducible(inst.fsr)


def test_alg1_circuit_agrees_with_semantics():
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1], [0, 1, 1, 0]):
        inst = R.build_irreducibility_fsr(C.from_bits(bits))
        assert tuple(inst.f3_circuit.truth_table().bits()) == inst.f3_table
        f1 = inst.feedback_circuit()
        assert bytes(f1.truth_table().bits()) == inst.fsr.table


def test_alg1_size_report():
    inst = R.build_irreducibility_fsr(C.from_bits([0, 1]))
    rep = inst.size_report
    assert rep.bound == 37908
    assert rep.bound_ok and rep.f1_size < rep.bound
    assert rep.f1_size == rep.f3_size + 11
    assert rep.formula_value == R.alg1_size_formula(1, 1)
    # measured size sits near the closed form
    assert abs(rep.f1_size - rep.formula_value) < 1000


@pytest.mark.parametrize("bits", [[0, 1], [0, 1, 0, 0, 0, 0, 0, 0]])
def test_feedback_circuit_adds_one_xor_per_tap(bits):
    # the wrap adds the x0 input and one five-gate XOR per tap of the
    # family polynomial; at ell = 1 the dec polynomial is x^3 + 1
    for build, name in ((R.build_irreducibility_fsr, "p2"),
                        (R.build_indecomposability_fsr, "p1")):
        inst = build(C.from_bits(bits))
        taps = L.tap_mask(getattr(L.LfsrFamily.for_ell(inst.ell), name))
        rep = inst.size_report
        assert rep.f1_size == rep.f3_size + 1 + 5 * taps.bit_count()
        text = "".join(F.fsr_circuit_pieces(inst.stage,
                                            inst.feedback_circuit()))
        assert F.parse_fsr(text) == inst.fsr


@pytest.mark.parametrize("build", [R.build_irreducibility_fsr,
                                   R.build_indecomposability_fsr])
def test_the_builders_make_no_feedback_circuit(build, monkeypatch):
    def wrap(f3c, p):
        raise AssertionError("a builder made the feedback circuit")

    monkeypatch.setattr(R, "_wrap_feedback", wrap)
    inst = build(verify.sample_circuits(6, 32, 41)[0])
    assert inst.ell == 3 and inst.size_report is not None


@pytest.mark.parametrize("r, seed", [(2, 41), (2, 42), (6, 41), (6, 42)])
def test_the_size_report_counts_the_feedback_circuit(r, seed):
    # the report reads f1's size off f3; the circuit made from f3 has it
    f0 = verify.sample_circuits(r, 32, seed)[0]
    for build in (R.build_irreducibility_fsr, R.build_indecomposability_fsr):
        inst = build(f0)
        assert inst.ell == (1 if r == 2 else 3)
        f1, rep = inst.feedback_circuit(), inst.size_report
        assert (rep.f1_size, rep.f1_gates) == (f1.size, f1.gate_count)


def test_a_wrap_off_its_count_is_refused(monkeypatch):
    f3 = R.alg1_f3_circuit(1, C.from_bits([0, 1]))
    p2 = L.LfsrFamily.for_ell(1).p2
    size, gates = R._feedback_size(f3, p2)
    monkeypatch.setattr(R, "_feedback_size", lambda c, p: (size, gates + 1))
    with pytest.raises(F.InvariantError):
        R._wrap_feedback(f3, p2)


def test_a_toggle_circuit_with_permuted_inputs_is_refused():
    # x0 XOR f3(x1, x2) is [0,1,0,1,1,0,0,1]; moving every id by one would
    # read input 1 where input 0 is meant.  An instance holding it as f3
    # makes no feedback circuit either
    f3 = C.parse_circuit("v0 INPUT 1\nv1 INPUT 0\nv2 NOT v1\n"
                         "v3 AND v0 v2\nSINK v3\n")
    p = L.parse_poly("x^3 + 1")
    with pytest.raises(ValueError):
        R._wrap_feedback(f3, p)
    inst = R.build_indecomposability_fsr(C.from_bits([0, 1, 0, 0]))
    assert inst.poly == p
    inst.f3_circuit = f3
    with pytest.raises(ValueError):
        inst.feedback_circuit()


def forbid_gates(monkeypatch):
    """Make building any gate raise from here on."""
    def built(*args, **kw):
        raise AssertionError("a gate was built")

    monkeypatch.setattr(C.Builder, "_add", built)
    monkeypatch.setattr(C.Builder, "min_word", built)


def test_the_irreducibility_circuit_is_refused_above_ell_9(monkeypatch):
    # 19 inputs give ell = 27 and stage 108: the instance is built, with no
    # register, and each read of a circuit part is refused before any gate
    b = C.Builder(19)
    f0 = b.build(b.and_chain(b.inputs()))
    forbid_gates(monkeypatch)
    inst = R.build_irreducibility_fsr(f0)
    assert (inst.ell, inst.stage, inst.fsr) == (27, 108, None)
    for read in (lambda: inst.f3_circuit, lambda: inst.size_report,
                 inst.feedback_circuit):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == ("an irreducibility circuit at ell=27 "
                                   "(stage 108) is past the bound ell <= 9 "
                                   "(stage 36)")


@pytest.mark.parametrize("kind,circuit_builder", [
    ("irr", "alg1_f3_circuit"), ("dec", "alg2_f3_circuit")])
def test_each_instance_part_is_made_once_when_first_read(monkeypatch, kind,
                                                          circuit_builder):
    calls = []

    def spy(name):
        real = getattr(R, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(R, name, counted)

    spy(circuit_builder)
    spy("_toggled_linear")
    build = {"irr": R.build_irreducibility_fsr,
             "dec": R.build_indecomposability_fsr}[kind]
    inst = build(C.from_bits([0, 1, 1, 0]))
    assert calls == []
    for _ in range(2):
        inst.fsr, inst.f3_table
    assert calls == ["_toggled_linear"]
    for _ in range(2):
        inst.size_report, inst.f3_circuit
    assert calls == ["_toggled_linear", circuit_builder]


def test_ell3_circuits_are_written_as_pinned():
    # the text of four ell = 3 circuits over the CI memory-smoke input, as
    # digests: a change to how the Builder lays out vertices (ids, kinds or
    # operands) changes them
    f0 = verify.sample_circuits(6, 32, 302)[0]
    f3 = R.alg1_f3_circuit(3, f0)
    dec = R.alg2_f3_circuit(3, R.f2_transform(f0))
    family = L.LfsrFamily.for_ell(3)
    circuits = {
        "irr f3": f3,
        "irr f1": R._wrap_feedback(f3, family.p2),
        "dec f3": dec,
        "dec f1": R._wrap_feedback(dec, family.p1),
    }
    digests = {name: hashlib.sha256(C.write_circuit(c).encode()).hexdigest()
               for name, c in circuits.items()}
    assert digests == {
        "irr f3": "634fa34e3c84184c0ee9c217df17ab6fec5b2ba8961c8556e8a71f47722359e6",
        "irr f1": "110ecb60645f296e3f33ba2abff5f69f0a0f7d30e6c4bb97386ff1d6caea521b",
        "dec f3": "025a5236ab720676ecc26f798aac12b336768264549f9b0908a836f4d24af838",
        "dec f1": "e0969be0b7bb446b13731b1371ab992b37091acb47641744326a4b1391ef617f",
    }
    assert circuits["dec f1"].size == 2782


def test_stage19_dec_circuits_are_written_as_pinned():
    # the text of the ell = 9 indecomposability circuits over and18, whose
    # 26 width-18 minimum blocks are written from their record, as digests
    b = C.Builder(18)
    and18 = b.build(b.and_chain(range(18)))
    f3 = R.alg2_f3_circuit(9, R.f2_transform(and18))
    f1 = R._wrap_feedback(f3, L.LfsrFamily.for_ell(9).p1)
    digests = [hashlib.sha256(C.write_circuit(c).encode()).hexdigest()
               for c in (f3, f1)]
    assert digests == [
        "7f73663330680e332025a328dd1a47a82fe5920e98fea321e954d1971971f51b",
        "291d0bcfaa6e2684b6c9d1bba54d60fcdbd289406757fd2b2206b77b72d28d9c",
    ]
    assert f1.size == 63_241
    assert [m for _, m, _ in f1.stamps] == [18] * 26


def test_alg2_unsat_is_exactly_the_linear_register():
    for ell, bits in ((1, [0, 0]), (1, [0, 0, 0, 0]), (3, [0] * 32)):
        inst = R.build_indecomposability_fsr(C.from_bits(bits))
        assert inst.ell == ell
        assert inst.fsr == L.lfsr_of(L.LfsrFamily.for_ell(ell).p1)


def test_alg2_join_graph_over_p1():
    cases = {1: [[0, 1], [1, 0], [1, 1], [0, 0], [0, 1, 1, 0]],
             3: [[0, 1] + [0] * 30, [1] + [0] * 31, [0] * 32,
                 [1] * 32]}
    for ell, tables in cases.items():
        maps = R.Alg2Maps(ell)
        base = L.lfsr_of(L.LfsrFamily.for_ell(ell).p1)
        lam = maps.lam_table()
        for bits in tables:
            inst = R.build_indecomposability_fsr(C.from_bits(bits))
            graph = A.cycle_join_graph(base, inst.fsr, lam)
            assert graph.is_acyclic()
            assert graph.verify_join_identity()
            # arcs always cross from the base family to the complement family
            for arc in graph.arcs:
                assert maps.chi(min(arc.tail.window_ints(2 * ell + 1))) == 0
                assert maps.chi(min(arc.head.window_ints(2 * ell + 1))) == 1


def test_alg2_sat_table():
    inst = R.build_indecomposability_fsr(C.from_bits([0, 1]))
    assert inst.f3_table == (0, 0, 0, 1)
    assert inst.stage == 3
    assert F.is_nonsingular(inst.fsr)
    assert not A.is_decomposable(inst.fsr, "brute").decomposable


def test_alg2_circuit_agrees_with_semantics():
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1], [0, 1, 1, 0]):
        inst = R.build_indecomposability_fsr(C.from_bits(bits))
        assert tuple(inst.f3_circuit.truth_table().bits()) == inst.f3_table
        f1 = inst.feedback_circuit()
        assert bytes(f1.truth_table().bits()) == inst.fsr.table
        assert inst.size_report.bound_ok


# -- the proof-side maps ------------------------------------------------------

def test_alg1_oracle_basics():
    oracle = R.Alg1Oracle(1)
    zero = F.Cycle([0])
    assert oracle.rho(zero) == 0
    assert oracle.lam(0) == 1
    # the unit state is a representative but its conjugate sits on [0]
    assert oracle.lam(1) == 0
    assert oracle.d_set == frozenset()
    assert len(oracle.c6) == 2
    assert all(oracle.lam(v) * oracle.lam(v ^ 1) == 0 for v in range(16))
    for c in oracle.cycles:
        assert sum(map(oracle.lam, c.window_ints(4))) <= 1


def test_alg1_oracle_deferred_set_at_ell3():
    oracle = R.Alg1Oracle(3)
    assert len(oracle.d_set) == 1
    assert all(c.period == 18 for c in oracle.d_set)
    # the deferred representative is the least window pushed 5*ell steps on
    c = next(iter(oracle.d_set))
    s = min(c.window_ints(12))
    step = L.linear_step(L.LfsrFamily.for_ell(3).p2)
    for _ in range(5 * 3):
        s = step(s)
    assert oracle.rho(c) == s


def per_state_alg1(ell):
    """D, rho and lam as first written: one pass over every state."""
    step = L.linear_step(L.LfsrFamily.for_ell(ell).p2)
    n = 1 << (4 * ell)
    windows = []        # each orbit from its least state, by stepping
    cid = [None] * n
    for seed in range(n):
        if cid[seed] is None:
            orbit = [seed]
            s = step(seed)
            while s != seed:
                orbit.append(s)
                s = step(s)
            for s in orbit:
                cid[s] = len(windows)
            windows.append(orbit)
    minw = [min(o) for o in windows]
    short = [len(o) != 6 * ell for o in windows]
    d = set()
    for i, orbit in enumerate(windows):
        if not short[cid[minw[i] ^ 1]]:
            continue
        if not any(not short[cid[v ^ 1]] and (v ^ 1) == minw[cid[v ^ 1]]
                   for v in orbit):
            d.add(i)
    rho = []
    for i in range(len(windows)):
        v = minw[i]
        if i in d:
            for _ in range(5 * ell):
                v = step(v)
        rho.append(v)
    rho_set = set(rho)
    lam = [1 if (v in rho_set and not short[cid[v ^ 1]]) else 0
           for v in range(n)]
    cycles = [F.Cycle(s & 1 for s in o) for o in windows]
    return {cycles[i] for i in d}, dict(zip(cycles, rho)), lam


@pytest.mark.parametrize("ell", [1, 3])
def test_alg1_oracle_matches_the_per_state_form(ell):
    oracle = R.Alg1Oracle(ell)
    d, rho, lam = per_state_alg1(ell)
    assert oracle.d_set == d
    assert {c: oracle.rho(c) for c in oracle.cycles} == rho
    assert oracle.lam_table() == bytes(lam)
    assert [oracle.lam(v) for v in range(1 << (4 * ell))] == lam


def test_conjugate_of_base_window_lands_on_long_cycle():
    for ell in (1, 3):
        oracle = R.Alg1Oracle(ell)
        period_at = {v: c.period for c in oracle.cycles
                     for v in c.window_ints(4 * ell)}
        for c in oracle.cycles:
            if oracle.p0_side(c):
                for v in c.window_ints(4 * ell):
                    assert period_at[v ^ 1] == 6 * ell


def test_alg1_reference_matches_pseudocode():
    oracle = R.Alg1Oracle(1)
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        f0 = C.from_bits(bits)
        ref = R.f3_reference_irr(1, f0, oracle)
        sem = R.alg1_f3_semantic(1, f0.truth_table())
        assert all(ref(x) == sem(x) for x in range(8))


def test_alg2_maps_identities():
    for ell in (1, 3):
        maps = R.Alg2Maps(ell)
        n = 2 * ell + 1
        ones = (1 << n) - 1
        for v in range(1 << n):
            assert maps.chi(v ^ 1) == maps.chi(v) ^ 1
            assert maps.chi(v ^ ones) == maps.chi(v) ^ 1
            assert maps.pi_int(v ^ 1) == maps.pi_int(v) ^ 1


def test_alg2_reference_matches_pseudocode():
    maps = R.Alg2Maps(1)
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        f2 = R.f2_table(C.TruthTable.from_bits(bits))
        ref = R.f3_reference_dec(1, f2, maps)
        sem = R.alg2_f3_semantic(1, f2)
        assert all(ref(x) == sem(x) for x in range(4))


@functools.lru_cache(maxsize=None)
def family_steps(ell):
    """The p0 and p1 state maps, made apart from Alg2Maps."""
    fam = L.LfsrFamily.for_ell(ell)
    return L.linear_step(fam.p0), L.linear_step(fam.p1)


def walk_lam(maps, v):
    """lam as first written: the 3*ell-step p0 walk from pi(v), and a mark
    where it starts at its least state."""
    if maps.chi(v):
        return 0
    p0_step = family_steps(maps.ell)[0]
    c = [maps.pi_int(v)]
    for _ in range(3 * maps.ell):
        c.append(p0_step(c[-1]))
    return int(c[0] == min(c[1:]))


def orbit_walk_reference_dec(ell, f2_tt, maps):
    """f3_reference_dec as first written: from each marked window, step
    its p1 orbit until f2 hits the window difference or the walk is back."""
    m2 = 2 * ell
    f2b = f2_tt.bits()
    shift_r = m2 - f2_tt.arity
    p1_step = family_steps(ell)[1]

    def ref(x):
        y = (((x >> (m2 - 1)) ^ (x >> (ell - 1))) & 1) | (x << 1)
        if not walk_lam(maps, y):
            return 0
        v = y
        while True:
            if f2b[maps.pi_int(v) >> shift_r]:
                return 1
            v = p1_step(v)
            if v == y:
                return 0

    return ref


@pytest.mark.parametrize("ell", [1, 3])
def test_alg2_lam_matches_the_per_state_walk(ell):
    maps = R.Alg2Maps(ell)
    want = [walk_lam(maps, v) for v in range(1 << (2 * ell + 1))]
    assert maps.lam_table() == bytes(want)
    assert [maps.lam(v) for v in range(1 << (2 * ell + 1))] == want


def test_alg2_reference_matches_the_orbit_walk():
    # every two-input table at ell = 1, raw (f2 need not be normalized)
    maps = R.Alg2Maps(1)
    for mask in range(16):
        f2 = C.TruthTable(2, mask)
        ref = R.f3_reference_dec(1, f2, maps)
        want = orbit_walk_reference_dec(1, f2, maps)
        assert [ref(x) for x in range(4)] == [want(x) for x in range(4)]
    # sampled r = 5 and r = 6 tables at ell = 3, sparse to dense
    maps = R.Alg2Maps(3)
    rng = random.Random(33)
    for r in (5, 6):
        for density in (0.02, 0.05, 0.1, 0.3, 0.5) * 3:
            bits = [int(rng.random() < density) for _ in range(1 << r)]
            f2 = R.f2_table(C.TruthTable.from_bits(bits))
            ref = R.f3_reference_dec(3, f2, maps)
            want = orbit_walk_reference_dec(3, f2, maps)
            assert [ref(x) for x in range(64)] == [want(x) for x in range(64)]


def test_alg2_orbit_table_equals_the_semantic_field():
    # the dec table read off the p0 orbits is the per-window walk's on all
    # windows: every one- and two-input table at ell = 1 (raw, so f2 may be
    # 1 at the zero input), sampled r = 5 and r = 6 tables at ell = 3,
    # sparse to dense, and the 18-input AND and g AND NOT g at ell = 9
    cases = [(1, C.TruthTable(r, mask))
             for r in (1, 2) for mask in range(1 << (1 << r))]
    rng = random.Random(36)
    for r in (5, 6):
        for density in (0.02, 0.1, 0.5, 0.9):
            bits = [int(rng.random() < density) for _ in range(1 << r)]
            cases.append((3, R.f2_table(C.TruthTable.from_bits(bits))))
    b = C.Builder(18)
    g = b.and_chain(b.inputs())
    for f0 in (b.build(g), b.build(b.AND(g, b.NOT(g)))):
        cases.append((9, R.f2_table(f0.truth_table())))
    for ell, f2 in cases:
        sem = R.alg2_f3_semantic(ell, f2)
        assert R._alg2_f3_table(ell, f2) == bytes(
            map(sem, range(1 << (2 * ell)))), (ell, f2)


def test_alg1_orbit_table_equals_the_semantic_field():
    # the irr table read off the p2 orbits is the per-window walk's on all
    # windows: every one- and two-input table at ell = 1, and at ell = 3
    # every single witness at r = 6, both constants at r = 3..6 and
    # sampled r = 3..6 tables, sparse to dense
    cases = [(1, C.TruthTable(r, mask))
             for r in (1, 2) for mask in range(1 << (1 << r))]
    cases += [(3, C.TruthTable(6, 1 << w)) for w in range(64)]
    rng = random.Random(41)
    for r in (3, 4, 5, 6):
        cases += [(3, C.TruthTable(r, 0)),
                  (3, C.TruthTable(r, (1 << (1 << r)) - 1))]
        for density in (0.02, 0.1, 0.5, 0.9):
            bits = [int(rng.random() < density) for _ in range(1 << r)]
            cases.append((3, C.TruthTable.from_bits(bits)))
    for ell, f0_tt in cases:
        sem = R.alg1_f3_semantic(ell, f0_tt)
        assert R._alg1_f3_table(ell, f0_tt) == bytes(
            map(sem, range(1 << (4 * ell - 1)))), (ell, f0_tt)


def test_family_orbits_refuse_a_period_that_does_not_divide_the_span():
    # the tables read a span-step walk as its whole orbit; p2 at ell = 1
    # has periods 1, 3 and 6, so a span of 3 is refused, also under -O
    p2 = L.LfsrFamily.for_ell(1).p2
    with pytest.raises(F.InvariantError, match="does not divide 3"):
        R._family_orbits(p2, 3)
    assert sorted({len(b) for b in R._family_orbits(p2, 6)[2]}) == [1, 3, 6]


@pytest.mark.parametrize("build", [R.build_irreducibility_fsr,
                                   R.build_indecomposability_fsr])
@pytest.mark.parametrize("r", [2, 6])
def test_tables_are_not_walked_window_by_window(build, r):
    # both toggle tables come from the family orbits: reading the register
    # and its table calls the semantic field on no window
    inst = build(C.from_bits([int(i % 3 == 1) for i in range(1 << r)]))
    calls = [0]
    sem = inst.f3_semantic

    def counted(x):
        calls[0] += 1
        return sem(x)

    inst.f3_semantic = counted
    assert inst.fsr is not None and inst.f3_table is not None
    assert calls[0] == 0
    assert inst.f3_table == tuple(map(sem, range(1 << (inst.stage - 1))))


@pytest.mark.parametrize("ell,maps_ell", [(3, 1), (1, 3)])
def test_alg2_reference_refuses_maps_of_another_ell(ell, maps_ell):
    f2 = R.f2_table(C.TruthTable.from_bits([0, 1, 1, 0]))
    with pytest.raises(ValueError, match="different ell"):
        R.f3_reference_dec(ell, f2, R.Alg2Maps(maps_ell))


@pytest.fixture
def walks(monkeypatch):
    """The register of each fsr.orbits walk that state_cycles or
    cycle_structure makes, in order, read off the caller's frame; the
    registers are held, so no id is reused."""
    walked = []
    orbits = F.orbits

    def counting(succ, n):
        f = sys._getframe(1).f_locals["f"]
        assert isinstance(f, F.Fsr) and n == 1 << f.stage
        walked.append(f)
        return orbits(succ, n)

    monkeypatch.setattr(F, "orbits", counting)
    return walked


def walked_twice(walked) -> list:
    return [f for i, f in enumerate(walked)
            if any(g is f for g in walked[:i])]


@pytest.mark.parametrize("ell", [1, 3])
def test_each_register_is_walked_at_most_once(ell, walks, tmp_path, capsys):
    # cycle_structure reads a kept walk but keeps none of its own, and the
    # walk state_cycles keeps is read-only
    fam = L.LfsrFamily.for_ell(ell)
    f = L.lfsr_of(fam.p1)
    listing = F.cycle_structure(f)
    assert len(walks) == 1
    seeds, bits, ids = F.state_cycles(f)     # walks again: nothing was kept
    assert len(walks) == 2
    assert F.cycle_structure(f) == listing and F.state_cycles(f)[1] is bits
    assert len(walks) == 2
    assert type(seeds) is type(bits) is tuple
    with pytest.raises(TypeError):
        ids[0] = 1
    assert f == L.lfsr_of(fam.p1) and hash(f) == hash((f.stage, f.table))

    # every reader of a register object after its first walk reads the
    # walk state_cycles kept on it: per CLI command and per suite, no
    # register is walked twice
    r = 2 * ell
    f0 = C.from_bits([int(i == 1) for i in range(1 << r)])
    irr, dec = tmp_path / "irr.fsr", tmp_path / "dec.fsr"
    for path, build in ((irr, R.build_irreducibility_fsr),
                        (dec, R.build_indecomposability_fsr)):
        path.write_text("".join(F.fsr_pieces(build(f0).fsr)))
    irr, dec = str(irr), str(dec)
    commands = [["analyze", mode, irr]
                for mode in ("irreducible", "cycles", "subfsr")]
    commands += [["analyze", "decompose", dec, "--strategy", "guided"],
                 ["graph", irr, f"p2@{ell}"], ["graph", dec, f"p1@{ell}"],
                 ["verify", "lemma11", "--ell", str(ell)]]
    per_command = []
    for argv in commands:
        del walks[:]
        assert cli.main(argv) in (0, 1), argv
        assert walked_twice(walks) == [], argv
        per_command.append(len(walks))
    capsys.readouterr()
    # one register per analyze; the graphs walk the oracle's p2, or the
    # p0 and p1 of the maps, and nothing more
    assert per_command[:6] == [1, 1, 1, 1, 1, 2]

    # the library path of a dec instance: the reference field and the
    # join graph read one walk of the maps' base, the guided search and
    # the join identity one walk of the register
    del walks[:]
    maps = R.Alg2Maps(ell)
    inst = R.build_indecomposability_fsr(f0)
    R.f3_reference_dec(ell, inst.f2_table, maps)
    graph = A.cycle_join_graph(maps.base, inst.fsr, maps.lam_table())
    assert graph.verify_join_identity()
    assert not A.is_decomposable(inst.fsr, "guided").decomposable
    assert walked_twice(walks) == []
    assert any(g is maps.base for g in walks)
    assert any(g is inst.fsr for g in walks)
    assert maps.base == L.lfsr_of(fam.p1)
    assert R.Alg1Oracle(ell).base == L.lfsr_of(fam.p2)


@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("name,broken,failing", [
    ("chi", lambda self, v: (v ^ v >> (self.ell + 1) ^ v >> 2 * self.ell) & 1,
     ["(iii) parity separates the two cycle families",
      "(v) window of the long step is the short step plus parity"]),
    ("pi_int", lambda self, v: (v ^ v >> 2) & self._pi_mask,
     ["(i) conjugate/complement parity and map commutation",
      "(ii) each difference word has the two prefix-parity preimages"])])
def test_conjprop_fails_on_a_broken_map(ell, name, broken, failing,
                                        monkeypatch):
    # chi reading tap ell + 1 in place of ell breaks facts (iii) and (v),
    # and pi differencing bits two apart breaks (i) and (ii); the suite
    # must fail exactly those, and no other
    monkeypatch.setattr(R.Alg2Maps, name, broken)
    result = verify.suite_conjprop(ell)
    assert not result.ok
    assert [line for line in result.lines
            if line.startswith("FAIL ")] == ["FAIL " + f for f in failing]


def test_alg2_zero_subregister_is_unique():
    # with a satisfiable input, any sub-register of the built register
    # whose cycles include [0] can only be the stage-1 linear register
    x1_x0 = F.Fsr(1, table=[0, 1])
    zero = F.Cycle([0])
    circuits = [C.from_bits([(m >> i) & 1 for i in range(4)])
                for m in range(1, 16)]
    circuits.append(C.from_bits([0, 1] + [0] * 30))
    for f0 in circuits:
        inst = R.build_indecomposability_fsr(f0)
        for sub in A.find_subfsrs(inst.fsr):
            if zero in sub.cycles:
                assert sub.fsr == x1_x0


def test_alg2_lambda_marks_base_cycles_once():
    for ell in (1, 3):
        maps = R.Alg2Maps(ell)
        n = 2 * ell + 1
        p1 = L.lfsr_of(L.LfsrFamily.for_ell(ell).p1)
        for c in F.cycle_structure(p1):
            wins = c.window_ints(n)
            marks = sum(maps.lam(v) for v in wins)
            # one mark per base-family cycle, none on complements
            assert marks == (1 if maps.chi(min(wins)) == 0 else 0)


def test_biconditional_at_odd_input_widths():
    # r = 3 and r = 4 also land on ell = 3; the window extraction width
    # differs from the usual r in {5, 6} population
    for r, sat_bits in ((3, [0, 0, 1] + [0] * 5), (4, [0] * 15 + [1])):
        sat_inst = R.build_irreducibility_fsr(C.from_bits(sat_bits))
        assert sat_inst.ell == 3 and A.is_irreducible(sat_inst.fsr)
        unsat_inst = R.build_irreducibility_fsr(C.from_bits([0] * (1 << r)))
        assert not A.is_irreducible(unsat_inst.fsr)
        dec_sat = R.build_indecomposability_fsr(C.from_bits(sat_bits))
        assert not A.is_decomposable(dec_sat.fsr, "guided").decomposable
        dec_unsat = R.build_indecomposability_fsr(C.from_bits([0] * (1 << r)))
        assert dec_unsat.fsr == L.lfsr_of(L.LfsrFamily.for_ell(3).p1)


def test_large_ell_semantic_only_build(monkeypatch):
    b = C.Builder(7)
    f0 = b.build(b.and_chain(b.inputs()))
    forbid_gates(monkeypatch)
    inst = R.build_irreducibility_fsr(f0)   # ell = 9
    # stage 36 is past the state bound: no table, so no register, and
    # reading them builds no circuit
    assert inst.ell == 9 and inst.stage == 36
    assert inst.fsr is None and inst.f3_table is None
    assert inst.f3_semantic(0) in (0, 1)


def test_ell9_dec_table_equals_the_gate_level_feedback():
    # r = 18 gives ell = 9 and the stage-19 register: on the AND of 18
    # inputs (one witness) and on g AND NOT g for that g (none), its table
    # is the gate-level f1's on all 2^19 states, its toggle table is the
    # reference field's on all 2^18 windows, its join graph over p1@9 is
    # acyclic with each component mapping onto one joined cycle, and the
    # contradiction's register is the linear register of p1@9
    maps = R.Alg2Maps(9)
    p1 = maps.base
    lam = maps.lam_table()
    for contradiction in (False, True):
        b = C.Builder(18)
        g = b.and_chain(b.inputs())
        f0 = b.build(b.AND(g, b.NOT(g)) if contradiction else g)
        inst = R.build_indecomposability_fsr(f0)
        assert (inst.ell, inst.stage) == (9, 19)
        f1 = inst.feedback_circuit()
        gate_level = mask_to_bits(f1.output_masks()[0], 1 << 19)
        assert inst.fsr.table == gate_level
        assert (inst.fsr == p1) == contradiction
        ref = R.f3_reference_dec(9, inst.f2_table, maps)
        assert tuple(map(ref, range(1 << 18))) == inst.f3_table
        graph = A.cycle_join_graph(p1, inst.fsr, lam)
        assert graph.is_acyclic() and graph.verify_join_identity()
        assert len(graph.arcs) == (0 if contradiction else 1)


def test_oracle_ell_bound():
    # the irreducibility oracle stops at ell = 3; the dec maps at the state
    # bound, so ell = 9 (stage 19) is built and ell = 27 (stage 55) refused
    with pytest.raises(ValueError):
        R.Alg1Oracle(9)
    assert R.Alg2Maps(9).stage == 19
    with pytest.raises(ValueError, match="stage 55 is past the state "
                                         "bound 24"):
        R.Alg2Maps(27)


# ---------------------------------------------------------------------------
# the three toggle-field forms on random circuits

FIXED = settings(derandomize=True, deadline=None)


@st.composite
def circuits(draw, arities):
    """A random AND/OR/NOT DAG over one of the given input counts."""
    b = C.Builder(draw(st.sampled_from(arities)))
    wires = b.inputs()
    for _ in range(draw(st.integers(0, 12))):
        x = draw(st.sampled_from(wires))
        op = draw(st.sampled_from(["AND", "OR", "NOT"]))
        wires.append(b.NOT(x) if op == "NOT"
                     else getattr(b, op)(x, draw(st.sampled_from(wires))))
    return b.build(wires[-1])


@functools.lru_cache(maxsize=None)
def alg1_oracle(ell):
    return R.Alg1Oracle(ell)


def assert_three_forms_agree(inst, ref):
    width = inst.stage - 1
    semantic = tuple(inst.f3_semantic(x) for x in range(1 << width))
    assert semantic == inst.f3_table
    assert tuple(inst.f3_circuit.truth_table().bits()) == semantic
    assert tuple(ref(x) for x in range(1 << width)) == semantic


@settings(FIXED, max_examples=40)
@given(circuits([1, 2, 3, 4, 5, 6]))
def test_dec_toggle_forms_agree(f0):
    inst = R.build_indecomposability_fsr(f0)       # ell = 1 for r <= 2, else 3
    assert inst.ell in (1, 3)
    assert_three_forms_agree(
        inst, R.f3_reference_dec(inst.ell, inst.f2_table, R.Alg2Maps(inst.ell)))


@settings(FIXED, max_examples=30)
@given(circuits([1, 2]))
def test_irr_toggle_forms_agree_at_ell_1(f0):
    inst = R.build_irreducibility_fsr(f0)
    assert_three_forms_agree(inst, R.f3_reference_irr(1, f0, alg1_oracle(1)))


@settings(FIXED, max_examples=3)
@given(circuits([5, 6]))
def test_irr_toggle_forms_agree_at_ell_3(f0):
    # about a second each: the gate-level circuit has some 722k vertices
    inst = R.build_irreducibility_fsr(f0)
    assert_three_forms_agree(inst, R.f3_reference_irr(3, f0, alg1_oracle(3)))


# ---------------------------------------------------------------------------
# the lazy semantic irr field against the eager transcription

def eager_alg1_f3(ell, f0_tt):
    """The irreducibility toggle field with every term computed up front."""
    m, span, half = 4 * ell, 6 * ell, 3 * ell
    shift_r = m - f0_tt.arity
    step = L.linear_step(L.LfsrFamily.for_ell(ell).p2)
    f0b = f0_tt.bits()

    def orbit_flag(s):
        w = t = s ^ 1
        mn = w_half = None
        for j in range(1, span + 1):
            t = step(t)
            if j == half:
                w_half = t
            if mn is None or t < mn:
                mn = t
        return 1 if (w_half == w or t != mn) else 0

    def f3(x):
        us, vs = [x << 1], [(x << 1) | 1]
        for _ in range(span):
            us.append(step(us[-1]))
            vs.append(step(vs[-1]))
        a_hit = any(f0b[s >> shift_r] for s in us[1:])
        b_hit = any(f0b[s >> shift_r] for s in vs[1:])
        cs = [orbit_flag(s) for s in us[1:]]
        ds = [orbit_flag(s) for s in vs[1:]]
        u_min, v_min = min(us[1:]), min(vs[1:])

        def q(chain, mn, flags):
            if not all(flags) or chain[ell] != mn:
                return 0
            t = mn ^ 1
            for _ in range(half):
                t = step(t)
            return 1 if t == mn ^ 1 else 0

        qu, qv = q(us, u_min, cs), q(vs, v_min, ds)
        if us[0] == us[half] and us[span] == u_min and a_hit:
            return 1
        if vs[0] == vs[half] and vs[span] == v_min and b_hit:
            return 1
        if us[0] != us[half] and vs[0] != vs[half] and (
                us[span] == u_min or vs[span] == v_min or qu or qv):
            return 1
        return 0

    return f3


@settings(FIXED, max_examples=25)
@given(circuits([1, 2]))
def test_lazy_irr_field_matches_eager_at_ell_1(f0):
    tt = f0.truth_table()
    lazy, eager = R.alg1_f3_semantic(1, tt), eager_alg1_f3(1, tt)
    assert all(lazy(x) == eager(x) for x in range(1 << 3))


@settings(FIXED, max_examples=3)
@given(circuits([5, 6]))
def test_lazy_irr_field_matches_eager_at_ell_3(f0):
    tt = f0.truth_table()
    lazy, eager = R.alg1_f3_semantic(3, tt), eager_alg1_f3(3, tt)
    assert all(lazy(x) == eager(x) for x in range(1 << 11))


def period_27_states(rng, count):
    """Stage-36 states of x^36 + x^18 + 1 that return after 27 steps: the
    windows of sparse sequences a of period 27 with
    a_t + a_(t+9) + a_(t+18) = 0."""
    for _ in range(count):
        a = [int(rng.random() < 0.25) for _ in range(18)]
        a += [a[t] ^ a[t + 9] for t in range(9)]
        yield sum(a[i % 27] << i for i in range(36))


def test_lazy_irr_field_matches_eager_at_ell_9():
    rng = random.Random(9)
    full = (1 << 36) - 1
    step = L.linear_step(L.LfsrFamily.for_ell(9).p2)

    def back(s):   # the inverse of step
        return ((s << 1) & full) | (((s >> 35) ^ (s >> 17)) & 1)

    xs = [rng.getrandbits(35) for _ in range(150)]
    for w in period_27_states(rng, 60):
        xs.append(w >> 1)               # returns: cases 1 and 2
        for _ in range(27):
            # the chain nine steps back from w's conjugate, kept when that
            # conjugate is the chain's least state: case 3 reaches q's flags
            chain = [w ^ 1]
            for _ in range(9):
                chain.insert(0, back(chain[0]))
            while len(chain) < 55:
                chain.append(step(chain[-1]))
            if min(chain[1:]) == w ^ 1:
                xs.append(chain[0] >> 1)
            w = step(w)
    dense = [rng.getrandbits(1) for _ in range(512)]
    for f0 in (C.from_bits([0] * 255 + [1]), C.from_bits(dense)):
        tt = f0.truth_table()
        lazy, eager = R.alg1_f3_semantic(9, tt), eager_alg1_f3(9, tt)
        assert [lazy(x) for x in xs] == [eager(x) for x in xs]


def test_lazy_irr_field_step_count(monkeypatch):
    # an eager tabulation at ell = 3 takes 1,401,759 linear steps
    steps = [0]
    real = R.linear_step

    def counting(p):
        step = real(p)

        def counted(s):
            steps[0] += 1
            return step(s)
        return counted

    monkeypatch.setattr(R, "linear_step", counting)
    f0 = C.from_bits([(i * 37 >> 3) & 1 for i in range(64)])
    f3 = R.alg1_f3_semantic(3, f0.truth_table())
    for x in range(1 << 11):
        f3(x)
    assert 0 < steps[0] < 150_000
