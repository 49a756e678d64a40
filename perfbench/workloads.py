"""The three workloads: set-up, then one instance at a time with its checks.

Constructing a workload object is its set-up (populations, expected
verdicts, oracles, reference registers, CLI input files).  Set-up draws
exactly `pairs` satisfiable and `pairs` unsatisfiable inputs from the seed,
in a fixed mix of input kinds, and every one of them is measured, so the
inputs of a run do not depend on how fast the code under test is.  Each
class's PAIRS is the number of pairs a run takes at the run length that
BENCHMARK.json sets; run.py scales it to --seconds.
`instance` takes one input circuit through the public API and raises
CheckFailed on any wrong output.  It calls `lap` between steps that take
about a second or more, so that run.py samples the host's speed inside
long instances too.  Items alternate satisfiable and
unsatisfiable inputs, so every stretch of a run holds both verdicts in
equal number.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from fsrkit import analysis, circuit, cli, fsr, lfsr, reduction, verify

import gen


class CheckFailed(Exception):
    """An output of fsrkit disagreed with what the benchmark expects."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Item:
    circuit: circuit.Circuit
    sat: bool
    path: str = ""


def _item(r: int, nodes: list, sink: int) -> Item:
    """An item whose verdict comes from gen's own evaluator."""
    return Item(circuit.Circuit(r, list(nodes), (sink,)),
                gen.truth_mask(r, nodes, sink) != 0)


def _pairs(rng, pairs: list) -> list:
    """(satisfiable, unsatisfiable) pairs in seeded order, flattened."""
    rng.shuffle(pairs)
    for sat, unsat in pairs:
        check(sat.sat and not unsat.sat, "population pair has wrong verdicts")
    return [it for pair in pairs for it in pair]


def _sample_population(tr, seed: int, pairs: int) -> list:
    """`pairs` satisfiable and `pairs` unsatisfiable circuits drawn from
    verify.sample_circuits, r = 5 and r = 6 in turn (seeds 101/102 are
    the acceptance population)."""
    rng = gen.rng_for("sample", seed)
    pool_size = max(32, 8 * pairs)
    with tr.span("verify.population"):
        circuits = (verify.sample_circuits(5, pool_size, seed)
                    + verify.sample_circuits(6, pool_size, seed + 1))
    pools = {}
    for c in circuits:
        it = _item(c.arity, c.nodes, c.sink)
        pools.setdefault((c.arity, it.sat), []).append(it)
    arities = [(5, 6)[i % 2] for i in range(pairs)]
    drawn = {key: rng.sample(pool, arities.count(key[0]))
             for key, pool in pools.items()}
    return _pairs(rng, [(drawn[r, True].pop(), drawn[r, False].pop())
                        for r in arities])


def _reference_register(tr, poly) -> fsr.Fsr:
    with tr.span("lfsr.lfsr_of_table"):
        reg = lfsr.lfsr_of(poly)
        reg.table
    return reg


def _table(tr, f: fsr.Fsr) -> bytes:
    with tr.span("fsr.table") as sp:
        table = f.table
        sp.count("fsr.states_materialised", len(table))
    return table


def _build(tr, build, f0) -> reduction.ReductionInstance:
    with tr.span("reduction.build") as sp:
        inst = build(f0)
        if inst.size_report is not None:
            sp.count("reduction.f1_vertices", inst.size_report.f1_size)
    return inst


def _circuit_bits(tr, c: circuit.Circuit) -> tuple:
    with tr.span("circuit.truth_table") as sp:
        bits = tuple(c.truth_table().bits())
        sp.count("circuit.vertices_evaluated", c.size)
        sp.count("circuit.lane_bytes", c.size * (1 << c.arity) // 8)
    return bits


# ---------------------------------------------------------------------------

class IrrL3:
    """Irreducibility form at ell = 3: stage 12, gate-level circuit built."""

    ELL = 3
    PAIRS = 10

    def __init__(self, seed: int, tr, workdir: str, pairs: int):
        self.items = _sample_population(tr, seed, pairs)
        self.oracle = reduction.Alg1Oracle(self.ELL)
        self.base = _reference_register(tr, self.oracle.family.p2)
        self.lam = self.oracle.lam_table()
        self.shorts = [c for c in self.oracle.cycles if self.oracle.p0_side(c)]
        self.longs = self.oracle.c6

    def instance(self, item: Item, tr, lap) -> None:
        f0, sat, ell = item.circuit, item.sat, self.ELL
        inst = _build(tr, reduction.build_irreducibility_fsr, f0)
        lap()
        width = 4 * ell - 1
        check(inst.stage == 4 * ell, "stage is not 4*ell")
        check(len(inst.f3_table) == 1 << width, "semantic f3 table length")
        check(_circuit_bits(tr, inst.f3_circuit) == inst.f3_table,
              "gate-level f3 differs from the semantic f3 table")
        lap()
        with tr.span("reduction.reference"):
            ref = reduction.f3_reference_irr(ell, f0, self.oracle)
            ref_bits = tuple(ref(x) for x in range(1 << width))
        check(ref_bits == inst.f3_table,
              "reference f3 differs from the semantic f3 table")
        size = inst.size_report
        check(size.bound_ok and size.f1_size < 37908 * f0.size ** 4,
              "feedback circuit above its size ceiling")
        _table(tr, inst.fsr)
        with tr.span("analysis.find_subfsrs") as sp:
            subs = analysis.find_subfsrs(inst.fsr)
            sp.count("analysis.subfsrs_found", len(subs))
        check((not subs) == sat,
              "irreducible is not equivalent to satisfiable")
        check(all(s.stage == 2 * ell for s in subs),
              "sub-register stage is not 2*ell")
        with tr.span("analysis.join_graph") as sp:
            graph = analysis.cycle_join_graph(self.base, inst.fsr, self.lam)
            acyclic = graph.is_acyclic()
            longs_joined = all(not graph.isolated(c) for c in self.longs)
            shorts_isolated = all(graph.isolated(c) for c in self.shorts)
            identity = graph.verify_join_identity()
            sp.count("analysis.join_arcs", len(graph.arcs))
        check(acyclic, "join graph has a cycle")
        check(longs_joined, "a long cycle is isolated")
        check(shorts_isolated == (not sat),
              "short-cycle isolation does not match the verdict")
        check(identity, "components do not map onto the joined cycles")


class DecL3:
    """Indecomposability form at ell = 3: stage 7, both decision oracles."""

    ELL = 3
    #: arity of every input.  At r = 5 about a quarter of the single
    #: witnesses make an instance twice as slow as the rest, and r = 5
    #: contradictions take half as long as r = 6 ones, so a mix of arities
    #: put both medians on the gap between two modes.
    R = 6
    #: every one of the 2^R witnesses once per run, so that runs with
    #: different seeds time the same satisfiable inputs in another order;
    #: 128 instances, so that 13 lie beyond instance_s_p90
    PAIRS = 1 << R

    def __init__(self, seed: int, tr, workdir: str, pairs: int):
        rng = gen.rng_for("dec-l3", seed)
        n = 1 << self.R
        order = rng.sample(range(n), n)
        self.items = _pairs(rng, [
            (_item(self.R, *gen.single_witness(self.R, order[i % n])),
             _item(self.R, *gen.contradiction(rng, self.R, 24)))
            for i in range(pairs)])
        self.maps = reduction.Alg2Maps(self.ELL)
        self.p1_table = _reference_register(
            tr, lfsr.LfsrFamily.for_ell(self.ELL).p1).table

    def instance(self, item: Item, tr, lap) -> None:
        f0, sat, ell = item.circuit, item.sat, self.ELL
        inst = _build(tr, reduction.build_indecomposability_fsr, f0)
        width = 2 * ell
        check(inst.stage == 2 * ell + 1, "stage is not 2*ell+1")
        table = inst.f3_table
        check(len(table) == 1 << width, "semantic f3 table length")
        check(_circuit_bits(tr, inst.f3_circuit) == table,
              "gate-level f3 differs from the semantic f3 table")
        with tr.span("reduction.reference"):
            ref = reduction.f3_reference_dec(ell, inst.f2_table, self.maps)
            ref_bits = tuple(ref(x) for x in range(1 << width))
            sem_bits = tuple(inst.f3_semantic(x) for x in range(1 << width))
        check(ref_bits == table, "reference f3 differs from the f3 table")
        check(sem_bits == table, "semantic f3 differs from the f3 table")
        size = inst.size_report
        check(size.bound_ok and size.f1_size <= 264 * f0.size ** 3,
              "feedback circuit above its size ceiling")
        reg_table = _table(tr, inst.fsr)
        with tr.span("analysis.guided") as sp:
            guided = analysis.is_decomposable(inst.fsr, "guided")
            sp.count("analysis.guided_candidates", guided.candidates_tried)
        with tr.span("analysis.brute") as sp:
            brute = analysis.is_decomposable(inst.fsr, "brute",
                                             max_inner_stage=3)
            sp.count("analysis.brute_candidates", brute.candidates_tried)
            sp.count("analysis.brute_found", int(brute.decomposable))
        check(guided.decomposable == (not sat),
              "guided: decomposable is not equivalent to unsatisfiable")
        check(brute.decomposable == (not sat),
              "brute: decomposable is not equivalent to unsatisfiable")
        for rep in (guided, brute):
            if rep.decomposable:
                with tr.span("fsr.product_fsr"):
                    product = fsr.product_fsr(rep.outer, rep.inner)
                check(product == inst.fsr,
                      f"{rep.strategy} factors do not reproduce the register")
        if not sat:
            check(reg_table == self.p1_table,
                  "unsatisfiable instance is not the p1 linear register")


def _cli(tr, lap, span: str, argv: list) -> tuple:
    """fsrkit.cli.main in process, then a lap; returns (exit code,
    stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with tr.span(span), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lap()
    return code, out.getvalue()


class CliRoundtrip:
    """ell = 3 instances through fsrkit.cli.main, files in a work directory."""

    #: a pair takes about 18 s, so a run takes over the run length; with
    #: one or two pairs the medians rested on too few samples to be steady
    PAIRS = 3

    def __init__(self, seed: int, tr, workdir: str, pairs: int):
        self.workdir = workdir
        self.items = []
        for i, it in enumerate(_sample_population(tr, seed, pairs)):
            path = os.path.join(workdir, f"f0-{i}.ckt")
            with open(path, "w") as fh:
                fh.write(circuit.write_circuit(it.circuit))
            self.items.append(Item(it.circuit, it.sat, path))

    def instance(self, item: Item, tr, lap) -> None:
        stem = os.path.join(self.workdir, "inst")
        irr_c, irr_t = stem + ".irr-circuit.fsr", stem + ".irr-table.fsr"
        dec, dot = stem + ".dec.fsr", stem + ".dot"
        sat = item.sat
        try:
            code, out = _cli(tr, lap, "cli.reduce", [
                "reduce", "irr", item.path, "--emit", "circuit",
                "--out", irr_c])
            check(code == 0 and "within-bound=True" in out,
                  "reduce irr --emit circuit failed or above the ceiling")
            code, out = _cli(tr, lap, "cli.analyze",
                             ["analyze", "irreducible", irr_c])
            check(code == (0 if sat else 1),
                  "analyze irreducible: exit code does not match the verdict")
            code, out = _cli(tr, lap, "cli.analyze",
                             ["analyze", "cycles", irr_c])
            check(code == 0, "analyze cycles failed")
            periods = [int(line.split()[0]) for line in out.splitlines()]
            check(sum(periods) == 1 << 12, "cycle listing does not cover 2^12")
            code, _ = _cli(tr, lap, "cli.reduce", [
                "reduce", "irr", item.path, "--emit", "fsr", "--skip-circuit",
                "--out", irr_t])
            check(code == 0, "reduce irr --emit fsr failed")
            code, _ = _cli(tr, lap, "cli.reduce", [
                "reduce", "dec", item.path, "--emit", "fsr", "--out", dec])
            check(code == 0, "reduce dec failed")
            code, _ = _cli(tr, lap, "cli.analyze", [
                "analyze", "decompose", dec, "--strategy", "guided"])
            check(code == (1 if sat else 0),
                  "analyze decompose: exit code does not match the verdict")
            code, _ = _cli(tr, lap, "cli.graph",
                           ["graph", irr_t, "p2@3", "--dot", dot])
            check(code == 0, "graph failed")
            with open(dot) as fh:
                check('label="acyclic=true"' in fh.read(),
                      "join graph is not labelled acyclic")
            tr.count("cli.bytes_written", sum(
                os.path.getsize(p) for p in (irr_c, irr_t, dec, dot)))
        finally:
            for p in (irr_c, irr_t, dec, dot):
                if os.path.exists(p):
                    os.remove(p)


WORKLOADS = {
    "irr-l3": IrrL3,
    "dec-l3": DecL3,
    "cli-roundtrip": CliRoundtrip,
}
