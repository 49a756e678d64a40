"""Command-line front end.

Exit codes are uniform across commands: 0 for success or a "yes" verdict,
1 for a "no" verdict or a failed verification suite, 2 for errors (parse
failures, violated preconditions, exceeded bounds).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

from . import analysis, reduction, verify
from .bitvec import bits_to_digits
from .circuit import STATE_BOUND, decimal, parse_circuit, read_text
from .fsr import (Fsr, InvariantError, cycle_structure, fsr_circuit_pieces,
                  fsr_pieces, parse_fsr)
from .lfsr import LfsrFamily, lfsr_of


@dataclass
class Verdict:
    """One decision-mode outcome; the witness is present exactly when the
    oracle produced one.  Timing goes to stderr to keep stdout diffable."""

    question: str
    answer: bool
    witness: object = None
    seconds: float = 0.0

    def emit(self) -> int:
        print(f"{self.question.lower()}={self.answer}")
        if self.witness is not None:
            for line in self.witness:
                print(line)
        print(f"time={self.seconds:.2f}s", file=sys.stderr)
        return 0 if self.answer else 1


def cmd_reduce(args) -> int:
    if args.skip_circuit and args.emit == "circuit":
        print("error: --skip-circuit cannot be combined with --emit circuit",
              file=sys.stderr)
        return 2
    f0 = parse_circuit(read_text(args.circuit))
    if args.emit == "circuit":
        build = True
    elif args.skip_circuit:
        build = False
    else:
        build = None  # builder default: gate-level form for ell <= 3
    t0 = time.time()
    if args.kind == "irr":
        inst = reduction.build_irreducibility_fsr(f0, build_circuit=build)
    else:
        inst = reduction.build_indecomposability_fsr(f0, build_circuit=build)
    elapsed = time.time() - t0
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.circuit)
        out = f"{stem}.{args.kind}.fsr"
    if args.emit in ("fsr", "table") and inst.stage > STATE_BOUND:
        print(f"error: a stage-{inst.stage} feedback table has 2^{inst.stage} "
              f"entries; use --emit circuit", file=sys.stderr)
        return 2
    # every check that can refuse runs before the output file is opened
    if args.emit == "fsr":
        pieces = fsr_pieces(inst.fsr)
    elif args.emit == "table":
        pieces = bits_to_digits(inst.fsr.table), "\n"
    else:
        if inst.f1_circuit is None:
            print("error: no circuit form was built", file=sys.stderr)
            return 2
        pieces = fsr_circuit_pieces(Fsr(inst.stage, circuit=inst.f1_circuit))
    with open(out, "w") as fh:
        fh.writelines(pieces)
    print(f"stage={inst.stage} ell={inst.ell} k={inst.k} r={inst.r}")
    if inst.size_report is not None:
        for line in inst.size_report.lines():
            print(line)
    print(f"wrote {out}")
    print(f"time={elapsed:.2f}s", file=sys.stderr)
    return 0


def _load_fsr(path: str):
    return parse_fsr(read_text(path), base_dir=os.path.dirname(path) or ".")


def cmd_analyze(args) -> int:
    f = _load_fsr(args.fsr)
    if args.mode == "cycles":
        print(cycle_structure(f).format_listing(), end="")
        return 0
    if args.mode == "subfsr":
        subs = analysis.find_subfsrs(f)
        for s in subs:
            table = bits_to_digits(s.fsr.table)
            cyc = ",".join(str(c) for c in sorted(s.cycles, key=lambda c: c.sort_key()))
            print(f"stage={s.stage} table={table} cycles={cyc}")
        print(f"subfsr-count={len(subs)}")
        return 0
    if args.mode == "irreducible":
        t0 = time.time()
        irr = analysis.is_irreducible(f)
        return Verdict("IRREDUCIBLE", irr, None, time.time() - t0).emit()
    if args.mode == "decompose":
        t0 = time.time()
        rep = analysis.is_decomposable(f, args.strategy, args.max_inner_stage)
        witness = None
        if rep.decomposable:
            inner = bits_to_digits(rep.inner.table)
            outer = bits_to_digits(rep.outer.table)
            witness = [f"inner stage={rep.inner.stage} table={inner}",
                       f"outer stage={rep.outer.stage} table={outer}",
                       f"free-entries={rep.free_entries}"]
        print(f"strategy={rep.strategy} candidates={rep.candidates_tried} "
              f"complete={rep.complete}")
        return Verdict("DECOMPOSABLE", rep.decomposable, witness,
                       time.time() - t0).emit()
    raise ValueError(f"unknown mode {args.mode!r}")


def cmd_verify(args) -> int:
    result = verify.SUITES[args.suite](args)
    print(result.text(), end="")
    return 0 if result.ok else 1


def _base_predicate(spec: str):
    """Resolve the graph base: 'p2@ell' or 'p1@ell' with the matching
    marking predicate, or a register file with the all-zero predicate."""
    if "@" in spec:
        name, _, ells = spec.partition("@")
        ell = decimal(ells)
        if name == "p2":
            oracle = reduction.Alg1Oracle(ell)
            return lfsr_of(oracle.family.p2), oracle.lam_table()
        if name == "p1":
            maps = reduction.Alg2Maps(ell)
            return lfsr_of(LfsrFamily.for_ell(ell).p1), maps.lam_table()
        raise ValueError(f"unknown base register {name!r}")
    base = _load_fsr(spec)
    if base.stage > STATE_BOUND:
        raise ValueError(f"base stage {base.stage} exceeds state bound {STATE_BOUND}")
    return base, bytes(1 << base.stage)


def cmd_graph(args) -> int:
    f = _load_fsr(args.fsr)
    base, lam = _base_predicate(args.base)
    graph = analysis.cycle_join_graph(base, f, lam)
    dot = graph.to_dot()
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.dot}")
    else:
        print(dot, end="")
    return 0


def cmd_lfsr(args) -> int:
    from .lfsr import parse_poly
    p = parse_poly(args.poly)
    f = lfsr_of(p)
    print(f"poly={p} degree={p.degree} stage={f.stage}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(fsr_pieces(f))
        print(f"wrote {args.out}")
    if args.cycles:
        print(cycle_structure(f).format_listing(), end="")
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fsrkit",
        description="Feedback-shift-register analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="turn a circuit into a register instance")
    pr.add_argument("kind", choices=["irr", "dec"])
    pr.add_argument("circuit", help="circuit text file")
    pr.add_argument("--emit", choices=["fsr", "table", "circuit"], default="fsr")
    pr.add_argument("--out", help="output path (default: <circuit>.<kind>.fsr)")
    pr.add_argument("--skip-circuit", action="store_true",
                    help="skip the gate-level build and its size report")
    pr.set_defaults(fn=cmd_reduce)

    pa = sub.add_parser("analyze", help="run an oracle on a register file")
    pa.add_argument("mode", choices=["cycles", "subfsr", "irreducible", "decompose"])
    pa.add_argument("fsr", help="register text file")
    pa.add_argument("--strategy", choices=["brute", "guided"], default="brute")
    pa.add_argument("--max-inner-stage", type=int, default=None)
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=sorted(verify.SUITES))
    pv.add_argument("--ell", type=int, default=1)
    pv.add_argument("--r", type=int, default=2)
    pv.add_argument("--count", type=int, default=20)
    pv.add_argument("--seed", type=int, default=1)
    pv.set_defaults(fn=cmd_verify)

    pg = sub.add_parser("graph", help="export the cycle-join graph as DOT")
    pg.add_argument("fsr", help="register text file")
    pg.add_argument("base", help="'p2@ell', 'p1@ell', or a base register file")
    pg.add_argument("--dot", help="output path (default: stdout)")
    pg.set_defaults(fn=cmd_graph)

    pl = sub.add_parser("lfsr", help="build a linear register from a polynomial")
    pl.add_argument("poly", help="'x^a + x^b + ... + 1' or a hex mask '0x..'")
    pl.add_argument("--out", help="write the register file here")
    pl.add_argument("--cycles", action="store_true",
                    help="also print the cycle listing")
    pl.set_defaults(fn=cmd_lfsr)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:   # parse errors are ValueErrors too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"error: internal check failed: {e}", file=sys.stderr)
        return 2
    except RecursionError as e:
        print(f"error: input nested too deeply: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
