import hashlib
import itertools
import os
import resource
import subprocess
import sys
import time

import pytest

import fsrkit
from fsrkit import analysis, reduction, verify
from fsrkit.cli import main
from fsrkit.circuit import Builder, Circuit, from_bits, write_circuit
from fsrkit.fsr import Fsr, InvariantError, fsr_pieces, parse_fsr


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


def run_cli(workdir, *args, **kw):
    """Run the CLI in a child process in workdir.  The child cannot resolve
    a relative PYTHONPATH entry such as "src" there, so the imported
    package's root goes first."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(fsrkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fsrkit.cli", *args],
                          capture_output=True, text=True, env=env,
                          cwd=workdir, **kw)


def run_limited(workdir, *args):
    """run_cli with the child's address space capped at 1 GB, so an
    unbounded read or allocation fails fast instead of filling memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return run_cli(workdir, *args, preexec_fn=cap, timeout=120)


def identity_circuit(workdir):
    return write(workdir / "f0.ckt", "v0 INPUT 0\nSINK v0\n")


def test_reduce_irr(workdir, capsys):
    path = identity_circuit(workdir)
    assert main(["reduce", "irr", path]) == 0
    out = capsys.readouterr().out
    assert "stage=4 ell=1" in out
    assert "within-bound=True" in out
    f = parse_fsr((workdir / "f0.irr.fsr").read_text())
    assert f.stage == 4


def test_reduce_dec_unsat_gives_linear_register(workdir, capsys):
    path = write(workdir / "zero.ckt",
                 "v0 INPUT 0\nv1 NOT v0\nv2 AND v0 v1\nSINK v2\n")
    assert main(["reduce", "dec", path, "--out", str(workdir / "z.fsr")]) == 0
    f = parse_fsr((workdir / "z.fsr").read_text())
    assert list(f.table) == [s & 1 for s in range(8)]  # x3 + x0


def test_reduce_stdout_is_the_same_on_every_run(workdir, capsys):
    # the elapsed time goes to stderr, as every verdict's does
    path = identity_circuit(workdir)
    runs = []
    for _ in range(2):
        assert main(["reduce", "dec", path, "--out", "f1.fsr"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert runs[0].out.splitlines()[-1] == "wrote f1.fsr"
    assert all(run.err.startswith("time=") for run in runs)


def test_elapsed_times_ignore_a_wall_clock_that_steps_back(workdir, capsys,
                                                          monkeypatch):
    # the wall clock steps back 100 s at each read; the time= lines are
    # measured on a monotonic clock, so none is negative
    clock = itertools.count(1e9, -100.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    path = identity_circuit(workdir)
    p0 = write(workdir / "p0.fsr", "STAGE 2\nFEEDBACK TABLE 0110\n")
    codes = [main(["reduce", "dec", path, "--out", "f1.fsr"]),
             main(["analyze", "irreducible", p0]),
             main(["analyze", "decompose", p0])]
    assert codes == [0, 0, 1]
    lines = capsys.readouterr().err.splitlines()
    assert [line[:5] for line in lines] == ["time="] * 3
    assert all(0 <= float(line[5:-1]) < 60 for line in lines), lines


def test_reduce_parse_error_exit_2(workdir, capsys):
    path = write(workdir / "bad.ckt", "v0 INPUT 0\nv1 AND v0 v9\nSINK v1\n")
    assert main(["reduce", "irr", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_reduce_emit_circuit_round_trips(workdir, capsys):
    path = identity_circuit(workdir)
    out = str(workdir / "f1.fsr")
    assert main(["reduce", "dec", path, "--emit", "circuit", "--out", out]) == 0
    f = parse_fsr((workdir / "f1.fsr").read_text())
    table_form = main(["reduce", "dec", path, "--emit", "fsr",
                       "--out", str(workdir / "t.fsr")])
    assert table_form == 0
    g = parse_fsr((workdir / "t.fsr").read_text())
    assert f == g


def test_reduce_refuses_skip_circuit_with_emit_circuit(workdir, capsys):
    and2 = write(workdir / "and2.ckt",
                 "v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nSINK v2\n")
    # refused before the input is read: a missing file is not reported
    for path in (and2, str(workdir / "missing.ckt")):
        for kind in ("irr", "dec"):
            out = str(workdir / f"{kind}.fsr")
            assert main(["reduce", kind, path, "--emit", "circuit",
                         "--skip-circuit", "--out", out]) == 2
            got = capsys.readouterr()
            assert got.out == "" and not os.path.exists(out)
            assert "--skip-circuit" in got.err and "--emit circuit" in got.err
            assert "missing" not in got.err


def test_reduce_emit_table(workdir, capsys):
    path = identity_circuit(workdir)
    out = str(workdir / "raw.txt")
    assert main(["reduce", "irr", path, "--emit", "table", "--out", out,
                 "--skip-circuit"]) == 0
    digits = (workdir / "raw.txt").read_text().strip()
    assert len(digits) == 16 and set(digits) <= {"0", "1"}
    f = parse_fsr(f"STAGE 4\nFEEDBACK TABLE {digits}\n")
    assert f.stage == 4


def test_analyze_cycles_golden(workdir, capsys):
    path = write(workdir / "p1.fsr", "STAGE 3\nFEEDBACK TABLE 01010101\n")
    assert main(["analyze", "cycles", path]) == 0
    assert capsys.readouterr().out == "1 0\n1 1\n3 001\n3 011\n"


def test_analyze_irreducible_exit_codes(workdir, capsys):
    p0 = write(workdir / "p0.fsr", "STAGE 2\nFEEDBACK TABLE 0110\n")
    assert main(["analyze", "irreducible", p0]) == 0
    p1 = write(workdir / "p1.fsr", "STAGE 3\nFEEDBACK TABLE 01010101\n")
    assert main(["analyze", "irreducible", p1]) == 1


def test_analyze_decompose(workdir, capsys):
    sq = write(workdir / "sq.fsr", "STAGE 2\nFEEDBACK TABLE 0101\n")
    assert main(["analyze", "decompose", sq, "--strategy", "brute"]) == 0
    # the verdict and the two factors, and nothing else
    assert capsys.readouterr().out.splitlines() == [
        "strategy=brute candidates=2 complete=True", "decomposable=True",
        "inner stage=1 table=10", "outer stage=1 table=01"]
    p0 = write(workdir / "p0.fsr", "STAGE 2\nFEEDBACK TABLE 0110\n")
    assert main(["analyze", "decompose", p0]) == 1
    # a cap below 1 once searched nothing and answered "no"
    x3 = write(workdir / "x3.fsr", "STAGE 3\nFEEDBACK TABLE 01010101\n")
    for cap in ("0", "-3"):
        assert main(["analyze", "decompose", x3, "--strategy", "brute",
                     "--max-inner-stage", cap]) == 2
        assert "max_inner_stage must be >= 1" in capsys.readouterr().err


def test_analyze_decompose_cap_bounds_both_strategies(workdir, capsys):
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has no inner factor of stage 1
    sq = write(workdir / "sq.fsr",
               "STAGE 4\nFEEDBACK TABLE 0101101001011010\n")
    for strategy in ("brute", "guided"):
        assert main(["analyze", "decompose", sq, "--strategy", strategy,
                     "--max-inner-stage", "1"]) == 1
        out = capsys.readouterr().out
        assert "complete=False" in out and "decomposable=False" in out
        assert main(["analyze", "decompose", sq, "--strategy", strategy,
                     "--max-inner-stage", "2"]) == 0
        out = capsys.readouterr().out
        assert "complete=True" in out and "inner stage=2" in out


def test_analyze_subfsr(workdir, capsys):
    p1 = write(workdir / "p1.fsr", "STAGE 3\nFEEDBACK TABLE 01010101\n")
    assert main(["analyze", "subfsr", p1]) == 0
    out = capsys.readouterr().out
    assert "subfsr-count=3" in out


def test_analyze_huge_stage_exit_2(workdir, capsys):
    path = write(workdir / "big.fsr", "STAGE 100000\nFEEDBACK TABLE 0101\n")
    assert main(["analyze", "cycles", path]) == 2
    assert "table needs 2^100000 digits" in capsys.readouterr().err


def test_analyze_bounds_exit_2(workdir, capsys, monkeypatch):
    p1 = write(workdir / "p1.fsr", "STAGE 25\nFEEDBACK CIRCUIT\n"
               + "".join(f"v{i} INPUT {i}\n" for i in range(25)) + "SINK v0\n")

    def unevaluated(circ):
        raise AssertionError("a stage-25 feedback circuit was evaluated")

    # the register is refused as it is read, before its circuit is tabulated
    monkeypatch.setattr(Circuit, "output_masks", unevaluated)
    assert main(["analyze", "cycles", p1]) == 2
    assert capsys.readouterr().err == "error: stage 25 exceeds state bound 24\n"


def test_reduce_past_24_stages_hints_at_the_circuit_form(workdir, capsys):
    # seven inputs give the ell = 9 irreducibility form, of stage 36
    path = write(workdir / "f0.ckt", "".join(f"v{i} INPUT {i}\n" for i in range(7))
                 + "SINK v6\n")
    assert main(["reduce", "irr", path]) == 2
    assert ("a stage-36 feedback table has 2^36 entries; use --emit circuit"
            in capsys.readouterr().err)
    assert not (workdir / "f0.irr.fsr").exists()


def test_reduce_refuses_the_irreducibility_circuit_past_ell_9(workdir, capsys):
    # 19 inputs give ell = 27 and stage 108, whose circuit would have about
    # 4*10^9 vertices: refused, under a 1 GB address space, with no
    # traceback and no file; the table form, refused too, names no
    # circuit form
    path = write(workdir / "and19.ckt", "".join(
        f"v{i} INPUT {i}\n" for i in range(19)) + "".join(
        f"v{19 + i} AND v{18 + i if i else 0} v{i + 1}\n" for i in range(18))
        + "SINK v36\n")
    proc = run_limited(workdir, "reduce", "irr", path, "--emit", "circuit")
    assert proc.returncode == 2
    assert proc.stderr == ("error: an irreducibility circuit at ell=27 "
                           "(stage 108) is past the bound ell <= 9 (stage 36)\n")
    assert proc.stdout == ""
    assert main(["reduce", "irr", path]) == 2
    assert capsys.readouterr().err == (
        "error: a stage-108 feedback table has 2^108 entries\n")
    assert not (workdir / "and19.irr.fsr").exists()


def test_reduce_emit_circuit_tabulates_no_register(workdir, capsys,
                                                   monkeypatch):
    # the stage-19 dec register of an 18-input AND is written in circuit
    # form without its 2^18-window toggle table; the circuit is the one
    # whose text test_stage19_dec_circuits_are_written_as_pinned pins
    b = Builder(18)
    path = write(workdir / "and18.ckt",
                 write_circuit(b.build(b.and_chain(range(18)))))

    def tabulated(*args):
        raise AssertionError("the register was tabulated")

    monkeypatch.setattr(reduction, "_toggled_linear", tabulated)
    assert main(["reduce", "dec", path, "--emit", "circuit",
                 "--out", "and18.fsr"]) == 0
    assert "f1-size=63241 " in capsys.readouterr().out
    header, _, circuit = (workdir / "and18.fsr").read_text().partition(
        "FEEDBACK CIRCUIT\n")
    assert header == "STAGE 19\n"
    assert hashlib.sha256(circuit.encode()).hexdigest() == (
        "291d0bcfaa6e2684b6c9d1bba54d60fcdbd289406757fd2b2206b77b72d28d9c")


@pytest.mark.parametrize("args", [("analyze", "cycles", "/dev/zero"),
                                  ("reduce", "irr", "/dev/zero"),
                                  ("graph", "/dev/zero", "p2@1")])
def test_a_file_past_the_read_bound_exit_2(workdir, args):
    proc = run_limited(workdir, *args)
    assert proc.returncode == 2, proc.stderr
    assert "/dev/zero: longer than 268435456 bytes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_reads_a_register_from_stdin(workdir):
    proc = run_cli(workdir, "analyze", "cycles", "/dev/stdin",
                   input="STAGE 2\nFEEDBACK TABLE 0110\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 0\n3 011\n"


@pytest.mark.parametrize("error", [InvariantError("outer factor mismatch"),
                                   RecursionError("maximum recursion depth")])
def test_internal_failures_exit_2_with_a_message(workdir, capsys, monkeypatch,
                                                 error):
    def fail(f):
        raise error
    monkeypatch.setattr(analysis, "is_irreducible", fail)
    p0 = write(workdir / "p0.fsr", "STAGE 2\nFEEDBACK TABLE 0110\n")
    assert main(["analyze", "irreducible", p0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(error) in err
    assert "Traceback" not in err


def test_graph_command(workdir, capsys):
    path = identity_circuit(workdir)
    main(["reduce", "irr", path, "--out", str(workdir / "f.fsr"),
          "--skip-circuit"])
    capsys.readouterr()
    dot = str(workdir / "g.dot")
    assert main(["graph", str(workdir / "f.fsr"), "p2@1", "--dot", dot]) == 0
    text = (workdir / "g.dot").read_text()
    assert "acyclic=true" in text
    assert text.count("->") >= 1


def test_graph_trivial_base_file(workdir, capsys):
    base = write(workdir / "p2.fsr", "STAGE 4\nFEEDBACK TABLE "
                 "0101101001011010\n")
    assert main(["graph", base, base]) == 0
    out = capsys.readouterr().out
    assert "->" not in out  # no toggles, no arcs


def test_graph_mismatched_base_exit_2(workdir, capsys):
    f = write(workdir / "f.fsr", "STAGE 4\nFEEDBACK TABLE 0110100110010110\n")
    assert main(["graph", f, "p2@1"]) == 2


def test_graph_unknown_base_register_exit_2(workdir, capsys):
    f = write(workdir / "f.fsr", "STAGE 4\nFEEDBACK TABLE 0110100110010110\n")
    assert main(["graph", f, "p3@3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown base register 'p3'" in err


@pytest.mark.parametrize("base", ["p2@٣", "p2@+1", "p1@1_0", "p2@-1"])
def test_graph_base_ell_is_ascii_decimal_exit_2(workdir, capsys, base):
    f = write(workdir / "f.fsr", "STAGE 4\nFEEDBACK TABLE 0110100110010110\n")
    assert main(["graph", f, base]) == 2
    assert "not a decimal number" in capsys.readouterr().err


def test_circuit_path_that_is_not_a_regular_file_exit_2(workdir):
    os.mkfifo(workdir / "pipe")
    for path in ("/dev/zero", "pipe", "."):
        f = write(workdir / "f.fsr", f"STAGE 4\nFEEDBACK CIRCUIT {path}\n")
        proc = run_limited(workdir, "analyze", "cycles", f)
        assert proc.returncode == 2, proc.stderr
        assert "not a regular file" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_graph_base_above_the_state_bound_exit_2(workdir, capsys):
    f = write(workdir / "f.fsr", "STAGE 4\nFEEDBACK TABLE 0110100110010110\n")
    huge = write(workdir / "huge.fsr",
                 "STAGE 1000000\nFEEDBACK CIRCUIT\nv0 INPUT 999999\nSINK v0\n")
    assert main(["graph", f, huge]) == 2
    assert "error: stage 1000000 exceeds state bound 24" in capsys.readouterr().err
    # stage 40 would ask for a 2^40-entry predicate before any check
    big = write(workdir / "big.fsr",
                "STAGE 40\nFEEDBACK CIRCUIT\nv0 INPUT 39\nSINK v0\n")
    proc = run_limited(workdir, "graph", f, big)
    assert proc.returncode == 2, proc.stderr
    assert "error: stage 40 exceeds state bound 24" in proc.stderr


@pytest.mark.parametrize("base,sat,unsat", [
    ("p1@1", "v0 INPUT 0\nSINK v0\n",
     "v0 INPUT 0\nv1 NOT v0\nv2 AND v0 v1\nSINK v2\n"),
    ("p1@3", "v0 INPUT 0\nv1 INPUT 1\nv2 INPUT 2\nv3 AND v0 v1\n"
             "v4 AND v3 v2\nSINK v4\n",
     "v0 INPUT 0\nv1 INPUT 1\nv2 INPUT 2\nv3 AND v0 v1\nv4 AND v3 v2\n"
     "v5 NOT v4\nv6 AND v4 v5\nSINK v6\n")], ids=["p1@1", "p1@3"])
def test_graph_of_the_dec_form(workdir, capsys, base, sat, unsat):
    for tag, text in (("sat", sat), ("unsat", unsat)):
        path = write(workdir / f"{tag}.ckt", text)
        out = str(workdir / f"{tag}.dec.fsr")
        assert main(["reduce", "dec", path, "--out", out]) == 0
        capsys.readouterr()
        assert main(["graph", out, base]) == 0
        dot = capsys.readouterr().out
        assert 'label="acyclic=true"' in dot
        # the unsatisfiable register is the p1 register itself: no toggles
        assert ("->" in dot) == (tag == "sat")


def test_lfsr_command(workdir, capsys):
    out = str(workdir / "p0.fsr")
    assert main(["lfsr", "x^2 + x + 1", "--out", out, "--cycles"]) == 0
    text = capsys.readouterr().out
    assert "stage=2" in text and "1 0\n3 011\n" in text
    assert parse_fsr((workdir / "p0.fsr").read_text()) == \
        Fsr(2, table=[0, 1, 1, 0])
    assert main(["lfsr", "0x7", "--cycles"]) == 0
    assert "3 011" in capsys.readouterr().out
    assert main(["lfsr", "x^2 +"]) == 2
    assert main(["lfsr", "x^1000000 + 1"]) == 2
    assert "degree 1000000 above 64" in capsys.readouterr().err


def test_lfsr_singular_cycles_refused_before_output(workdir, capsys):
    # x^2 has no constant term: its register is singular and has no cycle
    # listing, which is refused before the file or any line is written
    assert main(["lfsr", "x^2", "--out", "p.fsr", "--cycles"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "singular register has no cycle partition" in err
    assert not (workdir / "p.fsr").exists()


def test_verify_family_counts_suite(capsys):
    assert main(["verify", "lemma7", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    assert "p2: 1+1+2 cycles OK" in out
    assert "lemma7 ell=1: PASS" in out


def test_verify_biconditional_irr_r2(capsys):
    assert main(["verify", "biconditional-irr", "--r", "2"]) == 0
    assert "16/16 truth tables consistent" in capsys.readouterr().out


def test_verify_biconditional_dec_r2(capsys):
    assert main(["verify", "biconditional-dec", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "16/16 truth tables consistent\nbiconditional-dec r=2: PASS\n"


def test_verify_lemma11(capsys):
    assert main(["verify", "lemma11", "--ell", "1"]) == 0
    assert "lemma11 ell=1: PASS" in capsys.readouterr().out


def test_verify_conjprop(capsys):
    assert main(["verify", "conjprop", "--ell", "1"]) == 0
    assert "conjprop ell=1: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    # ell = 27 is a power of three: lemma11 once built a 2^53-entry list
    # before the oracle could refuse it
    (("lemma11", "--ell", "27"), "ell <= 3 only"),
    # the sizes once came from a negative shift before any check
    (("lemma11", "--ell", "0"), "ell must be a power of three"),
    (("conjprop", "--ell", "-3"), "ell must be a power of three"),
    # the dec maps stop at the state bound: ell = 9 has stage 19
    (("conjprop", "--ell", "27"), "stage 55 is past the state bound 24")])
def test_verify_refuses_a_bad_ell_before_allocating(workdir, args, message):
    proc = run_limited(workdir, "verify", *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_min_sizes(capsys):
    assert main(["verify", "min-sizes"]) == 0
    assert "min-sizes: PASS" in capsys.readouterr().out


def test_verify_min_sizes_runs_the_gadgets_gates(monkeypatch):
    # a width-3 template with one output gate's AND/OR kind flipped: the
    # stamped gadget still runs through the comparator and gives the
    # minimum, so only an evaluation of its own gates can catch it
    from fsrkit import circuit, verify
    real = circuit._min_block
    bad = circuit._MinBlock(3)
    kinds = bytearray(bad.kinds)
    out = bad.circuit.outputs[0] - 6
    kinds[out] = 3 - kinds[out]
    bad.kinds = bytes(kinds)
    monkeypatch.setattr(circuit, "_min_block",
                        lambda m: bad if m == 3 else real(m))
    result = verify.suite_min_sizes()
    assert not result.ok
    fails = [line for line in result.lines if line.startswith("FAIL")]
    assert fails == ["FAIL min_3 gates and comparator match integer minimum "
                     "on 64 pairs"]


@pytest.mark.parametrize("suite", ["biconditional-irr", "biconditional-dec"])
def test_verify_population_with_one_verdict_exit_2(capsys, suite):
    assert main(["verify", suite, "--r", "3", "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert "both verdicts" in err and "Traceback" not in err


@pytest.mark.parametrize("r", ["0", "7", "-1"])
def test_verify_input_count_out_of_range_exit_2(capsys, r):
    assert main(["verify", "biconditional-irr", "--r", r]) == 2
    err = capsys.readouterr().err
    assert f"r={r} is outside 1..6" in err and "Traceback" not in err


@pytest.mark.parametrize("count", ["-1", "-5"])
def test_verify_negative_count_exit_2(capsys, count):
    # a sample sliced to a negative count would drop circuits from its end;
    # r = 2 takes every circuit and r = 6 a sample
    for r in ("2", "6"):
        assert main(["verify", "biconditional-dec", "--r", r,
                     "--count", count]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"circuit count {count} is below 1" in err


def test_console_script_subprocess(workdir):
    path = identity_circuit(workdir)
    proc = run_cli(workdir, "reduce", "irr", path, "--skip-circuit")
    assert proc.returncode == 0, proc.stderr
    assert "stage=4 ell=1" in proc.stdout
    proc = run_cli(workdir, "analyze", "cycles", str(workdir / "f0.irr.fsr"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "1 0"


def test_emitted_files_reparse(workdir):
    # every emission format round-trips through the parsers
    f = Fsr(3, table=[s & 1 for s in range(8)])
    text = "".join(fsr_pieces(f))
    assert parse_fsr(text) == f
    circ = from_bits([0, 1, 1, 0])
    from fsrkit.circuit import parse_circuit
    assert parse_circuit(write_circuit(circ)).truth_table() == circ.truth_table()


@pytest.mark.parametrize("suite", ["biconditional-irr", "biconditional-dec"])
def test_verify_count_above_the_bound_exit_2(capsys, monkeypatch, suite):
    # the sample is held whole before the first circuit is decided, so a
    # count past the bound is refused before any circuit is made
    def sample(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(verify, "sample_circuits", sample)
    for count in (verify.MAX_SAMPLE_COUNT + 1, 100_000_000_000):
        for r in ("2", "6"):
            assert main(["verify", suite, "--r", r,
                         "--count", str(count)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: circuit count {count} is above "
                f"{verify.MAX_SAMPLE_COUNT}\n")
