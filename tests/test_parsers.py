"""Properties of the text formats: each of the two parsers reads back
what its writer wrote, and on any other text raises only its own parse
error; the cycle listing gives back the structure it lists."""

import contextlib
import io
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fsrkit import circuit as C
from fsrkit import cli
from fsrkit import fsr as F
from fsrkit import reduction, verify
from fsrkit.bitvec import digits_to_bits, mask_to_bits

FIXED = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def registers(draw):
    stage = draw(st.integers(1, 7))
    table = draw(st.binary(min_size=1 << stage, max_size=1 << stage))
    return F.Fsr(stage, table=bytes(b & 1 for b in table))


@st.composite
def circuits(draw):
    r = draw(st.integers(1, 4))
    nodes = [(C.IN, i) for i in range(r)]
    for k in range(r, r + draw(st.integers(0, 12))):
        op = draw(st.sampled_from([C.AND, C.OR, C.NOT]))
        a = draw(st.integers(0, k - 1))
        nodes.append((op, a) if op == C.NOT
                     else (op, a, draw(st.integers(0, k - 1))))
    return C.Circuit(r, nodes, (draw(st.integers(0, len(nodes) - 1)),))


@st.composite
def cycle_structures(draw):
    words = draw(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=12),
                          min_size=1, max_size=8))
    return F.CycleStructure(F.Cycle(w) for w in words)


@FIXED
@given(registers())
def test_register_text_round_trip(f):
    assert F.parse_fsr("".join(F.fsr_pieces(f))) == f


@FIXED
@given(circuits())
def test_circuit_text_round_trip(c):
    back = C.parse_circuit(C.write_circuit(c))
    assert back.nodes == c.nodes
    assert back.outputs == c.outputs


def columns(c):
    """c's columns, each recorded block's operand entries derived from its
    record, as the readers of block interiors see them."""
    a, b = C._operands(c)
    return c.arity, c.kinds, a, b, c.outputs


@contextlib.contextmanager
def circuits_read():
    """A list that gets, while it is open, (circuit, traced peak) for each
    feedback circuit parse_fsr reads: the circuit as read, before parse_fsr
    tabulates it, and the tracemalloc peak at that point."""
    read = []

    def parse(*args):
        c = C.parse_circuit(*args)
        read.append((c, tracemalloc.get_traced_memory()[1]))
        return c

    with mock.patch.object(F, "parse_circuit", parse):
        yield read


def inline_circuit(register):
    """The feedback circuit parse_fsr reads from register text."""
    with circuits_read() as read:
        F.parse_fsr(register)
    return read[0][0]


def outcome(read):
    """The columns of the circuit read() gives, or its error's class, text
    and line number."""
    try:
        return columns(read())
    except (C.CircuitParseError, F.FsrParseError) as e:
        return type(e).__name__, str(e), e.lineno


def reference(lines, first_line=1):
    """parse_circuit with the given lines, none holding a line break, sent
    through its line loop one at a time."""
    with mock.patch.object(C, "BLOCK_VERTICES", 1):
        with mock.patch.object(C._TextReader, "bulk", lambda rd, block: False):
            return C.parse_circuit("".join(s + "\n" for s in lines), 0, first_line)


def reference_fsr(text, stage):
    """The inline circuit of register text whose first two lines are its
    STAGE and FEEDBACK CIRCUIT lines, read by reference()."""
    circ = reference(text.splitlines()[2:], 3)
    if circ.arity != stage:
        raise F.FsrParseError(f"feedback arity {circ.arity} != stage {stage}", 2)
    return circ


@st.composite
def small_blocks(draw):
    """A circuit, its text and a parse block size that splits the text
    into several blocks."""
    c = draw(circuits())
    return c, C.write_circuit(c), draw(st.integers(1, 6))


@FIXED
@given(small_blocks())
def test_bulk_read_and_line_loop_give_equal_columns(case):
    c, text, block = case
    real = C._TextReader.bulk
    read = []

    def bulk(rd, block):
        read.append(real(rd, block))
        return read[-1]

    with mock.patch.object(C, "BLOCK_VERTICES", block):
        with mock.patch.object(C._TextReader, "bulk", bulk):
            by_blocks = C.parse_circuit(text)
        by_lines = reference(text.splitlines())
    assert columns(by_blocks) == columns(by_lines) == columns(c)
    # every vertex line is read in bulk, block lines at a time; only the
    # SINK line goes through the line loop
    assert read == [True] * -(-c.size // block)


@FIXED
@given(small_blocks(), st.data())
def test_comments_and_blank_lines_leave_the_circuit_alone(case, data):
    c, text, block = case
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines)))
    extra = data.draw(st.sampled_from(["", "   ", "# note", "\t# note"]))
    if data.draw(st.booleans()) or i == len(lines):
        lines[i:i] = [extra]
    else:
        lines[i] += " # note"
    with mock.patch.object(C, "BLOCK_VERTICES", block):
        assert columns(C.parse_circuit("\n".join(lines))) == columns(c)


#: damaged lines; the last three are plain lines that int() and json read
#: differently (a leading zero, a value past the columns' range, digits
#: past int's default limit), so the decoder hands them to the line loop
DECLINED = ["v2 AND v0 v01", "v1 INPUT 4294967296", "v1 NOT v1" + "0" * 4999]
DAMAGE = ["v0 AND v1 v1", "v9 NOT v0", "v1 NOT v1", "v2 AND v0 v7", "SINK v0",
          "v1 INPUT -1", "v1 INPUT 99999999999", "v1 OR v0", "v01 NOT v0",
          "v1 NOT v٠", "v1 AND v0 v+0", "v1  NOT v0"] + DECLINED


@FIXED
@given(small_blocks(), st.data())
def test_damaged_text_gives_the_line_loop_error(case, data):
    _, text, block = case
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    bad = data.draw(st.one_of(st.sampled_from(DAMAGE), fuzzed_text()))
    lines[i:i + data.draw(st.integers(0, 1))] = bad.split("\n")
    text = "\n".join(lines)
    with mock.patch.object(C, "BLOCK_VERTICES", block):
        assert (outcome(lambda: C.parse_circuit(text))
                == outcome(lambda: reference(text.splitlines())))


@pytest.mark.parametrize("bad", DECLINED)
def test_declined_plain_lines_give_the_line_loop_outcome(bad):
    """Each declined line, at the line of its id, is read or refused by the
    line loop alone, whether it opens, ends or sits inside a block."""
    lines = ["v0 INPUT 0", "v1 INPUT 1", "v2 INPUT 2", "v3 AND v1 v2"]
    k = int(bad.split()[0][1:])
    lines[k] = bad
    lines.append("SINK v3")
    read = []
    real = C._TextReader.bulk

    def bulk(rd, block):
        read.append(real(rd, block))
        return read[-1]

    for block in (1, 2, 4):
        read.clear()
        with mock.patch.object(C, "BLOCK_VERTICES", block):
            with mock.patch.object(C._TextReader, "bulk", bulk):
                got = outcome(lambda: C.parse_circuit("\n".join(lines)))
        assert got == outcome(lambda: reference(lines))
        assert False in read
    # the line loop reads a leading zero and refuses the other two
    assert (got[3][2] == 1 if bad == DECLINED[0]
            else got[0] == "CircuitParseError")


@pytest.mark.parametrize("text, message", [
    ("v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v+1\nSINK v2", "line 3: bad vertex reference 'v+1'"),
    ("v0 INPUT 0\nv1 NOT v-0\nSINK v1", "line 2: negative vertex reference 'v-0'"),
    ("v0 INPUT 0\nv1 NOT v-1\nSINK v1", "line 2: negative vertex reference 'v-1'"),
    ("v0 INPUT 0\nv1 INPUT 1_0\nSINK v1", "line 2: bad input index '1_0'"),
    ("v0 INPUT 0\nv1 INPUT ٣\nSINK v1", "line 2: bad input index '٣'"),
    ("v0 INPUT 0\nv1 INPUT -1\nSINK v1", "line 2: bad input index '-1'"),
    ("v0 INPUT 0\nSINK v+0", "line 2: bad vertex reference 'v+0'"),
])
def test_circuit_numbers_are_ascii_decimal(text, message):
    with pytest.raises(C.CircuitParseError) as info:
        C.parse_circuit(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("STAGE ٢\nFEEDBACK TABLE 0110\n", "line 1: bad stage '٢'"),
    ("STAGE +2\nFEEDBACK TABLE 0110\n", "line 1: bad stage '+2'"),
    ("STAGE 2_0\nFEEDBACK TABLE 0110\n", "line 1: bad stage '2_0'"),
])
def test_register_numbers_are_ascii_decimal(text, message):
    with pytest.raises(F.FsrParseError) as info:
        F.parse_fsr(text)
    assert str(info.value) == message


def test_the_ell_3_register_is_read_in_bulk():
    """The full-scale register text is read by the decoder: the line loop
    runs once, for the SINK line, and the columns are those written."""
    f0 = verify.sample_circuits(6, 32, 302)[0]
    inst = reduction.build_irreducibility_fsr(f0)
    circ = inst.feedback_circuit()
    text = "".join(F.fsr_circuit_pieces(circ.arity, circ))
    real = C._TextReader.loop
    looped = []

    def loop(rd, block):
        looped.append(block)
        real(rd, block)

    with mock.patch.object(C._TextReader, "loop", loop), circuits_read() as read:
        F.parse_fsr(text)
    back = read[0][0]
    assert looped == [f"SINK v{circ.sink}\n"]
    assert columns(back) == columns(circ)
    assert circ.size == 722_462


def test_a_comment_sends_only_its_own_line_through_the_line_loop():
    """A comment on every 1,000th vertex line, on a line of its own or
    after the vertex, leaves the columns alone, and the line loop reads
    those lines and the SINK line only, not the plain lines after them."""
    b = C.Builder(8)
    w = b.inputs()
    for k in range(20_000):
        w.append(b.AND(w[-1], w[-3], fresh=True) if k % 3
                 else b.NOT(w[-2], fresh=True))
    circ = b.build(w[-1])
    lines = C.write_circuit(circ).splitlines()
    for i in range(999, len(lines) - 1, 1000):
        lines[i] += " # c" if i % 2000 == 999 else "\n# c"
    real = C._TextReader.loop
    looped = []

    def loop(rd, block):
        looped.extend(block.splitlines())
        real(rd, block)

    with mock.patch.object(C._TextReader, "loop", loop):
        back = C.parse_circuit("\n".join(lines))
    assert columns(back) == columns(circ)
    assert len(looped) < 100, len(looped)


#: line breaks str.splitlines knows, "\n" among them
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]


@st.composite
def register_texts(draw):
    """(circuit, its register text, its circuit text, a parse block size),
    with any line breaks, blank or comment lines, and damage."""
    c, text, block = draw(small_blocks())
    lines = text.splitlines()
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines)))
        bad = draw(st.one_of(st.sampled_from(DAMAGE + ["", "# note"]),
                             fuzzed_text()))
        lines[i:i + draw(st.integers(0, 1))] = bad.split("\n")
    lines = [f"STAGE {c.arity}", "FEEDBACK CIRCUIT"] + lines
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines) - 1,
                           max_size=len(lines) - 1))
    breaks.append(draw(st.sampled_from(BREAKS + [""])))
    register = "".join(map(str.__add__, lines, breaks))
    body = "".join(map(str.__add__, lines[2:], breaks[2:]))
    return c, register, body, block


@FIXED
@given(register_texts())
def test_blocks_read_the_lines_of_splitlines(case):
    """Whatever the line breaks, blank or comment lines and damage, the
    block reader gives what the line loop gives over text.splitlines(),
    alone and inline in register text."""
    c, register, body, block = case
    with mock.patch.object(C, "BLOCK_VERTICES", block):
        assert (outcome(lambda: C.parse_circuit(body))
                == outcome(lambda: reference(body.splitlines())))
        assert (outcome(lambda: inline_circuit(register))
                == outcome(lambda: reference_fsr(register, c.arity)))


def block_lines(m, p, wires):
    """The vertex lines of a width-m block stamped at vertex p over wires,
    from gadget_min(m)'s vertex tuples, its input slot s read as wires[s]."""
    ids = list(wires) + list(range(p, p + C.gadget_min(m).size))
    return [f"v{ids[k]} {op} " + " ".join(f"v{ids[x]}" for x in ops)
            for k, (op, *ops) in enumerate(C.gadget_min(m).nodes)
            if k >= 2 * m]


def spelled(m):
    """A comment's letters that the kind guess (_KIND_GUESS) reads as the
    width-m template's kinds: D for AND, R for OR, T for NOT."""
    return "".join(" DRT"[k] for k in C._min_block(m).kinds)


@st.composite
def stamped_texts(draw):
    """(text, the pieces, a parse block size, the kind of damage, the
    undamaged text in pieces cut before the same lines, the Builder's
    record) for a Builder circuit that mixes plain gates with min_word
    stamps of widths 2 to 6, damaged inside a block or not."""
    r = draw(st.integers(1, 4))
    b = C.Builder(r)
    wires = list(range(r))
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(0, 4))):
            op = draw(st.sampled_from(["AND", "OR", "NOT"]))
            x, y = draw(st.sampled_from(wires)), draw(st.sampled_from(wires))
            wires.append(b.NOT(x) if op == "NOT" else getattr(b, op)(x, y))
        m = draw(st.integers(2, 6))
        xs, ys = ([draw(st.sampled_from(wires)) for _ in range(m)]
                  for _ in range(2))
        wires += b.min_word(xs, ys)
    c = b.build(draw(st.sampled_from(wires)))
    lines = C.write_circuit(c).splitlines()
    clean = [s + "\n" for s in lines]
    breaks = ["\n"] * len(lines)
    damage = draw(st.sampled_from(["none", "digit", "wire", "drop", "copy",
                                   "crlf", "comment", "line", "spell"]))
    p, m, wires = draw(st.sampled_from(c.stamps))
    size = len(C.gadget_min(m).kinds) - 2 * m
    i = draw(st.integers(p, p + size - 1))      # a line of that block
    if damage == "digit":
        digits = [j for j, ch in enumerate(lines[i]) if ch.isdigit()]
        j = draw(st.sampled_from(digits))
        new = draw(st.sampled_from("0123456789".replace(lines[i][j], "")))
        lines[i] = lines[i][:j] + new + lines[i][j + 1:]
    elif damage == "wire":      # one wire read past the block's start
        wires = list(wires)
        wires[draw(st.integers(0, 2 * m - 1))] = draw(
            st.integers(p, p + size + 3))
        lines[p:p + size] = block_lines(m, p, wires)
    elif damage in ("drop", "copy"):
        lines[i:i + 1] = [] if damage == "drop" else [lines[i]] * 2
        del breaks[0]
        breaks += ["\n"] if damage == "copy" else []
    elif damage == "crlf":
        breaks[i] = "\r\n"
    elif damage == "comment":
        if draw(st.booleans()):
            lines[i] += " # c"
        else:
            lines.insert(i, "# c")
            breaks.append("\n")
    elif damage == "line":      # a damaged line anywhere, most after a block
        lines[draw(st.integers(0, len(lines) - 1))] = draw(
            st.sampled_from(DAMAGE))
    elif damage == "spell":     # a comment the guess reads as a block's head
        lines.insert(draw(st.integers(0, len(lines))), f"# {spelled(2)}")
        breaks.append("\n")
    text = "".join(map(str.__add__, lines, breaks))
    cuts = sorted(draw(st.lists(st.integers(1, len(lines) - 1), max_size=2)))
    ends = [len("".join(map(str.__add__, lines[:k], breaks[:k]))) for k in cuts]
    pieces = [text[lo:hi] for lo, hi in zip([0] + ends, ends + [len(text)])]
    block = draw(st.sampled_from([4, 64, 256, C.BLOCK_VERTICES]))
    cuts = sorted({min(k, len(clean) - 1) for k in cuts})
    whole = ["".join(clean[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [None])]
    return text, pieces, block, damage, whole, c.stamps


def prefixes(stamps) -> list:
    """Each stamp (p, m, wires) and its prefixes at p: the width-w block
    over the first w wires of each word, for w from 2 to m."""
    return [(p, w, wires[:w] + wires[m:m + w])
            for p, m, wires in stamps for w in range(2, m + 1)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stamped_texts())
def test_stamped_blocks_read_whole_give_the_line_loop_outcome(case):
    """Text with stamped blocks, whole or damaged, in one piece or cut
    inside a block, reads as the line loop reads it: the same error, or
    the same columns as the readers of block interiors see them.  Each
    recorded block is a Builder's stamp, or its prefix at its start; at
    the default block size, the undamaged text in the same pieces records
    exactly the Builder's stamps, and is written back the same."""
    text, pieces, block, damage, whole, stamps = case
    parsed = []

    def parse():
        parsed.append(C.parse_circuit(iter(pieces)))
        return parsed[-1]

    with mock.patch.object(C, "BLOCK_VERTICES", block):
        got = outcome(parse)
    assert got == outcome(lambda: reference(text.splitlines()))
    for c in parsed:
        assert all(blk in prefixes(stamps) for blk in c.stamps), c.stamps
        if damage == "none":
            assert C.write_circuit(c) == text
    c = C.parse_circuit(iter(whole))
    assert c.stamps == stamps
    assert C.write_circuit(c) == "".join(whole)


def test_head_spelling_comments_cost_one_guess_and_one_missed_line_per_piece(
        tmp_path):
    """20,000 comment lines that each spell a block's head, read from a file
    in pieces: each piece is guessed once, and a head whose line is missing
    ends its piece's guess, so the read stays linear in the text."""
    path = write_bytes(tmp_path, "flood.fsr", (
        "STAGE 1\nFEEDBACK CIRCUIT\nv0 INPUT 0\n" + f"# {spelled(2)}\n" * 20_000
        + "SINK v0\n").encode())
    pieces, guesses, misses = [], [], []
    read, guess, line_start = C._TextReader.read, C._guess_stamps, C._line_start

    def read_piece(rd, text, pos, final):
        pieces.append(len(text))
        return read(rd, text, pos, final)

    def guess_stamps(*args):
        guesses.append(args[1])
        return guess(*args)

    def find_line(*args):
        off = line_start(*args)
        if off < 0:
            misses.append(args[1])
        return off

    with mock.patch.object(C, "_READ_BYTES", 1 << 16), \
            mock.patch.object(C._TextReader, "read", read_piece), \
            mock.patch.object(C, "_guess_stamps", guess_stamps), \
            mock.patch.object(C, "_line_start", find_line), \
            circuits_read() as circuits:
        F.parse_fsr(C.read_text(path))
    assert circuits[0][0].nodes == [(C.IN, 0)]
    assert len(pieces) > 10
    assert len(guesses) == len(pieces)
    assert len(misses) <= len(pieces)


def test_a_comment_spelling_a_wide_block_builds_no_wide_template():
    """The guess widens a head only while the wider template has at most
    BLOCK_VERTICES gates, so a comment whose letters spell the width-30
    template's kinds makes no template past width 24 be built."""
    spell = spelled(30)
    widths, real = [], C._min_block

    def min_block(m):
        widths.append(m)
        return real(m)

    with mock.patch.object(C, "_min_block", min_block):
        c = C.parse_circuit(f"v0 INPUT 0\n# {spell}\nSINK v0\n")
    assert c.nodes == [(C.IN, 0)]
    assert max(widths) == 24 and len(real(24).kinds) > C.BLOCK_VERTICES


def test_a_wide_block_builds_no_wide_template_and_records_its_prefix():
    """The text of one width-144 min_word (3.1 MB, 137,569 vertices): the
    guess widens its head only to width 23, the widest template of at most
    BLOCK_VERTICES gates, and the reader records that prefix of the block
    and reads the rest in runs.  A reader that built every template up to
    the block's width and one past it took seconds here."""
    b = C.Builder(288)
    c = b.build(b.or_chain(b.min_word(range(144), range(144, 288))))
    text = C.write_circuit(c)
    widths, real = [], C._min_block

    def min_block(m):
        widths.append(m)
        return real(m)

    with mock.patch.object(C, "_min_block", min_block):
        back = C.parse_circuit(text)
    assert max(widths) == 24
    assert [(p, m) for p, m, _ in back.stamps] == [(288, 23)]
    assert columns(back) == columns(c)
    assert C.write_circuit(back) == text


def test_a_carried_block_is_held_no_further_than_a_block_reaches(tmp_path):
    """A width-2 head's first 31 lines, then 2 MB of comment lines that
    spell no kind, read in 16 KiB pieces: the piece that ends after the
    head carries the lines from the head on into the next, and so on only
    while they fit what a block's lines can reach (_reach at
    BLOCK_VERTICES gates); then they are read in runs.  So no text the
    reader gets is longer than one read and that bound."""
    b = C.Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    (p, _, _), = c.stamps
    lines = C.write_circuit(c).splitlines(keepends=True)
    comments = ["# 0123456789\n"] * ((2 << 20) // 13)
    path = write_bytes(tmp_path, "carry.ckt", "".join(
        lines[:p + 31] + comments + lines[p + 31:]).encode())
    size, read, texts = 1 << 14, C._TextReader.read, []

    def read_piece(rd, text, pos, final):
        texts.append(len(text))
        return read(rd, text, pos, final)

    with mock.patch.object(C, "_READ_BYTES", size), \
            mock.patch.object(C._TextReader, "read", read_piece):
        back = C.parse_circuit(C.read_text(path))
    assert columns(back) == columns(c)
    assert len(texts) > 100
    assert max(texts) <= size + C._reach(p, C.BLOCK_VERTICES)


def test_a_parse_error_in_a_carried_block_comes_before_bad_utf8(tmp_path):
    """A damaged line inside a block that a piece's end cuts, and bytes
    that are not UTF-8 in the next piece: the carried lines are read before
    the next piece's error is raised, so the parse error of the earlier
    piece is reported first, as when the block is read with its piece."""
    b = C.Builder(6)
    c = b.build(b.or_chain(b.min_word([0, 1, 2], [3, 4, 5])))
    (p, _, _), = c.stamps
    lines = C.write_circuit(c).splitlines(keepends=True)
    k = p + 40          # an AND line, past the width-2 head, given a forward wire
    assert " AND " in lines[k]
    lines[k] = lines[k].rsplit(" ", 1)[0] + f" v{k + 9}\n"
    first = "".join(lines[:p + 45]).encode()
    path = write_bytes(tmp_path, "bad.ckt", first + b"# \xff\n"
                       + "".join(lines[p + 45:]).encode())
    read, carried = C._TextReader.read, []

    def read_piece(rd, text, pos, final):
        got = read(rd, text, pos, final)
        carried.append(rd.carry)
        return got

    with mock.patch.object(C, "_READ_BYTES", len(first)), \
            mock.patch.object(C._TextReader, "read", read_piece), \
            pytest.raises(C.CircuitParseError) as info:
        C.parse_circuit(C.read_text(path))
    assert str(info.value) == f"line {k + 1}: forward reference to v{k + 9}"
    assert carried == ["".join(lines[p:p + 45])]


def test_a_block_s_wires_are_looked_for_within_its_own_lines():
    """A stamp's wires are read off lines within the reach of the block's
    own lines, so a block with a missing line costs no search through the
    rest of the text: here its second line is spelled with a tab, and the
    block's lines again far past it are not read."""
    b = C.Builder(4)
    c = b.build(b.min_word([0, 1], [2, 3])[0])
    (p, m, wires), = c.stamps
    lines = C.write_circuit(c).splitlines()
    pos = len("".join(s + "\n" for s in lines[:p]))
    block = C._min_block(m)
    assert C._text_wires("\n".join(lines), pos, p, block) == list(wires)
    lines[p + 1] = lines[p + 1].replace(" ", "\t", 1)
    far = [lines[p + 1].replace("\t", " ")] + lines[p + 2:p + len(block.kinds)]
    text = "\n".join(lines + ["# far"] * 10_000 + far)
    assert C._text_wires(text, pos, p, block) is None


def test_parse_holds_under_40_bytes_per_vertex():
    b = C.Builder(8)
    w = b.inputs()
    for k in range(100_000):
        w.append(b.AND(w[-1], w[-3], fresh=True) if k % 3
                 else b.NOT(w[-2], fresh=True))
    text = C.write_circuit(b.build(w[-1]))
    register = "STAGE 8\nFEEDBACK CIRCUIT\n" + text
    tracemalloc.start()
    try:
        c = C.parse_circuit(text)
        alone = tracemalloc.get_traced_memory()[1]
        del c
        tracemalloc.reset_peak()
        with circuits_read() as read:
            F.parse_fsr(register)      # the peak is taken before tabulation
        c, inline = read[0]
    finally:
        tracemalloc.stop()
    assert c.size == 100_008
    # the columns take 9 B per vertex; node tuples took over 100 B, and a
    # line list of the text about 75 B
    assert alone < 40 * c.size and inline < 40 * c.size, (alone, inline)


@FIXED
@given(cycle_structures())
def test_cycle_listing_text_round_trip(cs):
    """Each listing line is a cycle's minimal period and its canonical
    bits, in sort_key order, and the lines give back the structure."""
    rows = [line.split(" ") for line in cs.format_listing().splitlines()]
    cycles = [F.Cycle(digits_to_bits(bits)) for _, bits in rows]
    assert [(int(period), str(c)) for (period, _), c in zip(rows, cycles)] == [
        (c.period, str(c)) for c in cs.sorted()]
    assert F.CycleStructure(cycles) == cs


# Fuzzed text: keywords and fragments of all three formats, numbers, and
# characters that trip naive parsers (NUL, a non-ASCII digit, '#').  No
# token holds '/', so a circuit path stays inside the empty base directory.
TOKENS = ["STAGE", "FEEDBACK", "TABLE", "CIRCUIT", "INPUT", "AND", "OR",
          "NOT", "SINK", "v0", "v1", "v2", "v-1", "v", "0", "1", "2", "3",
          "01", "0110", "011", "-1", "+1", "x", ".", "..", "\x00",
          "١", "#", "0" * 40]
SEPARATORS = [" ", "\n", "\t", "\r\n", ""]


@st.composite
def fuzzed_text(draw):
    parts = draw(st.lists(st.one_of(
        st.sampled_from(TOKENS),
        st.text(alphabet=st.characters(exclude_characters="/"), max_size=4)),
        max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(parts),
                         max_size=len(parts)))
    return "".join(p + s for p, s in zip(parts, seps))


VALID = ["STAGE 2\nFEEDBACK TABLE 0110\n",
         "STAGE 2\nFEEDBACK CIRCUIT\nv0 INPUT 0\nv1 INPUT 1\n"
         "v2 AND v0 v1\nv3 NOT v2\nSINK v3\n",
         "1 0\n1 1\n3 001\n3 011\n"]


@st.composite
def damaged_text(draw):
    """A valid text with one line replaced by fuzz, or fuzz inserted."""
    lines = draw(st.sampled_from(VALID)).splitlines()
    i = draw(st.integers(0, len(lines)))
    lines[i:i + draw(st.integers(0, 1))] = [draw(fuzzed_text())]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("empty"))


@FIXED
@given(st.one_of(fuzzed_text(), damaged_text()))
def test_parsers_raise_only_their_own_errors(empty_dir, text):
    for parse in (lambda t: F.parse_fsr(t, base_dir=empty_dir),
                  C.parse_circuit):
        try:
            parse(text)
        except (F.FsrParseError, C.CircuitParseError):
            pass


def register_outcome(read):
    """outcome() for a register: its stage and table, and the columns of
    the feedback circuit it was read from, if any."""
    with circuits_read() as got:
        try:
            f = read()
        except (C.CircuitParseError, F.FsrParseError) as e:
            return type(e).__name__, str(e), e.lineno
    return f.stage, f.table, [columns(c) for c, _ in got]


def write_bytes(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@FIXED
@given(st.one_of(register_texts(),
                 st.tuples(st.none(), st.one_of(fuzzed_text(), damaged_text()))),
       st.integers(1, 64))
def test_a_file_read_in_pieces_parses_as_its_whole_text(empty_dir, case, size):
    """Through read_text, cut into pieces after the last line feed of each
    read of 1-64 bytes, a register or circuit file gives what its whole
    text gives: the same columns, or the same error and line number."""
    if case[0] is None:
        texts = [case[1]]
    else:
        texts = [case[1], case[2]]
    for text in texts:
        path = write_bytes(empty_dir, "piece.txt", text.encode())
        with mock.patch.object(C, "_READ_BYTES", size):
            assert (register_outcome(lambda: F.parse_fsr(C.read_text(path), empty_dir))
                    == register_outcome(lambda: F.parse_fsr(text, empty_dir)))
            assert (outcome(lambda: C.parse_circuit(C.read_text(path)))
                    == outcome(lambda: C.parse_circuit(text)))
        assert "".join(C.read_text(path)) == text


#: valid circuit lines, then a comment line holding bytes that are not UTF-8
#: (a stray continuation byte, a truncated sequence), then the SINK line
BAD_UTF8 = [b"# \xff\n", b"# \xe2\x82\n", b"# ok \xc3\xa9 \x80 x\n"]


@pytest.mark.parametrize("bad", BAD_UTF8)
def test_bad_utf8_in_a_later_piece_names_its_file_position(workdir_cli, bad):
    """The error is a whole-file decode's, its position counted from the
    start of the file, whether the file is read as a circuit, as a
    register or through a register's circuit path."""
    body = "".join(f"v{i} INPUT {i}\n" for i in range(40)).encode()
    ckt = body + bad + b"SINK v0\n"
    try:
        ckt.decode()
    except UnicodeDecodeError as e:
        message = str(e)
    reg = b"STAGE 40\nFEEDBACK CIRCUIT\n" + ckt
    try:
        reg.decode()
    except UnicodeDecodeError as e:
        reg_message = str(e)
    assert message != reg_message
    ckt_path = write_bytes(workdir_cli, "f0.ckt", ckt)
    reg_path = write_bytes(workdir_cli, "f0.fsr", reg)
    ref_path = write_bytes(workdir_cli, "ref.fsr", b"STAGE 40\nFEEDBACK CIRCUIT f0.ckt\n")
    for argv, expected in [
            (["reduce", "irr", ckt_path], f"error: {message}\n"),
            (["analyze", "cycles", reg_path], f"error: {reg_message}\n"),
            (["analyze", "cycles", ref_path],
             f"error: line 2: cannot read circuit 'f0.ckt': {message}\n")]:
        with mock.patch.object(C, "_READ_BYTES", 64):
            code, out, err = run_main(argv)
        assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("end", ["\n", ""])
def test_a_file_of_the_read_bound_reads_and_one_byte_more_exits_2(workdir_cli, end):
    """With the bound at four reads, a register file of exactly the bound
    reads, its last line longer than a read, and one byte more is refused."""
    head = "STAGE 2\nFEEDBACK TABLE 0110\n#"
    for extra, code, out, err in [(0, 0, "1 0\n3 011\n", ""),
                                  (1, 2, "", "longer than 64 bytes\n")]:
        text = head + "x" * (64 - len(head) - len(end) + extra) + end
        path = write_bytes(workdir_cli, "f.fsr", text.encode())
        with mock.patch.object(C, "_READ_BYTES", 16), \
                mock.patch.object(C, "READ_BYTES_BOUND", 64):
            got = run_main(["analyze", "cycles", path])
        assert got[:2] == (code, out)
        assert got[2].endswith(err) and (err or not got[2])


@pytest.fixture
def workdir_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return str(tmp_path)


def run_main(argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def long_circuit():
    """The 100,008-vertex circuit of test_parse_holds_under_40_bytes_per_vertex."""
    b = C.Builder(8)
    w = b.inputs()
    for k in range(100_000):
        w.append(b.AND(w[-1], w[-3], fresh=True) if k % 3
                 else b.NOT(w[-2], fresh=True))
    return b.build(w[-1])


def test_loading_a_register_file_holds_under_40_bytes_per_vertex(long_circuit, tmp_path):
    """The CLI reads a register file in pieces: the file's 2.5 MB of text
    is never held whole, as bytes or as str, up to the circuit it reads,
    which it then tabulates."""
    path = str(tmp_path / "long.fsr")
    with open(path, "w") as fh:
        fh.writelines(F.fsr_circuit_pieces(8, long_circuit))
    tracemalloc.start()
    try:
        with circuits_read() as read:
            f = cli._load_fsr(path)
    finally:
        tracemalloc.stop()
    (c, peak), = read
    assert columns(c) == columns(long_circuit)
    assert f.table == mask_to_bits(long_circuit.output_masks()[0], 1 << 8)
    assert peak < 40 * long_circuit.size, peak


def test_writing_a_register_file_adds_under_1_mb(long_circuit, workdir_cli):
    """reduce --emit circuit writes the register in pieces: past the build,
    which gives the circuit here, it holds no copy of the file's text."""
    identity = write_bytes(workdir_cli, "f0.ckt", b"v0 INPUT 0\nSINK v0\n")
    inst = SimpleNamespace(stage=8, ell=1, k=1, r=1, fsr=None, size_report=None,
                           feedback_circuit=lambda: long_circuit)

    def build(f0):
        tracemalloc.reset_peak()
        return inst

    with mock.patch.object(reduction, "build_irreducibility_fsr", build):
        tracemalloc.start()
        try:
            code, out, _ = run_main(["reduce", "irr", identity, "--emit", "circuit",
                                     "--out", "long.fsr"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (code, out.splitlines()[-1]) == (0, "wrote long.fsr")
    with open("long.fsr") as fh:
        assert fh.read() == "".join(F.fsr_circuit_pieces(8, long_circuit))
    assert peak < 1 << 20, peak


def test_unreadable_circuit_paths_are_parse_errors(empty_dir):
    for path in ("a\x00b", ".", "missing.ckt"):
        with pytest.raises(F.FsrParseError, match="line 2: cannot read"):
            F.parse_fsr(f"STAGE 1\nFEEDBACK CIRCUIT {path}\n", base_dir=empty_dir)


def test_feedback_circuit_of_another_arity_is_refused_on_its_line(workdir_cli):
    circ = "v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nSINK v2\n"
    with open("and2.ckt", "w") as fh:
        fh.write(circ)
    for text, line in (("STAGE 3\nFEEDBACK CIRCUIT\n" + circ, 2),
                       ("# a comment\nSTAGE 3\nFEEDBACK CIRCUIT and2.ckt\n", 3)):
        with pytest.raises(F.FsrParseError,
                           match=f"line {line}: feedback arity 2 != stage 3"):
            F.parse_fsr(text, base_dir=workdir_cli)
        with open("f.fsr", "w") as fh:
            fh.write(text)
        code, out, err = run_main(["analyze", "cycles", "f.fsr"])
        assert (code, out) == (2, "")
        assert "feedback arity 2 != stage 3" in err and "Traceback" not in err
