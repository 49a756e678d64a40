"""The bit-parallel lane pass: the minimum-block comparator against the
block's template, the freeing pass and the passes that run stamped
blocks through the comparator against the plain gate-by-gate pass, the
blocks and the columns that stamp them, the input lanes and the batch
transposition against their bitwise definitions, and the memory the
passes hold."""

import functools
import random
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fsrkit import circuit, reduction
from fsrkit.bitvec import mask_to_bits
from fsrkit.circuit import (Builder, Circuit, gadget_min, input_lanes,
                            parse_circuit, write_circuit)
from fsrkit.lfsr import LfsrFamily, parse_poly

FIXED = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def circuits(draw):
    """Random DAGs over a few inputs, gates with repeated operands included,
    and several outputs, some of them input vertices or mid-list vertices."""
    r = draw(st.integers(1, 6))
    nodes = [("IN", i) for i in range(r)]
    for k in range(r, r + draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["AND", "OR", "NOT"]))
        a = draw(st.integers(0, k - 1))
        if op == "NOT":
            nodes.append((op, a))
        else:
            same = draw(st.booleans())
            nodes.append((op, a, a if same else draw(st.integers(0, k - 1))))
    # outputs anywhere in the node list, so mostly vertices that later
    # gates read too, and an input vertex
    outputs = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1,
                            max_size=5))
    outputs.append(draw(st.integers(0, r - 1)))
    return Circuit(r, nodes, tuple(outputs))


def evaluations(c):
    assignments = list(range(1 << c.arity))[::-1]
    return (c.output_masks(), c.evaluate_batch(assignments),
            [tuple(c.evaluate_batch([x])) for x in range(1 << c.arity)])


@FIXED
@given(circuits())
def test_freeing_pass_equals_plain_pass(c):
    below = evaluations(c)                  # small circuits: the plain pass
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        above = evaluations(c)              # every pass frees dead lanes
    assert above == below
    # the plain pass also agrees with evaluating one vector at a time
    masks = below[0]
    for x, outs in enumerate(below[2]):
        assert outs == tuple((m >> x) & 1 for m in masks)


@FIXED
@given(circuits(), st.integers(1, 300))
def test_both_passes_agree_on_wide_lanes(c, lane_bits):
    in_vals = [(0x5A5A5A5A5A5A5A5A * (i + 3)) % (1 << lane_bits)
               for i in range(c.arity)]
    full = (1 << lane_bits) - 1
    assert (c._pass(in_vals, full, free=True)
            == c._pass(in_vals, full, free=False))


def test_repeated_operand_and_input_outputs():
    c = parse_circuit("v0 INPUT 0\nv1 INPUT 1\nv2 OR v0 v1\nv3 NOT v2\n"
                      "v4 AND v3 v3\nv5 OR v4 v4\nSINK v5\n")
    c = Circuit(c.arity, c.nodes, (1, 5, 3, 0))
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        live = c.output_masks()
    assert live == c.output_masks() == [0b1100, 0b0001, 0b0001, 0b1010]


def every_input(m: int):
    """Lanes over all 2^(2m) inputs of the m-bit minimum block, as (v,
    full) chunks of at most 2^16-bit lanes: the low inputs vary within a
    lane, the high ones are constant over a chunk."""
    low = min(2 * m, 16)
    lanes, full = input_lanes(low), (1 << (1 << low)) - 1
    for high in range(1 << (2 * m - low)):
        yield lanes + [full if high >> i & 1 else 0
                       for i in range(2 * m - low)], full


def template(v: list, m: int, full: int) -> list:
    """The m-bit block's outputs, its template run gate by gate."""
    return circuit._min_block(m).circuit._pass(v, full, free=False)


def equals_template(compare, widths) -> bool:
    return all(compare(v, m, full) == template(v, m, full)
               for m in widths for v, full in every_input(m))


def test_comparator_equals_the_template_on_every_input():
    assert equals_template(circuit._min_lanes, range(1, 13))


@FIXED
@given(st.data())
def test_comparator_equals_the_template_on_wide_words(data):
    # up to 18 bits, the width of the ell = 9 indecomposability blocks;
    # ys agrees with xs in its top bits, so the scan runs past them
    m = data.draw(st.integers(13, 18))
    bits = data.draw(st.integers(1, 200))
    full = (1 << bits) - 1
    word = st.lists(st.integers(0, full), min_size=m, max_size=m)
    xs, ys = data.draw(word), data.draw(word)
    same = data.draw(st.integers(0, m))
    ys[m - same:] = xs[m - same:]
    v = xs + ys
    assert circuit._min_lanes(v, m, full) == template(v, m, full)


def scan_from_the_low_bit(v, m, full):
    xs, ys = v[:m], v[m:]
    lt, eq = 0, full
    for x, y in zip(xs, ys):
        d = eq & (x ^ y)
        lt |= d & y
        eq ^= d
    return [y ^ ((x ^ y) & lt) for x, y in zip(xs, ys)]


def pick_x_where_y_is_smaller(v, m, full):
    xs, ys = v[:m], v[m:]
    lt, eq = 0, full
    for x, y in zip(reversed(xs), reversed(ys)):
        d = eq & (x ^ y)
        lt |= d & y
        eq ^= d
    return [x ^ ((x ^ y) & lt) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("mutant", [scan_from_the_low_bit,
                                    pick_x_where_y_is_smaller])
def test_comparator_mutants_differ_from_the_template(mutant):
    assert not equals_template(mutant, range(1, 5))


@st.composite
def stamped_circuits(draw):
    """Builder circuits that mix random gates with min_word stamps of widths
    2 to 5 over random earlier wires: two stamps back to back, the second
    on the first's outputs, then more gates and stamps.  Gates and stamps
    read inputs, gates and stamp outputs; one gate may read a stamp's inner
    vertex, and one output may lie inside a stamp."""
    r = draw(st.integers(1, 5))
    b = Builder(r)
    wires = list(range(r))      # what gates and stamps read
    inner = []                  # the stamps' non-output vertices

    def gates():
        for _ in range(draw(st.integers(0, 6))):
            op = draw(st.sampled_from(["AND", "OR", "NOT"]))
            x, y = draw(st.sampled_from(wires)), draw(st.sampled_from(wires))
            wires.append(b.NOT(x) if op == "NOT" else getattr(b, op)(x, y))

    def stamp(pool):
        m = draw(st.integers(2, 5))
        xs, ys = ([draw(st.sampled_from(pool)) for _ in range(m)]
                  for _ in range(2))
        start = len(b.kinds)
        out = b.min_word(xs, ys)
        inner.extend(sorted(set(range(start, len(b.kinds))) - set(out)))
        wires.extend(out)

    gates()
    stamp(wires[:])
    stamp(wires[-2:])
    gates()
    if draw(st.booleans()):
        wires.append(b.OR(draw(st.sampled_from(inner)),
                          draw(st.sampled_from(wires))))
    for _ in range(draw(st.integers(0, 2))):
        stamp(wires[:])
        gates()
    outputs = [draw(st.sampled_from(wires)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        outputs.insert(draw(st.integers(0, len(outputs))),
                       draw(st.sampled_from(inner)))
    return b.build(tuple(outputs))


def derived(c) -> tuple:
    """c's operand columns, each recorded block's entries derived from its
    record, as the readers of block interiors see them."""
    return circuit._operands(c)


def one_sink(c):
    """c with its first output as its sink, record kept, so it can be
    written as text."""
    return Circuit._from_columns(c.arity, c.kinds, c.a, c.b, (c.outputs[0],),
                                 c.stamps)


def block_passes(c):
    """c's plain and freeing passes, each running c's blocks through the
    comparator."""
    blocks = circuit._min_blocks(c)
    return [functools.partial(c._pass, blocks=blocks, free=free)
            for free in (False, True)]


@FIXED
@given(stamped_circuits())
def test_comparator_pass_equals_plain_pass(c):
    r = c.arity
    lanes, full = input_lanes(r), (1 << (1 << r)) - 1
    plain = c._pass(lanes, full, free=False)     # gate by gate
    for run in block_passes(c):
        assert run(lanes, full) == plain
        assert [tuple(run([x >> i & 1 for i in range(r)], 1))
                for x in range(1 << r)] == [
            tuple(m >> x & 1 for m in plain) for x in range(1 << r)]
    assert c.output_masks() == plain
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.output_masks() == plain
        each = [tuple(c.evaluate_batch([x])) for x in range(1 << r)]
    assert each == [tuple(m >> x & 1 for m in plain) for x in range(1 << r)]
    # the same circuit, record kept, with its first output as sink, written
    # and parsed back, and moved up by one vertex as the feedback circuits
    # are: the same blocks, and the same mask (input 0 of the moved one held
    # at 0)
    one = one_sink(c)
    parsed = parse_circuit(write_circuit(one))
    moved = reduction._wrap_feedback(one, parse_poly(f"x^{r + 1} + 1"))
    assert circuit._min_blocks(parsed) == circuit._min_blocks(one)
    assert moved.stamps == tuple(
        (p + 1, m, array("I", [w + 1 for w in wires]))
        for p, m, wires in one.stamps)
    assert circuit._min_blocks(moved) == [
        (p + 1, m, array("I", [w + 1 for w in wires]))
        for p, m, wires in circuit._min_blocks(one)]
    for form, in_vals in ((parsed, lanes), (moved, [0] + lanes)):
        for run in block_passes(form):
            assert run(in_vals, full) == [plain[0]]
        assert form._pass(in_vals, full, free=True) == [plain[0]]


@FIXED
@given(stamped_circuits(), st.integers(1, 300))
def test_comparator_pass_agrees_on_lanes_of_any_width(c, lane_bits):
    in_vals = [(0x5A5A5A5A5A5A5A5A * (i + 3)) % (1 << lane_bits)
               for i in range(c.arity)]
    full = (1 << lane_bits) - 1
    for run in block_passes(c):
        assert run(in_vals, full) == c._pass(in_vals, full, free=False)


@FIXED
@given(stamped_circuits())
def test_the_record_is_what_the_maker_knew(c):
    # one (start, m, wires) per stamp the Builder made, in id order, the
    # 2m wires an array, over zero operand entries
    assert type(c.stamps) is tuple
    assert [p for p, _, _ in c.stamps] == sorted(p for p, _, _ in c.stamps)
    for p, m, wires in c.stamps:
        assert (type(wires), wires.typecode, len(wires)) == (array, "I", 2 * m)
        end = p + len(circuit._min_block(m).kinds)
        assert c.a[p:end].tobytes() == c.b[p:end].tobytes() == bytes(
            (end - p) * circuit._INDEX_BYTES)
    # the same vertices as tuples have no record, and run gate by gate to
    # the same outputs
    tuples = Circuit(c.arity, c.nodes, c.outputs)
    assert tuples.stamps == () and circuit._min_blocks(tuples) == []
    assert (tuples.kinds, *derived(tuples)) == (c.kinds, *derived(c))
    assert tuples.output_masks() == c.output_masks()


@FIXED
@given(stamped_circuits())
def test_text_carries_the_builders_record_and_tuples_none(c):
    # the text reader reads every stamp whole, so a parsed circuit records
    # the Builder's blocks over the Builder's column form; a circuit made
    # from its tuples records none
    parsed = parse_circuit(write_circuit(one_sink(c)))
    assert parsed.stamps == c.stamps
    assert (parsed.kinds, parsed.a, parsed.b) == (c.kinds, c.a, c.b)
    assert Circuit(parsed.arity, parsed.nodes, parsed.outputs).stamps == ()


def test_wrap_feedback_shifts_the_record_of_built_and_parsed_circuits():
    b = Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    # each stamp's start, width and wires
    assert c.stamps == ((4, 2, array("I", [0, 1, 2, 3])),)
    p = parse_poly("x^5 + 1")
    moved = reduction._wrap_feedback(c, p)
    assert moved.stamps == ((5, 2, array("I", [1, 2, 3, 4])),)
    assert circuit._min_blocks(moved) == list(moved.stamps)
    # parsed text carries the record its columns hold, so it is spliced
    # as the built circuit is
    parsed = parse_circuit(write_circuit(c))
    assert parsed.stamps == c.stamps
    again = reduction._wrap_feedback(parsed, p)
    assert write_circuit(again) == write_circuit(moved)
    assert again.stamps == moved.stamps


@FIXED
@given(stamped_circuits(), st.integers(0, 3))
def test_splice_moves_every_id_and_the_record(c, extra):
    # c spliced over the last c.arity of extra + c.arity inputs: its gates,
    # outputs and record move up by extra, and its outputs are c's
    n = c.arity
    b = Builder(n + extra)
    out = b.splice(c)
    moved = b.build(tuple(out))
    (a, b), (moved_a, moved_b) = derived(c), derived(moved)
    assert moved.kinds[n + extra:] == c.kinds[n:]
    assert moved_a[n + extra:].tolist() == [x + extra for x in a[n:]]
    assert moved_b[n + extra:].tolist() == [y + extra for y in b[n:]]
    assert out == [o + extra for o in c.outputs]
    assert moved.stamps == tuple(
        (p + extra, m, array("I", [w + extra for w in wires]))
        for p, m, wires in c.stamps)
    # the moved circuit's text records the moved blocks, each read whole
    assert parse_circuit(write_circuit(one_sink(moved))).stamps == moved.stamps
    lanes, full = input_lanes(n + extra), (1 << (1 << (n + extra))) - 1
    assert (moved._pass(lanes, full, free=False)
            == c._pass(lanes[extra:], full, free=False))


@FIXED
@given(stamped_circuits(), st.integers(0, 3))
def test_every_reader_of_block_interiors_sees_the_per_entry_columns(c, extra):
    # each reader that derives a block's operands from its record agrees
    # with the same circuit stamped entry by entry and read as stored
    want = by_entry(c)
    assert derived(c) == (want.a, want.b)
    assert c.nodes == want.nodes
    # text, in pieces of the default size and of 7 lines, and parsed back
    sink = one_sink(c)
    text = write_circuit(sink)
    assert text == write_circuit(by_entry(sink))
    with mock.patch.object(circuit, "BLOCK_VERTICES", 7):
        assert write_circuit(sink) == text
    parsed = parse_circuit(text)
    assert (parsed.kinds, *derived(parsed), parsed.stamps) == (
        c.kinds, want.a, want.b, c.stamps)
    # embedded into, and spliced over, a fresh builder
    n = c.arity

    def moved(form) -> tuple:
        dest = Builder(n)
        embedded = dest.build(tuple(dest.embed(form, range(n))))
        dest = Builder(n + extra)
        spliced = dest.build(tuple(dest.splice(form)))
        return layout(embedded), spliced.kinds, derived(spliced), spliced.outputs

    assert moved(c) == moved(want)
    # gate by gate, and with each block through the comparator
    lanes, full = input_lanes(n), (1 << (1 << n)) - 1
    plain = want._pass(lanes, full, free=False)
    assert c._pass(lanes, full, blocks=(), free=False) == plain
    assert c._pass(lanes, full, blocks=(), free=True) == plain
    for run in block_passes(c):
        assert run(lanes, full) == plain


@FIXED
@given(stamped_circuits(), st.integers(1, 60))
def test_the_text_writer_makes_each_block_once_by_its_form(c, piece):
    # pieces of about ``piece`` lines, most shorter than a block: each
    # recorded block is one piece, made once by its width's text form, no
    # block's operands are derived, and the text is that of the same
    # circuit with every entry stored and no record
    sink = one_sink(c)
    want = write_circuit(by_entry(sink))
    form, made = circuit._stamp_text, []

    def stamp_text(m, p, wires):
        made.append((p, m, wires))
        return form(m, p, wires)

    def operands(circ):
        raise AssertionError("the writer derived a block's operands")

    with mock.patch.object(circuit, "BLOCK_VERTICES", piece), \
            mock.patch.object(circuit, "_stamp_text", stamp_text), \
            mock.patch.object(circuit, "_operands", operands):
        pieces = list(circuit.circuit_pieces(sink))
    assert "".join(pieces) == want
    assert made == list(c.stamps)
    blocks = [form(m, p, wires) for p, m, wires in c.stamps]
    assert [s for s in pieces if s in blocks] == blocks
    assert all(len(s.splitlines()) <= piece for s in pieces if s not in blocks)


def line_by_line(m, p, wires) -> str:
    """The vertex lines of the width-m block stamped at vertex p over
    wires, one f-string per line over the block's columns."""
    kinds = circuit._min_block(m).kinds
    a, b = circuit._block_columns(m, p, wires)
    return "".join(f"v{k} AND v{x} v{y}\n" if op == circuit._AND else
                   f"v{k} OR v{x} v{y}\n" if op == circuit._OR else
                   f"v{k} NOT v{x}\n"
                   for k, op, x, y in zip(range(p, p + len(kinds)), kinds, a, b))


@st.composite
def block_sites(draw):
    """(m, p, wires): a block width, a start whose ids lie below 1000,
    across a multiple of 1000, across a power of ten or up to the largest
    id, and 2m wires before p."""
    m = draw(st.integers(2, 6))
    size = len(circuit._min_block(m).kinds)
    p = draw(st.one_of(
        st.integers(0, 999),
        st.builds(lambda k, d: k * 1000 - d,
                  st.integers(1, 10 ** 6), st.integers(0, size)),
        st.builds(lambda e, d: max(10 ** e - d, 0),
                  st.integers(1, 9), st.integers(0, size)),
        st.integers(circuit._INDEX_MAX - size - 2000,
                    circuit._INDEX_MAX - size + 1)))
    wires = draw(st.lists(st.integers(0, max(p - 1, 0)),
                          min_size=2 * m, max_size=2 * m))
    return m, p, array("I", wires)


def wide_site(m, p):
    return m, p, array("I", [p // (i + 2) for i in range(2 * m)])


@FIXED
@given(block_sites())
# the widths of the ell = 3 and ell = 9 reductions (1,112 and 2,381
# vertices): across 1000 from below, across 10^5 (two runs of one high
# part) and 10^4 (three), from 998 (four), and up to the largest id
@example(wide_site(12, 0))
@example(wide_site(12, 99_500))
@example(wide_site(12, circuit._INDEX_MAX - 1111))
@example(wide_site(18, 9_000))
@example(wide_site(18, 998))
@example(wide_site(18, circuit._INDEX_MAX - 2380))
def test_stamp_text_is_the_lines_written_one_by_one(site):
    assert circuit._stamp_text(*site) == line_by_line(*site)


# a gate program: (op, i, j, fresh) steps, i and j picking wires made so
# far (modulo their count); "MIN" stamps a width-2 or width-3 block over
# 2m picked wires.  Few wires and small picks make equal gates likely
STEPS = st.lists(st.tuples(st.sampled_from(["AND", "OR", "NOT", "MIN"]),
                           st.integers(0, 11), st.integers(0, 11),
                           st.booleans()), max_size=12)


def run(b, program, wires):
    """The wires program makes on b over ``wires`` and those it makes."""
    wires, made = list(wires), []
    for op, i, j, fresh in program:
        if op == "MIN":
            m = 2 + i % 2
            picks = [wires[(i + k * (j + 1)) % len(wires)]
                     for k in range(2 * m)]
            out = b.min_word(picks[:m], picks[m:])
        elif op == "NOT":
            out = [b.NOT(wires[i % len(wires)], fresh)]
        else:
            out = [getattr(b, op)(wires[i % len(wires)],
                                  wires[j % len(wires)], fresh)]
        wires += out
        made += out
    return made


@FIXED
@given(st.integers(1, 4), STEPS, STEPS, STEPS)
# later gates equal to a section gate, and to one over a dropped gate
@example(2, [], [("NOT", 0, 0, False), ("AND", 2, 0, False)],
         [("NOT", 0, 0, False), ("AND", 2, 0, False), ("OR", 3, 1, False),
          ("MIN", 0, 1, False)])
# the first of two equal gates fresh in the later gates, and the section
# made of its own wires after a drop
@example(3, [("AND", 0, 1, False)],
         [("OR", 3, 2, True), ("NOT", 3, 0, False)],
         [("NOT", 3, 0, False), ("MIN", 1, 2, False), ("OR", 4, 5, False),
          ("NOT", 6, 0, True), ("AND", 3, 6, False)])
def test_a_graft_leaves_what_making_its_section_there_leaves(r, prefix,
                                                             later, section):
    # one builder makes the prefix, later gates over it, then the section
    # over the prefix; graft makes the section once over the prefix alone
    # and adds it after the later gates of a copy of the prefix
    one = Builder(r)
    base = one.inputs() + run(one, prefix, one.inputs())
    run(one, later, base)
    wires = run(one, section, base)
    b = Builder(r)
    base = b.inputs() + run(b, prefix, b.inputs())
    record = b.section(lambda b: run(b, section, base))
    grafted = record.builder()
    run(grafted, later, base)
    out = grafted.graft(record)
    assert (grafted.kinds, grafted.a, grafted.b, grafted.stamps,
            grafted._cache, out) == (one.kinds, one.a, one.b, one.stamps,
                                     one._cache, wires)


def test_graft_and_section_refuse_before_adding_anything():
    b = Builder(3)
    b.NOT(0)
    record = b.section(lambda b: [b.AND(0, 3)])
    other = Builder(3)
    other.OR(0, 1)              # does not start with the prefix, NOT(0)
    with pytest.raises(ValueError):
        other.graft(record)
    assert (other.kinds, other.a, other.b, other.stamps) == (
        bytearray([0, 0, 0, 2]), array("I", [0, 1, 2, 0]),
        array("I", [0, 1, 2, 1]), [])
    with mock.patch.object(circuit, "_INDEX_MAX", 3):   # the AND's id is 4
        grafted = record.builder()
        with pytest.raises(ValueError):
            grafted.graft(record)
        assert len(grafted.kinds) == len(grafted.a) == len(grafted.b) == 4
    with mock.patch.object(circuit, "_INDEX_MAX", 4):
        assert record.builder().graft(record) == [4]

    def inner(b):
        first = len(b.kinds)    # a width-2 block's first gate is inner
        b.min_word([0, 1], [2, 3])
        return [b.NOT(first)]
    with pytest.raises(ValueError):
        Builder(4).section(inner)


def test_splice_refuses_before_adding_anything():
    b = Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    swapped = array("I", [1, 0, 2, 3])
    bad = Circuit._from_columns(4, c.kinds, swapped + c.a[4:],
                                swapped + c.b[4:], c.outputs, c.stamps)
    dest = Builder(5)
    with pytest.raises(ValueError):
        dest.splice(bad)
    assert (dest.kinds, dest.a, dest.b, dest.stamps) == (
        bytearray(5), array("I", range(5)), array("I", range(5)), [])
    with pytest.raises(ValueError):
        Builder(3).splice(c)
    last = c.size       # c's last id moved up by one, into Builder(5)
    with mock.patch.object(circuit, "_INDEX_MAX", last - 1):
        dest = Builder(5)
        with pytest.raises(ValueError):
            dest.splice(c)
        assert len(dest.kinds) == len(dest.a) == len(dest.b) == 5
    with mock.patch.object(circuit, "_INDEX_MAX", last):
        dest = Builder(5)
        assert dest.splice(c) == [last]


# a circuit whose input 0 is read again by an INPUT line after a gate, and
# the same function with its INPUT lines first
LATE_INPUT = ("v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nv3 INPUT 0\n"
              "v4 NOT v3\nv5 OR v2 v4\nSINK v5\n")
INPUTS_FIRST = ("v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nv3 NOT v0\n"
                "v4 OR v2 v3\nSINK v4\n")


def test_splice_refuses_a_later_input_over_the_builders_gates():
    # moved by the builder's two gates, v3 INPUT 0 would read input 2 of a
    # 2-input builder
    dest = Builder(2)
    dest.NOT(0)
    dest.NOT(1)
    before = (dest.kinds[:], dest.a[:], dest.b[:], list(dest.stamps))
    with pytest.raises(ValueError, match="later INPUT"):
        dest.splice(parse_circuit(LATE_INPUT))
    assert (dest.kinds, dest.a, dest.b, dest.stamps) == before
    # a circuit with no later INPUT vertex still reads the builder's gates
    dest.splice(parse_circuit(INPUTS_FIRST))


def test_wrap_feedback_reads_a_later_input_line_as_its_input():
    p = parse_poly("x^3 + x + 1")
    late, first = (reduction._wrap_feedback(parse_circuit(text), p)
                   for text in (LATE_INPUT, INPUTS_FIRST))
    assert late.truth_table() == first.truth_table()
    assert late.nodes[1 + 3] == ("IN", 1)     # moved up one, as its wires


def test_a_record_that_misses_its_block_is_refused():
    b = Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    wrong = Circuit._from_columns(c.arity, c.kinds, c.a, c.b, c.outputs,
                                  ((5, 2, array("I", [0, 1, 2, 3])),))
    with pytest.raises(circuit.InvariantError, match="vertex 5"):
        circuit._min_blocks(wrong)


def entries_of(m: int, wires, base: int) -> tuple:
    """The width-m block over wires at first id base, entry by entry:
    (kinds, a, b, outputs), vertex s of the recorded block being wire s of
    wires and then the block's own gates from base."""
    block = circuit._min_block(m).circuit
    w = 2 * m
    look = list(wires) + list(range(base, base + block.size - w))
    return (block.kinds[w:], [look[s] for s in block.a[w:]],
            [look[s] for s in block.b[w:]], [look[s] for s in block.outputs])


def stamp_by_entry(b, xs, ys) -> tuple:
    """What min_word(xs, ys) stamps on b, entry by entry (entries_of)."""
    return entries_of(len(xs), list(xs) + list(ys), len(b.kinds))


def by_entry(c) -> Circuit:
    """c with each recorded block's operand entries written one by one
    (entries_of), and no record, so that every reader takes the entries
    as stored."""
    a, b = c.a[:], c.b[:]
    for p, m, wires in c.stamps:
        _, xs, ys, _ = entries_of(m, wires, p)
        a[p:p + len(xs)] = array("I", xs)
        b[p:p + len(ys)] = array("I", ys)
    return Circuit._from_columns(c.arity, c.kinds, a, b, c.outputs, ())


@FIXED
@given(st.data())
def test_stamped_columns_equal_the_per_entry_mapping(data):
    r = data.draw(st.integers(1, 4))
    b = Builder(r)
    wires = list(range(r))      # inputs, gates and earlier stamps' outputs
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            wires.append(b.NOT(data.draw(st.sampled_from(wires))))
        m = data.draw(st.integers(1, 13))
        pool = st.sampled_from(data.draw(st.sampled_from([wires, wires[-m:]])))
        word = st.lists(pool, min_size=m, max_size=m)
        xs = data.draw(word)
        ys = xs if data.draw(st.booleans()) else data.draw(word)
        want = stamp_by_entry(b, xs, ys)
        start = len(b.kinds)
        out = b.min_word(xs, ys)
        got = derived(b.build(tuple(out)))
        assert (b.kinds[start:], got[0][start:].tolist(),
                got[1][start:].tolist(), out) == want
        # a block is its record: the Builder stores zero operand entries,
        # and a width-1 block is one plain AND gate of the two wires
        stored = (b.a[start:].tolist(), b.b[start:].tolist())
        assert stored == (want[1:3] if m == 1 else ([0] * len(want[1]),) * 2)
        wires += out


def layout(c) -> tuple:
    return c.kinds, c.a.tolist(), c.b.tolist(), c.outputs


def stamp_on_inputs(m: int) -> Circuit:
    b = Builder(2 * m)
    return b.build(b.min_word(range(m), range(m, 2 * m)))


def test_gadget_min_is_a_stamp_on_its_own_inputs_and_a_copy():
    for m in range(1, 14):
        stamped = layout(stamp_on_inputs(m))
        g = gadget_min(m)
        assert g.arity == 2 * m
        assert layout(g) == stamped
        # the block is recorded once per width and shared: changing a
        # returned gadget changes neither the next one nor a later stamp
        g.a[-1] = g.b[-1] = 0
        assert layout(gadget_min(m)) == stamped
        assert layout(stamp_on_inputs(m)) == stamped


def test_gadget_min_carries_the_builders_record():
    for m in range(1, 14):
        g = gadget_min(m)
        assert g.stamps == stamp_on_inputs(m).stamps
        assert g.stamps == (((2 * m, m, array("I", range(2 * m))),) if m > 1
                            else ())
        # its text, with its first output as the sink, records the same
        # block; its vertex tuples record none
        assert parse_circuit(write_circuit(one_sink(g))).stamps == g.stamps
        assert Circuit(g.arity, g.nodes, g.outputs).stamps == ()


def test_min_word_refuses_ids_past_the_column_entries():
    b = Builder(4)
    b.min_word([0, 1], [2, 3])
    size = len(b.kinds)
    last = size + len(circuit._min_block(2).kinds) - 1  # the next stamp's last id
    with mock.patch.object(circuit, "_INDEX_MAX", last - 1):
        with pytest.raises(ValueError):
            b.min_word([0, 1], [2, 3])
    assert len(b.kinds) == len(b.a) == len(b.b) == size
    with mock.patch.object(circuit, "_INDEX_MAX", last):
        out = b.min_word([0, 1], [2, 3])
    assert len(b.kinds) == len(b.a) == len(b.b) == last + 1
    assert max(out) <= last


def _three_stamps(read_inner: bool) -> tuple:
    """Three width-2 stamps in a chain over four inputs, the first gate of
    the middle one (an inner vertex) read by the sink if read_inner."""
    b = Builder(4)
    first = b.min_word([0, 1], [2, 3])
    middle = len(b.kinds)
    second = b.min_word(first, [3, 0])
    last = len(b.kinds)
    third = b.min_word(second, [1, first[1]])
    sink = b.OR(middle if read_inner else second[0], third[0])
    return b.build((sink, third[1])), (4, middle, last)


def test_block_read_from_outside_stays_plain():
    for read_inner in (False, True):
        c, starts = _three_stamps(read_inner)
        blocks = circuit._min_blocks(c)
        assert [m for _, m, _ in blocks] == [2] * len(blocks)
        want = [p for p in starts if not (read_inner and p == starts[1])]
        assert [p for p, _, _ in blocks] == want
        lanes, full = input_lanes(4), 0xFFFF
        want = c._pass(lanes, full, free=False)
        assert c._pass(lanes, full, free=True) == want
        for run in block_passes(c):
            assert run(lanes, full) == want


def test_comparator_pass_edge_lanes():
    c, _ = _three_stamps(True)
    passes = block_passes(c)
    # no lanes at all, and one-bit lanes
    for run in passes:
        assert run([0] * 4, 0) == c._pass([0] * 4, 0, free=False) == [0, 0]
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.evaluate_batch([]) == [0, 0]
        for x in range(16):
            bits = [x >> i & 1 for i in range(4)]
            for run in passes:
                assert run(bits, 1) == c._pass(bits, 1, free=False)
            assert c.evaluate_batch([x]) == c._pass(bits, 1, free=False)


def test_evaluate_batch_reads_an_iterator_once():
    c, _ = _three_stamps(True)
    xs = [1, 3, 7]
    assert c.evaluate_batch(x for x in xs) == c.evaluate_batch(xs)
    assert c.evaluate_batch(iter([])) == c.evaluate_batch([]) == [0, 0]
    with pytest.raises(ValueError):
        c.evaluate_batch(x for x in [3, 16])


def _and6():
    b = Builder(6)
    return b.build(b.and_chain(range(6)))


def test_ell3_irreducibility_circuits_have_646_width_12_blocks():
    f3 = reduction.alg1_f3_circuit(3, _and6())
    f1 = reduction._wrap_feedback(f3, LfsrFamily.for_ell(3).p2)
    for c in (f3, f1):
        blocks = circuit._min_blocks(c)
        assert len(blocks) == 646
        assert {m for _, m, _ in blocks} == {12}


@functools.lru_cache(maxsize=None)
def _ell3_circuits() -> dict:
    irr = reduction.alg1_f3_circuit(3, _and6())
    return {"irr f3": irr,
            "irr f1": reduction._wrap_feedback(irr, LfsrFamily.for_ell(3).p2),
            "dec f3": reduction.alg2_f3_circuit(3, reduction.f2_transform(_and6()))}


def read_whole(read) -> tuple:
    """The circuit read() parses, and how many blocks the text reader read
    whole on the way (_TextReader.stamp's successes)."""
    real, whole = circuit._TextReader.stamp, []

    def stamp(rd, *args):
        whole.append(real(rd, *args))
        return whole[-1]

    with mock.patch.object(circuit._TextReader, "stamp", stamp):
        c = read()
    return c, sum(map(bool, whole))


def from_file(directory, c):
    """c's text written to a file in directory, parsed back from the file
    in read_text's pieces: (the circuit, the blocks read whole)."""
    path = str(directory / "c.ckt")
    with open(path, "w") as fh:
        fh.writelines(circuit.circuit_pieces(c))
    return read_whole(lambda: parse_circuit(circuit.read_text(path)))


def test_ell3_records_equal_the_blocks_found_without_them(tmp_path):
    for name, c in _ell3_circuits().items():
        assert circuit._min_blocks(c) == list(c.stamps), name
    assert {m for _, m, _ in _ell3_circuits()["dec f3"].stamps} == {6}
    # with no record given, the text reader finds the Builder's blocks: the
    # 17.7 MB irreducibility feedback circuit, read from its file in pieces
    # of about 1 MiB, records its 646 blocks, each read whole, where a
    # reader that left the 16 blocks a piece cuts to the line loop read 630
    f1 = _ell3_circuits()["irr f1"]
    parsed, whole = from_file(tmp_path, f1)
    assert parsed.stamps == f1.stamps
    assert whole == len(f1.stamps) == 646
    assert circuit._min_blocks(parsed) == list(f1.stamps)


def test_stage19_dec_circuits_read_from_their_files_record_every_block(
        tmp_path):
    # the ell = 9 indecomposability feedback circuits over and18 and over
    # contra18 (g AND NOT g, g the AND): 26 width-18 blocks each, all read
    # whole and recorded as the Builder recorded them
    b = Builder(18)
    g = b.and_chain(range(18))
    and18, contra18 = b.build(g), b.build(b.AND(g, b.NOT(g)))
    p1 = LfsrFamily.for_ell(9).p1
    for f0 in (and18, contra18):
        f1 = reduction._wrap_feedback(
            reduction.alg2_f3_circuit(9, reduction.f2_transform(f0)), p1)
        parsed, whole = from_file(tmp_path, f1)
        assert parsed.stamps == f1.stamps
        assert whole == len(f1.stamps) == 26


def test_parsed_ell3_toggle_circuits_wrap_as_the_built_ones():
    family = LfsrFamily.for_ell(3)
    for name, p in (("irr f3", family.p2), ("dec f3", family.p1)):
        built = _ell3_circuits()[name]
        parsed = parse_circuit(write_circuit(built))
        want, got = (reduction._wrap_feedback(c, p) for c in (built, parsed))
        assert write_circuit(got) == write_circuit(want), name
        assert got.stamps == want.stamps, name


@pytest.mark.parametrize("line,damaged", [
    # the first reader of wire v1 reads the block's first gate instead
    ("v5 NOT v1", "v5 NOT v4"),
    # an own gate reads another own gate than the template's
    ("v13 AND v9 v11", "v13 AND v9 v12")], ids=["wire", "own"])
def test_a_block_shaped_run_off_the_template_gets_no_stamp(line, damaged):
    b = Builder(4)
    low = b.min_word([0, 1], [2, 3])
    text = write_circuit(b.build(b.OR(*low)))
    assert [m for _, m, _ in parse_circuit(text).stamps] == [2]
    assert f"\n{line}\n" in text
    c = parse_circuit(text.replace(f"\n{line}\n", f"\n{damaged}\n"))
    assert c.stamps == ()
    lanes, full = input_lanes(4), (1 << 16) - 1
    plain = c._pass(lanes, full, free=False)
    assert c.output_masks() == plain
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.output_masks() == plain


def damaged_texts(m: int, sample, seed: int):
    """The text of two width-m stamps over 2m inputs, the second over the
    first's outputs and a rotation of the inputs, as (text with one operand
    of one block line changed to another earlier vertex, start and width
    of the damaged block): for every such operand entry, or for ``sample``
    of them drawn with ``seed``."""
    b = Builder(2 * m)
    first = b.min_word(range(m), range(m, 2 * m))
    second = b.min_word(first, [2 * m - 1, *range(m - 1)])
    c = b.build(b.or_chain(second))
    lines = write_circuit(c).splitlines(keepends=True)
    sites = [(k, j, p, width) for p, width, _ in c.stamps
             for k in range(p, p + len(circuit._min_block(width).kinds))
             for j in range(2, len(lines[k].split()))]
    rng = random.Random(seed)
    if sample is not None:
        sites = rng.sample(sites, sample)
    for k, j, p, width in sites:
        toks = lines[k].split()
        old = int(toks[j][1:])
        toks[j] = f"v{rng.choice([v for v in range(k) if v != old])}"
        yield "".join(lines[:k] + [" ".join(toks) + "\n"] + lines[k + 1:]), p, width


def line_nodes(text: str) -> list:
    """The vertex tuples of the lines of circuit text as written, one line
    at a time; the last line, the SINK line, is left out."""
    nodes = []
    for line in text.splitlines()[:-1]:
        _, op, *ops = line.split()
        nodes.append(("IN" if op == "INPUT" else op,
                      *(int(tok.lstrip("v")) for tok in ops)))
    return nodes


@pytest.mark.parametrize("m,sample", [(2, None), (3, 60)],
                         ids=["width-2 every entry", "width-3 sampled"])
def test_a_single_damaged_entry_leaves_every_record_faithful(m, sample):
    for text, p, width in damaged_texts(m, sample, seed=m):
        c = parse_circuit(text)
        # the damaged block keeps no record of its width at its start
        assert (p, width) not in [(q, w) for q, w, _ in c.stamps]
        # every recorded block's derived columns are the ones its lines
        # hold: the columns of the text's vertex tuples
        bare = Circuit(c.arity, line_nodes(text), c.outputs)
        assert (c.kinds, *derived(c)) == (bare.kinds, bare.a, bare.b), text
        # and both lane policies give those entries' truth table
        lanes, full = input_lanes(c.arity), (1 << (1 << c.arity)) - 1
        plain = bare._pass(lanes, full, blocks=())
        assert c._pass(lanes, full, blocks=()) == plain
        assert c.output_masks() == plain, text
        with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
            assert c.output_masks() == plain, text


def test_built_circuits_are_evaluated_from_their_record():
    circuits = _ell3_circuits()
    # written text's blocks are all read whole, and they are its record
    f1 = circuits["irr f1"]
    text = write_circuit(f1)
    parsed, whole = read_whole(lambda: parse_circuit(text))
    assert parsed.stamps == f1.stamps and whole == len(f1.stamps)
    # a comment inside one block sends its lines through the line loop,
    # and that block alone is left out of the record
    p, m, _ = f1.stamps[len(f1.stamps) // 2]
    at = text.index(f"\nv{p + 5} ") + 1
    commented = parse_circuit(text[:at] + "# inside a block\n" + text[at:])
    assert commented.stamps == tuple(s for s in f1.stamps if s[0] != p)
    # the lane passes run each recorded block through the comparator and
    # derive no block's columns; the commented block runs as plain gates
    derive = mock.patch.object(circuit, "_block_columns",
                               side_effect=AssertionError("columns derived"))
    with derive:
        f3 = circuits["irr f3"].output_masks()
        masks = f1.output_masks()
        assert parsed.output_masks() == masks
        assert commented.output_masks() == masks
    assert f3 == parse_circuit(write_circuit(circuits["irr f3"])).output_masks()


def test_a_block_cut_by_a_piece_is_carried_into_the_next():
    # a piece that ends inside a block, as read_text's pieces may, after
    # its first line or deep inside: the block's lines are read with the
    # next piece, and every block is made once, at its width, and recorded
    f1 = _ell3_circuits()["irr f1"]
    text = write_circuit(f1)
    p, m, _ = f1.stamps[len(f1.stamps) // 2]
    form = circuit._stamp_text
    for g in (1, 1000):
        cut = text.index(f"\nv{p + g} ") + 1
        made = []

        def stamp_text(width, start, wires):
            made.append(width)
            return form(width, start, wires)

        with mock.patch.object(circuit, "_stamp_text", stamp_text):
            parsed = parse_circuit(iter([text[:cut], text[cut:]]))
        assert made == [m] * len(f1.stamps)
        assert parsed.stamps == f1.stamps


def test_comparator_pass_holds_only_its_kept_lanes():
    f3 = _ell3_circuits()["irr f3"]
    lanes, full = input_lanes(f3.arity), (1 << (1 << f3.arity)) - 1
    blocks = circuit._min_blocks(f3)
    kept = f3.size - sum(len(circuit._min_block(m).kinds) - m
                         for _, m, _ in blocks)
    # a lane is its int object, and its key and entry in the pass's dict
    # of lanes, with room for the dict to grow
    lane = sys.getsizeof(full) + 128
    tracemalloc.start()
    try:
        out = f3.output_masks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == f3._pass(lanes, full, free=True)
    # the plain vertices, the block outputs and the comparator's lanes
    assert peak <= (kept + 3 * 12 + 2) * lane, (peak, kept, lane)


def test_freeing_pass_walks_only_plain_gates_and_block_wires():
    f3 = _ell3_circuits()["irr f3"]
    # the first 64 inputs, so that the plain pass holds 64-bit lanes
    full = (1 << 64) - 1
    lanes = [lane & full for lane in input_lanes(f3.arity)]
    blocks = circuit._min_blocks(f3)
    inner = set()
    for p, m, _ in blocks:
        inner.update(range(p, p + len(circuit._min_block(m).kinds)))
    steps = Circuit._steps
    walked = []

    def walk(c, blocks):
        got = list(steps(c, blocks))
        walked.append([k for k, *_ in got])
        return iter(got)

    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0), \
            mock.patch.object(Circuit, "_steps", walk):
        out = f3._run(lanes, full)
    # the last readers are found, and the lanes run, over the plain
    # vertices and one step per block: no inner vertex is looked at
    want = sorted(set(range(f3.size)) - inner | {p for p, _, _ in blocks})
    assert walked == [want, want]
    assert out == f3._pass(lanes, full, free=False)


def test_run_keeps_every_lane_only_within_the_bound():
    spy = mock.patch.object(Circuit, "_pass", autospec=True,
                            side_effect=Circuit._pass)
    # gadget_min(5): 233 vertices of 1024-bit lanes, of which its 10
    # inputs and 5 outputs get a lane: 15 lanes of 128 bytes
    c = gadget_min(5)
    want = c._pass(input_lanes(10), (1 << 1024) - 1, free=False)
    for bound, plain in ((15 * 128, True), (15 * 128 - 1, False)):
        with spy as run:
            with mock.patch.object(circuit, "LIVE_LANE_BYTES", bound):
                assert c.output_masks() == want
        assert run.call_count == 1
        assert run.call_args.kwargs["free"] is not plain
        assert run.call_args.args[3] == circuit._min_blocks(c)
    # a circuit without blocks counts every vertex: 11 lanes of 8 bytes
    and6 = _and6()
    for bound, plain in ((11 * 8, True), (11 * 8 - 1, False)):
        with spy as run:
            with mock.patch.object(circuit, "LIVE_LANE_BYTES", bound):
                and6.output_masks()
        assert run.call_count == 1
        assert run.call_args.kwargs["free"] is not plain
    # the ell = 3 indecomposability toggle circuit (2^6-bit lanes) keeps
    # every lane and runs its 8 width-6 blocks through the comparator
    dec = _ell3_circuits()["dec f3"]
    compare_spy = mock.patch.object(circuit, "_min_lanes",
                                    side_effect=circuit._min_lanes)
    with spy as run, compare_spy as compare:
        out = dec.output_masks()
    assert run.call_count == 1
    assert run.call_args.kwargs["free"] is False
    assert [(call.args[1], call.args[2]) for call in compare.call_args_list
            ] == [(6, (1 << 64) - 1)] * 8
    assert out == dec._pass(input_lanes(6), (1 << 64) - 1, free=False)


def test_input_lanes_match_the_bitwise_definition():
    for r in range(1, 17):
        total = 1 << r
        lanes = input_lanes(r)
        assert len(lanes) == r
        for i, lane in enumerate(lanes):
            assert mask_to_bits(lane, total) == bytes(
                (j >> i) & 1 for j in range(total))


@FIXED
@given(st.integers(1, 16).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.integers(0, (1 << r) - 1), max_size=300))))
def test_batch_transposition_matches_the_bitwise_definition(case):
    r, assignments = case
    wires = Circuit(r, [("IN", i) for i in range(r)], tuple(range(r)))
    lanes = wires.evaluate_batch(assignments)
    for i in range(r):
        want = 0
        for j, a in enumerate(assignments):
            want |= ((a >> i) & 1) << j
        assert lanes[i] == want


def test_freeing_pass_holds_only_the_live_frontier():
    # a NOT chain long enough that keeping every lane would pass the bound
    r = 18
    lane_bytes = (1 << r) // 8
    length = circuit.LIVE_LANE_BYTES // lane_bytes + 64
    nodes = [("IN", i) for i in range(r)]
    nodes += [("NOT", k) for k in range(r - 1, r - 1 + length)]
    c = Circuit(r, nodes, (len(nodes) - 1,))
    tracemalloc.start()
    try:
        mask = c.output_masks()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    top = input_lanes(r)[r - 1]
    assert mask == (top if length % 2 == 0 else top ^ ((1 << (1 << r)) - 1))
    # the r input lanes, a couple of chain lanes and the schedule
    assert peak < 40 * lane_bytes, peak


def test_freeing_pass_drops_block_wires_and_unread_outputs():
    # a chain of width-2 stamps, each reading the low output of the one
    # before, so no vertex reads any high output
    r = 16
    lane_bytes = (1 << r) // 8
    b = Builder(r)
    low = 0
    for _ in range(200):
        low = b.min_word([low, 1], [2, 3])[0]
    c = b.build(low)
    assert len(circuit._min_blocks(c)) == 200
    tracemalloc.start()
    try:
        with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
            mask = c.output_masks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask == c._pass(input_lanes(r), (1 << (1 << r)) - 1, free=True)
    # the r input lanes and a few block lanes, not one per stamp
    assert peak < 40 * lane_bytes, peak


def test_parsed_vertex_kinds_are_the_shared_constants():
    c = parse_circuit("v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nv3 OR v2 v0\n"
                      "v4 NOT v3\nv5 AND v4 v2\nSINK v5\n")
    kinds = {"IN": circuit.IN, "AND": circuit.AND, "OR": circuit.OR,
             "NOT": circuit.NOT}
    assert all(node[0] is kinds[node[0]] for node in c.nodes)
