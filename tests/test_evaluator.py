"""The bit-parallel lane pass: the freeing and wave passes against the
plain pass, the wave pass's blocks and the columns that stamp them, the
input lanes and the batch transposition against their bitwise
definitions, and the memory the freeing and wave passes hold."""

import functools
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    assert c._run_live(in_vals, full) == c._run_all(in_vals, full)


def test_repeated_operand_and_input_outputs():
    c = parse_circuit("v0 INPUT 0\nv1 INPUT 1\nv2 OR v0 v1\nv3 NOT v2\n"
                      "v4 AND v3 v3\nv5 OR v4 v4\nSINK v5\n")
    c = Circuit(c.arity, c.nodes, (1, 5, 3, 0))
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        live = c.output_masks()
    assert live == c.output_masks() == [0b1100, 0b0001, 0b0001, 0b1010]


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


def unrecorded(c):
    """c's columns without the record a Builder gave them: the record is
    found in the columns, as for parsed text."""
    return Circuit._from_columns(c.arity, c.kinds, c.a, c.b, c.outputs,
                                 circuit._scan_stamps(c.kinds, c.a, c.b))


def waves_of(c):
    """The wave pass's schedule of c, whatever the lanes it keeps."""
    return circuit._Waves.plan(c, 1 << 62)


@FIXED
@given(stamped_circuits())
def test_wave_pass_equals_plain_pass(c):
    r = c.arity
    lanes, full = input_lanes(r), (1 << (1 << r)) - 1
    plain = c._run_all(lanes, full)
    blocks = circuit._min_blocks(c)
    waves = waves_of(c)
    assert (waves is None) == (not blocks)
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.output_masks() == plain
        each = [tuple(c.evaluate_batch([x])) for x in range(1 << r)]
        if waves is not None:
            assert waves.run(lanes, full) == plain
            assert each == [tuple(waves.run([x >> i & 1 for i in range(r)], 1))
                            for x in range(1 << r)]
    assert each == [tuple(m >> x & 1 for m in plain) for x in range(1 << r)]
    # the same circuit, record kept, with its first output as sink, written
    # and parsed back, and moved up by one vertex as the feedback circuits
    # are: the same blocks, and the same mask (input 0 of the moved one held
    # at 0)
    one = Circuit._from_columns(r, c.kinds, c.a, c.b, (c.outputs[0],),
                                c.stamps)
    parsed = parse_circuit(write_circuit(one))
    moved = reduction._wrap_feedback(one, parse_poly(f"x^{r + 1} + 1"))
    assert circuit._min_blocks(parsed) == circuit._min_blocks(one)
    assert circuit._min_blocks(moved) == [
        (p + 1, m, array("I", [w + 1 for w in wires]))
        for p, m, wires in circuit._min_blocks(one)]
    for form, in_vals in ((parsed, lanes), (moved, [0] + lanes)):
        form_waves = waves_of(form)
        if form_waves is not None:
            assert form_waves.run(in_vals, full) == [plain[0]]
        assert form._run_live(in_vals, full) == [plain[0]]


@FIXED
@given(stamped_circuits(), st.integers(1, 300))
def test_wave_pass_agrees_on_lanes_of_any_width(c, lane_bits):
    in_vals = [(0x5A5A5A5A5A5A5A5A * (i + 3)) % (1 << lane_bits)
               for i in range(c.arity)]
    full = (1 << lane_bits) - 1
    waves = waves_of(c)
    if waves is not None:
        assert waves.run(in_vals, full) == c._run_all(in_vals, full)


@FIXED
@given(stamped_circuits())
def test_the_record_is_what_the_scan_finds(c):
    assert c.stamps == circuit._scan_stamps(c.kinds, c.a, c.b)
    assert circuit._min_blocks(c) == circuit._min_blocks(unrecorded(c))


@FIXED
@given(stamped_circuits())
def test_tuples_and_text_carry_the_builders_record(c):
    # made from tuples or from text, the same columns get the same record
    one = Circuit._from_columns(c.arity, c.kinds, c.a, c.b, (c.outputs[0],),
                                c.stamps)
    assert Circuit(c.arity, c.nodes, c.outputs).stamps == c.stamps
    assert parse_circuit(write_circuit(one)).stamps == c.stamps


def test_wrap_feedback_shifts_the_record_of_built_and_parsed_circuits():
    b = Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    # the start and wires of each stamp in one array, the widths apart
    assert c.stamps == (array("I", [4, 0, 1, 2, 3]), b"\x02")
    p = parse_poly("x^5 + 1")
    moved = reduction._wrap_feedback(c, p)
    assert moved.stamps == (array("I", [5, 1, 2, 3, 4]), b"\x02")
    assert circuit._recorded(moved.stamps) == [(5, 2, array("I", [1, 2, 3, 4]))]
    assert circuit._min_blocks(moved) == circuit._recorded(moved.stamps)
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
    assert moved.kinds[n + extra:] == c.kinds[n:]
    assert moved.a[n + extra:].tolist() == [x + extra for x in c.a[n:]]
    assert moved.b[n + extra:].tolist() == [y + extra for y in c.b[n:]]
    assert out == [o + extra for o in c.outputs]
    assert circuit._recorded(moved.stamps) == [
        (p + extra, m, array("I", [w + extra for w in wires]))
        for p, m, wires in circuit._recorded(c.stamps)]
    assert moved.stamps == circuit._scan_stamps(moved.kinds, moved.a, moved.b)
    lanes, full = input_lanes(n + extra), (1 << (1 << (n + extra))) - 1
    assert moved._run_all(lanes, full) == c._run_all(lanes[extra:], full)


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
        bytearray(5), array("I", range(5)), array("I", range(5)),
        (array("I"), bytearray()))
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


def test_a_record_that_misses_its_block_is_refused():
    b = Builder(4)
    c = b.build(b.OR(*b.min_word([0, 1], [2, 3])))
    wrong = Circuit._from_columns(c.arity, c.kinds, c.a, c.b, c.outputs,
                                  (array("I", [5, 0, 1, 2, 3]), b"\x02"))
    with pytest.raises(circuit.InvariantError, match="vertex 5"):
        circuit._min_blocks(wrong)


def stamp_by_entry(b, xs, ys) -> tuple:
    """What min_word(xs, ys) appends to b, entry by entry: (kinds, a, b,
    outputs), vertex s of the recorded block being wire s of xs + ys and
    then the block's own gates from the next id."""
    block = circuit._min_block(len(xs)).circuit
    w = 2 * len(xs)
    base = len(b.kinds)
    look = list(xs) + list(ys) + list(range(base, base + block.size - w))
    return (block.kinds[w:], [look[s] for s in block.a[w:]],
            [look[s] for s in block.b[w:]], [look[s] for s in block.outputs])


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
        assert (b.kinds[start:], b.a[start:].tolist(), b.b[start:].tolist(),
                out) == want
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
        assert g.stamps == Circuit(g.arity, g.nodes, g.outputs).stamps
        assert g.stamps == (
            (array("I", [2 * m, *range(2 * m)]), bytes([m])) if m > 1
            else (array("I"), b""))


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
        assert (waves_of(c).run(lanes, full) == c._run_live(lanes, full)
                == c._run_all(lanes, full))


def test_wave_pass_edge_lanes():
    c, _ = _three_stamps(True)
    waves = waves_of(c)
    # no lanes at all, and one-bit lanes
    assert waves.run([0] * 4, 0) == c._run_all([0] * 4, 0) == [0, 0]
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.evaluate_batch([]) == [0, 0]
        for x in range(16):
            bits = [x >> i & 1 for i in range(4)]
            assert waves.run(bits, 1) == c._run_all(bits, 1)
            assert c.evaluate_batch([x]) == c._run_all(bits, 1)


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


def test_ell3_records_equal_the_blocks_found_without_them():
    for name, c in _ell3_circuits().items():
        recorded = circuit._recorded(c.stamps)
        assert recorded == circuit._min_blocks(unrecorded(c)), name
        assert circuit._min_blocks(c) == recorded, name
    assert set(_ell3_circuits()["dec f3"].stamps[1]) == {6}


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
    assert parse_circuit(text).stamps[1] == bytes([2])
    assert f"\n{line}\n" in text
    c = parse_circuit(text.replace(f"\n{line}\n", f"\n{damaged}\n"))
    assert c.stamps[1] == b""
    lanes, full = input_lanes(4), (1 << 16) - 1
    plain = c._run_all(lanes, full)
    assert c.output_masks() == plain
    with mock.patch.object(circuit, "LIVE_LANE_BYTES", 0):
        assert c.output_masks() == plain


def test_built_circuits_are_evaluated_from_their_record():
    circuits = _ell3_circuits()
    # text's blocks are found in its columns once, when it is parsed
    spy = mock.patch.object(circuit, "_stamp_wires",
                            side_effect=circuit._stamp_wires)
    with spy as scan:
        parsed = parse_circuit(write_circuit(circuits["irr f1"]))
    assert scan.call_count >= 646
    scan = mock.patch.object(circuit, "_stamp_wires",
                             side_effect=AssertionError("columns scanned"))
    with scan:
        f3 = circuits["irr f3"].output_masks()
        f1 = circuits["irr f1"].output_masks()
        assert parsed.output_masks() == f1
    assert f3 == unrecorded(circuits["irr f3"]).output_masks()


def test_wave_pass_holds_only_the_lanes_its_plan_counts():
    f3 = reduction.alg1_f3_circuit(3, _and6())
    lanes, full = input_lanes(f3.arity), (1 << (1 << f3.arity)) - 1
    stride = (full.bit_length() + 7) // 8
    waves = waves_of(f3)
    groups = [(m, len(starts)) for g in waves.groups for m, starts, _ in g]
    kept = f3.size - sum(n * (len(circuit._min_block(m).kinds) - m)
                         for m, n in groups)
    widest = max(n * circuit._min_block(m).live for m, n in groups)
    tracemalloc.start()
    try:
        out = waves.run(lanes, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == f3._run_live(lanes, full)
    # the plain vertices, the block outputs and the widest group's lanes
    assert peak <= (kept + widest) * stride, (peak, kept, widest, stride)


def test_wave_groups_read_the_records_last_readers():
    f3 = reduction.alg1_f3_circuit(3, _and6())
    # the first 64 inputs, so that the plain pass holds 64-bit lanes
    full = (1 << 64) - 1
    lanes = [lane & full for lane in input_lanes(f3.arity)]
    waves = waves_of(f3)
    spy = mock.patch.object(Circuit, "_last_readers", autospec=True,
                            side_effect=Circuit._last_readers)
    with spy as last:
        out = waves.run(lanes, full)
    assert last.call_count == 0
    assert out == f3._run_all(lanes, full)


def test_run_takes_the_wave_pass_only_past_the_bound_and_where_it_fits():
    spy = mock.patch.object(circuit._Waves, "run", autospec=True,
                            side_effect=circuit._Waves.run)
    # gadget_min(5): 233 vertices of 1024-bit lanes, 15 kept lanes and 28
    # live template lanes of 128 bytes
    c = gadget_min(5)
    with spy as run:
        want = c.output_masks()                     # the plain pass
        assert run.call_count == 0
        with mock.patch.object(circuit, "LIVE_LANE_BYTES", 43 * 128):
            assert c.output_masks() == want         # the wave pass
        assert run.call_count == 1
        with mock.patch.object(circuit, "LIVE_LANE_BYTES", 42 * 128):
            assert c.output_masks() == want         # the freeing pass
        assert run.call_count == 1
    # the ell = 3 indecomposability toggle circuit (2^6-bit lanes) keeps
    # every lane, so no block is even looked for
    dec = reduction.alg2_f3_circuit(3, reduction.f2_transform(_and6()))
    with mock.patch.object(circuit._Waves, "plan") as plan:
        dec.output_masks()
    assert plan.call_count == 0


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


def test_parsed_vertex_kinds_are_the_shared_constants():
    c = parse_circuit("v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v1\nv3 OR v2 v0\n"
                      "v4 NOT v3\nv5 AND v4 v2\nSINK v5\n")
    kinds = {"IN": circuit.IN, "AND": circuit.AND, "OR": circuit.OR,
             "NOT": circuit.NOT}
    assert all(node[0] is kinds[node[0]] for node in c.nodes)
