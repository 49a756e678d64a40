"""The bit-parallel lane pass: the freeing pass against the plain pass, the
input lanes and the batch transposition against their bitwise definitions,
and the memory the freeing pass holds."""

import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from fsrkit import circuit
from fsrkit.bitvec import BitVec, mask_to_bits
from fsrkit.circuit import Circuit, input_lanes, parse_circuit

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
            [c.evaluate_outputs(BitVec(x, c.arity)) for x in range(1 << c.arity)])


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
