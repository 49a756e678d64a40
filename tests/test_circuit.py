import random

import pytest

from fsrkit import circuit as C


def min_size(m):
    return (13 * m * m + 37 * m - 44) // 2


def test_evaluate_basic_gates():
    b = C.Builder(2)
    c = b.build(b.AND(0, 1))
    # input vector j has input i at bit i: (x0, x1) = 00, 10, 01, 11
    assert c.truth_table().bits() == bytes([0, 0, 0, 1])
    assert C.gadget_xor().truth_table().bits() == bytes([0, 1, 1, 0])


def test_evaluate_min2_on_integers_one_and_two():
    g = C.gadget_min(2)
    # x = 1 = (1,0), y = 2 = (0,1), the input vector 1 + 8; minimum is 1 = (1,0)
    assert g.evaluate_batch([9]) == [1, 0]


def test_size_counts_all_vertices():
    b = C.Builder(1)
    ident = b.build(0)
    assert ident.size == 1
    assert C.gadget_min(1).size == 3
    assert C.gadget_min(2).size == 41


def test_evaluate_batch_rejects_out_of_range_assignments():
    b = C.Builder(2)
    g = b.build(b.AND(*b.inputs()))
    for assignments in ([3, 7, -1], [4], [0, -1]):
        with pytest.raises(ValueError):
            g.evaluate_batch(assignments)
    assert g.evaluate_batch([0, 1, 2, 3]) == [0b1000]
    assert g.evaluate_batch([]) == [0]


@pytest.mark.parametrize("m", range(1, 17))
def test_min_size_closed_form(m):
    assert C.gadget_min(m).size == min_size(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_min_matches_integer_minimum_exhaustive(m):
    g = C.gadget_min(m)
    masks = g.evaluate_batch(list(range(1 << (2 * m))))
    for a in range(1 << (2 * m)):
        got = sum(((mk >> a) & 1) << i for i, mk in enumerate(masks))
        assert got == min(a & ((1 << m) - 1), a >> m)


def test_min_matches_integer_minimum_random_wide():
    rng = random.Random(99)
    for m in (10, 16):
        g = C.gadget_min(m)
        pairs = [rng.getrandbits(2 * m) for _ in range(2000)]
        masks = g.evaluate_batch(pairs)
        for j, a in enumerate(pairs):
            got = sum(((mk >> j) & 1) << i for i, mk in enumerate(masks))
            assert got == min(a & ((1 << m) - 1), a >> m)


def test_xor_gadget_is_five_gates():
    assert C.gadget_xor().gate_count == 5


def test_min_gate_count_at_word_widths():
    # excluding the 2m inputs, the block at width 4l costs 104l^2+66l-22
    for ell in (1, 2, 3):
        g = C.gadget_min(4 * ell)
        assert g.gate_count == 104 * ell * ell + 66 * ell - 22


@pytest.mark.parametrize("m", range(1, 7))
def test_equality_gadget(m):
    g = C.gadget_equal(m)
    assert g.gate_count <= 6 * m
    mask = g.output_masks()[0]
    for a in range(1 << (2 * m)):
        x, y = a & ((1 << m) - 1), a >> m
        assert ((mask >> a) & 1) == (1 if x == y else 0)


def test_equality_gadget_word_budget():
    # two 4l-bit words cost at most 24l gates
    for ell in (1, 3):
        assert C.gadget_equal(4 * ell).gate_count <= 24 * ell


def test_gate_alphabet_only():
    for circ in (C.gadget_xor(), C.gadget_equal(3), C.gadget_min(4)):
        for node in circ.nodes:
            assert node[0] in ("IN", "AND", "OR", "NOT")
            assert len(node) == (2 if node[0] in ("IN", "NOT") else 3)


def test_satisfiability():
    b = C.Builder(1)
    contradiction = b.build(b.AND(0, b.NOT(0)))
    assert contradiction.is_satisfiable() is None
    ident = C.Builder(1).build(0)
    assert ident.is_satisfiable() == 1
    # least witness in scan order, as an int; the witness 0 is not None
    assert C.from_bits([0, 1, 1, 0]).is_satisfiable() == 1
    assert C.from_bits([1, 0, 0, 1]).is_satisfiable() == 0


def test_satisfiable_iff_truth_table_has_a_one():
    rng = random.Random(5)
    for _ in range(50):
        r = rng.randint(1, 4)
        bits = [rng.randint(0, 1) for _ in range(1 << r)]
        c = C.from_bits(bits)
        assert (c.is_satisfiable() is not None) == (1 in bits)


def test_sat_bound():
    with pytest.raises(ValueError):
        C.Builder(25).build(0).is_satisfiable()


def test_truth_table_round_trip():
    assert C.from_bits([0, 1]).truth_table().bits() == bytes([0, 1])
    assert C.from_bits([0, 0, 0, 0]).truth_table().bits() == bytes([0, 0, 0, 0])
    assert C.from_bits([0, 1, 1, 0]).truth_table().bits() == bytes([0, 1, 1, 0])
    rng = random.Random(11)
    for r in range(1, 7):
        for _ in range(8):
            bits = [rng.randint(0, 1) for _ in range(1 << r)]
            assert C.from_bits(bits).truth_table().bits() == bytes(bits)


def test_builder_sharing_and_fresh():
    b = C.Builder(2)
    a1 = b.AND(0, 1)
    a2 = b.AND(0, 1)
    assert a1 == a2
    a3 = b.AND(0, 1, fresh=True)
    assert a3 != a1


def test_builder_rejects_operands_that_are_not_earlier_vertices():
    b = C.Builder(2)
    for bad in (lambda: b.AND(0, 2), lambda: b.NOT(-1),
                lambda: b.OR(5, 0, fresh=True), lambda: b.min_word([0], [2])):
        with pytest.raises(ValueError):
            bad()
    assert b.build(b.AND(0, 1)).size == 3       # nothing was added


def test_gadget_rejects_zero_width():
    with pytest.raises(ValueError):
        C.gadget_min(0)
    with pytest.raises(ValueError):
        C.gadget_equal(0)


def test_text_format_round_trip():
    for circ in (C.gadget_xor(), C.gadget_equal(3), C.from_bits([0, 1, 1, 1])):
        back = C.parse_circuit(C.write_circuit(circ))
        assert back.truth_table() == circ.truth_table()
        assert back.size == circ.size


def test_text_format_comments_and_errors():
    good = "# a comment\nv0 INPUT 0\nv1 NOT v0\nSINK v1\n"
    c = C.parse_circuit(good)
    assert c.truth_table().bits() == bytes([1, 0])

    with pytest.raises(C.CircuitParseError) as e:
        C.parse_circuit("v0 INPUT 0\nv1 AND v0 v3\nSINK v1\n")
    assert e.value.lineno == 2

    with pytest.raises(C.CircuitParseError):
        C.parse_circuit("v0 INPUT 0\nSINK v0\nSINK v0\n")
    with pytest.raises(C.CircuitParseError):
        C.parse_circuit("v0 INPUT 0\n")
    with pytest.raises(C.CircuitParseError):
        C.parse_circuit("v1 INPUT 0\nSINK v1\n")
    with pytest.raises(C.CircuitParseError):
        C.parse_circuit("v0 XANDOR 0\nSINK v0\n")
