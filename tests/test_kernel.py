"""Properties of the state-space kernel: the mask <-> bits pair, the linear
step map and the orbit walker, each against its definition."""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import fsrkit
from fsrkit.bitvec import BitVec, bits_to_digits, bits_to_mask, digits_to_bits, mask_to_bits
from fsrkit.fsr import orbits
from fsrkit.lfsr import LINEAR_TABLE_DEGREE_BOUND, GF2Poly, lfsr_of, linear_step

FIXED = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def masks(draw):
    n = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(["zero", "top", "any"]))
    if kind == "zero":
        return 0, n
    mask = draw(st.integers(0, (1 << n) - 1))
    return (mask | (1 << (n - 1)) if kind == "top" else mask), n


@FIXED
@given(masks())
def test_mask_to_bits_matches_the_bitwise_definition(case):
    mask, n = case
    bits = mask_to_bits(mask, n)
    assert bits == bytes((mask >> i) & 1 for i in range(n))
    assert bits_to_mask(bits) == mask
    assert bits_to_mask(list(bits)) == mask


@FIXED
@given(st.lists(st.integers(0, 1), max_size=3000))
def test_bits_to_mask_matches_the_bitwise_definition(bits):
    want = 0
    for i, b in enumerate(bits):
        want |= b << i
    assert bits_to_mask(bits) == want
    if bits:
        assert mask_to_bits(want, len(bits)) == bytes(bits)


@FIXED
@given(st.lists(st.integers(0, 1), max_size=50), st.integers(0, 50),
       st.sampled_from([2, 3, 48, 49, 255, -1, 256, "1", None, 0.5]))
def test_bits_to_mask_rejects_entries_other_than_0_and_1(bits, at, bad):
    bits.insert(min(at, len(bits)), bad)
    with pytest.raises(ValueError):
        bits_to_mask(bits)


def test_mask_conversions_reject_bad_arguments():
    for mask, n in ((-1, 4), (16, 4), (1 << 100, 100)):
        with pytest.raises(ValueError):
            mask_to_bits(mask, n)
    for not_a_sequence in (5, True, BitVec(5, 3)):
        with pytest.raises(TypeError):   # bytes(n) would be n zero entries
            bits_to_mask(not_a_sequence)


@FIXED
@given(st.lists(st.integers(0, 1), max_size=3000))
def test_digit_strings_match_the_per_character_definition(bits):
    digits = "".join(str(b) for b in bits)
    assert bits_to_digits(bits) == bits_to_digits(bytes(bits)) == digits
    assert digits_to_bits(digits) == bytes(int(ch) for ch in digits)


@FIXED
@given(st.text(max_size=40).filter(lambda t: set(t) - set("01")))
def test_digits_to_bits_rejects_characters_other_than_0_and_1(text):
    with pytest.raises(ValueError):
        digits_to_bits(text)


def test_bits_to_digits_rejects_entries_other_than_0_and_1():
    for bad in ([0, 2], [1, -1], "01", [0.5]):
        with pytest.raises(ValueError):
            bits_to_digits(bad)
    with pytest.raises(TypeError):
        bits_to_digits(3)


@st.composite
def monic_polys(draw):
    degree = draw(st.integers(1, 24))
    low = draw(st.integers(0, (1 << degree) - 1))
    return GF2Poly((1 << degree) | low)


@FIXED
@given(monic_polys(), st.lists(st.integers(0, (1 << 24) - 1), min_size=1,
                               max_size=20))
def test_linear_step_matches_the_register(p, raw_states):
    step = linear_step(p)
    f = lfsr_of(p)
    for s in raw_states:
        s &= (1 << p.degree) - 1
        assert step(s) == f.step_int(s)


def test_linear_step_on_both_sides_of_the_table_bound():
    for degree in (LINEAR_TABLE_DEGREE_BOUND, LINEAR_TABLE_DEGREE_BOUND + 1):
        p = GF2Poly((1 << degree) | 0b1011)
        step, f = linear_step(p), lfsr_of(p)
        for s in (0, 1, (1 << degree) - 1, 0x2AAAA):
            assert step(s) == f.step_int(s)


@FIXED
@given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
def test_orbits_partition_a_permutation(perm):
    n = len(perm)
    succ = perm.__getitem__
    found = list(orbits(succ, n))
    seen = [s for orbit in found for s in orbit]
    assert sorted(seen) == list(range(n))
    for orbit in found:
        # closed under succ, in stepping order, starting at its least state
        assert [succ(s) for s in orbit] == orbit[1:] + orbit[:1]
        assert orbit[0] == min(orbit)
    firsts = [orbit[0] for orbit in found]
    assert firsts == sorted(firsts)


def test_no_bare_asserts_in_the_package():
    # `python -O` strips assert statements, and the CLI reports only
    # InvariantError as an internal failure: invariants raise that, and
    # no code names AssertionError
    root = pathlib.Path(fsrkit.__file__).parent
    offenders = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
