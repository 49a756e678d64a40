"""Properties of the state-space kernel: the mask <-> bits pair, the linear
step map, the orbit walker and the whole-table operations on feedback
tables, each against its per-state definition."""

import ast
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import fsrkit
from fsrkit import analysis
from fsrkit.bitvec import bits_to_digits, bits_to_mask, digits_to_bits, mask_to_bits
from fsrkit.fsr import Fsr, InvariantError, is_nonsingular, orbits, window_images
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
    for not_a_sequence in (5, True):
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


def tap_parity_step(p: GF2Poly, s: int) -> int:
    """The linear state map by its definition: shift down, and feed back
    the parity of the state bits under the taps of p."""
    taps = p.value & ((1 << p.degree) - 1)
    return (s >> 1) | (((s & taps).bit_count() & 1) << (p.degree - 1))


@FIXED
@given(monic_polys(), st.lists(st.integers(0, (1 << 24) - 1), min_size=1,
                               max_size=20))
def test_linear_step_matches_the_register(p, raw_states):
    step = linear_step(p)
    for s in raw_states:
        s &= (1 << p.degree) - 1
        assert step(s) == tap_parity_step(p, s)


def test_linear_step_on_both_sides_of_the_table_bound():
    # 25 and 36 are past the state bound, where lfsr_of refuses: the p2
    # of ell = 9 has degree 36
    for degree in (LINEAR_TABLE_DEGREE_BOUND, LINEAR_TABLE_DEGREE_BOUND + 1,
                   25, 36):
        p = GF2Poly((1 << degree) | 0b1011)
        step = linear_step(p)
        for s in (0, 1, (1 << degree) - 1, 0x2AAAA, 0x15555):
            assert step(s) == tap_parity_step(p, s)


@FIXED
@given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
def test_orbits_partition_a_permutation(perm):
    n = len(perm)
    succ = perm.__getitem__
    seeds, bits, ids = orbits(succ, n)
    assert len(seeds) == len(bits) and len(ids) == n
    assert seeds == sorted(seeds)
    assert min(ids) >= 0
    held = [[] for _ in seeds]
    for s, i in enumerate(ids):
        held[i].append(s)
    for i, seed in enumerate(seeds):
        # stepping from the seed: closed under succ after len(bits[i])
        # steps, the states in stepping order, starting at the least one
        walk = [seed]
        for _ in range(len(bits[i]) - 1):
            walk.append(succ(walk[-1]))
        assert succ(walk[-1]) == seed
        assert sorted(walk) == held[i]
        assert seed == min(walk)
        assert bits[i] == bytes(s & 1 for s in walk)


@FIXED
@given(st.integers(2, 40).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    .filter(lambda succ: len(set(succ)) < n)))
def test_orbits_refuse_a_map_that_is_not_a_permutation(succ):
    with pytest.raises(InvariantError, match="not a permutation"):
        list(orbits(succ.__getitem__, len(succ)))


@st.composite
def nonsingular_registers(draw, stages):
    n = draw(stages)
    g = draw(st.lists(st.integers(0, 1), min_size=1 << (n - 1),
                      max_size=1 << (n - 1)))
    return Fsr(n, table=[(s & 1) ^ g[s >> 1] for s in range(1 << n)])


@FIXED
@given(nonsingular_registers(st.integers(1, 8)))
def test_orbit_bits_and_ids_match_stepping_the_register(f):
    n = 1 << f.stage
    seeds, bits, ids = orbits(f.step_int, n)
    assert min(ids) >= 0
    for i, seed in enumerate(seeds):
        s, walk = seed, []
        for _ in range(len(bits[i])):
            walk.append(s)
            s = f.step_int(s)
        assert s == seed
        assert sorted(walk) == [v for v in range(n) if ids[v] == i]
        assert bytes(v & 1 for v in walk) == bits[i]


@st.composite
def tables(draw, stages):
    stage = draw(stages)
    return Fsr(stage, table=draw(st.lists(st.integers(0, 1), min_size=1 << stage,
                                          max_size=1 << stage)))


@FIXED
@given(tables(st.integers(1, 4)), st.integers(1, 6))
def test_window_images_match_the_per_bit_definition(g, width):
    k, g1 = g.stage, g.table
    want = [sum((((x >> (i + k)) & 1) ^ g1[(x >> i) & ((1 << k) - 1)]) << i
                for i in range(width))
            for x in range(1 << (width + k))]
    assert list(window_images(g, width)) == want


@st.composite
def near_nonsingular(draw):
    """A random table of stage 1 to 8; half of them are nonsingular ones
    with at most one entry flipped."""
    f = draw(tables(st.integers(1, 8)))
    if draw(st.booleans()):
        table = bytearray(f.table)
        table[1::2] = bytes(b ^ 1 for b in table[0::2])
        for s in draw(st.lists(st.integers(0, len(table) - 1), max_size=1)):
            table[s] ^= 1
        f = Fsr(f.stage, table=table)
    return f


@FIXED
@given(near_nonsingular())
def test_nonsingular_is_the_bijectivity_of_the_state_map(f):
    images = {f.step_int(s) for s in range(1 << f.stage)}
    assert is_nonsingular(f) == (len(images) == 1 << f.stage)


@FIXED
@given(monic_polys().filter(lambda p: p.degree <= 16))
def test_lfsr_table_is_the_tap_parity(p):
    taps = p.value & ((1 << p.degree) - 1)
    assert lfsr_of(p).table == bytes((s & taps).bit_count() & 1
                                     for s in range(1 << p.degree))


def test_lfsr_above_the_state_bound_is_refused():
    for degree in (25, 36):
        p = GF2Poly((1 << degree) | 0b1001)     # x^degree + x^3 + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^stage {degree} exceeds "
                               "state bound 24$"):
                lfsr_of(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20       # a stage-25 table alone is 32 MB


@FIXED
@given(tables(st.integers(1, 8)))
def test_complement_flips_every_entry(f):
    assert f.complement().table == bytes(b ^ 1 for b in f.table)


def test_decomposition_stops_reading_images_at_the_first_conflict(monkeypatch):
    read = []

    def counted(g, width):
        for w in window_images(g, width):
            read.append(w)
            yield w

    monkeypatch.setattr(analysis, "window_images", counted)
    # x^7 + x + 1 is irreducible, so it has no stage-1 inner factor
    f, g = lfsr_of(GF2Poly(0b10000011)), lfsr_of(GF2Poly(0b11))
    assert analysis.decompose_with_inner(f, g) is None
    assert 0 < len(read) < 1 << f.stage


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
