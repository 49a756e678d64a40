import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fsrkit import circuit as C
from fsrkit import fsr as F
from fsrkit.bitvec import bits_to_mask, digits_to_bits
from fsrkit.circuit import CircuitParseError


def pure_cycling(n):
    # feedback x0: the register that rotates its state
    return F.Fsr(n, table=[s & 1 for s in range(1 << n)])


def low_first(digits):
    """The state or window written a0 a1 ... as its integer."""
    return bits_to_mask(digits_to_bits(digits))


def random_nonsingular(rng, n):
    gmask = rng.getrandbits(1 << (n - 1)) if n > 1 else 0
    table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1) for s in range(1 << n)]
    return F.Fsr(n, table=table)


def test_step_examples():
    f = F.Fsr(2, table=[0, 1, 0, 1])  # x2 + x0
    assert f.step_int(low_first("01")) == low_first("10")
    assert f.step_int(low_first("11")) == low_first("11")


def test_step_matches_quartic_trinomial_power():
    # state map of x^4+x^2+1, third power of the unit state
    f = F.Fsr(4, table=[(s ^ (s >> 2)) & 1 for s in range(16)])
    s = low_first("1000")
    for _ in range(3):
        s = f.step_int(s)
    assert s == low_first("0101")


def test_nonsingularity():
    assert F.is_nonsingular(F.Fsr(2, table=[0, 1, 0, 1]))
    # feedback x1 collapses states (0,0) and (1,0)
    assert not F.is_nonsingular(F.Fsr(2, table=[0, 0, 1, 1]))


def test_nonsingular_three_way_equivalence_exhaustive():
    # bijectivity == feedback criterion == orbit closure, all stage-4 tables
    for n in (2, 3, 4):
        total = 1 << n
        for mask in range(1 << total):
            table = [(mask >> s) & 1 for s in range(total)]
            succ = [(s >> 1) | (table[s] << (n - 1)) for s in range(total)]
            bijective = len(set(succ)) == total
            criterion = all(table[s] ^ table[s ^ 1] == 1
                            for s in range(0, total, 2))
            periodic = True
            for s0 in range(total):
                s, steps = s0, 0
                while steps <= total:
                    s = succ[s]
                    steps += 1
                    if s == s0:
                        break
                else:
                    periodic = False
                    break
            assert bijective == criterion == periodic


def test_cycle_structure_examples():
    f = F.Fsr(2, table=[0, 1, 0, 1])
    assert {str(c) for c in F.cycle_structure(f)} == {"0", "1", "01"}
    p0 = F.Fsr(2, table=[0, 1, 1, 0])
    assert {str(c) for c in F.cycle_structure(p0)} == {"0", "011"}
    p1 = F.Fsr(3, table=[s & 1 for s in range(8)])
    cs = F.cycle_structure(p1)
    assert {str(c) for c in cs} == {"0", "1", "011", "001"}
    assert cs.format_listing() == "1 0\n1 1\n3 001\n3 011\n"
    assert sum(c.period for c in cs) == 8


def test_cycle_structure_rejects_singular():
    with pytest.raises(ValueError):
        F.cycle_structure(F.Fsr(2, table=[0, 0, 1, 1]))


def test_cycle_canonical_form():
    assert str(F.Cycle([1, 1, 0])) == "011"
    assert str(F.Cycle([1, 0, 1])) == "011"
    assert str(F.Cycle([0, 1, 0, 1])) == "01"  # minimal period
    assert F.Cycle([0]).period == 1
    assert F.Cycle([1, 0]).complement() == F.Cycle([0, 1])


def least_rotation_of_minimal_period(bits):
    """The canonical form by its definition: the shortest prefix whose
    repetition gives the sequence, then the least of its rotations."""
    p = next(d for d in range(1, len(bits) + 1)
             if len(bits) % d == 0 and bits == bits[:d] * (len(bits) // d))
    word = bits[:p]
    return min(word[k:] + word[:k] for k in range(p))


@st.composite
def cyclic_sequences(draw):
    # a random block repeated, so short periods occur often
    block = draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    return block * draw(st.integers(1, 6))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cyclic_sequences())
def test_cycle_is_the_least_rotation_of_the_minimal_period(bits):
    c = F.Cycle(bits)
    assert c.bits == bytes(least_rotation_of_minimal_period(bits))
    assert F.Cycle(bytes(bits)) == c
    assert F.Cycle(digits_to_bits("".join(map(str, bits)))) == c


def test_cycle_rejects_entries_other_than_0_and_1():
    for bad in ([2], [0, 1, 3], [-1]):
        with pytest.raises(ValueError):
            F.Cycle(bad)
    for data in (b"\x02", b"01", bytes([0, 1, 48])):
        with pytest.raises(ValueError):
            F.Cycle(data)


def test_building_a_long_cycle_allocates_no_per_bit_objects():
    rng = random.Random(3)
    bits = [rng.randrange(2) for _ in range(1 << 20)]
    tracemalloc.start()
    try:
        c = F.Cycle(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.period == 1 << 20
    assert peak < 8 << 20      # a tuple of 2^20 bits alone takes 8 MB


def test_windows():
    c = F.Cycle([0, 1, 1])
    assert c.window_ints(2) == set(map(low_first, ["01", "11", "10"]))
    assert c.window_ints(3) == set(map(low_first, ["011", "110", "101"]))
    assert F.Cycle([0]).window_ints(2) == {low_first("00")}
    # window count never exceeds the period; the sets match the definition
    rng = random.Random(0)
    for _ in range(50):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 9))]
        c = F.Cycle(bits)
        for k in range(1, 12):
            assert len(c.window_ints(k)) <= c.period
            assert c.window_ints(k) == {
                sum(c.bits[(i + t) % c.period] << t for t in range(k))
                for i in range(c.period)}


def test_realizability():
    c0, c1 = F.Cycle([0]), F.Cycle([1])
    assert F.realizable_as_fsr([c0, c1], 1)
    assert F.realizable_as_fsr([c0, F.Cycle([0, 1, 1])], 2)
    assert not F.realizable_as_fsr([c0, F.Cycle([0, 0, 1])], 2)
    assert not F.realizable_as_fsr([c0], 1)  # period sum 1 != 2


def window_statements(cycles, m):
    """The three equivalent window statements, each computed directly:
    (i) |union of m-windows| equals the period sum,
    (ii) dropping the first bit is injective on the (m+1)-windows,
    (iii) dropping the last bit is injective on the (m+1)-windows."""
    total = sum(c.period for c in cycles)
    short = set().union(*(c.window_ints(m) for c in cycles))
    wins = set().union(*(c.window_ints(m + 1) for c in cycles))
    low_mask = (1 << m) - 1
    return (len(short) == total, len({w >> 1 for w in wins}) == len(wins),
            len({w & low_mask for w in wins}) == len(wins))


def test_window_equivalence_check():
    c0 = F.Cycle([0])
    assert window_statements([c0, F.Cycle([0, 1, 1])], 2) == \
        (True, True, True)
    assert window_statements([c0, F.Cycle([0, 0, 1])], 2) == \
        (False, False, False)
    assert window_statements([F.Cycle([0, 1])], 1) == \
        (True, True, True)


def test_window_equivalence_always_agrees_on_random_sets():
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        cycles = {F.Cycle([rng.randint(0, 1)
                           for _ in range(rng.randint(1, 10))])
                  for _ in range(rng.randint(1, 4))}
        m = rng.randint(1, 6)
        res = window_statements(cycles, m)
        assert res[0] == res[1] == res[2]
        seen.add(res[0])
    assert seen == {True, False}


def test_fsr_from_cycles_examples():
    c0, c1 = F.Cycle([0]), F.Cycle([1])
    assert list(F.fsr_from_cycles([c0, c1], 1).table) == [0, 1]
    assert list(F.fsr_from_cycles([c0, F.Cycle([0, 1, 1])], 2).table) == [0, 1, 1, 0]
    assert list(F.fsr_from_cycles([c0, c1, F.Cycle([0, 1])], 2).table) == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        F.fsr_from_cycles([c0, F.Cycle([0, 0, 1])], 2)


def test_round_trip_small_stages_exhaustive():
    for n in (1, 2, 3):
        for gmask in range(1 << (1 << (n - 1))):
            table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                     for s in range(1 << n)]
            f = F.Fsr(n, table=table)
            cs = F.cycle_structure(f)
            assert F.fsr_from_cycles(cs.cycles, n) == f


def test_orbit_is_window_set_with_minimal_period():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 8)
        f = random_nonsingular(rng, n)
        cs = F.cycle_structure(f)
        for c in cs:
            wins = c.window_ints(n)
            v = next(iter(wins))
            orbit = [v]
            s = f.step_int(v)
            while s != v:
                orbit.append(s)
                s = f.step_int(s)
            assert len(orbit) == c.period
            assert set(orbit) == wins


def test_state_cycles_indexes_the_register_orbits():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 9)
        f = random_nonsingular(rng, n)
        seeds, bits, ids = F.state_cycles(f)
        assert (seeds, bits, ids) == F.orbits(f.step_int, 1 << n)
        assert len(ids) == 1 << n
        held = [[] for _ in seeds]
        for s, i in enumerate(ids):
            held[i].append(s)
        # each orbit's states are the stage-windows of its cycle, the
        # least of them its seed
        for seed, b, states in zip(seeds, bits, held):
            assert F.Cycle(b).window_ints(n) == set(states)
            assert len(b) == len(states)
            assert seed == states[0]
    with pytest.raises(ValueError, match="singular"):
        F.state_cycles(F.Fsr(2, table=[0, 0, 0, 0]))


def test_conjugate_pair_minimum_property():
    # if u and its conjugate sit on cycles c, d then the least window of
    # c or d undercuts both, unless u is the zero or unit state
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 10)
        f = random_nonsingular(rng, n)
        cyc_of = {}
        least = {}
        for c in F.cycle_structure(f):
            wins = c.window_ints(n)
            mn = min(wins)
            for w in wins:
                cyc_of[w] = c
                least[w] = mn
        for u in range(1 << n):
            lo = min(least[u], least[u ^ 1])
            assert lo < min(u, u ^ 1) or u in (0, 1)


def toggle(f, u):
    """f with its feedback flipped at the conjugate state pair whose last
    stage - 1 bits are u."""
    if not 0 <= u < 1 << (f.stage - 1):
        raise ValueError(f"u must have {f.stage - 1} bits")
    table = bytearray(f.table)
    table[2 * u] ^= 1
    table[2 * u + 1] ^= 1
    return F.Fsr(f.stage, table=bytes(table))


def test_toggle_feedback():
    # x2 + x0 has cycles 0, 1 and 01; the pair 10/11 joins 1 and 01
    f = F.Fsr(2, table=[0, 1, 0, 1])
    t = toggle(f, 1)
    assert {str(c) for c in F.cycle_structure(t)} == {"0", "011"}
    assert toggle(t, 1) == f
    with pytest.raises(ValueError):
        toggle(f, 2)


def test_toggle_join_split_changes_cycle_count_by_one():
    rng = random.Random(31)
    for _ in range(40):
        f = random_nonsingular(rng, 4)
        u = rng.randrange(8)
        before = F.cycle_structure(f)
        after = F.cycle_structure(toggle(f, u))
        v = 2 * u
        same_cycle = any({v, v ^ 1} <= c.window_ints(4) for c in before)
        if same_cycle:
            assert len(after) == len(before) + 1
        else:
            assert len(after) == len(before) - 1


def test_product_examples():
    one = F.Fsr(1, table=[0, 1])          # x1 + x0
    p0 = F.Fsr(2, table=[0, 1, 1, 0])     # x2 + x1 + x0
    assert F.product_fsr(one, one) == F.Fsr(2, table=[0, 1, 0, 1])
    assert F.product_fsr(one, p0) == F.Fsr(3, table=[s & 1 for s in range(8)])


def test_product_contains_inner_sequences_when_outer_fixes_zero():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        h = random_nonsingular(rng, n)
        g = random_nonsingular(rng, m)
        if h.feedback_bit(0) != 0:   # outer must emit the zero sequence
            continue
        checked += 1
        prod = F.product_fsr(h, g)
        assert F.cycle_structure(g).cycles <= F.cycle_structure(prod).cycles


def test_cascade_equals_product():
    rng = random.Random(41)
    one = F.Fsr(1, table=[0, 1])
    p0 = F.Fsr(2, table=[0, 1, 1, 0])
    assert F.simulate_cascade(one, one) == \
        F.cycle_structure(F.Fsr(2, table=[0, 1, 0, 1]))
    assert F.simulate_cascade(one, p0) == \
        F.cycle_structure(F.Fsr(3, table=[s & 1 for s in range(8)]))
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        f = random_nonsingular(rng, n)
        g = random_nonsingular(rng, m)
        cs = F.simulate_cascade(f, g)
        assert sum(c.period for c in cs) == 1 << (n + m)
        assert cs == F.cycle_structure(F.product_fsr(f, g))


def test_cascade_above_the_state_bound_is_refused_before_any_sweep():
    f, g = pure_cycling(13), pure_cycling(12)
    # nonsingular registers, so only the bound can refuse them, and the
    # 2^25-state orbit walk would take minutes: the refusal comes first
    with mock.patch.object(F, "orbits", side_effect=AssertionError("swept")):
        with pytest.raises(ValueError,
                           match="cascade stage 25 exceeds state bound 24"):
            F.simulate_cascade(f, g)


def test_product_above_the_state_bound_names_the_bound():
    f, g = pure_cycling(13), pure_cycling(12)
    with pytest.raises(ValueError,
                       match="^product stage 25 exceeds state bound 24$"):
        F.product_fsr(f, g)


def test_text_format():
    f = F.Fsr(2, table=[0, 1, 0, 1])
    assert F.parse_fsr("".join(F.fsr_pieces(f))) == f
    with pytest.raises(F.FsrParseError):
        F.parse_fsr("STAGE 2\nFEEDBACK TABLE 01\n")      # wrong length
    with pytest.raises(F.FsrParseError):
        F.parse_fsr("STAGE 2\nFEEDBACK TABLE 01a1\n")    # bad digit
    with pytest.raises(F.FsrParseError):
        F.parse_fsr("FEEDBACK TABLE 0101\n")             # missing stage
    inline = ("STAGE 2\nFEEDBACK CIRCUIT\n"
              "v0 INPUT 0\nv1 INPUT 1\nv2 NOT v1\nv3 AND v0 v2\n"
              "v4 NOT v0\nv5 AND v4 v1\nv6 OR v3 v5\nSINK v6\n")
    g = F.parse_fsr(inline)
    assert list(g.table) == [0, 1, 1, 0]


def test_inline_circuit_errors_carry_file_line_numbers(tmp_path):
    body = "v0 INPUT 0\nv1 INPUT 1\nv2 AND v0 v7\nSINK v2\n"
    with pytest.raises(CircuitParseError,
                       match=r"^line 5: forward reference to v7$") as err:
        F.parse_fsr("STAGE 2\nFEEDBACK CIRCUIT\n" + body)
    assert err.value.lineno == 5
    with pytest.raises(CircuitParseError, match=r"^line 8: forward reference"):
        F.parse_fsr("# a register\n\nSTAGE 2\n\nFEEDBACK CIRCUIT\n" + body)
    with pytest.raises(CircuitParseError, match=r"^line 4: missing SINK line"):
        F.parse_fsr("STAGE 1\nFEEDBACK CIRCUIT\nv0 INPUT 0\nv1 NOT v0\n")
    # a referenced circuit file reports its own line numbers
    (tmp_path / "fb.ckt").write_text(body)
    with pytest.raises(CircuitParseError, match=r"^line 3: forward reference"):
        F.parse_fsr("STAGE 2\nFEEDBACK CIRCUIT fb.ckt\n", base_dir=str(tmp_path))


def test_table_digits_round_trip_through_the_text_format():
    rng = random.Random(7)
    for stage in (1, 2, 5, 10):
        table = bytes(rng.randrange(2) for _ in range(1 << stage))
        text = "".join(F.fsr_pieces(F.Fsr(stage, table=table)))
        assert text == (f"STAGE {stage}\nFEEDBACK TABLE "
                        + "".join(str(b) for b in table) + "\n")
        assert F.parse_fsr(text).table == table
    for bad in ("0\uff1101", "01a1", "-101", "0.01"):
        with pytest.raises(F.FsrParseError):
            F.parse_fsr(f"STAGE 2\nFEEDBACK TABLE {bad}\n")


def test_fsr_circuit_file_reference(tmp_path):
    from fsrkit.circuit import gadget_xor, write_circuit
    (tmp_path / "fb.ckt").write_text(write_circuit(gadget_xor()))
    f = F.parse_fsr("STAGE 2\nFEEDBACK CIRCUIT fb.ckt\n", base_dir=str(tmp_path))
    assert list(f.table) == [0, 1, 1, 0]


def circuit_register_text(stage: int) -> str:
    """Register text whose feedback circuit is x0 on ``stage`` inputs."""
    return (f"STAGE {stage}\nFEEDBACK CIRCUIT\n"
            + "".join(f"v{i} INPUT {i}\n" for i in range(stage)) + "SINK v0\n")


def test_state_bound_env():
    # a circuit register above the state bound has no table: it is refused
    # when read, before its circuit is evaluated
    unevaluated = mock.patch.object(
        C.Circuit, "output_masks", side_effect=AssertionError("evaluated"))
    with unevaluated, pytest.raises(ValueError,
                                    match="^stage 25 exceeds state bound 24$"):
        F.parse_fsr(circuit_register_text(25))
    assert F.parse_fsr(circuit_register_text(3)).table == bytes([0, 1] * 4)


def test_an_explicit_table_past_24_stages_is_refused_unbuilt():
    # 2^25 entries would take 32 MB, 2^40 fail to allocate, and 1 << 2^(10^6)
    # overflow before the table could be checked
    tracemalloc.start()
    try:
        for stage in (25, 40, 10**6):
            with pytest.raises(ValueError,
                               match=f"stage {stage} exceeds state bound 24"):
                F.Fsr(stage, table=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_circuit_and_register_tables_share_one_bound():
    c = C.Builder(25).build(0)
    for read in (lambda: F.parse_fsr(circuit_register_text(25)),
                 c.truth_table, c.output_masks):
        with pytest.raises(ValueError, match="25 exceeds state bound 24"):
            read()


def test_parse_checks_the_table_length_without_building_2_to_the_stage():
    import tracemalloc
    # 2^100000 has too many decimal digits to print; the parser must
    # still raise its own error, naming the power instead
    with pytest.raises(F.FsrParseError, match=r"2\^100000 digits"):
        F.parse_fsr("STAGE 100000\nFEEDBACK TABLE 0101\n")
    tracemalloc.start()
    try:
        with pytest.raises(F.FsrParseError):
            F.parse_fsr("STAGE 100000000\nFEEDBACK TABLE 0101\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20      # 2^100000000 alone would take 12.5 MB
    # a circuit register above the state bound parses to its refusal
    with pytest.raises(ValueError, match="^stage 30 exceeds state bound 24$"):
        F.parse_fsr(circuit_register_text(30))


def test_feedback_bit_rejects_states_out_of_range():
    table = F.Fsr(3, table=[0, 1, 1, 0, 1, 0, 0, 1])
    assert table.feedback_bit(7) == 1
    b = C.Builder(3)
    circ = F.parse_fsr("".join(
        F.fsr_circuit_pieces(3, b.build(b.xor(*b.inputs()[:2])))))
    assert circ.feedback_bit(3) == 0 and circ.feedback_bit(5) == 1
    for f in (table, circ):
        for s in (-1, 8, 1 << 40):
            with pytest.raises(ValueError):
                f.feedback_bit(s)

