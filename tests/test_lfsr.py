import pytest

from fsrkit import fsr as F
from fsrkit import lfsr as L


def test_poly_parse_and_str():
    p = L.parse_poly("x^2 + x + 1")
    assert p.value == 0b111
    assert str(p) == "x^2 + x + 1"
    assert L.parse_poly("0x7") == p
    assert L.parse_poly(str(L.parse_poly("x^4 + x^2 + 1"))).value == 0b10101
    with pytest.raises(ValueError):
        L.parse_poly("x^2 + y")


@pytest.mark.parametrize("text", ["x^٣ + 1", "x^+3 + 1", "x^1_0 + 1",
                                  "0x1_1", "0x+7", "0x", "0x٣"])
def test_poly_numbers_are_ascii(text):
    with pytest.raises(ValueError):
        L.parse_poly(text)


def test_poly_degree_bound():
    bound = L.POLY_DEGREE_BOUND
    assert L.parse_poly(f"x^{bound} + 1").degree == bound
    assert L.parse_poly(hex(3 << (bound - 1))).degree == bound
    # refused before a power of x is built: x^(2^70) does not fit a shift
    # count, and str() of x^1000000 once took 28 s
    for text in (f"x^{bound + 1}", "x^1000000 + 1", f"x^{2 ** 70} + x",
                 "0x1" + "0" * 250_000):
        with pytest.raises(ValueError, match=f"above {bound}"):
            L.parse_poly(text)


def test_poly_mul():
    one_plus_x = L.parse_poly("x + 1")
    p0 = L.parse_poly("x^2 + x + 1")
    assert one_plus_x * p0 == L.parse_poly("x^3 + 1")
    assert p0 * L.GF2Poly(1) == p0
    # (x^l + 1) * p0 = x^(3l) + 1 for the family trinomials
    for ell in (1, 3, 9):
        p0l = L.GF2Poly.from_terms(2 * ell, ell, 0)
        xl1 = L.GF2Poly.from_terms(ell, 0)
        assert p0l * xl1 == L.GF2Poly.from_terms(3 * ell, 0)


def test_divmod():
    a = L.parse_poly("x^3 + 1")
    b = L.parse_poly("x + 1")
    q, r = divmod(a, b)
    assert r.value == 0 and q == L.parse_poly("x^2 + x + 1")


def test_irreducibility():
    assert L.poly_is_irreducible(L.parse_poly("x^2 + x + 1"))
    assert not L.poly_is_irreducible(L.parse_poly("x^2 + 1"))
    assert not L.poly_is_irreducible(L.parse_poly("x^4 + x^2 + 1"))
    assert L.poly_is_irreducible(L.parse_poly("x + 1"))
    assert not L.poly_is_irreducible(L.parse_poly("x^2"))
    # the family base polynomials really are irreducible
    for ell in (1, 3, 9):
        assert L.poly_is_irreducible(L.GF2Poly.from_terms(2 * ell, ell, 0))
    with pytest.raises(ValueError):
        L.poly_is_irreducible(L.GF2Poly(1 << 40))


def test_lfsr_of_tap_read_off():
    assert list(L.lfsr_of(L.parse_poly("x^2 + x + 1")).table) == [0, 1, 1, 0]
    assert list(L.lfsr_of(L.parse_poly("x^3 + 1")).table) == \
        [s & 1 for s in range(8)]
    f = L.lfsr_of(L.parse_poly("x^4 + x^2 + 1"))
    assert list(f.table) == [(s ^ (s >> 2)) & 1 for s in range(16)]
    with pytest.raises(ValueError):
        L.lfsr_of(L.GF2Poly(1))


def test_family_construction():
    fam = L.LfsrFamily.for_ell(3)
    assert fam.p0 == L.GF2Poly.from_terms(6, 3, 0)
    assert fam.p1 == L.parse_poly("x + 1") * fam.p0
    assert fam.p2 == fam.p0 * fam.p0
    with pytest.raises(ValueError):
        L.LfsrFamily.for_ell(2)


@pytest.mark.parametrize("ell", [1, 3])
def test_family_cycle_counts(ell):
    rep = L.family_cycle_counts(ell)
    assert rep.ok
    n0 = (1 << (2 * ell)) - 1
    assert rep.counts["p0"] == {1: 1, 3 * ell: n0 // (3 * ell)}
    assert rep.counts["p1"] == {1: 2, 3 * ell: 2 * (n0 // (3 * ell))}
    n2 = (1 << (4 * ell)) - (1 << (2 * ell))
    assert rep.counts["p2"] == {1: 1, 3 * ell: n0 // (3 * ell),
                                6 * ell: n2 // (6 * ell)}


def test_family_cycle_counts_ell9_without_p2():
    rep = L.family_cycle_counts(9)
    assert rep.ok
    assert rep.counts["p0"] == {1: 1, 27: ((1 << 18) - 1) // 27}


def power(p, t: int):
    """The state map of the linear register of p, applied t times."""
    step = L.linear_step(p)

    def clock(s: int) -> int:
        for _ in range(t):
            s = step(s)
        return s
    return clock


def test_transform_pow():
    p2 = L.parse_poly("x^4 + x^2 + 1")
    e1 = 1                                  # the unit state (1, 0, 0, 0)
    assert power(p2, 0)(e1) == e1
    assert power(p2, 3)(e1) == 0b1010       # (0, 1, 0, 1), low bit first
    p0_cubed = power(L.parse_poly("x^2 + x + 1"), 3)
    for s in range(1, 4):
        assert p0_cubed(s) == s


@pytest.mark.parametrize("ell", [1, 3])
def test_transform_orders_on_family_spaces(ell):
    fam = L.LfsrFamily.for_ell(ell)
    p0, p2 = fam.p0, fam.p2
    n0, n2 = 2 * ell, 4 * ell
    # order 3l on the base space
    base = power(p0, 3 * ell)
    assert all(base(s) == s for s in range(1 << n0))
    # order 6l but not 3l on the squared space
    full, half = power(p2, 6 * ell), power(p2, 3 * ell)
    assert all(full(s) == s for s in range(1 << n2))
    moved = [s for s in range(1 << n2) if half(s) != s]
    assert moved
    # fixed points of the 3l-th power are exactly the base-family states
    p0_states = set()
    for c in F.cycle_structure(L.lfsr_of(p0)):
        p0_states |= c.window_ints(n2)
    fixed = {s for s in range(1 << n2) if half(s) == s}
    assert fixed == p0_states


@pytest.mark.parametrize("ell", [1, 3, 9])
def test_two_ell_is_the_multiplicative_order(ell):
    # 2l = min{i > 0 : 3l divides 2^i - 1}, including the ell = 1 case
    order = next(i for i in range(1, 100) if (pow(2, i, 3 * ell)) == 1)
    assert order == 2 * ell
