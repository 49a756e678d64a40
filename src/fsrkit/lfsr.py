"""GF(2) polynomial algebra and linear registers.

Polynomials are nonnegative integers: bit i is the coefficient of x^i
(the same low-first convention the rest of the package uses for states).
The module also houses the three-term family used throughout the register
builders: for ell a power of three,

    p0 = x^(2*ell) + x^ell + 1        irreducible, order 3*ell
    p1 = (x + 1) * p0
    p2 = x^(4*ell) + x^(2*ell) + 1    which equals p0 squared

and the exactly known cycle counts of the corresponding linear registers.

`lfsr_of` is the one place a polynomial becomes a register: its feedback
table is the parity of the state bits in the polynomial's tap mask, and a
degree above STATE_BOUND, which has no table, is refused.  The state map
`linear_step` is a list lookup read off that table up to degree
LINEAR_TABLE_DEGREE_BOUND, and the tap parity computed per state above it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .bitvec import FLIP
from .circuit import STATE_BOUND
from .fsr import Fsr, InvariantError, cycle_structure

IRREDUCIBILITY_DEGREE_BOUND = 36
LINEAR_TABLE_DEGREE_BOUND = 18
#: parse_poly refuses a polynomial of higher degree; the package builds
#: none above 36 (p2 at ell = 9)
POLY_DEGREE_BOUND = 64


class GF2Poly:
    """A binary polynomial wrapped around its integer coefficient mask."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("coefficient mask must be nonnegative")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("GF2Poly is immutable")

    @classmethod
    def from_terms(cls, *exponents) -> "GF2Poly":
        v = 0
        for e in exponents:
            v ^= 1 << e
        return cls(v)

    @property
    def degree(self) -> int:
        if self.value == 0:
            raise ValueError("zero polynomial has no degree")
        return self.value.bit_length() - 1

    def __mul__(self, other: "GF2Poly") -> "GF2Poly":
        a, b = self.value, other.value
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        return GF2Poly(acc)

    def __divmod__(self, other: "GF2Poly"):
        if other.value == 0:
            raise ZeroDivisionError("division by the zero polynomial")
        a = self.value
        b = other.value
        db = b.bit_length() - 1
        q = 0
        while a and a.bit_length() - 1 >= db:
            shift = a.bit_length() - 1 - db
            q ^= 1 << shift
            a ^= b << shift
        return GF2Poly(q), GF2Poly(a)

    def __mod__(self, other: "GF2Poly") -> "GF2Poly":
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, GF2Poly):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("GF2Poly", self.value))

    def __str__(self):
        if self.value == 0:
            return "0"
        terms = []
        for e in range(self.value.bit_length() - 1, -1, -1):
            if (self.value >> e) & 1:
                terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
        return " + ".join(terms)

    def __repr__(self):
        return f"GF2Poly(0x{self.value:x})"


def poly_is_irreducible(p: GF2Poly) -> bool:
    """Trial division by every lower-degree polynomial up to deg/2."""
    if p.value == 0:
        raise ValueError("zero polynomial")
    d = p.degree
    if d > IRREDUCIBILITY_DEGREE_BOUND:
        raise ValueError(f"degree {d} exceeds bound {IRREDUCIBILITY_DEGREE_BOUND}")
    if d == 0:
        return False
    if d == 1:
        return True
    if p.value & 1 == 0:
        return False  # divisible by x
    for mask in range(2, 1 << (d // 2 + 1)):
        if (p % GF2Poly(mask)).value == 0:
            return False
    return True


def parse_poly(text: str) -> GF2Poly:
    """Accepts 'x^a + x^b + ... + 1' (also x, 0) or a hex mask '0x...'.
    A degree above POLY_DEGREE_BOUND raises ValueError before any power
    of x is built."""
    s = text.strip().lower()
    if s.startswith("0x"):
        if not re.fullmatch("0x[0-9a-f]+", s):
            raise ValueError(f"bad hex mask {text!r}")
        v = int(s, 16)
        if v.bit_length() - 1 > POLY_DEGREE_BOUND:
            raise ValueError(f"degree {v.bit_length() - 1} above {POLY_DEGREE_BOUND}")
        return GF2Poly(v)
    v = 0
    for term in s.split("+"):
        term = term.strip()
        if term == "0" and s == "0":
            return GF2Poly(0)
        if term == "1":
            v ^= 1
        elif term == "x":
            v ^= 2
        else:
            m = re.fullmatch(r"x\^([0-9]+)", term)
            if not m:
                raise ValueError(f"bad polynomial term {term!r}")
            e = int(m.group(1))
            if e > POLY_DEGREE_BOUND:
                raise ValueError(f"degree {e} above {POLY_DEGREE_BOUND}")
            v ^= 1 << e
    return GF2Poly(v)


def tap_mask(p: GF2Poly) -> int:
    """For p = x^n + c_{n-1} x^{n-1} + ... + c_0, the mask with bit i set
    when c_i = 1: the state bits whose parity is the linear feedback."""
    if p.value == 0 or p.degree < 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    return p.value & ((1 << p.degree) - 1)


def lfsr_of(p: GF2Poly) -> Fsr:
    """The linear register whose characteristic polynomial is p.

    For p = x^n + c_{n-1} x^{n-1} + ... + c_0 the feedback is the parity
    of the tapped state bits c_i * x_i.  The table over i + 1 bits is the
    one over i bits twice, flipped the second time when x_i is a tap.  A
    degree above STATE_BOUND raises ValueError before any table is built.
    """
    taps = tap_mask(p)
    if p.degree > STATE_BOUND:
        raise ValueError(f"stage {p.degree} exceeds state bound {STATE_BOUND}")
    table = b"\x00"
    for i in range(p.degree):
        table += table.translate(FLIP) if (taps >> i) & 1 else table
    return Fsr(p.degree, table=table)


def linear_step(p: GF2Poly):
    """The state map of lfsr_of(p) on integer states, as a callable.

    Up to degree LINEAR_TABLE_DEGREE_BOUND it looks the state up in a list
    read off the register's table; above, it computes the tap parity of
    each state it is given, and builds no table.
    """
    taps, top = tap_mask(p), p.degree - 1
    if p.degree > LINEAR_TABLE_DEGREE_BOUND:
        return lambda s: (s >> 1) | (((s & taps).bit_count() & 1) << top)
    return [(s >> 1) | (b << top) for s, b in enumerate(lfsr_of(p).table)].__getitem__


# -- the power-of-three family ----------------------------------------------

def _is_power_of_three(ell: int) -> bool:
    while ell % 3 == 0:
        ell //= 3
    return ell == 1


@dataclass(frozen=True)
class LfsrFamily:
    """The trinomial pair and its square for one stride ell = 3^k."""

    ell: int
    p0: GF2Poly
    p1: GF2Poly
    p2: GF2Poly

    @classmethod
    def for_ell(cls, ell: int) -> "LfsrFamily":
        if ell < 1 or not _is_power_of_three(ell):
            raise ValueError("ell must be a power of three")
        p0 = GF2Poly.from_terms(2 * ell, ell, 0)
        p1 = GF2Poly.from_terms(1, 0) * p0
        p2 = GF2Poly.from_terms(4 * ell, 2 * ell, 0)
        if not (p0.degree == 2 * ell and p1.degree == 2 * ell + 1
                and p2 == p0 * p0):
            raise InvariantError(f"trinomial family for ell={ell} is malformed")
        return cls(ell, p0, p1, p2)


@dataclass(frozen=True)
class FamilyCycleReport:
    """Observed cycle counts of the family registers against the exact ones."""

    ell: int
    counts: dict          # name -> {period: how many cycles}
    expected: dict        # name -> {period: how many cycles}
    ok: bool


def expected_family_counts(ell: int) -> dict:
    n0 = (1 << (2 * ell)) - 1
    n2 = (1 << (4 * ell)) - (1 << (2 * ell))
    return {
        "p0": {1: 1, 3 * ell: n0 // (3 * ell)},
        "p1": {1: 2, 3 * ell: 2 * (n0 // (3 * ell))},
        "p2": {1: 1, 3 * ell: n0 // (3 * ell), 6 * ell: n2 // (6 * ell)},
    }


def family_cycle_counts(ell: int) -> FamilyCycleReport:
    """Enumerate the family's cycle structures and compare with the exact
    period counts.  p2's sweep is 4*ell stages, so it is included only for
    ell <= 3; p0 and p1 run up to ell = 9."""
    if ell not in (1, 3, 9):
        raise ValueError("ell must be 1, 3 or 9")
    include_p2 = ell <= 3
    fam = LfsrFamily.for_ell(ell)
    expected = expected_family_counts(ell)
    names = [("p0", fam.p0), ("p1", fam.p1)] + ([("p2", fam.p2)] if include_p2 else [])
    counts = {}
    structures = {}
    for name, poly in names:
        cs = cycle_structure(lfsr_of(poly))
        structures[name] = cs
        tally = {}
        for c in cs:
            tally[c.period] = tally.get(c.period, 0) + 1
        counts[name] = tally
    ok = all(counts[name] == expected[name] for name, _ in names)
    # structural facts behind the counts: p1 adds exactly the complement
    # cycles to p0's, and p2's short cycles are exactly p0's.
    if ok:
        p0_cycles = set(structures["p0"].cycles)
        p1_cycles = set(structures["p1"].cycles)
        ok = p1_cycles == p0_cycles | {c.complement() for c in p0_cycles}
        if ok and include_p2:
            short = {c for c in structures["p2"].cycles if c.period != 6 * ell}
            ok = short == p0_cycles
    return FamilyCycleReport(ell=ell, counts=counts, expected=expected, ok=ok)
