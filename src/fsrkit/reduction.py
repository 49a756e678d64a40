"""Builders that turn a Boolean circuit into register instances.

Two translations, each with two cross-checkable implementations of its
toggle field f3 (a direct evaluator of the defining procedure, and a
gate-level circuit assembled from the XOR / equality / minimum gadgets):

* irreducibility form: a 4*ell-stage register, built over the linear
  register of x^(4*ell) + x^(2*ell) + 1, that has a sub-register exactly
  when the input circuit is unsatisfiable;
* indecomposability form: a (2*ell+1)-stage register, built over
  (x+1) * (x^(2*ell) + x^ell + 1), that factors as a cascade exactly when
  the input circuit is unsatisfiable.

Here ell = 3^k with k the least integer at or above log3(r/2) for an
r-input circuit, so r <= 2*ell <= 3r - 1.

The module also exposes the bookkeeping maps the correctness arguments
hinge on (the per-cycle representative state rho, the marking predicates,
and the window-difference and parity maps of the indecomposability form)
together with reference forms of both toggle fields stated in terms of
those maps; the toggle tables and the reference forms must agree
pointwise, and the acceptance suite checks that they do.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .bitvec import BitVec, xor_bits
from .circuit import Builder, Circuit, TruthTable
from .fsr import (Cycle, CycleStructure, Fsr, InvariantError, is_nonsingular,
                  state_cycles)
from .lfsr import GF2Poly, LfsrFamily, lfsr_of, linear_step, tap_mask

EXHAUSTIVE_ELL_BOUND = 3


def ell_for(r: int) -> tuple:
    """(k, ell): the least k >= 0 with 2 * 3^k >= r, and ell = 3^k."""
    if r < 1:
        raise ValueError("input count must be >= 1")
    k, ell = 0, 1
    while 2 * ell < r:
        k += 1
        ell *= 3
    if not r <= 2 * ell <= 3 * r - 1:
        raise InvariantError(f"ell={ell} out of range for r={r}")
    return k, ell


# ---------------------------------------------------------------------------
# the satisfiability-preserving input normalization (indecomposability form)

def f2_table(f0_tt: TruthTable) -> TruthTable:
    """Pin the all-zero input to 0, moving any witness there onto all-ones."""
    r = f0_tt.arity
    n = 1 << r
    bits = f0_tt.bits()
    out = list(bits)
    out[0] = 0
    out[n - 1] = 1 if bits[n - 1] else bits[0]
    return TruthTable.from_bits(out)


def f2_transform(f0: Circuit) -> Circuit:
    """Gate-level form of the normalization; satisfiability-preserving."""
    r = f0.arity
    tt = f0.truth_table()
    c1 = tt[(1 << r) - 1] | tt[0]
    b = Builder(r)
    nz = b.or_chain(b.inputs())
    f0x = b.embed(f0, b.inputs())[0]
    if c1:
        out = b.AND(nz, b.OR(b.and_chain(b.inputs()), f0x))
    else:
        out = b.AND(b.AND(nz, b.NOT(b.and_chain(b.inputs()))), f0x)
    circ = b.build(out)
    if circ.truth_table() != f2_table(tt):
        raise InvariantError("normalization circuit disagrees with its table")
    return circ


# ---------------------------------------------------------------------------
# walks of the linear register

def _walk(step, s, steps: int) -> list:
    """[s, step(s), ..., step^steps(s)]."""
    out = [s]
    for _ in range(steps):
        s = step(s)
        out.append(s)
    return out


def _gate_walks(b: Builder, words: list, tap: int, steps: int) -> list:
    """Each word's gate-level walk [w, L(w), ..., L^steps(w)], where L
    shifts w down one wire and feeds back w[0] XOR w[tap].  The words are
    stepped in lockstep, one step of each in turn."""
    walks = [[w] for w in words]
    for _ in range(steps):
        for walk in walks:
            w = walk[-1]
            walk.append(w[1:] + [b.xor(w[0], w[tap])])
    return walks


# ---------------------------------------------------------------------------
# semantic toggle fields (direct transcriptions of the build procedures)

def alg1_f3_semantic(ell: int, f0_tt: TruthTable):
    """The irreducibility form's toggle field on (4*ell - 1)-bit inputs."""
    r = f0_tt.arity
    m = 4 * ell
    shift_r = m - r
    span = 6 * ell
    half = 3 * ell
    L = linear_step(LfsrFamily.for_ell(ell).p2)
    f0b = f0_tt.bits()

    def orbit_flag(s):
        # the c/d test for the conjugate of chain state s
        c = _walk(L, s ^ 1, span)
        return c[half] == c[0] or c[span] != min(c[1:])

    def q(c, mn):
        # each term only once the cheaper ones before it hold
        if c[ell] != mn:
            return False
        conj = mn ^ 1
        return (_walk(L, conj, half)[-1] == conj
                and all(map(orbit_flag, c[1:])))

    def f3(x: int) -> int:
        # terms are evaluated lazily, in the order the three cases read them
        us = _walk(L, x << 1, span)
        vs = _walk(L, x << 1 | 1, span)
        u_min = min(us[1:])
        v_min = min(vs[1:])
        u_ret = us[0] == us[half]
        v_ret = vs[0] == vs[half]
        if u_ret and us[span] == u_min and any(
                f0b[s >> shift_r] for s in us[1:]):
            return 1
        if v_ret and vs[span] == v_min and any(
                f0b[s >> shift_r] for s in vs[1:]):
            return 1
        if not u_ret and not v_ret and (
                us[span] == u_min or vs[span] == v_min
                or q(us, u_min) or q(vs, v_min)):
            return 1
        return 0

    return f3


def alg2_f3_semantic(ell: int, f2_tt: TruthTable):
    """The indecomposability form's toggle field on 2*ell-bit inputs."""
    r = f2_tt.arity
    m2 = 2 * ell
    shift_r = m2 - r
    span = 3 * ell
    L = linear_step(LfsrFamily.for_ell(ell).p0)
    f2b = f2_tt.bits()
    low = (1 << (m2 - 1)) - 1

    def f3(x: int) -> int:
        u = ((x >> (m2 - 1)) ^ (x >> (ell - 1)) ^ x) & 1
        u |= ((x ^ (x >> 1)) & low) << 1
        c = _walk(L, u, span)[1:]
        return int(c[-1] == min(c) and any(f2b[s >> shift_r] for s in c))

    return f3


# ---------------------------------------------------------------------------
# circuit toggle fields

def _min_tree(b: Builder, words: list) -> list:
    while len(words) > 1:
        nxt = [b.min_word(words[i], words[i + 1])
               for i in range(0, len(words) - 1, 2)]
        if len(words) % 2:
            nxt.append(words[-1])
        words = nxt
    return words[0]


def alg1_f3_circuit(ell: int, f0: Circuit) -> Circuit:
    """Gate-level irreducibility toggle field; one f0 instance per chain step."""
    r = f0.arity
    m = 4 * ell
    span = 6 * ell
    half = 3 * ell
    b = Builder(m - 1)
    x = b.inputs()
    zero = b.const0()
    one = b.const1()
    us, vs = _gate_walks(b, [[zero] + x, [one] + x], 2 * ell, span)
    a_wires = [b.embed(f0, us[i][m - r:])[0] for i in range(1, span + 1)]
    b_wires = [b.embed(f0, vs[i][m - r:])[0] for i in range(1, span + 1)]

    def orbit_flag(state):
        w = [b.NOT(state[0])] + state[1:]
        chain = _gate_walks(b, [w], 2 * ell, span)[0]
        mn = _min_tree(b, chain[1:])
        fixed = b.equal(chain[half], w)
        moved_min = b.NOT(b.equal(chain[span], mn))
        return b.OR(fixed, moved_min)

    cs = [orbit_flag(us[i]) for i in range(1, span + 1)]
    ds = [orbit_flag(vs[i]) for i in range(1, span + 1)]
    u_min = _min_tree(b, us[1:])
    v_min = _min_tree(b, vs[1:])

    def qflag(chain, mn, flags):
        conj = [b.NOT(mn[0])] + mn[1:]
        t = _gate_walks(b, [conj], 2 * ell, half)[0][-1]
        return b.and_chain([b.and_chain(flags),
                            b.equal(chain[ell], mn),
                            b.equal(t, conj)])

    qu = qflag(us, u_min, cs)
    qv = qflag(vs, v_min, ds)
    u_ret = b.equal(us[0], us[half])
    v_ret = b.equal(vs[0], vs[half])
    u_at_min = b.equal(us[span], u_min)
    v_at_min = b.equal(vs[span], v_min)
    case1 = b.and_chain([u_ret, u_at_min, b.or_chain(a_wires)])
    case2 = b.and_chain([v_ret, v_at_min, b.or_chain(b_wires)])
    case3 = b.and_chain([b.NOT(u_ret), b.NOT(v_ret),
                         b.or_chain([u_at_min, v_at_min, qu, qv])])
    return b.build(b.or_chain([case1, case2, case3]))


def alg2_f3_circuit(ell: int, f2c: Circuit) -> Circuit:
    """Gate-level indecomposability toggle field."""
    r = f2c.arity
    m2 = 2 * ell
    span = 3 * ell
    b = Builder(m2)
    xw = b.inputs()
    first = b.xor(b.xor(xw[m2 - 1], xw[ell - 1]), xw[0])
    u = [first] + [b.xor(xw[i], xw[i + 1]) for i in range(m2 - 1)]
    chain = _gate_walks(b, [u], ell, span)[0]
    hits = [b.embed(f2c, chain[i][m2 - r:])[0] for i in range(1, span + 1)]
    mn = _min_tree(b, chain[1:])
    return b.build(b.AND(b.equal(chain[span], mn), b.or_chain(hits)))


def _wrap_feedback(f3c: Circuit, p: GF2Poly) -> Circuit:
    """Lift a toggle-field circuit on (x1..x_{n-1}) to the feedback of the
    toggled linear register of p on (x0..x_{n-1}), n = deg p, by XORing in
    the taps of p, highest first.

    The toggle circuit's gates are kept, shifted by one vertex to make
    room for the extra x0 input: its kinds are copied and both operand
    columns moved by one in bulk.  Each tap then costs one five-gate XOR.
    """
    stage, taps = p.degree, tap_mask(p)
    if f3c.arity != stage - 1:
        raise ValueError("toggle field arity must be stage - 1")
    gates = slice(stage - 1, None)
    b = Builder(stage)
    b.kinds += f3c.kinds[gates]
    b.a += _plus_one(f3c.a[gates])
    b.b += _plus_one(f3c.b[gates])
    out = f3c.sink + 1
    for tap in range(stage - 1, -1, -1):
        if taps >> tap & 1:
            out = b.xor(tap, out, fresh=True)
    return b.build(out)


def _plus_one(col: array) -> array:
    """col with 1 added to every entry, as one big-integer addition over
    its bytes: no entry is its type's maximum, so no carry crosses into
    the next entry."""
    order = sys.byteorder
    ones = array(col.typecode, [1]) * len(col)
    total = int.from_bytes(col, order) + int.from_bytes(ones, order)
    return array(col.typecode, total.to_bytes(len(col) * col.itemsize, order))


# ---------------------------------------------------------------------------
# instances

@dataclass
class SizeReport:
    """Measured circuit sizes next to the guaranteed ceiling.

    f1_size counts all vertices including inputs; f1_gates excludes the
    inputs.  formula_value is the closed-form vertex count the bound is
    derived from (wiring-dependent, reported for comparison only).
    """

    kind: str
    r: int
    k: int
    ell: int
    f0_size: int
    f3_size: int
    f1_size: int
    f1_gates: int
    bound: int
    bound_ok: bool
    formula_value: int | None

    def lines(self) -> list:
        closed = "n/a" if self.formula_value is None else str(self.formula_value)
        return [
            f"kind={self.kind} r={self.r} k={self.k} ell={self.ell}",
            f"f0-size={self.f0_size}",
            f"f3-size={self.f3_size}",
            f"f1-size={self.f1_size} f1-gates={self.f1_gates}",
            f"size-bound={self.bound} within-bound={self.bound_ok}",
            f"closed-form={closed}",
        ]


@dataclass
class ReductionInstance:
    """One built instance: the register plus both toggle-field forms."""

    kind: str             # "irr" or "dec"
    f0: Circuit
    r: int
    k: int
    ell: int
    fsr: Fsr
    f3_semantic: object   # int -> bit
    f3_table: tuple | None
    f3_circuit: Circuit | None
    f1_circuit: Circuit | None
    size_report: SizeReport | None
    f2_circuit: Circuit | None = None
    f2_table: TruthTable | None = None

    @property
    def stage(self) -> int:
        return self.fsr.stage


def alg1_size_bound(f0_size: int) -> int:
    return 37908 * f0_size ** 4


def alg1_size_formula(ell: int, f0_size: int) -> int:
    return (12 * ell * f0_size + 7488 * ell ** 4 + 4752 * ell ** 3
            - 856 * ell ** 2 + 274 * ell + 69)


def alg2_size_bound(f0_size: int) -> int:
    return 264 * f0_size ** 3


def _toggled_linear(p: GF2Poly, f3, tabulate: bool) -> tuple:
    """(register, f3 table or None): the register whose feedback is the
    linear feedback of p XOR the toggle field f3 on the state's upper
    bits (x1..x_{n-1}).  Tabulated, f3 is evaluated once per window and
    the register is checked to be nonsingular; otherwise both are lazy."""
    n = p.degree
    lin = lfsr_of(p)
    if not tabulate:
        return Fsr(n, fn=lambda s: lin.feedback_bit(s) ^ f3(s >> 1)), None
    f3_tab = tuple(f3(x) for x in range(1 << (n - 1)))
    # entry s of the field's table is f3(s >> 1): each entry twice
    field = bytearray(1 << n)
    field[0::2] = field[1::2] = f3_tab
    fsr = Fsr(n, table=xor_bits(lin.table, field))
    if not is_nonsingular(fsr):
        raise InvariantError("toggled linear register is singular")
    return fsr, f3_tab


def build_irreducibility_fsr(f0: Circuit, build_circuit: bool = None
                             ) -> ReductionInstance:
    """The 4*ell-stage register that is irreducible iff f0 is satisfiable."""
    r = f0.arity
    k, ell = ell_for(r)
    p2 = LfsrFamily.for_ell(ell).p2
    f0_tt = f0.truth_table()
    f3 = alg1_f3_semantic(ell, f0_tt)
    if build_circuit is None:
        build_circuit = ell <= EXHAUSTIVE_ELL_BOUND
    fsr, f3_tab = _toggled_linear(p2, f3, ell <= EXHAUSTIVE_ELL_BOUND)

    f3c = f1c = report = None
    if build_circuit:
        f3c = alg1_f3_circuit(ell, f0)
        f1c = _wrap_feedback(f3c, p2)
        bound = alg1_size_bound(f0.size)
        report = SizeReport(
            kind="irr", r=r, k=k, ell=ell, f0_size=f0.size,
            f3_size=f3c.size, f1_size=f1c.size, f1_gates=f1c.gate_count,
            bound=bound, bound_ok=f1c.size < bound,
            formula_value=alg1_size_formula(ell, f0.size))
    return ReductionInstance(kind="irr", f0=f0, r=r, k=k, ell=ell, fsr=fsr,
                             f3_semantic=f3, f3_table=f3_tab, f3_circuit=f3c,
                             f1_circuit=f1c, size_report=report)


def build_indecomposability_fsr(f0: Circuit, build_circuit: bool = None
                                ) -> ReductionInstance:
    """The (2*ell+1)-stage register that is indecomposable iff f0 is
    satisfiable; on unsatisfiable inputs it is exactly the linear register
    of (x+1) * (x^(2*ell) + x^ell + 1)."""
    r = f0.arity
    k, ell = ell_for(r)
    p1 = LfsrFamily.for_ell(ell).p1
    f2t = f2_table(f0.truth_table())
    f3 = alg2_f3_semantic(ell, f2t)
    if build_circuit is None:
        build_circuit = ell <= EXHAUSTIVE_ELL_BOUND
    fsr, f3_tab = _toggled_linear(p1, f3, ell <= EXHAUSTIVE_ELL_BOUND)

    f2c = f2_transform(f0)
    f3c = f1c = report = None
    if build_circuit:
        f3c = alg2_f3_circuit(ell, f2c)
        f1c = _wrap_feedback(f3c, p1)
        bound = alg2_size_bound(f0.size)
        report = SizeReport(
            kind="dec", r=r, k=k, ell=ell, f0_size=f0.size,
            f3_size=f3c.size, f1_size=f1c.size, f1_gates=f1c.gate_count,
            bound=bound, bound_ok=f1c.size <= bound,
            formula_value=None)
    return ReductionInstance(kind="dec", f0=f0, r=r, k=k, ell=ell, fsr=fsr,
                             f3_semantic=f3, f3_table=f3_tab, f3_circuit=f3c,
                             f1_circuit=f1c, size_report=report,
                             f2_circuit=f2c, f2_table=f2t)


# ---------------------------------------------------------------------------
# proof-side bookkeeping for the irreducibility form

class Alg1Oracle:
    """Cycle bookkeeping over the quartic-trinomial linear register.

    Holds, for every cycle of x^(4*ell)+x^(2*ell)+1: its period, least
    window, the long-cycle set, the deferred subset D, the representative
    map rho, and the marking predicate lam built from rho.
    """

    def __init__(self, ell: int):
        if ell > EXHAUSTIVE_ELL_BOUND:
            raise ValueError(f"oracle enumerates 2^(4*ell) states; ell <= "
                             f"{EXHAUSTIVE_ELL_BOUND} only")
        self.ell = ell
        self.family = LfsrFamily.for_ell(ell)
        self.m = 4 * ell
        lin = lfsr_of(self.family.p2)
        seeds, bits, cycle_id = state_cycles(lin)   # seeds: the least windows
        self._cycle_id = cycle_id
        self._period = [len(b) for b in bits]
        self._cycle_obj = [Cycle(b) for b in bits]
        self._obj_to_id = {c: i for i, c in enumerate(self._cycle_obj)}
        long_period = 6 * ell

        def short(cid):
            return self._period[cid] != long_period

        # D: least window's conjugate sits on a short cycle, less the cycles
        # holding the conjugate of a long cycle's least window.
        d_ids = ({cid for cid, v in enumerate(seeds) if short(cycle_id[v ^ 1])}
                 - {cycle_id[v ^ 1] for cid, v in enumerate(seeds)
                    if not short(cid)})
        self._d_ids = d_ids
        rho = []
        for cid, v in enumerate(seeds):
            if cid in d_ids:
                v = _walk(lin.step_int, v, 5 * ell)[-1]
            rho.append(v)
        self._rho = rho
        rho_set = set(rho)
        self._lam = bytearray(len(cycle_id))
        for v in rho:
            if not short(cycle_id[v ^ 1]):
                self._lam[v] = 1

        # the two structural facts about D and rho
        e1_cid = cycle_id[1]
        for cid in d_ids:
            if short(cid):
                raise InvariantError("deferred set contains a short cycle")
            tgt = cycle_id[rho[cid] ^ 1]
            if short(tgt) or tgt in d_ids:
                raise InvariantError("deferred representative's conjugate "
                                     "does not reach a plain long cycle")
        for cid in range(len(seeds)):
            if (rho[cid] ^ 1) in rho_set and cid not in (cycle_id[0], e1_cid):
                raise InvariantError("conjugate of a representative is a "
                                     "representative off the zero/unit cycles")

    # -- queries -------------------------------------------------------------

    @property
    def cycles(self) -> CycleStructure:
        return CycleStructure(self._cycle_obj)

    @property
    def c6(self) -> frozenset:
        return frozenset(c for c in self._cycle_obj if c.period == 6 * self.ell)

    @property
    def d_set(self) -> frozenset:
        return frozenset(self._cycle_obj[cid] for cid in self._d_ids)

    def cycle_of(self, v) -> Cycle:
        return self._cycle_obj[self._cycle_id[int(v)]]

    def rho(self, c: Cycle) -> BitVec:
        return BitVec(self._rho[self._obj_to_id[c]], self.m)

    def lam(self, v) -> int:
        return self._lam[int(v)]

    def lam_table(self) -> list:
        return list(self._lam)

    def p0_side(self, c: Cycle) -> bool:
        return c.period != 6 * self.ell


def f3_reference_irr(ell: int, f0: Circuit, oracle: Alg1Oracle = None):
    """The three-branch characterization of the irreducibility toggle
    field via rho and the long-cycle set; must agree with the built one."""
    if oracle is None:
        oracle = Alg1Oracle(ell)
    if oracle.ell != ell:
        raise ValueError("oracle built for a different ell")
    r = f0.arity
    m = 4 * ell
    f0b = f0.truth_table().bits()
    shift_r = m - r
    cid_of = oracle._cycle_id
    rho = oracle._rho
    period = oracle._period
    long_period = 6 * ell
    hit = bytearray(len(period))    # hit[cid]: f0 is 1 on some window of cid
    for v, cid in enumerate(cid_of):
        if f0b[v >> shift_r]:
            hit[cid] = 1

    def ref(x: int) -> int:
        for v in (x << 1, (x << 1) | 1):
            cid = cid_of[v]
            if rho[cid] != v:
                continue
            if period[cid] == long_period:
                if period[cid_of[v ^ 1]] == long_period:
                    return 1
            elif hit[cid]:
                return 1
        return 0

    return ref


# ---------------------------------------------------------------------------
# proof-side bookkeeping for the indecomposability form

class Alg2Maps:
    """The window-difference map, the three-tap parity, and the marking
    predicate for the indecomposability form, over (2*ell+1)-bit states;
    p0_step and p1_step are the state maps of the family's linear
    registers on 2*ell and 2*ell+1 bits."""

    def __init__(self, ell: int):
        if ell > EXHAUSTIVE_ELL_BOUND:
            raise ValueError(f"maps enumerate 2^(2*ell+1) states; ell <= "
                             f"{EXHAUSTIVE_ELL_BOUND} only")
        self.ell = ell
        self.stage = 2 * ell + 1
        self._pi_mask = (1 << (2 * ell)) - 1
        fam = LfsrFamily.for_ell(ell)
        self.p0_step = linear_step(fam.p0)
        self.p1_step = linear_step(fam.p1)

    def pi_int(self, v: int) -> int:
        return (v ^ (v >> 1)) & self._pi_mask

    def chi(self, v) -> int:
        v = int(v)
        return (v ^ (v >> self.ell) ^ (v >> (2 * self.ell))) & 1

    def lam(self, v) -> int:
        v = int(v)
        if self.chi(v):
            return 0
        c = _walk(self.p0_step, self.pi_int(v), 3 * self.ell)
        return int(c[0] == min(c[1:]))

    def lam_table(self) -> list:
        return [self.lam(v) for v in range(1 << self.stage)]


def f3_reference_dec(ell: int, f2_tt: TruthTable, maps: Alg2Maps = None):
    """The marked-representative characterization of the indecomposability
    toggle field; must agree with the built one pointwise."""
    if maps is None:
        maps = Alg2Maps(ell)
    r = f2_tt.arity
    m2 = 2 * ell
    f2b = f2_tt.bits()
    shift_r = m2 - r

    def ref(x: int) -> int:
        y = (((x >> (m2 - 1)) ^ (x >> (ell - 1))) & 1) | (x << 1)
        if not maps.lam(y):
            return 0
        v = y
        while True:
            if f2b[maps.pi_int(v) >> shift_r]:
                return 1
            v = maps.p1_step(v)
            if v == y:
                return 0

    return ref
