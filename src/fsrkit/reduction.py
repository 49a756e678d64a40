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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress

from .bitvec import prefix_xor
from .circuit import STATE_BOUND, Builder, Circuit, TruthTable
from .fsr import (Cycle, CycleStructure, Fsr, InvariantError, is_nonsingular,
                  state_cycles)
from .lfsr import GF2Poly, LfsrFamily, lfsr_of, linear_step, tap_mask

EXHAUSTIVE_ELL_BOUND = 3
#: the largest ell at which the irreducibility form's gate-level circuit
#: is built (stage 36, tens of millions of vertices); at ell = 27 it would
#: take about 4*10^9
IRR_CIRCUIT_ELL_BOUND = 9


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
    """Pin the all-zero input to 0, moving any witness there onto all-ones:
    bit 0 of the mask is cleared and ORed into bit 2^r - 1."""
    mask = f0_tt.mask
    return TruthTable(f0_tt.arity,
                      mask >> 1 << 1 | (mask & 1) << (1 << f0_tt.arity) - 1)


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
    f2b = f2_tt.bits()
    low = (1 << (m2 - 1)) - 1
    L = linear_step(LfsrFamily.for_ell(ell).p0)

    def f3(x: int) -> int:
        u = ((x >> (m2 - 1)) ^ (x >> (ell - 1)) ^ x) & 1
        u |= ((x ^ (x >> 1)) & low) << 1
        c = _walk(L, u, span)[1:]
        return int(c[-1] == min(c) and any(f2b[s >> shift_r] for s in c))

    return f3


@lru_cache(maxsize=None)
def _family_orbits(p: GF2Poly, span: int) -> tuple:
    """(ids, seeds, bits) of one sweep of the linear register of p, a
    family polynomial (fsr.orbits): each state's orbit index, each orbit's
    least state, and the low bits of its states from that seed on.  The
    toggle tables read a walk of span steps as the whole of its orbit, so
    a period that does not divide span raises InvariantError."""
    seeds, bits, ids = state_cycles(lfsr_of(p))
    if any(span % len(b) for b in bits):
        raise InvariantError(f"a period of {p} does not divide {span}")
    return ids, seeds, bits


@lru_cache(maxsize=None)
def _alg1_orbit_marks(ell: int) -> tuple:
    """(marks, ret_states) for _alg1_f3_table at ell: its f0-free part, as
    bytes over the (4*ell - 1)-bit windows, and (s, seed window) for each
    state s whose p2 period divides 3*ell."""
    ids, seeds, bits = _family_orbits(LfsrFamily.for_ell(ell).p2, 6 * ell)
    m = 4 * ell
    ret = [3 * ell % len(b) == 0 for b in bits]
    # orbits holding a u whose conjugate u ^ 1 is a non-ret orbit's seed
    flagged = {ids[t ^ 1] for t, r in zip(seeds, ret) if not r}
    marks = bytearray(1 << (m - 1))
    for i, t in enumerate(seeds):
        if ret[i]:
            continue
        states = [t]
        if ret[ids[t ^ 1]] and i not in flagged:
            # the state ell steps before the seed, read off the orbit's bits
            b, period = bits[i], len(bits[i])
            k = -ell % period
            states.append(sum(b[(k + j) % period] << j for j in range(m)))
        for s in states:
            if not ret[ids[s ^ 1]]:
                marks[s >> 1] = 1
    return bytes(marks), [(s, seeds[i] >> 1) for s, i in enumerate(ids)
                          if ret[i]]


def _alg1_f3_table(ell: int, f0_tt: TruthTable) -> bytes:
    """alg1_f3_semantic's table over all (4*ell - 1)-bit windows, from the
    p2 orbits.

    p2 = p0^2, so every p2 period divides 6*ell and the walks from 2x and
    2x + 1 are their whole orbits.  Call s ret when its period divides
    3*ell.  Then f3(x) is 1 exactly when, for some s in {2x, 2x + 1}:
    (a) s is ret, its orbit's least state, and f0 is 1 on a state of its
    orbit; or (b) neither 2x nor 2x + 1 is ret, and s is its orbit's least
    state t, or lies ell steps before t when t ^ 1 is ret and no state u
    of the orbit has u ^ 1 the least state of a non-ret orbit.  Part (b)
    does not read f0 and is made once per ell (_alg1_orbit_marks); each
    table adds the seeds of the ret orbits f0 hits."""
    marks, ret_states = _alg1_orbit_marks(ell)
    shift_r = 4 * ell - f0_tt.arity
    f0b = f0_tt.bits()
    table = bytearray(marks)
    for s, x in ret_states:
        if f0b[s >> shift_r]:
            table[x] = 1
    return bytes(table)


def _alg2_f3_table(ell: int, f2_tt: TruthTable) -> bytes:
    """alg2_f3_semantic's table over all 2*ell-bit windows, from the p0
    orbits.

    Every p0 period divides 3*ell, so the walk from u = u(x) is all of u's
    orbit: f3(x) is 1 exactly when u is its orbit's least state and f2 is
    1 on some state of the orbit.  The map x -> u is a linear bijection of
    the windows, with x_i = x_0 ^ u_1 ^ ... ^ u_i, so the table is 1 at
    the preimages of the hit orbits' seeds and 0 elsewhere."""
    ids, seeds, _ = _family_orbits(LfsrFamily.for_ell(ell).p0, 3 * ell)
    m2 = 2 * ell
    shift_r = m2 - f2_tt.arity
    hit = bytearray(len(seeds))     # hit[i]: f2 is 1 on a state of orbit i
    f2b = f2_tt.bits()
    for w in compress(range(len(f2b)), f2b):
        for i in ids[w << shift_r:(w + 1) << shift_r]:
            hit[i] = 1
    ones = (1 << m2) - 1
    table = bytearray(1 << m2)
    for u in compress(seeds, hit):
        p = prefix_xor(u >> 1, m2 - 1) << 1     # bit i: u_1 ^ ... ^ u_i
        x0 = (u ^ p >> (m2 - 1) ^ p >> (ell - 1)) & 1
        table[p ^ ones if x0 else p] = 1
    return bytes(table)


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
    """Gate-level irreducibility toggle field; one f0 instance per chain
    step.  Above IRR_CIRCUIT_ELL_BOUND it is refused before any gate is
    built."""
    if ell > IRR_CIRCUIT_ELL_BOUND:
        raise ValueError(
            f"an irreducibility circuit at ell={ell} (stage {4 * ell}) is "
            f"past the bound ell <= {IRR_CIRCUIT_ELL_BOUND} "
            f"(stage {4 * IRR_CIRCUIT_ELL_BOUND})")
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

    The toggle circuit, which a Builder must have made, is spliced in one
    vertex up, over x1..x_{n-1} (Builder.splice).  Each tap then costs one
    five-gate XOR, so the result has the size that _feedback_size reads
    off the toggle circuit, and a result that does not raises
    InvariantError.
    """
    stage, taps = p.degree, tap_mask(p)
    if f3c.arity != stage - 1:
        raise ValueError("toggle field arity must be stage - 1")
    b = Builder(stage)
    out, = b.splice(f3c)      # a toggle field has one output
    for tap in range(stage - 1, -1, -1):
        if taps >> tap & 1:
            out = b.xor(tap, out, fresh=True)
    f1c = b.build(out)
    if (f1c.size, f1c.gate_count) != _feedback_size(f3c, p):
        raise InvariantError("feedback circuit size differs from its count")
    return f1c


def _feedback_size(f3c: Circuit, p: GF2Poly) -> tuple:
    """(size, gate count) of _wrap_feedback(f3c, p): one more input, and
    one fresh five-gate XOR per tap of p."""
    xors = 5 * tap_mask(p).bit_count()
    return f3c.size + 1 + xors, f3c.gate_count + xors


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
    """One instance of a kind, "irr" or "dec", over its circuit f0: r, k,
    ell, the family polynomial poly (p2 or p1) and its degree, the stage,
    are worked out here, and every further part when first read, and kept.

    fsr and f3_table come from one tabulation of the toggle field, as
    bytes, read off the family orbits: the p2 orbits (_alg1_f3_table) for
    "irr" and the p0 orbits (_alg2_f3_table) for "dec"; f3_semantic,
    which walks window by window, is not made.  f3_table is that table
    as a tuple, made when read; a stage above STATE_BOUND has neither
    (both read None).  f3_circuit is the gate-level toggle field, and
    size_report reads the feedback circuit's size off it; above
    IRR_CIRCUIT_ELL_BOUND the irreducibility form refuses both on each
    read, before any gate is built.  The feedback circuit itself is made
    anew on each feedback_circuit() call.
    """

    kind: str
    f0: Circuit

    def __post_init__(self):
        self.r = self.f0.arity
        self.k, self.ell = ell_for(self.r)
        fam = LfsrFamily.for_ell(self.ell)
        # an unknown kind raises KeyError
        self.poly = {"irr": fam.p2, "dec": fam.p1}[self.kind]
        self.stage = self.poly.degree

    @cached_property
    def f2_table(self) -> TruthTable | None:
        """The normalized table of f0 (f2_table) for "dec"; None for "irr"."""
        return f2_table(self.f0.truth_table()) if self.kind == "dec" else None

    @cached_property
    def f3_semantic(self):
        """The semantic toggle field, int -> bit (alg1's or alg2's)."""
        if self.kind == "irr":
            return alg1_f3_semantic(self.ell, self.f0.truth_table())
        return alg2_f3_semantic(self.ell, self.f2_table)

    @cached_property
    def _toggled(self) -> tuple:
        if self.stage > STATE_BOUND:
            return None, None
        if self.kind == "dec":
            f3_tab = _alg2_f3_table(self.ell, self.f2_table)
        else:
            f3_tab = _alg1_f3_table(self.ell, self.f0.truth_table())
        return _toggled_linear(self.poly, f3_tab), f3_tab

    @property
    def fsr(self) -> Fsr | None:
        return self._toggled[0]

    @cached_property
    def f3_table(self) -> tuple | None:
        f3_tab = self._toggled[1]
        return None if f3_tab is None else tuple(f3_tab)

    @cached_property
    def f3_circuit(self) -> Circuit:
        """The gate-level toggle field: alg1's over f0, or alg2's over the
        normalized f0 (f2_transform)."""
        if self.kind == "irr":
            return alg1_f3_circuit(self.ell, self.f0)
        return alg2_f3_circuit(self.ell, f2_transform(self.f0))

    @cached_property
    def size_report(self) -> SizeReport:
        """f3_circuit's size and the feedback circuit's, against the
        form's ceiling (strict for "irr")."""
        f3c = self.f3_circuit
        f1_size, f1_gates = _feedback_size(f3c, self.poly)
        n = self.f0.size
        if self.kind == "irr":
            bound = alg1_size_bound(n)
            bound_ok, formula = f1_size < bound, alg1_size_formula(self.ell, n)
        else:
            bound = alg2_size_bound(n)
            bound_ok, formula = f1_size <= bound, None
        return SizeReport(
            kind=self.kind, r=self.r, k=self.k, ell=self.ell, f0_size=n,
            f3_size=f3c.size, f1_size=f1_size, f1_gates=f1_gates,
            bound=bound, bound_ok=bound_ok, formula_value=formula)

    def feedback_circuit(self) -> Circuit:
        """The register's feedback circuit f1: f3_circuit wrapped with the
        taps of poly.  Made anew on each call."""
        return _wrap_feedback(self.f3_circuit, self.poly)


def alg1_size_bound(f0_size: int) -> int:
    return 37908 * f0_size ** 4


def alg1_size_formula(ell: int, f0_size: int) -> int:
    return (12 * ell * f0_size + 7488 * ell ** 4 + 4752 * ell ** 3
            - 856 * ell ** 2 + 274 * ell + 69)


def alg2_size_bound(f0_size: int) -> int:
    return 264 * f0_size ** 3


def _toggled_linear(p: GF2Poly, f3_tab: bytes) -> Fsr:
    """The register whose feedback is the linear feedback of p XOR the
    toggle field on the state's upper bits (x1..x_{n-1}), given as its
    bytes over those windows; it is checked to be nonsingular."""
    table = bytearray(lfsr_of(p).table)
    # the field at state s is f3(s >> 1): each window x toggles 2x and 2x + 1
    for x in compress(range(len(f3_tab)), f3_tab):
        table[2 * x] ^= 1
        table[2 * x + 1] ^= 1
    fsr = Fsr(p.degree, table=table)
    if not is_nonsingular(fsr):
        raise InvariantError("toggled linear register is singular")
    return fsr


def build_irreducibility_fsr(f0: Circuit) -> ReductionInstance:
    """The 4*ell-stage instance whose register is irreducible iff f0 is
    satisfiable; its parts are made when first read (ReductionInstance)."""
    return ReductionInstance("irr", f0)


def build_indecomposability_fsr(f0: Circuit) -> ReductionInstance:
    """The (2*ell+1)-stage instance whose register is indecomposable iff
    f0 is satisfiable; on unsatisfiable inputs the register is exactly
    the linear register of (x+1) * (x^(2*ell) + x^ell + 1).  Its parts are
    made when first read (ReductionInstance)."""
    return ReductionInstance("dec", f0)


# ---------------------------------------------------------------------------
# proof-side bookkeeping for the irreducibility form

class Alg1Oracle:
    """Cycle bookkeeping over the quartic-trinomial linear register.

    Holds, for every cycle of x^(4*ell)+x^(2*ell)+1: its period, least
    window, the long-cycle set, the deferred subset D, the representative
    map rho, and the marking predicate lam built from rho.  The linear
    register it sweeps is kept as base, the base of the join graph over
    p2@ell.
    """

    def __init__(self, ell: int):
        if ell > EXHAUSTIVE_ELL_BOUND:
            raise ValueError(f"oracle enumerates 2^(4*ell) states; ell <= "
                             f"{EXHAUSTIVE_ELL_BOUND} only")
        self.ell = ell
        self.family = LfsrFamily.for_ell(ell)
        self.base = lfsr_of(self.family.p2)
        # seeds: the least windows
        seeds, bits, cycle_id = state_cycles(self.base)
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
                v = _walk(self.base.step_int, v, 5 * ell)[-1]
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

    def rho(self, c: Cycle) -> int:
        return self._rho[self._obj_to_id[c]]

    def lam(self, v: int) -> int:
        return self._lam[v]

    def lam_table(self) -> bytes:
        return bytes(self._lam)

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
    """The window-difference map pi, the three-tap parity chi, and the
    marking predicate lam for the indecomposability form, over
    (2*ell+1)-bit states; base is the linear register of p1, the base of
    the join graph over p1@ell.

    Like Alg1Oracle it makes each family register once and sweeps it at
    most once with state_cycles: the p0 sweep's orbit seeds, marked in a
    bytearray, give lam, held as bytes, and base is swept when
    f3_reference_dec or a join graph first reads its orbits.  A stage
    above STATE_BOUND is refused, so ell = 9 (stage 19) is the largest
    built.
    """

    def __init__(self, ell: int):
        fam = LfsrFamily.for_ell(ell)       # refuses an ell below 1 first
        self.ell = ell
        self.stage = 2 * ell + 1
        if self.stage > STATE_BOUND:
            raise ValueError(f"maps enumerate 2^{self.stage} states; stage "
                             f"{self.stage} is past the state bound "
                             f"{STATE_BOUND}")
        self._pi_mask = mask = (1 << (2 * ell)) - 1
        seed = bytearray(1 << (2 * ell))    # 1 at each p0 orbit's least state
        for u in state_cycles(lfsr_of(fam.p0))[0]:
            seed[u] = 1
        self.base = lfsr_of(fam.p1)
        # lam(v) = [chi(v) = 0 and pi(v) is its p0 orbit's seed].  The seed
        # test is the 3*ell-step walk c from u = pi(v) testing c[0] ==
        # min(c[1:]): every p0 period divides 3*ell, so c[1:] is all of u's
        # orbit, and its least state is the seed
        self._lam = bytes(
            not (v ^ v >> ell ^ v >> 2 * ell) & 1
            and seed[(v ^ v >> 1) & mask] for v in range(1 << self.stage))

    def pi_int(self, v: int) -> int:
        return (v ^ (v >> 1)) & self._pi_mask

    def chi(self, v: int) -> int:
        return (v ^ (v >> self.ell) ^ (v >> (2 * self.ell))) & 1

    def lam(self, v: int) -> int:
        return self._lam[v]

    def lam_table(self) -> bytes:
        return self._lam


def f3_reference_dec(ell: int, f2_tt: TruthTable, maps: Alg2Maps = None):
    """The marked-representative characterization of the indecomposability
    toggle field; must agree with the built one pointwise."""
    if maps is None:
        maps = Alg2Maps(ell)
    if maps.ell != ell:
        raise ValueError("maps built for a different ell")
    m2 = 2 * ell
    f2b = f2_tt.bits()
    shift_r = m2 - f2_tt.arity
    mask = maps._pi_mask
    ids = state_cycles(maps.base)[2]
    hit = bytearray(len(ids))   # hit[i]: f2 is 1 at pi of a state of orbit i
    for v, i in enumerate(ids):
        if f2b[((v ^ v >> 1) & mask) >> shift_r]:
            hit[i] = 1

    def ref(x: int) -> int:
        y = (((x >> (m2 - 1)) ^ (x >> (ell - 1))) & 1) | (x << 1)
        return maps.lam(y) & hit[ids[y]]

    return ref
