"""Feedback shift registers: state maps, cycle structure, products, cascades.

An n-stage register holds state (x0, ..., x_{n-1}) and clocks to
(x1, ..., x_{n-1}, f1(x0, ..., x_{n-1})).  Its characteristic function is
f(x0, ..., xn) = xn ^ f1(x0, ..., x_{n-1}); a register is nonsingular when
the state map is a bijection, equivalently when f1 = x0 ^ g(x1, ..., x_{n-1}).

States are integers under the low-bit-first encoding, so one step is
(s >> 1) | (f1(s) << (n-1)) and the bit shifted out (s & 1) is the output.
Periodic output sequences are kept as Cycle values: the minimal-period bit
string in its lexicographically least rotation.

Every orbit walk in the package goes through `orbits`, which splits a
permutation of range(n) into its orbits; an orbit's cycle is the low bit of
each of its states in turn (`orbit_cycle`).  Code that asks which cycle
holds a state reads `state_cycles`, the one per-state index of a
register's orbits.
"""

from __future__ import annotations

import os
from array import array

from .bitvec import FLIP, BitVec, as_bits, bits_to_digits, digits_to_bits, mask_to_bits
from .circuit import (STATE_BOUND, Circuit, decimal, parse_circuit, read_text,
                      significant_lines, write_circuit)


class InvariantError(RuntimeError):
    """An internal result failed the check that must always hold for it."""


class FsrParseError(ValueError):
    """Raised on malformed register text; carries the offending line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# ---------------------------------------------------------------------------
# cycles

def _least_rotation_index(b: bytes) -> int:
    """Start of the least rotation of b: the last start below len(b) of a
    factor in the Lyndon factorisation of b + b (Duval's scan; O(p) steps
    and no per-position list)."""
    p = len(b)
    bb = b + b
    i = 0
    while True:
        j, k = i + 1, i
        while j < 2 * p and bb[k] <= bb[j]:
            k = i if bb[k] < bb[j] else k + 1
            j += 1
        nxt = i + (j - k) * ((k - i) // (j - k) + 1)
        if nxt >= p:
            return i
        i = nxt


class Cycle:
    """A cyclic bit sequence in canonical form.

    Canonical form is the minimal period's lexicographically least
    rotation, held as bytes of 0/1; construction reduces and rotates, so
    equal cyclic sequences compare equal.  An entry other than 0 or 1
    raises ValueError.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = as_bits(bits)
        if not bits:
            raise ValueError("empty cycle")
        # bits first recurs in bits + bits at an offset of its minimal period
        bits = bits[:(bits + bits).find(bits, 1)]
        k = _least_rotation_index(bits)
        object.__setattr__(self, "bits", bits[k:] + bits[:k])

    def __setattr__(self, name, val):
        raise AttributeError("Cycle is immutable")

    @classmethod
    def parse(cls, text: str) -> "Cycle":
        return cls(digits_to_bits(text.strip()))

    @property
    def period(self) -> int:
        return len(self.bits)

    def complement(self) -> "Cycle":
        return Cycle(b ^ 1 for b in self.bits)

    def window_ints(self, k: int) -> set:
        """All k-windows (wrapping modulo the period) as integers."""
        if k < 1:
            raise ValueError("window width must be >= 1")
        bits = self.bits
        p = len(bits)
        top = k - 1
        w = 0
        for t in range(top, -1, -1):
            w = (w << 1) | bits[t % p]
        out = {w}
        # slide by one: drop bit 0, bring in the bit k positions on
        for i in range(k, k + p - 1):
            w = (w >> 1) | (bits[i % p] << top)
            out.add(w)
        return out

    def windows(self, k: int) -> frozenset:
        return frozenset(BitVec(w, k) for w in self.window_ints(k))

    def sort_key(self):
        return (len(self.bits), self.bits)

    def __eq__(self, other):
        if not isinstance(other, Cycle):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        return bits_to_digits(self.bits)

    def __repr__(self):
        return f"Cycle('{self}')"


def ell_sampling(cycle, ell: int, offset: int = 0) -> BitVec:
    """The stride-ell subsequence of a cyclic bit string, starting at offset.

    Accepts a Cycle (sampled in its canonical rotation) or an explicit bit
    sequence, sampled in the rotation as written; the length must be a
    multiple of the stride.
    """
    if isinstance(cycle, Cycle):
        cycle = cycle.bits
    bits = digits_to_bits(cycle) if isinstance(cycle, str) else as_bits(cycle)
    p = len(bits)
    if ell < 1 or p % ell != 0:
        raise ValueError(f"length {p} is not a multiple of stride {ell}")
    if not 0 <= offset < p:
        raise ValueError("offset out of range")
    return BitVec.from_bits((bits + bits)[offset:offset + p:ell])


class CycleStructure:
    """A finite set of distinct cycles; typically a partition of B^n."""

    __slots__ = ("cycles",)

    def __init__(self, cycles):
        object.__setattr__(self, "cycles", frozenset(cycles))
        if not self.cycles:
            raise ValueError("empty cycle structure")

    def __setattr__(self, name, val):
        raise AttributeError("CycleStructure is immutable")

    @property
    def total(self) -> int:
        return sum(c.period for c in self.cycles)

    def sorted(self) -> list:
        return sorted(self.cycles, key=Cycle.sort_key)

    def __iter__(self):
        return iter(self.sorted())

    def __len__(self):
        return len(self.cycles)

    def __contains__(self, c):
        return c in self.cycles

    def __le__(self, other):
        return self.cycles <= other.cycles

    def __eq__(self, other):
        if not isinstance(other, CycleStructure):
            return NotImplemented
        return self.cycles == other.cycles

    def __hash__(self):
        return hash(self.cycles)

    def format_listing(self) -> str:
        """One cycle per line: period, a space, the canonical bits."""
        return "\n".join(f"{c.period} {c}" for c in self.sorted()) + "\n"

    @classmethod
    def parse_listing(cls, text: str) -> "CycleStructure":
        cycles = {}     # cycle -> the line that lists it
        for lineno, toks, _ in significant_lines(text):
            if not toks:                # past the last line
                break
            if len(toks) != 2:
                raise FsrParseError("expected 'period bits'", lineno)
            try:
                period, c = decimal(toks[0]), Cycle.parse(toks[1])
            except ValueError:
                raise FsrParseError("expected an integer period and 0/1 bits",
                                    lineno) from None
            if c.period != period:
                raise FsrParseError(
                    f"stated period {toks[0]} != minimal period {c.period}", lineno)
            if c in cycles:
                raise FsrParseError(f"repeats the cycle of line {cycles[c]}", lineno)
            cycles[c] = lineno
        if not cycles:
            raise FsrParseError("empty cycle structure", lineno or 1)
        return cls(cycles)

    def __repr__(self):
        return f"CycleStructure({self.sorted()!r})"


# ---------------------------------------------------------------------------
# the register itself

class Fsr:
    """An n-stage register given by its feedback logic.

    Backed by a truth table (bytes of length 2^n), a Python callable, or a
    Circuit; the table is materialized on demand.  No stage above
    STATE_BOUND has a table: one given is refused here, and a sweep reads
    `table` first.  Nothing here mutates a register after construction.
    """

    __slots__ = ("stage", "_table", "_fn", "circuit")

    def __init__(self, stage: int, table=None, fn=None, circuit: Circuit = None):
        if stage < 1:
            raise ValueError("stage must be >= 1")
        if table is None and fn is None and circuit is None:
            raise ValueError("need a feedback table, callable or circuit")
        if circuit is not None and circuit.arity != stage:
            raise ValueError(f"feedback arity {circuit.arity} != stage {stage}")
        self.stage = stage
        self._fn = fn
        self.circuit = circuit
        if table is not None:
            table = self._coerce_table(stage, table)
        self._table = table

    @staticmethod
    def _coerce_table(stage, table) -> bytes:
        if stage > STATE_BOUND:     # before 1 << stage is computed
            raise ValueError(f"stage {stage} exceeds state bound {STATE_BOUND}")
        n = 1 << stage
        if isinstance(table, int):
            if not 0 <= table < (1 << n):
                raise ValueError("table mask out of range")
            return mask_to_bits(table, n)
        data = as_bits(table)
        if len(data) != n:
            raise ValueError(f"table needs {n} entries, got {len(data)}")
        return data

    @property
    def table(self) -> bytes:
        """The feedback truth table, materializing it if necessary."""
        if self._table is None:
            if self.stage > STATE_BOUND:
                raise ValueError(f"stage {self.stage} exceeds state bound {STATE_BOUND}")
            if self.circuit is not None:
                self._table = mask_to_bits(self.circuit.output_masks()[0],
                                           1 << self.stage)
            else:
                self._table = bytes(
                    self._fn(s) & 1 for s in range(1 << self.stage))
        return self._table

    def feedback_bit(self, s: int) -> int:
        if not 0 <= s < 1 << self.stage:
            raise ValueError(f"state {s} out of range for stage {self.stage}")
        if self._table is not None:
            return self._table[s]
        if self._fn is not None:
            return self._fn(s) & 1
        return self.circuit.evaluate(BitVec(s, self.stage))

    def step_int(self, s: int) -> int:
        return (s >> 1) | (self.feedback_bit(s) << (self.stage - 1))

    def complement(self) -> "Fsr":
        """The register whose characteristic function is flipped."""
        return Fsr(self.stage, table=self.table.translate(FLIP))

    def __eq__(self, other):
        if not isinstance(other, Fsr):
            return NotImplemented
        return self.stage == other.stage and self.table == other.table

    def __hash__(self):
        return hash((self.stage, self.table))

    def __repr__(self):
        return f"Fsr(stage={self.stage})"


def step(f: Fsr, s: BitVec) -> BitVec:
    """One clock of the state map."""
    if s.width != f.stage:
        raise ValueError(f"state width {s.width} != stage {f.stage}")
    return BitVec(f.step_int(s.value), f.stage)


def is_nonsingular(f: Fsr) -> bool:
    """Bijectivity of the state map, by the criterion f1(s ^ 1) == f1(s) ^ 1
    for every state; `orbits` checks the bijection on every walk."""
    tbl = f.table
    return tbl[1::2] == tbl[0::2].translate(FLIP)


def orbits(succ, n: int):
    """Yield the orbits of a permutation succ of range(n), each as the list
    of its states in stepping order.  Seeds ascend, so each orbit starts at
    its least state.  A walk that stops anywhere but at its seed shows that
    succ is not a permutation, and raises InvariantError."""
    visited = bytearray(n)
    for seed in range(n):
        if visited[seed]:
            continue
        orbit = []
        s = seed
        while not visited[s]:
            visited[s] = 1
            orbit.append(s)
            s = succ(s)
        if s != seed:
            raise InvariantError(f"not a permutation: {seed} leads to {s}")
        yield orbit


def orbit_cycle(orbit) -> Cycle:
    """The output cycle of an orbit: the low bit of each state in turn."""
    return Cycle(s & 1 for s in orbit)


def state_orbits(f: Fsr):
    """The orbits of a nonsingular register's state map (see `orbits`);
    each orbit's states are exactly the stage-windows of its cycle."""
    if not is_nonsingular(f):
        raise ValueError("singular register has no cycle partition")
    tbl = f.table
    top = f.stage - 1
    return orbits(lambda s: (s >> 1) | (tbl[s] << top), 1 << f.stage)


def state_cycles(f: Fsr) -> tuple:
    """(orbits, ids): the orbits of `state_orbits(f)` as a list, and ids[s]
    the index in it of the orbit through state s."""
    orbs = list(state_orbits(f))
    ids = [0] * (1 << f.stage)
    for i, orbit in enumerate(orbs):
        for s in orbit:
            ids[s] = i
    return orbs, ids


def cycle_structure(f: Fsr) -> CycleStructure:
    """Partition all 2^n states of a nonsingular register into cycles."""
    return CycleStructure(orbit_cycle(o) for o in state_orbits(f))


# ---------------------------------------------------------------------------
# building registers from cycle sets

def _union_windows(cycles, k: int) -> set:
    out = set()
    for c in cycles:
        out |= c.window_ints(k)
    return out


def window_injectivity_equiv_check(cycles, m: int) -> tuple:
    """The three equivalent window statements, each computed directly:
    (i) |union of m-windows| equals the period sum,
    (ii) dropping the first bit is injective on the (m+1)-windows,
    (iii) dropping the last bit is injective on the (m+1)-windows.
    """
    cycles = list(cycles)
    total = sum(c.period for c in cycles)
    stmt1 = len(_union_windows(cycles, m)) == total

    wins = _union_windows(cycles, m + 1)
    low_mask = (1 << m) - 1
    stmt2 = len({w >> 1 for w in wins}) == len(wins)
    stmt3 = len({w & low_mask for w in wins}) == len(wins)
    return (stmt1, stmt2, stmt3)


def realizable_as_fsr(cycles, m: int) -> bool:
    """Can this cycle set be exactly the cycle partition of an m-stage
    register?  Needs period sum 2^m and injective window extension."""
    cycles = list(cycles)
    if sum(c.period for c in cycles) != (1 << m):
        return False
    wins = _union_windows(cycles, m + 1)
    return len({w >> 1 for w in wins}) == len(wins)


def fsr_from_cycles(cycles, m: int) -> Fsr:
    """The unique m-stage register whose cycle structure is the given set."""
    cycles = list(cycles)
    if sum(c.period for c in cycles) != (1 << m):
        raise ValueError("period sum is not 2^m")
    table = [None] * (1 << m)
    low_mask = (1 << m) - 1
    for w in _union_windows(cycles, m + 1):
        v = w & low_mask
        b = w >> m
        if table[v] is not None and table[v] != b:
            raise ValueError("cycle set is not realizable: window conflict")
        table[v] = b
    if any(b is None for b in table):
        raise ValueError("cycle set is not realizable: uncovered state")
    return Fsr(m, table=table)


def toggle_feedback(f: Fsr, u: BitVec) -> Fsr:
    """Flip the feedback at the conjugate state pair whose last stage-1
    bits equal u: joins the two cycles through the pair, or splits one."""
    if f.stage < 2:
        raise ValueError("toggle needs stage >= 2")
    if u.width != f.stage - 1:
        raise ValueError(f"selector width {u.width} != stage-1")
    table = bytearray(f.table)
    table[2 * u.value] ^= 1
    table[2 * u.value + 1] ^= 1
    return Fsr(f.stage, table=bytes(table))


# ---------------------------------------------------------------------------
# products and cascades

def window_images(g: Fsr, width: int):
    """Yield, for x = 0, 1, ..., 2^(width + k) - 1 with k = g.stage, the
    window image w(x) of x under g, whose bit i is x_{i+k} ^ g1(x_i..
    x_{i+k-1}), as it is read.  Bit i of w(x) is bit i - 1 of w(x >> 1), so
    the first half of the images is kept, at 4 bytes each."""
    k, g1 = g.stage, g.table
    mask, mask_k, half = (1 << width) - 1, (1 << k) - 1, 1 << (width + k - 1)
    ws = array("I", [mask if g1[0] else 0])
    yield ws[0]
    for x in range(1, 2 * half):
        w = ((ws[x >> 1] << 1) & mask) | (((x >> k) & 1) ^ g1[x & mask_k])
        if x < half:
            ws.append(w)
        yield w


def product_fsr(f: Fsr, g: Fsr) -> Fsr:
    """The register whose characteristic function is f composed over a
    sliding window of g evaluations; stage is the sum of stages."""
    n, m = f.stage, g.stage
    if n + m > STATE_BOUND:
        raise ValueError(f"product stage {n + m} exceeds state bound")
    f1, g1 = f.table, g.table
    return Fsr(n + m, table=bytes(g1[x >> n] ^ f1[w] for x, w in
                                  enumerate(window_images(g, n))))


def simulate_cascade(f: Fsr, g: Fsr) -> CycleStructure:
    """Drive the two-register machine in which f's output bit is XORed
    into g's feedback, over all joint states; collect the cycles of the
    output sequences read off g's low stage."""
    n, m = f.stage, g.stage
    if n + m > 20:
        raise ValueError("cascade sweep capped at 20 joint stages")
    if not (is_nonsingular(f) and is_nonsingular(g)):
        raise ValueError("cascade sweep needs nonsingular registers")
    f1 = f.table
    g1 = g.table
    top_f = n - 1
    top_g = m - 1
    mask_m = (1 << m) - 1

    def succ(j):
        # joint state (x << m) | y; the output is y's low bit, j's low bit
        x, y = j >> m, j & mask_m
        y2 = (y >> 1) | ((g1[y] ^ (x & 1)) << top_g)
        x2 = (x >> 1) | (f1[x] << top_f)
        return (x2 << m) | y2

    return CycleStructure(orbit_cycle(o) for o in orbits(succ, 1 << (n + m)))


# ---------------------------------------------------------------------------
# text format

def write_fsr(f: Fsr) -> str:
    """STAGE header plus the feedback table as one 0/1 digit per state."""
    return f"STAGE {f.stage}\nFEEDBACK TABLE {bits_to_digits(f.table)}\n"


def write_fsr_circuit(f: Fsr) -> str:
    """STAGE header plus the feedback circuit inline."""
    if f.circuit is None:
        raise ValueError("register has no circuit form")
    return f"STAGE {f.stage}\nFEEDBACK CIRCUIT\n" + write_circuit(f.circuit)


def parse_fsr(text: str, base_dir: str = ".") -> Fsr:
    """Parse the register text format.

    Line 1: ``STAGE n``.  Line 2: either ``FEEDBACK TABLE <digits>`` with
    one 0/1 digit per state, index order, or ``FEEDBACK CIRCUIT [path]``;
    with no path the circuit text follows inline until end of file.
    """
    lines = significant_lines(text)
    lineno, toks, _ = next(lines)
    if not toks:
        raise FsrParseError("missing STAGE line", lineno or 1)
    if toks[0] != "STAGE" or len(toks) != 2:
        raise FsrParseError("expected 'STAGE n'", lineno)
    try:
        stage = decimal(toks[1])
    except ValueError:
        raise FsrParseError(f"bad stage {toks[1]!r}", lineno) from None
    if stage < 1:
        raise FsrParseError("stage must be >= 1", lineno)

    lineno, toks, end = next(lines)
    lines.close()       # frees the block it holds before a circuit is read
    if not toks:
        raise FsrParseError("missing FEEDBACK line", lineno)
    if toks[0] != "FEEDBACK" or len(toks) < 2:
        raise FsrParseError("expected a FEEDBACK line", lineno)
    if toks[1] == "TABLE":
        if len(toks) != 3:
            raise FsrParseError("FEEDBACK TABLE takes one digit string", lineno)
        digits = toks[2]
        # compare lengths without building 2^stage from an untrusted stage
        size = len(digits)
        if size & (size - 1) or size.bit_length() - 1 != stage:
            raise FsrParseError(
                f"table needs 2^{stage} digits, got {size}", lineno)
        try:
            table = digits_to_bits(digits)
        except ValueError:
            raise FsrParseError("table digits must be 0 or 1", lineno) from None
        return Fsr(stage, table=table)
    if toks[1] == "CIRCUIT":
        if len(toks) == 3:
            path = os.path.join(base_dir, toks[2])
            # a device, FIFO or directory would be read without end, or block
            if not os.path.isfile(path):
                raise FsrParseError(f"cannot read circuit {toks[2]!r}: not a "
                                    f"regular file", lineno)
            try:
                body = read_text(path)
            except (OSError, ValueError) as e:   # ValueError: NUL, bad UTF-8, too long
                raise FsrParseError(f"cannot read circuit {toks[2]!r}: {e}",
                                    lineno) from None
            circ = parse_circuit(body)
        elif len(toks) == 2:
            circ = parse_circuit(text, end, lineno + 1)
        else:
            raise FsrParseError("FEEDBACK CIRCUIT takes at most one path", lineno)
        if circ.arity != stage:
            raise FsrParseError(
                f"feedback arity {circ.arity} != stage {stage}", lineno)
        return Fsr(stage, circuit=circ)
    raise FsrParseError(f"unknown feedback kind {toks[1]!r}", lineno)
