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
permutation of range(n) into its orbits and keeps, per orbit, its least
state and the low bit of each of its states in turn (the orbit's output
cycle), and per state the index of its orbit.  `state_cycles` is that
walk over a nonsingular register's state map; the proof-side maps of both
reductions read their orbits from it.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from itertools import chain, repeat

from .bitvec import FLIP, as_bits, bits_to_digits, digits_to_bits, mask_to_bits
from .circuit import (STATE_BOUND, Circuit, CircuitParseError, InvariantError,
                      as_pieces, circuit_pieces, decimal, parse_circuit,
                      piece_lines, read_text)


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


class CycleStructure:
    """A finite set of distinct cycles; typically a partition of B^n."""

    __slots__ = ("cycles",)

    def __init__(self, cycles):
        object.__setattr__(self, "cycles", frozenset(cycles))
        if not self.cycles:
            raise ValueError("empty cycle structure")

    def __setattr__(self, name, val):
        raise AttributeError("CycleStructure is immutable")

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

    def __repr__(self):
        return f"CycleStructure({self.sorted()!r})"


# ---------------------------------------------------------------------------
# the register itself

def _check_stage(stage: int) -> None:
    if stage > STATE_BOUND:
        raise ValueError(f"stage {stage} exceeds state bound {STATE_BOUND}")


class Fsr:
    """An n-stage register: its stage and its feedback truth table f1, as
    bytes of 0/1 with entry s the feedback bit of state s.

    The table is given whole, as a 0/1 sequence or an integer mask, and
    checked here; a register text's feedback circuit is tabulated when it
    is read (parse_fsr).  No stage above STATE_BOUND has a table, so none
    has a register: it is refused here before 2^stage is computed.
    Nothing here mutates a register after construction.
    """

    __slots__ = ("stage", "table")

    def __init__(self, stage: int, table):
        if stage < 1:
            raise ValueError("stage must be >= 1")
        _check_stage(stage)     # before 1 << stage is computed
        n = 1 << stage
        if isinstance(table, int):
            if not 0 <= table < (1 << n):
                raise ValueError("table mask out of range")
            table = mask_to_bits(table, n)
        else:
            table = as_bits(table)
            if len(table) != n:
                raise ValueError(f"table needs {n} entries, got {len(table)}")
        self.stage = stage
        self.table = table

    def feedback_bit(self, s: int) -> int:
        if not 0 <= s < 1 << self.stage:
            raise ValueError(f"state {s} out of range for stage {self.stage}")
        return self.table[s]

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


def is_nonsingular(f: Fsr) -> bool:
    """Bijectivity of the state map, by the criterion f1(s ^ 1) == f1(s) ^ 1
    for every state; `orbits` checks the bijection on every walk."""
    tbl = f.table
    return tbl[1::2] == tbl[0::2].translate(FLIP)


def orbits(succ, n: int) -> tuple:
    """(seeds, bits, ids) for a permutation succ of range(n).  seeds[i] is
    the least state of orbit i, and seeds ascend; bits[i] holds the low bit
    of each of its states in stepping order from the seed; ids, an
    array('i'), holds at s the index of the orbit through s (it is -1 until
    s is visited, so the next seed is the next state still at -1).  A walk
    that does not return to its seed shows that succ is not a permutation,
    and raises InvariantError."""
    ids = array("i", [-1]) * n
    seeds, bits = [], []
    # a walk back to its seed meets no earlier orbit and no state twice, so
    # it takes at most `left` steps; that bound, not a read of ids per step,
    # keeps the 4-byte ids as fast to walk as a bytearray of marks
    left = n
    for seed in range(n):
        if ids[seed] >= 0:
            continue
        i = len(seeds)
        out = bytearray()
        s = seed
        for _ in repeat(None, left):
            ids[s] = i
            out.append(s & 1)
            s = succ(s)
            if s == seed:
                break
        else:
            raise InvariantError(f"not a permutation: {seed} does not recur")
        left -= len(out)
        seeds.append(seed)
        bits.append(bytes(out))
    return seeds, bits, ids


def state_cycles(f: Fsr) -> tuple:
    """`orbits` over a nonsingular register's state map: (seeds, bits, ids).
    Each orbit's states are exactly the stage-windows of its cycle, and
    seeds[i] is the least of them."""
    if not is_nonsingular(f):
        raise ValueError("singular register has no cycle partition")
    tbl = f.table
    top = f.stage - 1
    return orbits(lambda s: (s >> 1) | (tbl[s] << top), 1 << f.stage)


def cycle_structure(f: Fsr) -> CycleStructure:
    """Partition all 2^n states of a nonsingular register into cycles."""
    return CycleStructure(map(Cycle, state_cycles(f)[1]))


# ---------------------------------------------------------------------------
# building registers from cycle sets

def _union_windows(cycles, k: int) -> set:
    out = set()
    for c in cycles:
        out |= c.window_ints(k)
    return out


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
        raise ValueError(f"product stage {n + m} exceeds state bound {STATE_BOUND}")
    f1, g1 = f.table, g.table
    return Fsr(n + m, table=bytes(g1[x >> n] ^ f1[w] for x, w in
                                  enumerate(window_images(g, n))))


def simulate_cascade(f: Fsr, g: Fsr) -> CycleStructure:
    """Drive the two-register machine in which f's output bit is XORed
    into g's feedback, over all joint states; collect the cycles of the
    output sequences read off g's low stage."""
    n, m = f.stage, g.stage
    if n + m > STATE_BOUND:
        raise ValueError(f"cascade stage {n + m} exceeds state bound {STATE_BOUND}")
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

    return CycleStructure(map(Cycle, orbits(succ, 1 << (n + m))[1]))


# ---------------------------------------------------------------------------
# text format

def fsr_pieces(f: Fsr) -> tuple:
    """The register text of a table: the STAGE header and the feedback
    table as one 0/1 digit per state, in three pieces, the digit string
    alone in the middle, so a file can be written without a second copy
    of it."""
    return f"STAGE {f.stage}\nFEEDBACK TABLE ", bits_to_digits(f.table), "\n"


def fsr_circuit_pieces(stage: int, circ: Circuit):
    """The register text of a feedback circuit, the STAGE header plus the
    circuit inline, as an iterator of pieces: the header, then
    circuit_pieces.  A circuit whose arity is not the stage is refused
    here, before the first piece."""
    if circ.arity != stage:
        raise ValueError(f"feedback arity {circ.arity} != stage {stage}")
    return chain((f"STAGE {stage}\nFEEDBACK CIRCUIT\n",), circuit_pieces(circ))


def parse_fsr(text, base_dir: str = ".") -> Fsr:
    """Parse the register text format.

    Line 1: ``STAGE n``.  Line 2: either ``FEEDBACK TABLE <digits>`` with
    one 0/1 digit per state, index order, or ``FEEDBACK CIRCUIT [path]``;
    with no path the circuit text follows inline until end of file.
    ``text`` is a str or read_text's pieces (see parse_circuit); the pieces
    are read to the end whatever the form, so a file that read_text refuses
    is refused here too.
    """
    pieces = as_pieces(text)
    lines = piece_lines(pieces)
    lineno, toks, _, _ = next(lines)
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

    lineno, toks, piece, end = next(lines)
    lines.close()       # frees the block it holds before a circuit is read
    if not toks:
        raise FsrParseError("missing FEEDBACK line", lineno)
    if toks[0] != "FEEDBACK" or len(toks) < 2:
        raise FsrParseError("expected a FEEDBACK line", lineno)
    if toks[1] == "CIRCUIT" and len(toks) == 2:
        # an iterator over (piece,) lets the tuple go once it is read, where
        # chain's own arguments would keep it to the end
        rest = chain(iter((piece,)), pieces)
        del piece       # so parse_circuit frees each piece once read
        return _circuit_register(stage, parse_circuit(rest, end, lineno + 1), lineno)
    del piece
    deque(pieces, maxlen=0)     # read the rest, which this form ignores
    if toks[1] == "TABLE":
        if len(toks) != 3:
            raise FsrParseError("FEEDBACK TABLE takes one digit string", lineno)
        # compare lengths without building 2^stage from an untrusted stage
        size = len(toks[2])
        if size & (size - 1) or size.bit_length() - 1 != stage:
            raise FsrParseError(
                f"table needs 2^{stage} digits, got {size}", lineno)
        try:
            # the token is dropped once encoded, so at most two copies of
            # the digits are held: the token and its bytes, then the bytes
            # and the table
            table = digits_to_bits(toks.pop().encode("ascii", "replace"))
        except ValueError:
            raise FsrParseError("table digits must be 0 or 1", lineno) from None
        return Fsr(stage, table=table)
    if toks[1] != "CIRCUIT":
        raise FsrParseError(f"unknown feedback kind {toks[1]!r}", lineno)
    if len(toks) != 3:
        raise FsrParseError("FEEDBACK CIRCUIT takes at most one path", lineno)
    path = os.path.join(base_dir, toks[2])
    # a device, FIFO or directory would be read without end, or block
    if not os.path.isfile(path):
        raise FsrParseError(f"cannot read circuit {toks[2]!r}: not a "
                            f"regular file", lineno)
    try:
        circ = parse_circuit(read_text(path))
    except CircuitParseError:
        raise
    except (OSError, ValueError) as e:   # ValueError: NUL, bad UTF-8, too long
        raise FsrParseError(f"cannot read circuit {toks[2]!r}: {e}",
                            lineno) from None
    return _circuit_register(stage, circ, lineno)


def _circuit_register(stage: int, circ: Circuit, lineno: int) -> Fsr:
    """The register of a feedback circuit, tabulated; a stage above
    STATE_BOUND is refused before the circuit is evaluated."""
    if circ.arity != stage:
        raise FsrParseError(
            f"feedback arity {circ.arity} != stage {stage}", lineno)
    _check_stage(stage)
    return Fsr(stage, table=circ.output_masks()[0])
