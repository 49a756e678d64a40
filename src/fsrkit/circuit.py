"""Boolean circuits over the AND/OR/NOT gate alphabet.

A circuit is a topologically ordered list of vertices: INPUT vertices
(one per input, created eagerly so the vertex count always includes all
inputs) followed by gates with fan-in 2 (AND, OR) or 1 (NOT).  Most
circuits have a single designated sink; gadget blocks such as the
integer-minimum block expose several output wires instead.

The vertices are stored column-wise (see Circuit): a bytes of kind codes
and two unsigned int arrays of operands.  The reductions build circuits
of hundreds of thousands of vertices, so the layers that handle whole
circuits (counting, the minimum blocks, the text format) work on whole
columns with C-level operations rather than one Python step per vertex.

Size convention: ``size`` counts every vertex including inputs, which is
the convention the rest of the package relies on for gadget bookkeeping.
``gate_count`` counts non-input vertices only; claims quoted in "gates"
(XOR = 5, word equality <= 6m) are about ``gate_count``.

Satisfiability and truth tables are computed by exhaustive scan, batched
as bitmask integers (one bit per assignment), for at most STATE_BOUND
inputs.  When keeping every lane to the end would hold more than
LIVE_LANE_BYTES, one of two passes runs instead.  The freeing pass drops
each lane after its last reader, so it holds only the live frontier.  The
wave pass runs where the lanes it keeps fit LIVE_LANE_BYTES: it takes the
stamped integer-minimum blocks from the circuit's record of them, and the
blocks of one depth and width run together through the freeing pass of
the block recorded for that width (_min_block), their lanes packed side
by side in one integer per wire, so each template gate is one Python step
per group instead of one per copy.  A lane from one block to another
stays bytes.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from operator import getitem, itemgetter, lt

from .bitvec import bits_to_mask, mask_to_bits

#: the most inputs or stages swept: a 2^n-entry table is refused above it
STATE_BOUND = 24

#: a lane pass that would keep more bytes of lanes than this (vertices times
#: lane bits / 8) frees each lane after its last reader; below it finding
#: the last readers costs more time than the freed memory saves
LIVE_LANE_BYTES = 1 << 26

#: read_text refuses a longer file: 256 MiB, far above any the package writes
READ_BYTES_BOUND = 1 << 28

#: read_text reads this many bytes at a time
_READ_BYTES = 1 << 20

#: the bulk passes over a circuit's text (writing and parsing it) take this
#: many vertices, or lines, at a time, so their temporaries stay small next
#: to the circuit
BLOCK_VERTICES = 1 << 12

#: the vertex kinds; parsed circuits share these strings
IN, AND, OR, NOT = "IN", "AND", "OR", "NOT"

#: their codes in Circuit.kinds
_IN, _AND, _OR, _NOT = range(4)


class InvariantError(RuntimeError):
    """An internal result failed the check that must always hold for it."""


class CircuitParseError(ValueError):
    """Raised on malformed circuit text; carries the offending line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class TruthTable:
    """Output bits of an r-input Boolean function, indexed by input value.

    Stored as an integer mask: bit j is the output on the input vector
    whose integer encoding is j.
    """

    __slots__ = ("arity", "mask")

    def __init__(self, arity: int, mask: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if not 0 <= mask < (1 << (1 << arity)):
            raise ValueError("mask out of range for arity")
        self.arity = arity
        self.mask = mask

    @classmethod
    def from_bits(cls, bits) -> "TruthTable":
        bits = list(bits)
        n = len(bits)
        arity = n.bit_length() - 1
        if n != (1 << arity) or n < 2:
            raise ValueError("bit count must be a power of two >= 2")
        return cls(arity, bits_to_mask(bits))

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < (1 << self.arity):
            raise IndexError(j)
        return (self.mask >> j) & 1

    def bits(self) -> list:
        return list(mask_to_bits(self.mask, 1 << self.arity))

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.arity == other.arity and self.mask == other.mask

    def __hash__(self):
        return hash((self.arity, self.mask))

    def __repr__(self):
        return f"TruthTable.from_bits({self.bits()})"


def input_lanes(r: int) -> list:
    """Lane i holds input i over all 2^r assignments: bit j is (j >> i) & 1.

    Each lane repeats 2^i zeros then 2^i ones; the pattern is doubled up to
    2^r bits, so building a lane is linear in its width.
    """
    total = 1 << r
    lanes = []
    for i in range(r):
        width = 2 << i
        lane = ((1 << (1 << i)) - 1) << (1 << i)
        while width < total:
            lane |= lane << width
            width <<= 1
        lanes.append(lane)
    return lanes


class Circuit:
    """A DAG of INPUT/AND/OR/NOT vertices in topological order.

    The vertices are stored as three columns: ``kinds`` (bytes, one kind
    code per vertex: 0 IN, 1 AND, 2 OR, 3 NOT) and the operand arrays
    ``a`` and ``b``.  A gate's operands are indices of earlier vertices;
    an IN vertex holds its input index.  IN and NOT vertices have one
    operand and store it in both columns, so shifting both columns moves
    every vertex alike.  ``nodes`` lists the vertices as tuples: ("IN", i),
    ("AND", a, b), ("OR", a, b) or ("NOT", a), kinds being the shared
    IN/AND/OR/NOT strings; the constructor takes any such sequence.
    ``outputs`` holds one vertex index per output wire; a plain circuit has
    exactly one.

    A circuit is valid by construction: the constructor checks each tuple,
    the Builder each operand it is given, and the parser each line or block
    of text, so no pass over a whole circuit checks it again.

    ``stamps`` records the minimum blocks of width m >= 2 in the columns:
    an array('I') holding, per stamp in id order, its first id and then
    its 2m wires, and the bytes of the widths m.  A Builder records each
    block it stamps; a circuit made from tuples or text gets the record
    _scan_stamps finds in its columns, once, when it is made.  The wave
    pass takes its blocks from the record (_min_blocks).  The columns and
    the record are read only in this module.
    """

    __slots__ = ("arity", "kinds", "a", "b", "outputs", "stamps")

    def __init__(self, arity: int, nodes, outputs: tuple):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        kinds, a, b = [], [], []
        for k, node in enumerate(nodes):
            op = node[0]
            if op == AND or op == OR:
                x, y = node[1], node[2]
                if not (0 <= x < k and 0 <= y < k):
                    raise ValueError(f"operand of node {k} is not an earlier node")
                kinds.append(_AND if op == AND else _OR)
            elif op == NOT:
                x = y = node[1]
                if not 0 <= x < k:
                    raise ValueError(f"operand of node {k} is not an earlier node")
                kinds.append(_NOT)
            elif op == IN:
                x = y = node[1]
                if not 0 <= x < arity:
                    raise ValueError(f"input index {x} >= arity {arity}")
                kinds.append(_IN)
            else:
                raise ValueError(f"unknown vertex kind {op!r}")
            a.append(x)
            b.append(y)
        kinds, a, b = bytes(kinds), array("I", a), array("I", b)
        self._set(arity, kinds, a, b, outputs, _scan_stamps(kinds, a, b))

    @classmethod
    def _from_columns(cls, arity: int, kinds: bytes, a: array, b: array,
                      outputs: tuple, stamps: tuple) -> "Circuit":
        """A circuit over columns that are already a valid vertex list, with
        their record of stamps: the Builder checks every operand it is
        given, and the parser checks every block it reads in bulk."""
        c = cls.__new__(cls)
        c._set(arity, kinds, a, b, outputs, stamps)
        return c

    def _set(self, arity, kinds, a, b, outputs, stamps):
        self.arity = arity
        self.kinds = kinds
        self.a = a
        self.b = b
        self.stamps = stamps
        self.outputs = tuple(outputs)
        if not self.outputs:
            raise ValueError("circuit needs at least one output")
        for o in self.outputs:
            if not 0 <= o < len(kinds):
                raise ValueError("output reference out of range")

    @property
    def nodes(self) -> list:
        return [(AND, x, y) if op == _AND else
                (NOT, x) if op == _NOT else
                (OR, x, y) if op == _OR else
                (IN, x)
                for op, x, y in zip(self.kinds, self.a, self.b)]

    # -- accounting ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Vertex count, inputs included."""
        return len(self.kinds)

    @property
    def gate_count(self) -> int:
        """Non-input vertex count."""
        return len(self.kinds) - self.kinds.count(_IN)

    @property
    def sink(self) -> int:
        if len(self.outputs) != 1:
            raise ValueError("circuit has more than one output")
        return self.outputs[0]

    # -- evaluation ---------------------------------------------------------

    def _run(self, in_vals, full) -> list:
        """One topological pass; in_vals[i] is the value fed to input i.

        Values are integers treated as bit-parallel lanes; ``full`` is the
        all-ones lane mask used for NOT.  Returns the output wires' values.

        A pass that keeps every lane within LIVE_LANE_BYTES is the plain
        pass.  Past that, the wave pass runs if the circuit has stamped
        minimum blocks and the lanes it keeps fit LIVE_LANE_BYTES (see
        _Waves); otherwise the freeing pass does.
        """
        bits = full.bit_length()
        if len(self.kinds) * bits <= 8 * LIVE_LANE_BYTES:
            return self._run_all(in_vals, full)
        waves = _Waves.plan(self, LIVE_LANE_BYTES // ((bits + 7) // 8))
        if waves is None:
            return self._run_live(in_vals, full)
        return waves.run(in_vals, full)

    def _run_all(self, in_vals, full) -> list:
        """The plain pass: every lane is kept until the pass ends."""
        vals = []
        put = vals.append
        for op, x, y in zip(self.kinds, self.a, self.b):
            if op == _AND:
                put(vals[x] & vals[y])
            elif op == _OR:
                put(vals[x] | vals[y])
            elif op == _NOT:
                put(vals[x] ^ full)
            else:
                put(in_vals[x])
        return [vals[o] for o in self.outputs]

    def _last_readers(self) -> array:
        """Per vertex, the id of the last gate that reads it: its own id if
        none does, and the vertex count if it is an output wire."""
        kinds, a, b = self.kinds, self.a, self.b
        n = len(kinds)
        last = array("I", range(n))
        for k, op, x, y in zip(range(n), kinds, a, b):
            if op:
                last[x] = k
                last[y] = k
        for o in self.outputs:
            last[o] = n
        return last

    def _run_live(self, in_vals, full, last: array = None) -> list:
        """The freeing pass: a lane is dropped right after its last reader,
        so only the live frontier is held.  Output wires are kept.  ``last``
        is _last_readers(), found here unless the caller holds it."""
        kinds, a, b = self.kinds, self.a, self.b
        ids = range(len(kinds))
        if last is None:
            last = self._last_readers()
        vals = [None] * len(kinds)
        for k, op, x, y in zip(ids, kinds, a, b):
            if op == _IN:
                vals[k] = in_vals[x]
            else:
                if op == _NOT:
                    vals[k] = vals[x] ^ full
                else:
                    if op == _AND:
                        vals[k] = vals[x] & vals[y]
                    else:
                        vals[k] = vals[x] | vals[y]
                    if last[y] == k:
                        vals[y] = None
                if last[x] == k:
                    vals[x] = None
            if last[k] == k:
                vals[k] = None
        return [vals[o] for o in self.outputs]

    def output_masks(self) -> list:
        """Evaluate all 2^arity assignments at once.

        Returns one integer per output wire; bit j of it is that output's
        value on the input vector encoding j.
        """
        r = self.arity
        if r > STATE_BOUND:
            raise ValueError(f"arity {r} exceeds state bound {STATE_BOUND}")
        return self._run(input_lanes(r), (1 << (1 << r)) - 1)

    def evaluate_batch(self, assignments) -> list:
        """Evaluate the circuit on a list of input vectors in one pass.

        Returns, per output wire, an integer whose bit j is the output on
        assignments[j] (each assignment an integer-encoded vector).  An
        assignment outside [0, 2^arity) raises ValueError.
        """
        if assignments and not (0 <= min(assignments)
                                and max(assignments) < 1 << self.arity):
            raise ValueError(f"assignment out of range for arity {self.arity}")
        in_vals = [bits_to_mask(bytes((a >> i) & 1 for a in assignments))
                   for i in range(self.arity)]
        return self._run(in_vals, (1 << len(assignments)) - 1)

    def truth_table(self) -> TruthTable:
        if len(self.outputs) != 1:
            raise ValueError("truth_table needs a single-output circuit")
        return TruthTable(self.arity, self.output_masks()[0])

    def is_satisfiable(self):
        """Exhaustive scan in integer order; the least witness as an int,
        or None.  The witness 0 is falsy: compare the result with None."""
        mask = self.truth_table().mask
        if mask == 0:
            return None
        return (mask & -mask).bit_length() - 1


class Builder:
    """Incremental circuit construction with structural sharing.

    Builds the three columns of a Circuit directly.  Identical (kind,
    operands) gates are merged by default; pass fresh=True to force a
    distinct vertex.  All ``arity`` input vertices are created up front,
    ids 0..arity-1.  A gate whose operand is not an earlier vertex raises
    ValueError when it is added, so build() has nothing left to check but
    the outputs.

    The integer-minimum block is all fresh gates, so its layout depends
    only on its width m: it is recorded once per m (``_min_block``), and
    each ``min_word`` stamps a copy by column arithmetic.  The entries
    that read the block's own gates are one big integer per operand
    column, the recorded ids shifted by the copy's first id, appended as
    bytes; only the entries that read the copy's input wires are written
    one at a time (at m = 12, 277 of 2,224).

    ``stamps`` records each stamp of width m >= 2, in Circuit.stamps's
    form: its start and 2m wires in the array, m in the widths.  build()
    hands a copy to the circuit, so no scan looks for the blocks.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.kinds = bytearray(arity)            # all IN
        self.a = array("I", range(arity))
        self.b = array("I", range(arity))
        self.stamps = (array("I"), bytearray())
        self._cache = {}

    def inp(self, i: int) -> int:
        if not 0 <= i < self.arity:
            raise ValueError(f"no input {i}")
        return i

    def inputs(self) -> list:
        return list(range(self.arity))

    def _add(self, op: int, x: int, y: int, fresh: bool) -> int:
        if not fresh:
            key = (op, x, y)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        k = len(self.kinds)
        if not (0 <= x < k and 0 <= y < k):
            raise ValueError(f"operand of node {k} is not an earlier node")
        self.kinds.append(op)
        self.a.append(x)
        self.b.append(y)
        if not fresh:
            self._cache[key] = k
        return k

    def AND(self, a: int, b: int, fresh: bool = False) -> int:
        return self._add(_AND, a, b, fresh)

    def OR(self, a: int, b: int, fresh: bool = False) -> int:
        return self._add(_OR, a, b, fresh)

    def NOT(self, a: int, fresh: bool = False) -> int:
        return self._add(_NOT, a, a, fresh)

    def xor(self, a: int, b: int, fresh: bool = False) -> int:
        """x ^ y as ((~x & y) | (~y & x)): five gates."""
        na = self.NOT(a, fresh)
        nb = self.NOT(b, fresh)
        return self.OR(self.AND(na, b, fresh), self.AND(nb, a, fresh), fresh)

    def const0(self) -> int:
        x = self.inp(0)
        return self.AND(x, self.NOT(x))

    def const1(self) -> int:
        return self.NOT(self.const0())

    def and_chain(self, wires) -> int:
        return self._chain(_AND, wires)

    def or_chain(self, wires) -> int:
        return self._chain(_OR, wires)

    def _chain(self, op: int, wires) -> int:
        wires = list(wires)
        if not wires:
            raise ValueError("empty chain")
        acc = wires[0]
        for w in wires[1:]:
            acc = self._add(op, acc, w, False)
        return acc

    def equal(self, xs, ys) -> int:
        """1 iff the two equal-width wire words agree: 6m gates when unshared."""
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys) or not xs:
            raise ValueError("word widths differ")
        diffs = [self.xor(a, b) for a, b in zip(xs, ys)]
        return self.NOT(self.or_chain(diffs))

    def mul_bit(self, a: int, word) -> list:
        """One-bit by m-bit multiply: m AND gates."""
        return [self.AND(a, w, fresh=True) for w in word]

    def min_word(self, xs, ys) -> list:
        """Integer minimum of two wire words, low bit first.

        Recursive construction: a selector on the top bits picks either the
        minimum of the low words extended by x's top bit, or x, or y.  Every
        gate is fresh, so the block costs exactly 13m + 12 vertices over the
        (m-1)-bit block, i.e. (13m^2 + 37m - 44)/2 total with its 2m inputs.

        Stamped from the block recorded for width m, one operand column at
        a time (see _MinBlock): the entries that read the block's own gates
        are the integer ``own + base * ones`` at base id ``base``, appended
        as bytes, and only the entries that read a wire are then written
        one by one.  The wires must be earlier vertices and the block's
        last id must fit a column entry, or nothing is added.
        """
        xs, ys = list(xs), list(ys)
        m = len(xs)
        if m != len(ys) or m < 1:
            raise ValueError("word widths differ")
        block = _min_block(m)
        kinds, outs = block.kinds, block.circuit.outputs
        base = len(self.kinds)
        wires = xs + ys
        if not 0 <= min(wires) <= max(wires) < base:
            raise ValueError("a word wire is not a vertex")
        if base + len(kinds) - 1 > _INDEX_MAX:
            raise ValueError(f"vertex ids past {_INDEX_MAX}")
        size = len(kinds) * _INDEX_BYTES
        cols = []
        for _, own, ones, _, slots, pos in block.forms:
            col = array("I", (own + base * ones).to_bytes(size, _BYTE_ORDER))
            reads = slots(wires)    # one wire read: a scalar
            for i, w in zip(pos, reads if len(pos) > 1 else (reads,)):
                col[i] = w
            cols.append(col)
        self.kinds += kinds
        self.a += cols[0]
        self.b += cols[1]
        if m > 1:
            at, widths = self.stamps
            at.append(base)
            at.extend(wires)
            widths.append(m)
        return [base - 2 * m + o for o in outs]     # every output is a gate

    def embed(self, circ: Circuit, input_wires) -> list:
        """Splice another circuit in, feeding its inputs from given wires."""
        input_wires = list(input_wires)
        if len(input_wires) != circ.arity:
            raise ValueError("wire count != embedded circuit arity")
        wmap = []
        put = wmap.append
        add = self._add
        for op, x, y in zip(circ.kinds, circ.a, circ.b):
            put(add(op, wmap[x], wmap[y], False) if op else input_wires[x])
        return [wmap[o] for o in circ.outputs]

    def splice(self, circ: Circuit) -> list:
        """Append circ's gates, unmerged, its input i read from vertex
        v - arity + i, v the vertex count; return its outputs' ids.  Every
        id moves alike: each operand column and circ's record move by one
        big-integer add.  ValueError, before anything is added, unless
        circ's first arity vertices are INPUT 0..arity-1 in order and no
        moved id passes _INDEX_MAX."""
        n = circ.arity
        by = len(self.kinds) - n
        kinds, a, b = circ.kinds, circ.a, circ.b
        if by < 0 or kinds[:n] != bytes(n) or a[:n] != array("I", range(n)):
            raise ValueError("a spliced circuit's inputs must be its first "
                             "vertices, in order, over the builder's last")
        if by + len(kinds) - 1 > _INDEX_MAX:
            raise ValueError(f"vertex ids past {_INDEX_MAX}")
        step = by * _ones(len(kinds) - n)
        self.kinds += memoryview(kinds)[n:]
        self.a.frombytes(_moved(memoryview(a)[n:], step))
        self.b.frombytes(_moved(memoryview(b)[n:], step))
        at, widths = circ.stamps
        self.stamps[0].frombytes(_moved(memoryview(at), by * _ones(len(at))))
        self.stamps[1].extend(widths)
        return [o + by for o in circ.outputs]

    def build(self, outputs) -> Circuit:
        if isinstance(outputs, int):
            outputs = (outputs,)
        return Circuit._from_columns(self.arity, bytes(self.kinds), self.a[:],
                                    self.b[:], tuple(outputs),
                                    (self.stamps[0][:], bytes(self.stamps[1])))


def _ones(n: int) -> int:
    """The integer whose bytes are n column entries of 1."""
    return int.from_bytes(_ONE * n, _BYTE_ORDER)


def _moved(col: memoryview, step: int) -> bytes:
    """col's bytes with each entry moved up by step / _ones(len(col)); no
    moved entry may pass _INDEX_MAX, so no carry crosses entries."""
    return (int.from_bytes(col, _BYTE_ORDER) + step).to_bytes(col.nbytes,
                                                              _BYTE_ORDER)


class _MinBlock:
    """The m-bit minimum block, recorded once per width (_min_block).

    ``circuit`` has gadget_min(m)'s columns: inputs 0..2m-1 are the wires
    xs + ys, so template slot s is vertex s, and the block's own gates
    follow.  The
    recursion of the construction is unrolled: the w-bit block is the
    (w-1)-bit block's gates followed by the gates of step w.  ``kinds``
    holds the gate kinds, ``inner`` one byte per gate (1 unless the gate
    is an output), ``last`` the circuit's last readers, which every wave
    group's freeing pass reads, and ``live`` the most lanes held at once
    while that pass runs, its 2m input lanes all counted, as the wave
    pass's caller holds them.

    ``first`` gives, per input slot, the (column, gate) of its first
    reader, where a stamp's wire is read off.  Each column's form in
    ``forms`` (mask, own, ones, at, slots, pos) holds it in bulk: read as
    one integer of _INDEX_BITS-bit entries, the column of a stamp at
    ``start``, masked to the gates that read the block's own slots, is
    ``own + start * ones``; and the entries at positions ``pos``, the gates
    that read an input slot, are the ``slots`` of the wires.  ``at`` picks
    those entries out of a column, so Builder.min_word writes and
    _stamp_wires checks the same entries."""

    __slots__ = ("circuit", "kinds", "inner", "last", "live", "first",
                 "forms")

    def __init__(self, m: int):
        b = Builder(2 * m)
        xs, ys = list(range(m)), list(range(m, 2 * m))
        out = [b.AND(xs[0], ys[0], fresh=True)]
        for w in range(1, m):
            x, y = xs[w], ys[w]
            z = out + [x]
            t = b.xor(x, y, fresh=True)
            nt = b.NOT(t, fresh=True)
            nx = b.NOT(x, fresh=True)
            ny = b.NOT(y, fresh=True)
            s1 = b.AND(t, nx, fresh=True)
            s2 = b.AND(t, ny, fresh=True)
            pz = b.mul_bit(nt, z)
            px = b.mul_bit(s1, xs[:w + 1])
            py = b.mul_bit(s2, ys[:w + 1])
            out = [b.xor(b.xor(p, q, fresh=True), r, fresh=True)
                   for p, q, r in zip(pz, px, py)]
        self.circuit = c = b.build(out)
        w = 2 * m
        self.kinds = c.kinds[w:]
        inner = bytearray(b"\1") * len(self.kinds)
        for o in out:
            inner[o - w] = 0
        self.inner = bytes(inner)
        self.last = c._last_readers()
        freed = [0] * (len(c.kinds) + 1)
        for k in self.last[w:]:
            freed[k] += 1
        held = self.live = w
        for k in range(w, len(c.kinds)):
            held += 1
            self.live = max(self.live, held)
            held -= freed[k]
        first = {}
        forms = []
        for col, slots_of in enumerate((c.a[w:], c.b[w:])):
            own = array("I", bytes(len(slots_of) * _INDEX_BYTES))
            ones = own[:]
            pos, slots = [], []
            for i, s in enumerate(slots_of):
                if s < w:
                    first.setdefault(s, (col, i))
                    pos.append(i)
                    slots.append(s)
                else:
                    own[i] = s - w
                    ones[i] = 1
            ones = int.from_bytes(ones, _BYTE_ORDER)
            forms.append(((ones << _INDEX_BITS) - ones,
                          int.from_bytes(own, _BYTE_ORDER), ones,
                          itemgetter(*pos), itemgetter(*slots), tuple(pos)))
        self.first = tuple(first[s] for s in range(w))
        self.forms = tuple(forms)


_min_block = lru_cache(maxsize=64)(_MinBlock)


# -- the wave pass ---------------------------------------------------------

def _scan_stamps(kinds, a: array, b: array) -> tuple:
    """The record (Circuit.stamps) of the minimum blocks of width m >= 2
    found in the columns.  A candidate starts where the 2-bit template's
    kinds do, which begin every wider template's, and is widened while the
    next template's kinds follow; the widest width whose operand columns
    check out (_stamp_wires) is taken."""
    head = _min_block(2).kinds
    at, widths = array("I"), bytearray()
    p = kinds.find(head)
    while p >= 0:
        top = 2
        while kinds.startswith(_min_block(top + 1).kinds, p):
            top += 1
        for m in range(top, 1, -1):
            wires = _stamp_wires(a, b, p, m)
            if wires is not None:
                at.extend((p, *wires))
                widths.append(m)
                p += len(_min_block(m).kinds) - 1
                break
        p = kinds.find(head, p + 1)
    return at, bytes(widths)


def _stamp_wires(a: array, b: array, p: int, m: int):
    """The 2m wires of a stamp of _min_block(m) at vertex p, or None
    unless the operand columns there are the template's slots mapped onto
    those wires, all before p, and onto the block's own ids."""
    block = _min_block(m)
    end = p + len(block.kinds)
    cols = (a[p:end], b[p:end])
    wires = array("I", [cols[c][i] for c, i in block.first])
    if max(wires) >= p:
        return None
    for col, (mask, own, ones, at, slots, _) in zip(cols, block.forms):
        if (int.from_bytes(col, _BYTE_ORDER) & mask != own + p * ones
                or at(col) != slots(wires)):
            return None
    return wires


def _recorded(stamps: tuple) -> list:
    """A record of stamps (Circuit.stamps) as (start, m, wires) in id
    order, the wires a slice of the record's array."""
    at, widths = stamps
    out, i = [], 0
    for m in widths:
        j = i + 1 + 2 * m
        out.append((at[i], m, at[i + 1:j]))
        i = j
    return out


def _min_blocks(circ: Circuit) -> list:
    """circ's stamps of the minimum block of width m >= 2 that the wave
    pass runs, as (start, m, wires) in id order.

    The candidates are circ's record (Circuit.stamps), each of which must
    start with its width's kinds, or InvariantError is raised.  A block one
    of whose non-output vertices is read from outside it (by a plain gate,
    as another block's wire, or as a circuit output) stays plain."""
    kinds, a, b = circ.kinds, circ.a, circ.b
    found = _recorded(circ.stamps)
    for p, m, _ in found:
        if not kinds.startswith(_min_block(m).kinds, p):
            raise InvariantError(f"no width-{m} minimum block at "
                                 f"recorded vertex {p}")
    if not found:
        return found
    inner = bytearray(len(kinds))
    reads = list(circ.outputs)
    end = 0
    for p, m, wires in found + [(len(kinds), 0, ())]:
        gates = kinds[end:p]
        reads += compress(a[end:p], gates)
        reads += compress(b[end:p], gates)
        reads += wires
        if m:
            mask = _min_block(m).inner
            end = p + len(mask)
            inner[p:end] = mask
    # one C-level gather; reads holds a block's 2m >= 4 wires, so the
    # getter returns a tuple, never a scalar
    hits = bytes(itemgetter(*reads)(inner))
    starts = [p for p, _, _ in found]
    plain = set()
    i = hits.find(1)
    while i >= 0:
        plain.add(bisect_right(starts, reads[i]) - 1)
        i = hits.find(1, i + 1)
    return [blk for j, blk in enumerate(found) if j not in plain]


class _Waves:
    """The wave pass: a circuit's stamped minimum blocks run depth by depth,
    the blocks of one depth and width together, as bit-slicing across
    copies (Biham, "A fast new DES implementation in software", FSE 1997).

    A block's depth is 1 + the largest depth among its wires; a plain
    vertex's (one outside every block) is the largest among its operands.
    For each depth d the pass runs the plain vertices of depth d - 1 in id
    order, then each group of blocks of depth d and one width: their
    lanes are packed side by side at a fixed byte stride into one integer
    per wire, the width's recorded block takes the freeing pass once over
    those (NOT flips against the full lane mask repeated once per member),
    and the output lanes are cut back apart.  A block output stays the
    bytes cut from its group's output unless ``ints`` holds it, the
    vertices plain gates or circuit outputs read, so a lane from one block
    to another is never an int.  The plain and block-output lanes are kept
    to the end."""

    __slots__ = ("circ", "plain", "groups", "ints")

    def __init__(self, circ: Circuit, plain: list, groups: list, ints: set):
        self.circ = circ
        self.plain = plain      # per depth: plain vertex ids in id order
        self.groups = groups    # per depth, one more: (m, starts, wire columns)
        self.ints = ints        # the vertices plain gates and outputs read

    @classmethod
    def plan(cls, circ: Circuit, lanes: int):
        """The schedule of circ's blocks, or None if it has none or the pass
        would keep more than ``lanes`` lanes: its plain vertices, its block
        outputs and its widest group's live template lanes."""
        blocks = _min_blocks(circ)
        if not blocks:
            return None
        kinds, a, b = circ.kinds, circ.a, circ.b
        kept = len(kinds) - sum(len(_min_block(m).kinds) - m
                                for _, m, _ in blocks)
        if kept > lanes:
            return None
        depth = {}
        plain, grouped = [[]], [{}]
        reads = set(circ.outputs)
        end = 0
        for p, m, wires in blocks + [(len(kinds), 0, ())]:
            for k in range(end, p):
                d = max(depth[a[k]], depth[b[k]]) if kinds[k] else 0
                depth[k] = d
                plain[d].append(k)
            gates = kinds[end:p]
            reads.update(compress(a[end:p], gates), compress(b[end:p], gates))
            if not m:
                break
            d = 1 + max(map(depth.__getitem__, wires))
            if d == len(plain):
                plain.append([])
                grouped.append({})
            grouped[d].setdefault(m, []).append((p, wires))
            for o in _min_block(m).circuit.outputs:
                depth[p - 2 * m + o] = d
            end = p + len(_min_block(m).kinds)
        widest = max(len(members) * _min_block(m).live
                     for g in grouped for m, members in g.items())
        if kept + widest > lanes:
            return None
        groups = [[(m, [p for p, _ in members],
                    list(zip(*(wires for _, wires in members))))
                   for m, members in sorted(g.items())] for g in grouped]
        return cls(circ, plain, groups + [[]], reads)

    def run(self, in_vals, full) -> list:
        """The pass over lanes in_vals, each at most ``full``; returns the
        output wires' values."""
        kinds, a, b = self.circ.kinds, self.circ.a, self.circ.b
        stride = (full.bit_length() + 7) // 8
        vals = {}
        for d, ids in enumerate(self.plain):
            for k in ids:
                op = kinds[k]
                if op == _AND:
                    vals[k] = vals[a[k]] & vals[b[k]]
                elif op == _OR:
                    vals[k] = vals[a[k]] | vals[b[k]]
                elif op == _NOT:
                    vals[k] = vals[a[k]] ^ full
                else:
                    vals[k] = in_vals[a[k]]
            for m, starts, columns in self.groups[d + 1]:
                _run_group(m, starts, columns, vals, full, stride, self.ints)
        return [vals[o] for o in self.circ.outputs]


def _run_group(m: int, starts: list, columns: list, vals: dict, full: int,
               stride: int, ints: set) -> None:
    """Run the m-bit blocks at ``starts`` together, wire slot s of each
    read from vals at columns[s], an int lane or its ``stride`` bytes:
    _min_block(m)'s circuit takes the freeing pass, with the record's last
    readers, over the packed lanes, NOT flipping against ``full`` repeated
    once per member.  Put the members' output lanes into vals, as ints
    where ``ints`` holds them and as bytes otherwise."""
    record = _min_block(m)
    block = record.circuit
    count = len(starts)
    width = count * stride
    wide = int.from_bytes(full.to_bytes(stride, "little") * count, "little")
    wired = {w: vals[w] for w in set().union(*columns)}
    for w, lane in wired.items():       # an int lane is cut to bytes once
        if lane.__class__ is int:
            wired[w] = lane.to_bytes(stride, "little")
    v = [int.from_bytes(b"".join(map(wired.__getitem__, col)), "little")
         for col in columns]
    del wired       # the cut int lanes go before the template pass runs
    shift = -2 * m
    for o, lane in zip(block.outputs, block._run_live(v, wide, record.last)):
        buf = lane.to_bytes(width, "little")
        for i, p in enumerate(starts):
            k = p + o + shift
            piece = buf[i * stride:(i + 1) * stride]
            vals[k] = int.from_bytes(piece, "little") if k in ints else piece


# -- gadgets ---------------------------------------------------------------

def gadget_xor() -> Circuit:
    """Two-input XOR; exactly 5 non-input gates."""
    b = Builder(2)
    return b.build(b.xor(0, 1))


def gadget_equal(m: int) -> Circuit:
    """2m-input equality of the two m-bit halves; <= 6m non-input gates."""
    if m < 1:
        raise ValueError("width must be >= 1")
    b = Builder(2 * m)
    return b.build(b.equal(range(m), range(m, 2 * m)))


def gadget_min(m: int) -> Circuit:
    """2m-input, m-output integer minimum; (13m^2+37m-44)/2 vertices: one
    stamp on its own inputs, recorded as a Builder records it."""
    if m < 1:
        raise ValueError("width must be >= 1")
    b = Builder(2 * m)
    return b.build(b.min_word(range(m), range(m, 2 * m)))


def from_truth_table(t: TruthTable) -> Circuit:
    """Sum-of-products synthesis; correctness helper, no minimization."""
    r = t.arity
    b = Builder(r)
    terms = []
    for v in compress(range(1 << r), mask_to_bits(t.mask, 1 << r)):
        lits = [(i if (v >> i) & 1 else b.NOT(i)) for i in range(r)]
        terms.append(b.and_chain(lits))
    if not terms:
        return b.build(b.const0())
    return b.build(b.or_chain(terms))


def from_bits(bits) -> Circuit:
    return from_truth_table(TruthTable.from_bits(bits))


# -- text format -----------------------------------------------------------

#: the text's kind words; INPUT is the text's name for IN
_WORD_CODE = {"INPUT": _IN, AND: _AND, OR: _OR, NOT: _NOT}
#: a vertex line as write_circuit writes it: single spaces, ASCII digits,
#: and an id without leading zeros
_PLAIN_LINE = ("v(?:0|[1-9][0-9]*) "
               "(?:INPUT [0-9]+|NOT v[0-9]+|(?:AND|OR) v[0-9]+ v[0-9]+)")
#: what turns plain vertex lines into the body of a JSON array, four
#: numbers per line: id, kind code, a, b.  The one-operand kinds are
#: replaced, with a 0 for a; then one character map takes AND to 1 and OR
#: to 2 (their other letters dropped), drops the "v" prefixes and makes
#: spaces and line breaks commas
_ONE_OPERAND_WORDS = ((" INPUT ", ",0,0,"), (" NOT ", ",3,0,"))
_JSON_CHARS = str.maketrans({"A": "1", "N": None, "D": None, "O": "2",
                             "R": None, "v": None, " ": ",", "\n": ","})
#: kind code -> 1 for IN and NOT, else 0
_ONE_OPERAND = bytes([1, 0, 0, 1]) + bytes(252)
#: kind code -> 1 for IN, else 0
_IS_IN = bytes([1]) + bytes(255)
#: the bytes and bits of one operand column entry, and the largest index
#: it holds
_INDEX_BYTES = array("I").itemsize
_INDEX_BITS = 8 * _INDEX_BYTES
_INDEX_MAX = (1 << _INDEX_BITS) - 1
#: the byte order of the operand columns' buffers, and one entry of 1
_BYTE_ORDER = sys.byteorder
_ONE = array("I", [1]).tobytes()


def write_circuit(circ: Circuit) -> str:
    """One vertex per line, 0-based ids in topological order."""
    return "".join(circuit_pieces(circ))


def circuit_pieces(circ: Circuit):
    """write_circuit's text as an iterator of pieces, BLOCK_VERTICES
    vertex lines each and the SINK line last, so a file can be written
    without the whole text in memory.  A circuit the format cannot hold is
    refused here, before the first piece."""
    if len(circ.outputs) != 1:
        raise ValueError("text format holds single-sink circuits only")
    return _vertex_pieces(circ.kinds, circ.a, circ.b, circ.sink)


def _vertex_pieces(kinds: bytes, a: array, b: array, sink: int):
    for lo in range(0, len(kinds), BLOCK_VERTICES):
        hi = lo + BLOCK_VERTICES
        yield "".join([
            f"v{k} AND v{x} v{y}\n" if op == _AND else
            f"v{k} NOT v{x}\n" if op == _NOT else
            f"v{k} OR v{x} v{y}\n" if op == _OR else
            f"v{k} INPUT {x}\n"
            for k, op, x, y in zip(range(lo, hi), kinds[lo:hi], a[lo:hi], b[lo:hi])])
    yield f"SINK v{sink}\n"


def read_text(path: str):
    """Yield the file at path as UTF-8 text, in pieces: each binary read of
    _READ_BYTES is cut after its last "\\n" and decoded, and a line longer
    than a read is carried whole into the piece that ends it; the last
    piece is the rest of the file.  A "\\n" is never inside a UTF-8
    sequence or a "\\r\\n", so the pieces' lines (str.splitlines) are the
    file's, line breaks as written.  The total read is checked after each
    read: a file longer than READ_BYTES_BOUND, such as /dev/zero, raises
    ValueError after at most one read past it, as bad UTF-8 does, with its
    position counted from the start of the file."""
    with open(path, "rb") as fh:
        held = []           # the reads since the last line feed
        start = total = 0   # file offsets of held's first byte and of the next read
        while True:
            data = fh.read(_READ_BYTES)
            if not data:
                if held:
                    yield _decode(held, start)
                return
            total += len(data)
            if total > READ_BYTES_BOUND:
                raise ValueError(f"{path}: longer than {READ_BYTES_BOUND} bytes")
            cut = data.rfind(b"\n") + 1
            if not cut:
                held.append(data)
                continue
            held.append(memoryview(data)[:cut])
            rest = data[cut:]
            del data        # so _decode frees it before the piece is parsed
            end = total - len(rest)
            yield _decode(held, start)
            start = end
            if rest:
                held.append(rest)


def _decode(parts: list, start: int) -> str:
    """The UTF-8 text of the bytes in parts, joined, which read_text found
    at file offset start; parts is emptied.  Bad UTF-8 raises ValueError
    with the message a decode of the whole file gives."""
    data = parts[0] if len(parts) == 1 else b"".join(parts)
    parts.clear()
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as e:
        at = (f"byte 0x{data[e.start]:02x} in position {start + e.start}"
              if e.end == e.start + 1 else
              f"bytes in position {start + e.start}-{start + e.end - 1}")
        raise ValueError(f"'utf-8' codec can't decode {at}: {e.reason}") from None


def decimal(tok: str) -> int:
    """The value of a number field of any text format: ASCII digits only,
    so no sign, no underscore and no other script's digits.  ValueError
    otherwise, or past int's digit limit."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal number: {tok!r}")
    return int(tok)


def _vertex_ref(tok: str, limit: int, lineno: int) -> int:
    if not tok.startswith("v"):
        raise CircuitParseError(f"expected vertex reference, got {tok!r}", lineno)
    try:
        k = decimal(tok[1:])
    except ValueError:
        if tok[1:2] == "-" and tok[2:].isascii() and tok[2:].isdigit():
            raise CircuitParseError(f"negative vertex reference {tok!r}", lineno) from None
        raise CircuitParseError(f"bad vertex reference {tok!r}", lineno) from None
    if k >= limit:
        raise CircuitParseError(f"forward reference to v{k}", lineno)
    return k


def parse_circuit(text, start: int = 0, first_line: int = 1) -> Circuit:
    """Parse the text format from offset ``start``, the start of line
    ``first_line``, so a circuit inside a larger file reports the file's
    line numbers; rejects forward references and double SINKs.

    ``text`` is a str, or an iterable of pieces of one text, each but the
    last ending with "\\n", as read_text yields them; ``start`` is an
    offset into the first piece, and a str is the one piece.  Each piece
    is read where it lies (see _TextReader.read), and the columns, the
    SINK and the line number carry over to the next."""
    rd = _TextReader(first_line)
    for piece in as_pieces(text):
        rd.read(piece, start)
        start = 0
        del piece       # free it before the next piece is read
    if not rd.kinds:
        raise CircuitParseError("empty circuit", first_line)
    if rd.sink is None:
        raise CircuitParseError("missing SINK line", rd.lineno - 1)
    max_input = max(compress(rd.a, rd.kinds.translate(_IS_IN)), default=-1)
    if max_input < 0:
        raise CircuitParseError("circuit has no INPUT vertex", first_line)
    return Circuit._from_columns(max_input + 1, bytes(rd.kinds), rd.a, rd.b,
                                (rd.sink,), _scan_stamps(rd.kinds, rd.a, rd.b))


def as_pieces(text):
    """An iterator over the pieces of text: a str is its one piece."""
    return iter((text,) if isinstance(text, str) else text)


@lru_cache(maxsize=8)
def _plain_run(n: int) -> re.Pattern:
    """Matches 1 to n plain vertex lines, each ending at a "\\n" or at the
    end of the text; a last line that ends otherwise is left out."""
    return re.compile(rf"{_PLAIN_LINE}(?:\n{_PLAIN_LINE}){{0,{n - 1}}}(?=\n|\Z)")


@lru_cache(maxsize=8)
def _line_block(n: int) -> re.Pattern:
    """Matches 1 to n lines, ending right after a "\\n" (never inside
    "\\r\\n") or at the end of the text, so their splitlines() are the
    text's own."""
    return re.compile(rf"(?:[^\n]*\n){{1,{n}}}|[^\n]+")


@lru_cache(maxsize=8)
def _other_lines(n: int) -> re.Pattern:
    """Matches 1 to n lines as _line_block does, up to a line _plain_run
    would match; a line not ending in a digit is never such a line."""
    return re.compile(rf"[^\n]*\n(?:[^\n]*(?<![0-9])\n|(?!{_PLAIN_LINE}\n)"
                      rf"[^\n]*\n){{0,{n - 1}}}|[^\n]+")


def significant_lines(text: str, lineno: int = 1):
    """Yield (line number, tokens, end offset) for each line of ``text``
    with a token outside its '#' comment: lines as str.splitlines cuts
    them, numbered from ``lineno``, each ending past its line break.  Last
    comes (the text's last line number, or lineno - 1 if it has no line,
    [], len(text)).  The text is read in blocks, never split whole."""
    end = 0
    for block in _line_block(BLOCK_VERTICES).finditer(text):
        for line in block.group().splitlines(keepends=True):
            end += len(line)
            toks = line.split("#", 1)[0].split()
            if toks:
                yield lineno, toks, end
            lineno += 1
    yield lineno - 1, [], end


def piece_lines(pieces, lineno: int = 1):
    """significant_lines over an iterator of pieces, each but the last
    ending with "\\n": yield (line number, tokens, piece, end offset in the
    piece) for each significant line.  Last comes (the last line number,
    or lineno - 1 if there is no line, [], "", 0).  The pieces after the
    one last yielded are left in the iterator."""
    for piece in pieces:
        for lineno, toks, end in significant_lines(piece, lineno):
            if toks:
                yield lineno, toks, piece, end
        lineno += 1
    yield lineno - 1, [], "", 0


class _TextReader:
    """The columns read so far from circuit text, with its SINK and the
    number of the next line to read."""

    def __init__(self, lineno: int):
        self.kinds = bytearray()
        self.a = array("I")
        self.b = array("I")
        self.sink = None
        self.lineno = lineno

    def read(self, text: str, pos: int) -> None:
        """Read text from offset pos to its end, which is the end of a line.
        One anchored match finds up to BLOCK_VERTICES plain vertex lines,
        as write_circuit writes them, and they are decoded column by column
        (see bulk).  A run the decoder declines goes through the line loop,
        which alone reports errors; so do the lines up to the next plain
        line, where no plain line starts (a comment, a blank line, other
        spacing or line breaks, the SINK line; see _other_lines)."""
        run = _plain_run(BLOCK_VERTICES).match
        cut = _other_lines(BLOCK_VERTICES).match
        while pos < len(text):
            m = self.sink is None and run(text, pos)
            if m:
                if not self.bulk(m.group()):
                    self.loop(m.group())
                pos = m.end() + 1       # past the "\n" that ends the run
            else:
                m = cut(text, pos)
                self.loop(m.group())
                pos = m.end()

    def bulk(self, block: str) -> bool:
        """Read plain vertex lines (a _plain_run match) column by column if
        the line loop would accept them; otherwise read nothing and return
        False."""
        for word, numbers in _ONE_OPERAND_WORDS:
            block = block.replace(word, numbers)
        try:
            nums = json.loads(f"[{block.translate(_JSON_CHARS)}]")
        except ValueError:      # leading zeros, or digits past int's limit
            return False
        k0 = len(self.kinds)
        ids, kinds, a, b = nums[0::4], bytes(nums[1::4]), nums[2::4], nums[3::4]
        gates = list(compress(ids, kinds))
        if not (ids == list(range(k0, k0 + len(ids)))
                and all(map(lt, compress(a, kinds), gates))
                and all(map(lt, compress(b, kinds), gates))):
            return False
        try:
            # a one-operand vertex stores its operand in both columns
            a = array("I", map(getitem, zip(a, b), kinds.translate(_ONE_OPERAND)))
            b = array("I", b)
        except OverflowError:   # an input index past the columns' range
            return False
        self.kinds += kinds
        self.a += a
        self.b += b
        self.lineno += len(kinds)
        return True

    def loop(self, block: str) -> None:
        """Read the block one line at a time."""
        kinds, a, b = self.kinds, self.a, self.b
        for lineno, toks, _ in significant_lines(block, self.lineno):
            if not toks:                # past the block's last line
                self.lineno = lineno + 1
                break
            if toks[0] == "SINK":
                if self.sink is not None:
                    raise CircuitParseError("multiple SINK lines", lineno)
                if len(toks) != 2:
                    raise CircuitParseError("SINK takes one vertex", lineno)
                self.sink = _vertex_ref(toks[1], len(kinds), lineno)
                continue
            if self.sink is not None:
                raise CircuitParseError("vertex after SINK line", lineno)
            k = len(kinds)
            if toks[0] != f"v{k}":
                raise CircuitParseError(
                    f"expected id v{k} in topological order, got {toks[0]!r}", lineno)
            if len(toks) < 2:
                raise CircuitParseError("missing vertex kind", lineno)
            op = toks[1]
            if op == "INPUT":
                if len(toks) != 3:
                    raise CircuitParseError("INPUT takes one index", lineno)
                try:
                    i = decimal(toks[2])
                except ValueError:
                    raise CircuitParseError(f"bad input index {toks[2]!r}", lineno) from None
                if i > _INDEX_MAX:
                    raise CircuitParseError(f"input index {i} too large", lineno)
                x = y = i
            elif op in (AND, OR):
                if len(toks) != 4:
                    raise CircuitParseError(f"{op} takes two operands", lineno)
                x = _vertex_ref(toks[2], k, lineno)
                y = _vertex_ref(toks[3], k, lineno)
            elif op == NOT:
                if len(toks) != 3:
                    raise CircuitParseError("NOT takes one operand", lineno)
                x = y = _vertex_ref(toks[2], k, lineno)
            else:
                raise CircuitParseError(f"unknown vertex kind {op!r}", lineno)
            kinds.append(_WORD_CODE[op])
            a.append(x)
            b.append(y)

