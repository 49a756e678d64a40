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
inputs.  A pass takes the stamped integer-minimum blocks from the
circuit's record of them (_min_blocks) and runs each through a
bit-sliced comparator (_min_lanes), about 8m integer operations in place
of the block's (13m^2 + 37m - 44)/2 - 2m template gates; the blocks'
inner vertices get no lane.  One loop runs every pass (Circuit._pass): it
keeps every lane it makes to the end, unless those lanes would hold more
than LIVE_LANE_BYTES; then it drops each lane after its last reader and
so holds only the live frontier.  A stamped block's operand columns have
one definition, _block_columns, which the readers of its inner vertices
use; its text has one form per width (_text_form), which the writer
writes and against which the parser checks a block it reads whole.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import chain, compress
from operator import getitem, itemgetter, lt

from .bitvec import bits_to_mask, mask_to_bits

#: the most inputs or stages swept: a 2^n-entry table is refused above it
STATE_BOUND = 24

#: a lane pass that would keep more bytes of lanes than this (its plain
#: vertices and block outputs, or all vertices of a circuit without blocks,
#: times lane bits / 8) frees each lane after its last reader; below it
#: finding the last readers costs more time than the freed memory saves
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

#: their codes in Circuit.kinds, and the code of a lane pass's step that
#: runs a minimum block (Circuit._steps)
_IN, _AND, _OR, _NOT, _MIN = range(5)


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

    def bits(self) -> bytes:
        return mask_to_bits(self.mask, 1 << self.arity)

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.arity == other.arity and self.mask == other.mask

    def __hash__(self):
        return hash((self.arity, self.mask))

    def __repr__(self):
        return f"TruthTable.from_bits({list(self.bits())})"


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

    ``stamps`` records minimum blocks of width m >= 2 in the columns: a
    tuple, in id order, of one (start, m, wires) per stamp, its first id,
    its width and its 2m wires as an array('I').  It holds what the
    circuit's maker knew: each block a Builder stamped or the parser read
    whole, and none for a circuit made from tuples.  The parser reads
    whole blocks of width up to 23, the widest template of at most
    BLOCK_VERTICES gates; of a wider block it records the width-23
    prefix, a block in its own right, and reads the rest gate by gate.
    The lane passes take their blocks from it (_min_blocks).  The columns
    and the record are read only in this module.

    A recorded block is its record: its kinds are in ``kinds``, and its
    entries in ``a`` and ``b`` are zeros (moved by Builder.splice) that
    no reader takes.  The readers that need its inner operands
    (``nodes``, Builder.embed, and a lane pass that runs it gate by gate)
    derive them from the record (_block_columns), and the text writer
    writes its lines from the record (_stamp_text).
    """

    __slots__ = ("arity", "kinds", "a", "b", "outputs", "stamps")

    def __init__(self, arity: int, nodes, outputs: tuple):
        """A circuit over vertex tuples, each checked, with no record."""
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
        self._set(arity, bytes(kinds), array("I", a), array("I", b), outputs, ())

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
        a, b = _operands(self)
        return [(AND, x, y) if op == _AND else
                (NOT, x) if op == _NOT else
                (OR, x, y) if op == _OR else
                (IN, x)
                for op, x, y in zip(self.kinds, a, b)]

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

        The blocks _min_blocks accepts run through _min_lanes.  The pass
        keeps a lane per plain vertex and block output; if those would
        pass LIVE_LANE_BYTES it frees each lane after its last reader.
        """
        blocks = _min_blocks(self)
        kept = len(self.kinds) - sum(len(_min_block(m).kinds) - m
                                     for _, m, _ in blocks)
        return self._pass(in_vals, full, blocks,
                          free=kept * full.bit_length() > 8 * LIVE_LANE_BYTES)

    def _steps(self, blocks) -> chain:
        """What a lane pass runs, in id order: each vertex as its column
        entries (k, kind code, a, b), except that each block (p, m, wires)
        of ``blocks`` (_min_blocks) is the one step (p, _MIN, m, wires) in
        place of its own gates.  A recorded block that is not in
        ``blocks`` runs gate by gate, its entries derived
        (_block_columns)."""
        kinds, a, b = (memoryview(col) for col in (self.kinds, self.a, self.b))
        run = {p for p, _, _ in blocks}

        def parts():        # made as the pass reaches them
            end = 0
            for p, m, wires in self.stamps:
                yield zip(range(end, p), kinds[end:p], a[end:p], b[end:p])
                end = p + len(_min_block(m).kinds)
                if p in run:
                    yield (p, _MIN, m, wires),
                else:
                    yield zip(range(p, end), kinds[p:end],
                              *_block_columns(m, p, wires))
            yield zip(range(end, len(kinds)), kinds[end:], a[end:], b[end:])
        return chain.from_iterable(parts())

    def _pass(self, in_vals, full, blocks=(), free=False) -> list:
        """Run the steps (_steps) of ``blocks`` (_min_blocks) over the
        lanes; with no ``blocks`` every gate runs one by one.  Every lane
        is kept until the pass ends, unless ``free``: then each lane is
        dropped right after its last reader (_last_readers), so only the
        live frontier is held.  Output wires are kept."""
        last = self._last_readers(blocks) if free else None
        # a dict where the blocks leave most vertices without a lane
        vals = {} if blocks else [None] * len(self.kinds)
        for k, op, x, y in self._steps(blocks):
            if op == _AND:
                vals[k] = vals[x] & vals[y]
            elif op == _OR:
                vals[k] = vals[x] | vals[y]
            elif op == _NOT:
                vals[k] = vals[x] ^ full
            elif op == _IN:
                vals[k] = in_vals[x]
            else:
                outs = _put_min(vals, k, x, y, full)
                if free:
                    for o in outs:
                        if not last[o]:
                            vals[o] = None
                    for w in y:
                        if last[w] == k:
                            vals[w] = None
                continue
            if free:
                if op:      # a gate; an IN step's x is an input index
                    if last[x] == k:
                        vals[x] = None
                    if last[y] == k:
                        vals[y] = None
                if not last[k]:
                    vals[k] = None
        return [vals[o] for o in self.outputs]

    def _last_readers(self, blocks=()) -> array:
        """Per vertex, the id of the last step (_steps) that reads it: 0 if
        none does, as no step 0 reads anything (vertex 0 is an input), and
        the vertex count if it is an output wire.  A block's step reads
        its wires, and its inner vertices are never looked at."""
        n = len(self.kinds)
        last = array("I", bytes(n * _INDEX_BYTES))
        for k, op, x, y in self._steps(blocks):
            if op == _MIN:
                for w in y:
                    last[w] = k
            elif op:
                last[x] = k
                last[y] = k
        for o in self.outputs:
            last[o] = n
        return last

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
        assignments = list(assignments)
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
    ``stamps`` lists each stamp ``min_word`` makes of width m >= 2 as
    Circuit.stamps holds it, (start, m, wires), which is all that
    describes the copy.  build() hands the circuit a tuple of it as its
    record.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.kinds = bytearray(arity)            # all IN
        self.a = array("I", range(arity))
        self.b = array("I", range(arity))
        self.stamps = []
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

        A block of width m >= 2 is its record: min_word appends the
        template's kinds and zero operand entries, and (start, m, wires)
        to ``stamps`` (_add_stamp); the readers that need its operands
        derive them (_block_columns).  At m = 1 the block is one AND gate of the two
        wires, written as a plain gate, with no record.  The wires must be
        earlier vertices and the block's last id must fit a column entry,
        or nothing is added.
        """
        xs, ys = list(xs), list(ys)
        m = len(xs)
        if m != len(ys) or m < 1:
            raise ValueError("word widths differ")
        block = _min_block(m)
        base = len(self.kinds)
        wires = xs + ys
        if not 0 <= min(wires) <= max(wires) < base:
            raise ValueError("a word wire is not a vertex")
        if base + len(block.kinds) - 1 > _INDEX_MAX:
            raise ValueError(f"vertex ids past {_INDEX_MAX}")
        if m == 1:
            return [self.AND(xs[0], ys[0], fresh=True)]
        _add_stamp(self, m, wires)
        return [base - 2 * m + o for o in block.circuit.outputs]  # all gates

    def embed(self, circ: Circuit, input_wires) -> list:
        """Splice another circuit in, feeding its inputs from given wires."""
        input_wires = list(input_wires)
        if len(input_wires) != circ.arity:
            raise ValueError("wire count != embedded circuit arity")
        wmap = []
        put = wmap.append
        add = self._add
        a, b = _operands(circ)
        for op, x, y in zip(circ.kinds, a, b):
            put(add(op, wmap[x], wmap[y], False) if op else input_wires[x])
        return [wmap[o] for o in circ.outputs]

    def splice(self, circ: Circuit) -> list:
        """Append circ's gates, unmerged, its input i read from vertex
        v - arity + i, v the vertex count; return its outputs' ids.  Every
        id moves alike: each operand column, and the wires of each block of
        circ's record, move by one big-integer add; so does the index of an
        INPUT vertex after circ's first arity, which then reads vertex
        v - arity + i only while that vertex is an input.  ValueError,
        before anything is added, unless circ's first arity vertices are
        INPUT 0..arity-1 in order, circ has no later INPUT vertex or the
        builder no gate, and no moved id passes _INDEX_MAX."""
        n = circ.arity
        by = len(self.kinds) - n
        kinds, a, b = circ.kinds, circ.a, circ.b
        if by < 0 or kinds[:n] != bytes(n) or a[:n] != array("I", range(n)):
            raise ValueError("a spliced circuit's inputs must be its first "
                             "vertices, in order, over the builder's last")
        if len(self.kinds) > self.arity and kinds.find(_IN, n) >= 0:
            raise ValueError("a spliced circuit's later INPUT vertex must "
                             "read one of the builder's inputs")
        if by + len(kinds) - 1 > _INDEX_MAX:
            raise ValueError(f"vertex ids past {_INDEX_MAX}")
        step = by * _ones(len(kinds) - n)
        self.kinds += memoryview(kinds)[n:]
        self.a.frombytes(_moved(memoryview(a)[n:], step))
        self.b.frombytes(_moved(memoryview(b)[n:], step))
        # one add per block, not one int per wire: those ints left the heap
        # fragmented enough to raise cli-roundtrip's peak RSS by about 2 MB
        self.stamps += [(p + by, m, array("I", _moved(memoryview(wires),
                                                      by * _ones(2 * m))))
                        for p, m, wires in circ.stamps]
        return [o + by for o in circ.outputs]

    def build(self, outputs) -> Circuit:
        if isinstance(outputs, int):
            outputs = (outputs,)
        return Circuit._from_columns(self.arity, bytes(self.kinds), self.a[:],
                                    self.b[:], tuple(outputs),
                                    tuple(self.stamps))


def _ones(n: int) -> int:
    """The integer whose bytes are n column entries of 1."""
    return int.from_bytes(_ONE * n, _BYTE_ORDER)


def _moved(col: memoryview, step: int) -> bytes:
    """col's bytes with each entry moved up by step / _ones(len(col)); no
    moved entry may pass _INDEX_MAX, so no carry crosses entries."""
    return (int.from_bytes(col, _BYTE_ORDER) + step).to_bytes(col.nbytes,
                                                              _BYTE_ORDER)


def _add_stamp(cols, m: int, wires) -> int:
    """Append the width-m block over ``wires`` to a Builder's or reader's
    columns: its record, and zero operand entries; return its size."""
    kinds = _min_block(m).kinds
    zeros = bytes(len(kinds) * _INDEX_BYTES)
    cols.stamps.append((len(cols.kinds), m, array("I", wires)))
    cols.kinds += kinds
    cols.a.frombytes(zeros)
    cols.b.frombytes(zeros)
    return len(kinds)


class _MinBlock:
    """The m-bit minimum block, recorded once per width (_min_block).

    ``circuit`` has gadget_min(m)'s columns: inputs 0..2m-1 are the wires
    xs + ys, so template slot s is vertex s, and the block's own gates
    follow.  The recursion of the construction is unrolled: the w-bit
    block is the (w-1)-bit block's gates followed by the gates of step w.
    ``kinds`` holds the gate kinds and ``inner`` one byte per gate (1
    unless the gate is an output).

    ``reads`` gives, per input slot, its first reader, where a stamp's
    wire is read off, as (gate, column, slot) in gate order, as they lie
    in a stamp's text.
    Each column's form in ``forms`` (own, ones, slots, pos) holds it in
    bulk for _block_columns: read as one integer of _INDEX_BITS-bit
    entries, the column of a stamp at ``start`` is ``own + start * ones``
    at the gates that read the block's own slots, and zero at the others,
    the positions ``pos``, whose entries are the ``slots`` of the wires."""

    __slots__ = ("circuit", "kinds", "inner", "reads", "forms")

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
            forms.append((int.from_bytes(own, _BYTE_ORDER), ones,
                          itemgetter(*slots), tuple(pos)))
        self.reads = tuple(sorted((g, col, s) for s, (col, g) in first.items()))
        self.forms = tuple(forms)


_min_block = lru_cache(maxsize=64)(_MinBlock)


# -- the minimum blocks ----------------------------------------------------

def _block_columns(m: int, p: int, wires) -> tuple:
    """The two operand columns, as arrays, of the width-m block stamped at
    vertex p over ``wires``, as the block's template reads
    (_MinBlock.forms): the own part as the integer ``own + p * ones``,
    then each read of a wire written in turn: for _operands, and for a lane
    pass that runs the block gate by gate."""
    block = _min_block(m)
    size = len(block.kinds) * _INDEX_BYTES
    cols = []
    for own, ones, slots, pos in block.forms:
        col = array("I", (own + p * ones).to_bytes(size, _BYTE_ORDER))
        reads = slots(wires)    # one wire read: a scalar
        for j, w in zip(pos, reads if len(pos) > 1 else (reads,)):
            col[j] = w
        cols.append(col)
    return tuple(cols)


@lru_cache(maxsize=1)
def _digits() -> tuple:
    """The strings of 0 to 999 with three digits, and without leading
    zeros; from 100 on, the two tables share their strings."""
    three = tuple(f"{i:03d}" for i in range(1000))
    return three, tuple(map(str, range(100))) + three[100:]


@lru_cache(maxsize=64)
def _text_form(m: int) -> tuple:
    """(pick, words): the text form of the width-m block, made only for
    the widths that are written or read whole.  ``pick`` is an itemgetter
    that takes a stamp's text, its vertex lines as write_circuit writes
    them, out of the list of its own ids' high parts, their low parts, its
    2m wires and the line literals ``words``, all as strings (_stamp_text):
    own id g is its high part, entry g, then its low part, entry size + g.
    Each entry's picks share one int object: the form takes 131 KB at
    width 12 and 288 KB at width 18."""
    block = _min_block(m)
    size, w = len(block.kinds), 2 * m
    c = block.circuit
    words = {}
    picks = []

    def word(s):
        picks.append(2 * size + w + words.setdefault(s, len(words)))

    def vertex(v):
        picks.extend((2 * size + v,) if v < w else (v - w, size + v - w))

    for g, (op, x, y) in enumerate(zip(block.kinds, c.a[w:], c.b[w:])):
        word("\nv" if g else "v")
        vertex(g + w)
        word(_KIND_WORD[op])
        vertex(x)
        if op != _NOT:
            word(" v")
            vertex(y)
    word("\n")
    at = list(range(2 * size + w + len(words)))     # one int object per entry
    return itemgetter(*map(at.__getitem__, picks)), tuple(words)


def _stamp_text(m: int, p: int, wires) -> str:
    """The vertex lines, as write_circuit writes them, of the width-m block
    stamped at vertex p over ``wires``, made by the block's text form.  Its
    own ids k come in runs of one k // 1000: a run's high parts are one
    str(k // 1000) repeated, and its low parts one slice of the three-digit
    strings of k % 1000; below 1000, "" and str(k)."""
    pick, words = _text_form(m)
    three, short = _digits()
    end = p + len(_min_block(m).kinds)
    high, low = [], []
    while p < end:
        h, r = divmod(p, 1000)
        n = min(1000 - r, end - p)
        high += [str(h) if h else ""] * n
        low += (three if h else short)[r:r + n]
        p += n
    high += low
    high += map(str, wires)
    high += words
    return "".join(pick(high))


def _operands(circ) -> tuple:
    """circ's operand columns as two arrays: the stored entries, except
    that each entry of a block of circ's record (Circuit.stamps) is the
    block's own (_block_columns)."""
    a, b = circ.a[:], circ.b[:]
    for p, m, wires in circ.stamps:
        end = p + len(_min_block(m).kinds)
        a[p:end], b[p:end] = _block_columns(m, p, wires)
    return a, b


def _min_blocks(circ: Circuit) -> list:
    """circ's stamps of the minimum block of width m >= 2 that the lane
    passes run through _min_lanes, as (start, m, wires) in id order.

    The candidates are circ's record (Circuit.stamps), each of which must
    start with its width's kinds, or InvariantError is raised.  A block one
    of whose non-output vertices is read from outside it (by a plain gate,
    as another block's wire, or as a circuit output) stays plain."""
    kinds, a, b = circ.kinds, circ.a, circ.b
    found = circ.stamps
    for p, m, _ in found:
        if not kinds.startswith(_min_block(m).kinds, p):
            raise InvariantError(f"no width-{m} minimum block at "
                                 f"recorded vertex {p}")
    if not found:
        return []
    inner = bytearray(len(kinds))
    reads = list(circ.outputs)
    end = 0
    for p, m, wires in (*found, (len(kinds), 0, ())):
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


def _min_lanes(v: list, m: int, full: int) -> list:
    """The m output lanes, low bit first, of the m-bit minimum block over
    its 2m input lanes v, xs then ys, each at most ``full``: bit-sliced
    comparison (Biham, "A fast new DES implementation in software", FSE
    1997).  Scanning from the top bit, ``lt`` gathers the lanes where x < y
    and ``eq`` those where the bits so far agree; then each output bit is
    x's where x < y and y's elsewhere.  About 8m integer operations, and
    3m + 2 lanes held with the inputs."""
    xs, ys = v[:m], v[m:]
    lt, eq = 0, full
    for x, y in zip(reversed(xs), reversed(ys)):
        d = eq & (x ^ y)
        lt |= d & y
        eq ^= d
    return [y ^ ((x ^ y) & lt) for x, y in zip(xs, ys)]


def _put_min(vals: dict, p: int, m: int, wires, full: int) -> list:
    """Put the output lanes of the m-bit block stamped at vertex p over
    ``wires`` into vals, each wire's lane read from vals (_min_lanes), and
    return the outputs' ids."""
    ids = [p - 2 * m + o for o in _min_block(m).circuit.outputs]
    for k, lane in zip(ids, _min_lanes([vals[w] for w in wires], m, full)):
        vals[k] = lane
    return ids


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
    for v in compress(range(1 << r), t.bits()):
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
#: a gate line's text between its id and its first operand's number
_KIND_WORD = {_AND: " AND v", _OR: " OR v", _NOT: " NOT v"}
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
#: what guesses the kind codes of plain vertex lines, one per line, from
#: the text's ASCII bytes: D (of AND) becomes 1, R (of OR) 2, T (of NOT) 3
#: and P 0, every other byte is dropped, and then INPUT's 0, 3 is made 0
_KIND_GUESS = bytes.maketrans(b"DRTP", b"\1\2\3\0")
_NOT_KIND_GUESS = bytes(sorted(set(range(256)) - set(b"DRTP")))
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
    """write_circuit's text as an iterator of pieces, the SINK line last,
    so a file can be written without the whole text in memory: each
    recorded block is one piece, made by its width's text form
    (_stamp_text), and the vertices between blocks come in pieces of at
    most BLOCK_VERTICES lines, read off the stored columns.  A circuit
    the format cannot hold is refused here, before the first piece."""
    if len(circ.outputs) != 1:
        raise ValueError("text format holds single-sink circuits only")
    return _vertex_pieces(circ)


def _vertex_pieces(circ: Circuit):
    kinds, a, b = circ.kinds, circ.a, circ.b
    lo = 0
    for p, m, wires in (*circ.stamps, (len(kinds), 0, ())):
        for s in range(lo, p, BLOCK_VERTICES):
            e = min(s + BLOCK_VERTICES, p)
            yield "".join([
                f"v{k} AND v{x} v{y}\n" if op == _AND else
                f"v{k} NOT v{x}\n" if op == _NOT else
                f"v{k} OR v{x} v{y}\n" if op == _OR else
                f"v{k} INPUT {x}\n"
                for k, op, x, y in zip(range(s, e), kinds[s:e], a[s:e], b[s:e])])
        if m:
            yield _stamp_text(m, p, wires)
            lo = p + len(_min_block(m).kinds)
    yield f"SINK v{circ.sink}\n"


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
    offset into the first piece, and a str is the one, final piece.  Each
    piece is read where it lies (see _TextReader.read), and the columns,
    the SINK and the line number carry over to the next, as do the lines
    of a block that its end may cut; lines still carried after the last
    piece are read then.  The record is the blocks read whole, each of
    width at most 23, the widest template of at most BLOCK_VERTICES
    gates: of a wider block, the record holds its width-23 prefix."""
    rd, final = _TextReader(first_line), isinstance(text, str)
    try:
        for piece in as_pieces(text):
            piece, rd.carry = rd.carry + piece, ""
            rd.read(piece, start, final)
            start = 0
            del piece       # free it before the next piece is read
    finally:   # past the last piece, or before the next one's read error
        carry, rd.carry = rd.carry, ""
        rd.read(carry, 0, True)
    if not rd.kinds:
        raise CircuitParseError("empty circuit", first_line)
    if rd.sink is None:
        raise CircuitParseError("missing SINK line", rd.lineno - 1)
    if rd.max_input < 0:
        raise CircuitParseError("circuit has no INPUT vertex", first_line)
    return Circuit._from_columns(rd.max_input + 1, bytes(rd.kinds), rd.a,
                                rd.b, (rd.sink,), tuple(rd.stamps))


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


def _guess_stamps(text: str, pos: int, k: int, final: bool):
    """Yield (p, top), in text order, for each block that the guessed kinds
    of text[pos:] propose, one code per plain vertex line (_KIND_GUESS):
    entry i is vertex k + i while every line is a plain vertex line.  The
    text is encoded BLOCK_VERTICES * 32 characters at a time, cut after a
    "\\n" where there is one.  A head starts where the 2-bit template's
    kinds do, vertex p, and is widened while the next width's kinds
    follow, to top, but never to a template of more than BLOCK_VERTICES
    gates, so no comment's letters make a wider one be built.  Unless the
    text is final, a head whose kinds run into its end inside the next
    width's, or last kinds that begin a head, are a block the end may
    cut: the last yield is then (p, 0).  Only a guess: stamp checks the
    lines."""
    head = _min_block(2).kinds
    kinds = b""         # the guess from vertex k on
    while pos < len(text):
        end = pos + BLOCK_VERTICES * 32
        if end < len(text):
            end = text.rfind("\n", pos, end) + 1 or end
        kinds += (text[pos:end].encode("ascii", "replace")
                  .translate(_KIND_GUESS, _NOT_KIND_GUESS).replace(b"\0\3", b"\0"))
        pos = end
        at = 0          # where the next head may start
        i = kinds.find(head)
        while i >= 0:
            top = 2
            while (len(_min_block(top + 1).kinds) <= BLOCK_VERTICES
                   and kinds.startswith(_min_block(top + 1).kinds, i)):
                top += 1
            wider = _min_block(top + 1).kinds
            if len(kinds) - i < len(wider) and wider.startswith(kinds[i:]) and (
                    pos < len(text) or not final):
                break   # for the rest of the text to decide, or cut by its end
            yield k + i, top
            at = i + len(_min_block(top).kinds)
            i = kinds.find(head, at)
        at = i if i >= 0 else max(at, len(kinds) - len(head) + 1)
        k += at
        kinds = kinds[at:]
    i = next((i for i in range(len(kinds))
              if head.startswith(kinds[i:i + len(head)])), -1)
    if i >= 0 and not final:
        yield k + i, 0


def _line_start(text: str, p: int, pos: int) -> int:
    """The offset of the first line from offset pos, the start of a line,
    that starts with vertex p's id, or -1 if no line does."""
    word = f"v{p} "
    if text.startswith(word, pos):
        return pos
    return text.find("\n" + word, pos) + 1 or -1


def _reach(p: int, size: int) -> int:
    """The longest text of ``size`` vertex lines from vertex p, as written."""
    return size * (3 * len(str(p + size)) + 10)


def _text_wires(text: str, pos: int, p: int, block: _MinBlock):
    """The wires, as a list, of a stamp of ``block`` at vertex p whose text
    starts at offset pos, read off the lines that first read them
    (_MinBlock.reads) no further than the block's lines could reach
    (_reach); None where such a line or number is missing.  Only a
    reading: the caller checks the whole text."""
    end = pos + _reach(p, len(block.kinds))
    wires = [0] * len(block.reads)
    at = pos
    for g, col, s in block.reads:
        if g:       # moving forward; a gate's second read finds its line again
            at = text.find(f"\nv{p + g} ", max(at - 1, 0), end) + 1
            if not at:
                return None
        eol = text.find("\n", at, end)
        try:
            wires[s] = int(text[at:eol if eol >= 0 else end].split(" ")[2 + col][1:])
        except (IndexError, ValueError):
            return None
    return wires


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
    """The columns read so far from circuit text, with its SINK, the
    number of the next line to read, the largest INPUT index read (-1
    before the first), the blocks read whole, as Circuit.stamps lists
    them (see stamp), and ``carry``, the lines of a block that the end of
    the last piece read may have cut, for the next piece (see read)."""

    def __init__(self, lineno: int):
        self.kinds = bytearray()
        self.a = array("I")
        self.b = array("I")
        self.sink = None
        self.lineno = lineno
        self.max_input = -1
        self.stamps = []
        self.carry = ""

    def read(self, text: str, pos: int, final: bool) -> None:
        """Read text from offset pos to its end, which is the end of a line:
        where one guess of its kinds (_guess_stamps) has a block at the next
        vertex, the block's lines are read whole (see stamp), and the lines
        before it in runs (see lines).  Each block's line is found by one
        forward search; where it is missing, the guess has lost the lines,
        and the rest is read in runs.  Unless the text is final, the lines
        of a block that its end may cut go to ``carry`` if they fit what a
        block's lines can reach (_reach at BLOCK_VERTICES gates), and else
        are read in runs."""
        for p, top in _guess_stamps(text, pos, len(self.kinds), final):
            if p < len(self.kinds):
                continue
            off = _line_start(text, p, pos)
            if off < 0:
                break
            self.lines(text, pos, off)
            pos = off
            if not top and len(text) - pos <= _reach(p, BLOCK_VERTICES):
                self.carry = text[pos:]
                return
            if top and p == len(self.kinds) and self.sink is None:
                pos = self.stamp(text, pos, p, top) or pos
        self.lines(text, pos, len(text))

    def lines(self, text: str, pos: int, end: int) -> None:
        """Read text[pos:end], whole lines: one anchored match finds up to
        BLOCK_VERTICES plain vertex lines, as write_circuit writes them,
        decoded column by column (see bulk).  A run that is declined goes
        through the line loop, which alone reports errors; so do the lines
        up to the next plain line, where no plain line starts (a comment, a
        blank line, other spacing or line breaks, the SINK line)."""
        run = _plain_run(BLOCK_VERTICES).match
        cut = _other_lines(BLOCK_VERTICES).match
        while pos < end:
            m = self.sink is None and run(text, pos, end)
            if m:
                if not self.bulk(m.group()):
                    self.loop(m.group())
                pos = m.end() + 1       # past the "\n" that ends the run
            else:
                m = cut(text, pos, end)
                self.loop(m.group())
                pos = m.end()

    def stamp(self, text: str, pos: int, p: int, m: int) -> int:
        """Read the lines at pos as a block of width m stamped at the next
        vertex p, its wires read off the lines that first read them
        (_text_wires), if every wire is before p and the text at pos is the
        stamp's (_stamp_text), and append it as Builder.min_word does, its
        record alone (_add_stamp).  Return the offset past the block, or 0,
        having read nothing."""
        wires = _text_wires(text, pos, p, _min_block(m))
        if not (wires and 0 <= min(wires) and max(wires) < p):
            return 0
        expected = _stamp_text(m, p, wires)
        if not text.startswith(expected, pos):
            return 0
        self.lineno += _add_stamp(self, m, wires)
        return pos + len(expected)

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
        self.max_input = max(self.max_input,
                             max(compress(b, kinds.translate(_IS_IN)), default=-1))
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
                self.max_input = max(self.max_input, i)
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

