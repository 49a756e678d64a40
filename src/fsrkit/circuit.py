"""Boolean circuits over the AND/OR/NOT gate alphabet.

A circuit is a topologically ordered list of vertices: INPUT vertices
(one per input, created eagerly so the vertex count always includes all
inputs) followed by gates with fan-in 2 (AND, OR) or 1 (NOT).  Most
circuits have a single designated sink; gadget blocks such as the
integer-minimum block expose several output wires instead.

Size convention: ``size`` counts every vertex including inputs, which is
the convention the rest of the package relies on for gadget bookkeeping.
``gate_count`` counts non-input vertices only; claims quoted in "gates"
(XOR = 5, word equality <= 6m) are about ``gate_count``.

Satisfiability and truth tables are computed by exhaustive scan, batched
as bitmask integers (one bit per assignment), which is plenty for the
input counts this package deals with.  A vertex's lane is needed only up
to its last reader; when keeping every lane to the end would hold more
than LIVE_LANE_BYTES, the pass drops each lane once it is dead, so it
holds only the live frontier.
"""

from __future__ import annotations

from itertools import islice

from .bitvec import BitVec, bits_to_mask, mask_to_bits

#: inputs beyond this are refused by the exhaustive operations
SAT_ARITY_BOUND = 24

#: a lane pass that would keep more bytes of lanes than this (vertices times
#: lane bits / 8) frees each lane after its last reader; below it finding
#: the last readers costs more time than the freed memory saves
LIVE_LANE_BYTES = 1 << 26

#: the vertex kinds; parsed circuits share these strings
IN, AND, OR, NOT = "IN", "AND", "OR", "NOT"


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

    ``nodes`` is a list of tuples: ("IN", i), ("AND", a, b), ("OR", a, b)
    or ("NOT", a), where a, b are indices of earlier nodes.  ``outputs``
    holds one node index per output wire; a plain circuit has exactly one.
    """

    __slots__ = ("arity", "nodes", "outputs")

    def __init__(self, arity: int, nodes: list, outputs: tuple):
        self.arity = arity
        self.nodes = nodes
        self.outputs = tuple(outputs)
        self._validate()

    def _validate(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if not self.outputs:
            raise ValueError("circuit needs at least one output")
        for k, node in enumerate(self.nodes):
            op = node[0]
            if op == "IN":
                if not 0 <= node[1] < self.arity:
                    raise ValueError(f"input index {node[1]} >= arity {self.arity}")
            elif op in ("AND", "OR"):
                if not (0 <= node[1] < k and 0 <= node[2] < k):
                    raise ValueError(f"operand of node {k} is not an earlier node")
            elif op == "NOT":
                if not 0 <= node[1] < k:
                    raise ValueError(f"operand of node {k} is not an earlier node")
            else:
                raise ValueError(f"unknown vertex kind {op!r}")
        for o in self.outputs:
            if not 0 <= o < len(self.nodes):
                raise ValueError("output reference out of range")

    # -- accounting ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Vertex count, inputs included."""
        return len(self.nodes)

    @property
    def gate_count(self) -> int:
        """Non-input vertex count."""
        return sum(1 for n in self.nodes if n[0] != "IN")

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
        """
        if len(self.nodes) * full.bit_length() > 8 * LIVE_LANE_BYTES:
            return self._run_live(in_vals, full)
        return self._run_all(in_vals, full)

    def _run_all(self, in_vals, full) -> list:
        """The plain pass: every lane is kept until the pass ends."""
        vals = [0] * len(self.nodes)
        for k, node in enumerate(self.nodes):
            op = node[0]
            if op == IN:
                vals[k] = in_vals[node[1]]
            elif op == AND:
                vals[k] = vals[node[1]] & vals[node[2]]
            elif op == OR:
                vals[k] = vals[node[1]] | vals[node[2]]
            else:
                vals[k] = vals[node[1]] ^ full
        return [vals[o] for o in self.outputs]

    def _run_live(self, in_vals, full) -> list:
        """The freeing pass: a lane is dropped right after its last reader,
        so only the live frontier is held.  Output wires are kept."""
        nodes = self.nodes
        n = len(nodes)
        last = list(range(n))   # a vertex nobody reads dies where it is made
        for k, node in enumerate(nodes):
            if node[0] != IN:
                last[node[1]] = k
                if len(node) == 3:
                    last[node[2]] = k
        for o in self.outputs:
            last[o] = n
        vals = [None] * n
        for k, node in enumerate(nodes):
            op = node[0]
            if op == IN:
                vals[k] = in_vals[node[1]]
            else:
                a = node[1]
                if op == NOT:
                    vals[k] = vals[a] ^ full
                else:
                    b = node[2]
                    if op == AND:
                        vals[k] = vals[a] & vals[b]
                    else:
                        vals[k] = vals[a] | vals[b]
                    if last[b] == k:
                        vals[b] = None
                if last[a] == k:
                    vals[a] = None
            if last[k] == k:
                vals[k] = None
        return [vals[o] for o in self.outputs]

    def evaluate_outputs(self, x) -> tuple:
        """Evaluate all output wires on one input vector."""
        if isinstance(x, BitVec):
            if x.width != self.arity:
                raise ValueError(f"input width {x.width} != arity {self.arity}")
            xi = x.value
        else:
            bits = list(x)
            if len(bits) != self.arity:
                raise ValueError(f"input width {len(bits)} != arity {self.arity}")
            xi = 0
            for j, b in enumerate(bits):
                xi |= (b & 1) << j
        in_vals = [(xi >> i) & 1 for i in range(self.arity)]
        return tuple(self._run(in_vals, 1))

    def evaluate(self, x) -> int:
        """Evaluate the (single) sink on one input vector."""
        if len(self.outputs) != 1:
            raise ValueError("evaluate needs a single-output circuit")
        return self.evaluate_outputs(x)[0]

    def output_masks(self, bound: int = SAT_ARITY_BOUND) -> list:
        """Evaluate all 2^arity assignments at once.

        Returns one integer per output wire; bit j of it is that output's
        value on the input vector encoding j.
        """
        r = self.arity
        if r > bound:
            raise ValueError(f"arity {r} exceeds exhaustive bound {bound}")
        return self._run(input_lanes(r), (1 << (1 << r)) - 1)

    def evaluate_batch(self, assignments) -> list:
        """Evaluate the circuit on a list of input vectors in one pass.

        Returns, per output wire, an integer whose bit j is the output on
        assignments[j] (each assignment an integer-encoded vector).
        """
        in_vals = [bits_to_mask(bytes((a >> i) & 1 for a in assignments))
                   for i in range(self.arity)]
        return self._run(in_vals, (1 << len(assignments)) - 1)

    def truth_table(self, bound: int = SAT_ARITY_BOUND) -> TruthTable:
        if len(self.outputs) != 1:
            raise ValueError("truth_table needs a single-output circuit")
        return TruthTable(self.arity, self.output_masks(bound)[0])

    def is_satisfiable(self, bound: int = SAT_ARITY_BOUND):
        """Exhaustive scan in integer order; the least witness or None."""
        mask = self.truth_table(bound).mask
        if mask == 0:
            return None
        least = (mask & -mask).bit_length() - 1
        return BitVec(least, self.arity)


class Builder:
    """Incremental circuit construction with structural sharing.

    Identical (op, operands) gates are merged by default; pass fresh=True
    to force a distinct vertex (the integer-minimum block does this so its
    vertex count matches the closed-form size exactly).  All ``arity``
    input vertices are created up front, ids 0..arity-1.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.nodes = [("IN", i) for i in range(arity)]
        self._cache = {}

    def inp(self, i: int) -> int:
        if not 0 <= i < self.arity:
            raise ValueError(f"no input {i}")
        return i

    def inputs(self) -> list:
        return list(range(self.arity))

    def _add(self, node, fresh: bool) -> int:
        if not fresh:
            hit = self._cache.get(node)
            if hit is not None:
                return hit
        self.nodes.append(node)
        k = len(self.nodes) - 1
        if not fresh:
            self._cache[node] = k
        return k

    def AND(self, a: int, b: int, fresh: bool = False) -> int:
        return self._add(("AND", a, b), fresh)

    def OR(self, a: int, b: int, fresh: bool = False) -> int:
        return self._add(("OR", a, b), fresh)

    def NOT(self, a: int, fresh: bool = False) -> int:
        return self._add(("NOT", a), fresh)

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
        wires = list(wires)
        if not wires:
            raise ValueError("empty chain")
        acc = wires[0]
        for w in wires[1:]:
            acc = self.AND(acc, w)
        return acc

    def or_chain(self, wires) -> int:
        wires = list(wires)
        if not wires:
            raise ValueError("empty chain")
        acc = wires[0]
        for w in wires[1:]:
            acc = self.OR(acc, w)
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
        """
        xs, ys = list(xs), list(ys)
        m = len(xs)
        if m != len(ys) or m < 1:
            raise ValueError("word widths differ")
        if m == 1:
            return [self.AND(xs[0], ys[0], fresh=True)]
        z = self.min_word(xs[:-1], ys[:-1]) + [xs[-1]]
        t = self.xor(xs[-1], ys[-1], fresh=True)
        nt = self.NOT(t, fresh=True)
        nx = self.NOT(xs[-1], fresh=True)
        ny = self.NOT(ys[-1], fresh=True)
        s1 = self.AND(t, nx, fresh=True)
        s2 = self.AND(t, ny, fresh=True)
        pz = self.mul_bit(nt, z)
        px = self.mul_bit(s1, xs)
        py = self.mul_bit(s2, ys)
        return [self.xor(self.xor(a, b, fresh=True), c, fresh=True)
                for a, b, c in zip(pz, px, py)]

    def embed(self, circ: Circuit, input_wires) -> list:
        """Splice another circuit in, feeding its inputs from given wires."""
        input_wires = list(input_wires)
        if len(input_wires) != circ.arity:
            raise ValueError("wire count != embedded circuit arity")
        wmap = {}
        for k, node in enumerate(circ.nodes):
            op = node[0]
            if op == "IN":
                wmap[k] = input_wires[node[1]]
            elif op == "NOT":
                wmap[k] = self.NOT(wmap[node[1]])
            elif op == "AND":
                wmap[k] = self.AND(wmap[node[1]], wmap[node[2]])
            else:
                wmap[k] = self.OR(wmap[node[1]], wmap[node[2]])
        return [wmap[o] for o in circ.outputs]

    def build(self, outputs) -> Circuit:
        if isinstance(outputs, int):
            outputs = (outputs,)
        return Circuit(self.arity, self.nodes, tuple(outputs))


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
    """2m-input, m-output integer minimum; (13m^2+37m-44)/2 vertices."""
    if m < 1:
        raise ValueError("width must be >= 1")
    b = Builder(2 * m)
    return b.build(b.min_word(range(m), range(m, 2 * m)))


def compose(outer: Circuit, inners) -> Circuit:
    """outer applied to the inner circuits' outputs over a shared input bus.

    The bus width is the widest inner arity; inner input i reads bus wire i.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ValueError(f"need {outer.arity} inner circuits, got {len(inners)}")
    bus = max(c.arity for c in inners)
    b = Builder(bus)
    feeds = [b.embed(c, range(c.arity))[0] for c in inners]
    wmap = {}
    for k, node in enumerate(outer.nodes):
        op = node[0]
        if op == "IN":
            wmap[k] = feeds[node[1]]
        elif op == "NOT":
            wmap[k] = b.NOT(wmap[node[1]])
        elif op == "AND":
            wmap[k] = b.AND(wmap[node[1]], wmap[node[2]])
        else:
            wmap[k] = b.OR(wmap[node[1]], wmap[node[2]])
    return b.build(wmap[outer.sink])


def from_truth_table(t: TruthTable) -> Circuit:
    """Sum-of-products synthesis; correctness helper, no minimization."""
    r = t.arity
    b = Builder(r)
    terms = []
    for v in range(1 << r):
        if t[v]:
            lits = [(i if (v >> i) & 1 else b.NOT(i)) for i in range(r)]
            terms.append(b.and_chain(lits))
    if not terms:
        return b.build(b.const0())
    return b.build(b.or_chain(terms))


def from_bits(bits) -> Circuit:
    return from_truth_table(TruthTable.from_bits(bits))


# -- text format -----------------------------------------------------------

def write_circuit(circ: Circuit) -> str:
    """One vertex per line, 0-based ids in topological order."""
    if len(circ.outputs) != 1:
        raise ValueError("text format holds single-sink circuits only")
    lines = []
    for k, node in enumerate(circ.nodes):
        op = node[0]
        if op == "IN":
            lines.append(f"v{k} INPUT {node[1]}")
        elif op == "NOT":
            lines.append(f"v{k} NOT v{node[1]}")
        else:
            lines.append(f"v{k} {op} v{node[1]} v{node[2]}")
    lines.append(f"SINK v{circ.sink}")
    return "\n".join(lines) + "\n"


def _vertex_ref(tok: str, limit: int, lineno: int) -> int:
    if not tok.startswith("v"):
        raise CircuitParseError(f"expected vertex reference, got {tok!r}", lineno)
    try:
        k = int(tok[1:])
    except ValueError:
        raise CircuitParseError(f"bad vertex reference {tok!r}", lineno) from None
    if k >= limit:
        raise CircuitParseError(f"forward reference to v{k}", lineno)
    if k < 0:
        raise CircuitParseError(f"negative vertex reference {tok!r}", lineno)
    return k


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; rejects forward references and double SINKs."""
    return parse_circuit_lines(text.splitlines())


def parse_circuit_lines(lines, start: int = 0) -> Circuit:
    """Parse lines[start:] as circuit text.  Errors carry 1-based line
    numbers within ``lines``, so a circuit inside a larger file reports
    the file's line numbers."""
    nodes = []
    sink = None
    max_input = -1
    for lineno, raw in enumerate(islice(lines, start, None), start=start + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "SINK":
            if sink is not None:
                raise CircuitParseError("multiple SINK lines", lineno)
            if len(toks) != 2:
                raise CircuitParseError("SINK takes one vertex", lineno)
            sink = _vertex_ref(toks[1], len(nodes), lineno)
            continue
        if sink is not None:
            raise CircuitParseError("vertex after SINK line", lineno)
        k = len(nodes)
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
                i = int(toks[2])
            except ValueError:
                raise CircuitParseError(f"bad input index {toks[2]!r}", lineno) from None
            if i < 0:
                raise CircuitParseError("negative input index", lineno)
            max_input = max(max_input, i)
            nodes.append((IN, i))
        elif op in (AND, OR):
            if len(toks) != 4:
                raise CircuitParseError(f"{op} takes two operands", lineno)
            a = _vertex_ref(toks[2], k, lineno)
            b2 = _vertex_ref(toks[3], k, lineno)
            nodes.append((AND if op == AND else OR, a, b2))
        elif op == NOT:
            if len(toks) != 3:
                raise CircuitParseError("NOT takes one operand", lineno)
            nodes.append((NOT, _vertex_ref(toks[2], k, lineno)))
        else:
            raise CircuitParseError(f"unknown vertex kind {op!r}", lineno)
    if not nodes:
        raise CircuitParseError("empty circuit", start + 1)
    if sink is None:
        raise CircuitParseError("missing SINK line", len(lines) or 1)
    if max_input < 0:
        raise CircuitParseError("circuit has no INPUT vertex", start + 1)
    return Circuit(max_input + 1, nodes, (sink,))
