"""Decision oracles for register structure.

Everything here decides by enumeration plus pruning, independently of how
an instance was constructed:

* sub-register search: every smaller register whose cycles are a subset of
  the analyzed register's cycles, found by a subset DFS pruned by subset
  sums over cycle periods and by window overlap (per-stage bitmasks of
  each cycle's windows; no two chosen cycles may share one), followed by
  the window-injectivity realizability check; the stage one below the
  register's is read instead off a 2-colouring of its cycles, since each
  window there lies on exactly two states;
* cascade decomposition: brute force over small inner factors, or the
  guided search that only tries sub-registers containing the zero cycle
  (complete whenever the register maps the all-zero state to zero);
* the cycle-join graph whose arcs mark the feedback toggles selected by a
  marking predicate, with acyclicity, weak components and DOT export.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .bitvec import FLIP, as_bits, xor_bits
from .fsr import (Cycle, Fsr, InvariantError, fsr_from_cycles, is_nonsingular,
                  product_fsr, state_cycles, window_images)

SUBFSR_STAGE_BOUND = 12
BRUTE_INNER_STAGE_BOUND = 3

_ZERO_CYCLE = Cycle([0])


# ---------------------------------------------------------------------------
# sub-register enumeration

@dataclass(frozen=True)
class SubFsr:
    """One sub-register: its stage, the cycle subset, and the register."""

    stage: int
    cycles: frozenset
    fsr: Fsr


def _window_mask(c: Cycle, m: int):
    """Bit w set for each m-window w of c; None when c repeats an m-window,
    since such a cycle lies on no m-stage register."""
    wins = c.window_ints(m)
    if len(wins) != c.period:
        return None
    return sum(1 << w for w in wins)


def _subset_dfs(cands, target: int):
    """Yield each subset of the (cycle, period, mask) candidates whose
    periods sum to target and whose masks are disjoint, as a tuple of
    cycles: a depth-first walk over an explicit stack, each candidate
    taken before it is left out.  A subset-sum reachability mask over the
    periods of cands[i:] prunes at each index i."""
    cap = (2 << target) - 1
    reach = [1]
    for _, period, _ in reversed(cands):
        reach.append((reach[-1] | reach[-1] << period) & cap)
    reach.reverse()
    chosen = []
    stack = [(0, target, 0, 0)]     # index, remaining sum, union, depth
    while stack:
        i, remaining, acc, depth = stack.pop()
        del chosen[depth:]
        if remaining == 0:
            yield tuple(chosen)
        elif i < len(cands) and (reach[i] >> remaining) & 1:
            c, period, mask = cands[i]
            stack.append((i + 1, remaining, acc, depth))
            if period <= remaining and not acc & mask:
                chosen.append(c)
                stack.append((i + 1, remaining - period, acc | mask, depth + 1))


def _reachable_stages(periods, top: int) -> list:
    """The stages m in 1..top whose 2^m is a sum of some of the periods:
    one subset-sum integer, each period's count split into powers of two."""
    cap = (2 << (1 << top)) - 1
    reach = 1
    for period, count in Counter(periods).items():
        k = (count + 1).bit_length() - 1    # 1, 2, ..., 2^(k-1), the rest
        for take in [1 << i for i in range(k)] + [count + 1 - (1 << k)]:
            reach |= reach << take * period & cap
    return [m for m in range(1, top + 1) if reach >> (1 << m) & 1]


def _top_colouring(ids, k: int, half: int):
    """The colours of the k orbits, as bytes, in a 2-colouring in which
    the orbits of states s and s + half differ for each s < half; None
    when one orbit holds both states of a pair, or an odd cycle of pairs
    allows no colouring.  A union-find with parity and path compression
    over the pairs, in one pass.

    The states of the orbits joined by pairs are closed under the step and
    under flipping the top bit; so their low windows are closed under a
    shift in of either bit, which reaches every window.  Every orbit is
    therefore joined to every other, and there are exactly two colourings,
    the bytes returned and their complement: a second component raises
    InvariantError."""
    parent = list(range(k))
    parity = bytearray(k)       # i's colour relative to parent[i]'s

    def find(i):
        # the root of i and i's parity to it; then every orbit on the path
        # is pointed at the root, with its own parity to it
        p, j = 0, i
        while parent[j] != j:
            p ^= parity[j]
            j = parent[j]
        q = p
        while parent[i] != j:
            parent[i], parity[i], i, q = j, q, parent[i], q ^ parity[i]
        return j, p

    for a, b in zip(ids[:half], ids[half:]):
        if a == b:
            return None
        (ra, pa), (rb, pb) = find(a), find(b)
        if ra != rb:
            parent[ra], parity[ra] = rb, pa ^ pb ^ 1
        elif pa == pb:
            return None
    roots = {find(i)[0] for i in range(k)}
    if len(roots) > 1:
        raise InvariantError(f"the top pairs split {k} orbits into "
                             f"{len(roots)} components")
    return bytes(parity)


def _top_subfsrs(orbits, ids, m: int):
    """Yield the stage-m sub-registers of a stage-(m + 1) register with
    these orbits, in the order the subset search would find them.

    Each m-window w is the low m bits of exactly two states, w and
    w + 2^m, so a sub-register takes exactly one of their two cycles: the
    sub-registers are the two colour classes of _top_colouring, if it has
    one.  The subset search, over the cycles in (-period, bits) order,
    takes each cycle before it leaves it out, so it finds first the class
    holding the first cycle in that order.  A class's state after w is
    w + 2^m's exactly when that state's orbit is in the class, so its
    feedback table is the colour of w + 2^m's orbit, or its complement,
    one pass over the top half of the ids."""
    half = 1 << m
    colour = _top_colouring(ids, len(orbits), half)
    if colour is None:
        return
    cycles = [Cycle(b) for b in orbits]
    first = min(range(len(cycles)),
                key=lambda i: (-cycles[i].period, cycles[i].bits))
    top = bytes(map(colour.__getitem__, ids[half:]))
    for taken in (colour[first], colour[first] ^ 1):
        yield SubFsr(stage=m,
                     cycles=frozenset(c for c, x in zip(cycles, colour)
                                      if x == taken),
                     fsr=Fsr(m, table=top if taken else top.translate(FLIP)))


def _subfsr(subset, m: int) -> SubFsr:
    try:
        sub = fsr_from_cycles(subset, m)
    except ValueError as e:
        raise InvariantError(f"stage-{m} subset from the window "
                             f"search: {e}") from e
    return SubFsr(stage=m, cycles=frozenset(subset), fsr=sub)


def iter_subfsrs(f: Fsr, top: int = None):
    """Yield every sub-register of f of stage at most ``top`` (every stage
    below f's by default), smallest stage first.

    Only the stages m whose 2^m is a sum of cycle periods are searched,
    found before any cycle is built.  Stage n - 1, for f of stage n, is
    taken from a 2-colouring of f's cycles (_top_subfsrs), one pass over
    the states at any stage; below it, a stage above SUBFSR_STAGE_BOUND
    is refused, and at each the search keeps the cycles whose m-windows
    are distinct, with a bitmask of those windows; subsets of them must
    sum to 2^m, and a subset-sum reachability mask over their periods
    prunes.  The search adds a cycle only when its m-windows miss
    the union of the chosen cycles' windows.  On an m-stage register every
    m-window occurs once across all positions of all cycles, so a subset
    whose periods sum to 2^m is realizable exactly when its m-windows are
    distinct and disjoint.  Each subset yielded is therefore realizable,
    and `fsr_from_cycles` failing on one raises InvariantError.
    """
    _, orbits, ids = state_cycles(f)
    n = f.stage
    top = n - 1 if top is None else min(top, n - 1)
    stages = _reachable_stages(map(len, orbits), max(top, 0))
    coloured = stages[-1:] == [n - 1]
    if coloured:
        stages.pop()
    if stages and stages[-1] > SUBFSR_STAGE_BOUND:
        raise ValueError(f"reachable stage {stages[-1]} exceeds sub-register "
                         f"bound {SUBFSR_STAGE_BOUND}")
    longest = 1 << stages[-1] if stages else 0  # longer repeats a window
    ordered = sorted((Cycle(b) for b in orbits if len(b) <= longest),
                     key=lambda c: (-c.period, c.bits))
    for m in stages:
        target = 1 << m
        cands = [(c, c.period, mask) for c in ordered if c.period <= target
                 and (mask := _window_mask(c, m)) is not None]
        for subset in _subset_dfs(cands, target):
            yield _subfsr(subset, m)
    if coloured:
        yield from _top_subfsrs(orbits, ids, n - 1)


def find_subfsrs(f: Fsr) -> list:
    """All sub-registers of every stage below f's."""
    return list(iter_subfsrs(f))


def is_irreducible(f: Fsr) -> bool:
    """True iff f has no sub-register at all."""
    return next(iter_subfsrs(f), None) is None


# ---------------------------------------------------------------------------
# cascade decomposition

def decompose_with_inner(f: Fsr, g: Fsr):
    """Solve for an outer factor h with h-product-g equal to f.

    product_fsr(h, g) has feedback g1(x >> hn) ^ h1(w(x)) at state x, with
    hn the stage of h and w(x) the window image of x under g, so one pass
    over f's states sets h1(w(x)) = f1(x) ^ g1(x >> hn).  The low g.stage
    bits of x and w(x) fix x, so the pass reaches every entry of h1, and h
    is the one outer factor for g.  Returns h, or None on any conflict.
    Raises InvariantError if the solved h does not give back f as
    h-product-g.
    """
    if not 1 <= g.stage < f.stage:
        raise ValueError("inner stage must be at least 1 and below f's")
    hn = f.stage - g.stage
    f1, g1 = f.table, g.table
    h1 = bytearray([2]) * (1 << hn)     # 2: not yet reached
    for x, w in enumerate(window_images(g, hn)):
        val = f1[x] ^ g1[x >> hn]
        if h1[w] == 2:
            h1[w] = val
        elif h1[w] != val:
            return None
    h = Fsr(hn, table=h1)
    if product_fsr(h, g) != f:
        raise InvariantError("solved outer factor does not reproduce f")
    return h


def _brute_inners(limit: int, nonsingular: bool):
    """Each inner table of stages 1..limit in mask order, as the register
    to solve, or None where a nonsingular f rules it out unsolved: a table
    with g1(s) = g1(s ^ 1) for some s."""
    for k in range(1, limit + 1):
        even = ((1 << (1 << k)) - 1) // 3     # the bits of the even states
        for mask in range(1 << (1 << k)):
            if not nonsingular or ((mask >> 1) ^ mask) & even == even:
                yield Fsr(k, table=mask)
            else:
                yield None


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of a decomposability search."""

    decomposable: bool
    outer: Fsr | None
    inner: Fsr | None
    strategy: str
    candidates_tried: int
    complete: bool  # False when a search was capped below stage n-1


def is_decomposable(f: Fsr, strategy: str = "brute",
                    max_inner_stage: int = None) -> DecompositionReport:
    """Search for a cascade factorization of f.

    brute: enumerate every inner register of each admissible stage and
    constraint-solve the outer; inner stages above 3 are refused unless
    max_inner_stage caps the search.  Lemma: a nonsingular f has no inner
    factor g of stage k with g1(s) = g1(s ^ 1) for some s, since states x
    and x ^ 1 with x mod 2^k = s then share a window image while
    f1(x) ^ g1(x >> (n - k)) differs on them; brute counts each such g
    unsolved.
    guided: try exactly the sub-registers of f containing the zero cycle,
    and their complements; complete whenever f sends the all-zero state to
    zero and is nonsingular.
    Under either strategy max_inner_stage caps the inner stages tried (a
    negative answer below stage n-1 is then one-sided, complete=False),
    and a max_inner_stage below 1 raises ValueError.
    """
    if max_inner_stage is not None and max_inner_stage < 1:
        raise ValueError(f"max_inner_stage must be >= 1, got {max_inner_stage}")
    n = f.stage
    limit = n - 1 if max_inner_stage is None else min(max_inner_stage, n - 1)
    if strategy == "brute":
        if limit > BRUTE_INNER_STAGE_BOUND:
            raise ValueError(
                f"brute search over inner stage {limit} is infeasible; "
                f"cap it with max_inner_stage <= {BRUTE_INNER_STAGE_BOUND}")
        inners = _brute_inners(limit, is_nonsingular(f))
    elif strategy == "guided":
        if f.feedback_bit(0) != 0:
            raise ValueError("guided search needs f to fix the all-zero state")
        if not is_nonsingular(f):
            raise ValueError("guided search needs a nonsingular register")
        inners = (g for sub in iter_subfsrs(f, limit)
                  if _ZERO_CYCLE in sub.cycles
                  for g in (sub.fsr, sub.fsr.complement()))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    tried = 0
    for tried, g in enumerate(inners, 1):
        h = None if g is None else decompose_with_inner(f, g)
        if h is not None:
            return DecompositionReport(True, h, g, strategy, tried, True)
    return DecompositionReport(False, None, None, strategy, tried,
                               limit == n - 1)


# ---------------------------------------------------------------------------
# the cycle-join graph

@dataclass(frozen=True)
class Arc:
    tail: Cycle
    head: Cycle
    witness: int  # the marked state on the tail cycle whose toggle is live


class CycleJoinGraph:
    """Directed graph on a base register's cycles.

    An arc leaves cycle c1 for c2 when some state v on c1 is marked by the
    predicate, the toggle field is on at v's window, and v's conjugate
    lies on c2.  When the graph is acyclic, each cycle of the toggled
    register is the union of one weakly connected component.
    """

    def __init__(self, base: Fsr, toggled: Fsr, cycles, ids, arcs):
        self.base = base
        self.toggled = toggled
        self.cycles = cycles          # the base cycles, in orbit order
        self.ids = ids                # ids[s]: index in cycles of s's cycle
        self.arcs = arcs              # sorted list of Arc
        self._index = {c: i for i, c in enumerate(cycles)}
        self._joined = {c for a in arcs for c in (a.tail, a.head)}

    def isolated(self, c: Cycle) -> bool:
        return c not in self._joined

    def is_acyclic(self) -> bool:
        k = len(self.cycles)
        adj = [[] for _ in range(k)]
        indeg = [0] * k
        for a in self.arcs:
            adj[self._index[a.tail]].append(self._index[a.head])
            indeg[self._index[a.head]] += 1
        queue = [i for i in range(k) if indeg[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j in adj[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        return seen == k

    def components(self) -> list:
        """Weakly connected components, each a frozenset of cycles."""
        parent = list(range(len(self.cycles)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a in self.arcs:
            ri, rj = find(self._index[a.tail]), find(self._index[a.head])
            if ri != rj:
                parent[ri] = rj
        groups = {}
        for i, c in enumerate(self.cycles):
            groups.setdefault(find(i), []).append(c)
        return sorted((frozenset(g) for g in groups.values()),
                      key=lambda g: min(c.sort_key() for c in g))

    def verify_join_identity(self) -> bool:
        """Each toggled-register cycle's states must be exactly the states
        of one weakly connected component, one-to-one: the distinct
        (toggled orbit, component) pairs over all states number as many as
        the toggled orbits and as the components."""
        seeds, _, ids = state_cycles(self.toggled)
        comps = self.components()
        of = {c: k for k, comp in enumerate(comps) for c in comp}
        comp = [of[c] for c in self.cycles]     # by base cycle index
        pairs = {(t, comp[i]) for t, i in zip(ids, self.ids)}
        return len(pairs) == len(seeds) == len(comps)

    def _label(self, c: Cycle) -> str:
        return f"{c.period}@{int(str(c), 2):x}"

    def to_dot(self) -> str:
        palette = ["lightblue", "lightyellow", "lightgreen", "lightpink",
                   "lightgray", "orange", "cyan", "violet"]
        color = {}
        for i, comp in enumerate(self.components()):
            for c in comp:
                color[c] = palette[i % len(palette)]
        lines = ["digraph cycle_join {",
                 f'  label="acyclic={str(self.is_acyclic()).lower()}";']
        for c in sorted(self.cycles, key=Cycle.sort_key):
            lines.append(f'  "{self._label(c)}" [style=filled '
                         f'fillcolor={color[c]}];')
        for a in self.arcs:
            lines.append(f'  "{self._label(a.tail)}" -> "{self._label(a.head)}"'
                         f' [label="{a.witness:x}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def cycle_join_graph(base: Fsr, toggled: Fsr, lam) -> CycleJoinGraph:
    """Build the join graph for toggled = base + toggle field.

    Checks that the two registers differ by a function of the middle
    variables only, that the marking predicate is a 0/1 table over the
    states, and that it satisfies the three join conditions: at most one
    marked state per base cycle, never both a state and its conjugate, and
    every live toggle window carries a mark.
    """
    if base.stage != toggled.stage:
        raise ValueError("stage mismatch")
    m = base.stage
    if m < 2:
        raise ValueError("join graph needs stage >= 2")
    n = 1 << m
    diff = xor_bits(base.table, toggled.table)
    f3 = diff[0::2]
    if f3 != diff[1::2]:
        raise ValueError("difference of the registers depends on x0")
    lam = as_bits(lam)
    if len(lam) != n:
        raise ValueError("predicate table has wrong length")
    # byte u (int.from_bytes puts entry u of the 0/1 bytes there): state 2u
    # is marked, and state 2u + 1
    even, odd = (int.from_bytes(lam[i::2], "little") for i in (0, 1))
    if even & odd:
        raise ValueError("predicate marks a conjugate state pair")
    _, bits, ids = state_cycles(base)
    marked = list(compress(range(n), lam))
    if len({ids[v] for v in marked}) != len(marked):
        raise ValueError("predicate marks a cycle more than once")
    if int.from_bytes(f3, "little") & ~(even | odd):
        raise ValueError("live toggle window carries no mark")
    cycles = [Cycle(b) for b in bits]
    arcs = sorted((Arc(tail=cycles[ids[v]], head=cycles[ids[v ^ 1]], witness=v)
                   for v in marked if f3[v >> 1]),
                  key=lambda a: (a.tail.sort_key(), a.head.sort_key(), a.witness))
    return CycleJoinGraph(base, toggled, cycles, ids, arcs)
