"""Decision oracles for register structure.

Everything here decides by enumeration plus pruning, independently of how
an instance was constructed:

* sub-register search: every smaller register whose cycles are a subset of
  the analyzed register's cycles, found by a subset DFS pruned by subset
  sums over cycle periods and by window overlap (per-stage bitmasks of
  each cycle's windows; no two chosen cycles may share one), followed by
  the window-injectivity realizability check;
* cascade decomposition: brute force over small inner factors, or the
  guided search that only tries sub-registers containing the zero cycle
  (complete whenever the register maps the all-zero state to zero);
* the cycle-join graph whose arcs mark the feedback toggles selected by a
  marking predicate, with acyclicity, weak components and DOT export.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fsr import (Cycle, CycleStructure, Fsr, InvariantError, cycle_structure,
                  fsr_from_cycles, is_nonsingular, orbit_cycle, product_fsr,
                  realizable_as_fsr, state_orbits)

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


def _subset_dfs(cys, periods, masks, reach, i, remaining, acc, chosen):
    if remaining == 0:
        yield tuple(chosen)
        return
    if i >= len(cys) or not (reach[i] >> remaining) & 1:
        return
    mask = masks[i]
    if periods[i] <= remaining and mask is not None and not acc & mask:
        chosen.append(cys[i])
        yield from _subset_dfs(cys, periods, masks, reach, i + 1,
                               remaining - periods[i], acc | mask, chosen)
        chosen.pop()
    yield from _subset_dfs(cys, periods, masks, reach, i + 1, remaining, acc,
                           chosen)


def iter_subfsrs(f: Fsr, cycles: CycleStructure = None):
    """Yield every sub-register of f, smallest stage first.

    For each stage m < n, candidate cycle subsets must sum to 2^m; a
    subset-sum reachability mask over the period list prunes the search.
    The search also carries the union of the chosen cycles' m-windows as a
    bitmask and adds a cycle only when its m-windows are distinct and miss
    that union: on an m-stage register every m-window occurs once across
    all positions of all cycles, so this drops only subsets the exact
    window check (`realizable_as_fsr`, still run on every subset yielded)
    would reject, and the yield order is unchanged.
    """
    if f.stage > SUBFSR_STAGE_BOUND:
        raise ValueError(f"stage {f.stage} exceeds sub-register bound "
                         f"{SUBFSR_STAGE_BOUND}")
    cs = cycles if cycles is not None else cycle_structure(f)
    cys = sorted(cs.cycles, key=lambda c: (-c.period, c.bits))
    periods = [c.period for c in cys]
    for m in range(1, f.stage):
        target = 1 << m
        cap = (2 << target) - 1
        reach = [0] * (len(cys) + 1)
        reach[len(cys)] = 1
        for i in range(len(cys) - 1, -1, -1):
            r = reach[i + 1]
            reach[i] = (r | (r << periods[i])) & cap
        if not (reach[0] >> target) & 1:
            continue
        masks = [_window_mask(c, m) if c.period <= target else None
                 for c in cys]
        for subset in _subset_dfs(cys, periods, masks, reach, 0, target, 0,
                                  []):
            if realizable_as_fsr(subset, m):
                yield SubFsr(stage=m, cycles=frozenset(subset),
                             fsr=fsr_from_cycles(subset, m))


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

    Propagates the constraint h(window image of x under g) = f(x) over all
    x, then completes h to characteristic form.  Returns (h, free) where
    free counts outer feedback entries no constraint reached (defaulted to
    0), or None on any conflict.  Raises InvariantError if the solved h
    does not give back f as h-product-g.
    """
    n, k = f.stage, g.stage
    if not 1 <= k < n:
        raise ValueError("inner stage must be at least 1 and below f's")
    hn = n - k
    g1 = g.table
    f1 = f.table
    mask_k = (1 << k) - 1
    mask_n = (1 << n) - 1
    h_char = [None] * (1 << (hn + 1))
    for x in range(1 << (n + 1)):
        w = 0
        for i in range(hn + 1):
            w |= (((x >> (i + k)) & 1) ^ g1[(x >> i) & mask_k]) << i
        val = ((x >> n) & 1) ^ f1[x & mask_n]
        prev = h_char[w]
        if prev is None:
            h_char[w] = val
        elif prev != val:
            return None
    free = 0
    h1 = [0] * (1 << hn)
    top = 1 << hn
    for y in range(1 << hn):
        a = h_char[y]
        b = h_char[y | top]
        if a is None and b is None:
            free += 1
        elif a is None:
            h1[y] = b ^ 1
        elif b is None:
            h1[y] = a
        elif a == b:
            return None  # h would not be a register
        else:
            h1[y] = a
    h = Fsr(hn, table=h1)
    if product_fsr(h, g) != f:
        raise InvariantError("solved outer factor does not reproduce f")
    return h, free


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of a decomposability search."""

    decomposable: bool
    outer: Fsr | None
    inner: Fsr | None
    free_entries: int
    strategy: str
    candidates_tried: int
    complete: bool  # False when a brute search was capped below stage n-1


def is_decomposable(f: Fsr, strategy: str = "brute",
                    max_inner_stage: int = None) -> DecompositionReport:
    """Search for a cascade factorization of f.

    brute: enumerate every inner register of each admissible stage and
    constraint-solve the outer; inner stages above 3 are refused unless
    max_inner_stage caps the search (the result is then one-sided).
    Under either strategy a max_inner_stage below 1 raises ValueError.
    guided: try exactly the sub-registers of f containing the zero cycle,
    and their complements; complete whenever f sends the all-zero state to
    zero and is nonsingular.
    """
    if max_inner_stage is not None and max_inner_stage < 1:
        raise ValueError(f"max_inner_stage must be >= 1, got {max_inner_stage}")
    n = f.stage
    tried = 0
    if strategy == "brute":
        limit = n - 1 if max_inner_stage is None else min(max_inner_stage, n - 1)
        if limit > BRUTE_INNER_STAGE_BOUND:
            raise ValueError(
                f"brute search over inner stage {limit} is infeasible; "
                f"cap it with max_inner_stage <= {BRUTE_INNER_STAGE_BOUND}")
        for k in range(1, limit + 1):
            for mask in range(1 << (1 << k)):
                g = Fsr(k, table=mask)
                tried += 1
                res = decompose_with_inner(f, g)
                if res is not None:
                    return DecompositionReport(True, res[0], g, res[1],
                                               "brute", tried, True)
        return DecompositionReport(False, None, None, 0, "brute", tried,
                                   limit == n - 1)
    if strategy == "guided":
        if f.feedback_bit(0) != 0:
            raise ValueError("guided search needs f to fix the all-zero state")
        if not is_nonsingular(f):
            raise ValueError("guided search needs a nonsingular register")
        for sub in iter_subfsrs(f):
            if _ZERO_CYCLE not in sub.cycles:
                continue
            for g in (sub.fsr, sub.fsr.complement()):
                tried += 1
                res = decompose_with_inner(f, g)
                if res is not None:
                    return DecompositionReport(True, res[0], g, res[1],
                                               "guided", tried, True)
        return DecompositionReport(False, None, None, 0, "guided", tried, True)
    raise ValueError(f"unknown strategy {strategy!r}")


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

    def __init__(self, base: Fsr, toggled: Fsr, cycles, arcs, f3_table, lam):
        self.base = base
        self.toggled = toggled
        self.cycles = cycles          # sorted list of the base register's cycles
        self.arcs = arcs              # sorted list of Arc
        self.f3_table = f3_table
        self.lam = lam
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
        """Each toggled-register cycle's window set must be exactly the
        union over one weakly connected component, one-to-one."""
        m = self.base.stage
        target = {frozenset(o) for o in state_orbits(self.toggled)}
        comps = self.components()
        if len(comps) != len(target):
            return False
        seen = set()
        for comp in comps:
            u = set()
            for c in comp:
                u |= c.window_ints(m)
            fu = frozenset(u)
            if fu not in target or fu in seen:
                return False
            seen.add(fu)
        return True

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
        for c in self.cycles:
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
    variables only, and that the marking predicate satisfies the three
    join conditions: at most one marked state per base cycle, never both a
    state and its conjugate, and every live toggle window carries a mark.
    """
    if base.stage != toggled.stage:
        raise ValueError("stage mismatch")
    m = base.stage
    if m < 2:
        raise ValueError("join graph needs stage >= 2")
    bt = base.table
    ft = toggled.table
    n = 1 << m
    f3 = [0] * (n >> 1)
    for u in range(n >> 1):
        d0 = bt[2 * u] ^ ft[2 * u]
        d1 = bt[2 * u + 1] ^ ft[2 * u + 1]
        if d0 != d1:
            raise ValueError("difference of the registers depends on x0")
        f3[u] = d0
    if callable(lam):
        lam = [lam(v) & 1 for v in range(n)]
    else:
        lam = [int(b) & 1 for b in lam]
        if len(lam) != n:
            raise ValueError("predicate table has wrong length")
    for v in range(0, n, 2):
        if lam[v] and lam[v + 1]:
            raise ValueError("predicate marks a conjugate state pair")
    # each base orbit's states are exactly its cycle's m-windows
    state_cycle = [None] * n
    windows = {}
    for orbit in state_orbits(base):
        c = orbit_cycle(orbit)
        windows[c] = orbit
        for v in orbit:
            state_cycle[v] = c
    cycles = sorted(windows, key=Cycle.sort_key)
    for c in cycles:
        if sum(lam[v] for v in windows[c]) > 1:
            raise ValueError("predicate marks a cycle more than once")
    for u in range(n >> 1):
        if f3[u] and not (lam[2 * u] or lam[2 * u + 1]):
            raise ValueError("live toggle window carries no mark")
    arcs = []
    for c in cycles:
        for v in sorted(windows[c]):
            if f3[v >> 1] and lam[v]:
                arcs.append(Arc(tail=c, head=state_cycle[v ^ 1], witness=v))
    arcs.sort(key=lambda a: (a.tail.sort_key(), a.head.sort_key(), a.witness))
    return CycleJoinGraph(base, toggled, cycles, arcs, f3, lam)
