import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsrkit import analysis as A
from fsrkit import circuit as C
from fsrkit import fsr as F
from fsrkit import lfsr as L
from fsrkit import reduction as R


def lin(poly):
    return L.lfsr_of(L.parse_poly(poly))


def random_nonsingular(rng, n, fix_zero=False):
    gmask = rng.getrandbits(1 << (n - 1))
    if fix_zero:
        gmask &= ~1
    table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1) for s in range(1 << n)]
    return F.Fsr(n, table=table)


def test_find_subfsrs_of_cubic():
    p1 = lin("x^3 + 1")
    subs = A.find_subfsrs(p1)
    got = {(s.stage, frozenset(str(c) for c in s.cycles)) for s in subs}
    assert got == {(1, frozenset({"0", "1"})),
                   (2, frozenset({"0", "011"})),
                   (2, frozenset({"1", "001"}))}
    # the zero-containing stage-2 entry is the base trinomial register
    base = next(s for s in subs if s.stage == 2 and F.Cycle([0]) in s.cycles)
    assert base.fsr == lin("x^2 + x + 1")


def test_irreducibility_of_trinomial():
    assert A.is_irreducible(lin("x^2 + x + 1"))
    assert not A.is_irreducible(lin("x^3 + 1"))


def test_subfsr_stage_bound():
    with pytest.raises(ValueError):
        A.find_subfsrs(F.Fsr(13, table=bytes(1 << 13)))
    # (x + 1)(x^13 + x^4 + x^3 + x + 1): periods 1, 1, 8191 and 8191 reach
    # 2^13 = 2^(n - 1), the stage read off the colouring, exempt from the
    # bound
    f = lin("x^14 + x^13 + x^5 + x^3 + x^2 + 1")
    subs = [(s.stage, sorted(c.period for c in s.cycles))
            for s in A.find_subfsrs(f)]
    assert subs == [(1, [1, 1]), (13, [1, 8191]), (13, [1, 8191])]
    # (x^2 + x + 1)(x^13 + x^4 + x^3 + x + 1): periods 1, 3, 8191 and 24573
    # reach 2^2 and 2^13 = 2^(n - 2), above the bound, so the search is
    # refused unless capped below
    f = lin("x^15 + x^14 + x^13 + x^6 + 1")
    with pytest.raises(ValueError, match="reachable stage 13 exceeds "
                                         "sub-register bound 12"):
        A.find_subfsrs(f)
    assert [s.stage for s in A.iter_subfsrs(f, 12)] == [2]


def test_registers_above_stage_12_are_decided_below_their_reachable_stages():
    # (x + 1)(x^12 + x^6 + x^4 + x + 1): periods 1, 1, 4095 and 4095 reach
    # 2^1 and 2^12 only
    f = lin("x^13 + x^12 + x^7 + x^6 + x^5 + x^4 + x^2 + 1")
    subs = [(s.stage, sorted(c.period for c in s.cycles))
            for s in A.find_subfsrs(f)]
    assert subs == [(1, [1, 1]), (12, [1, 4095]), (12, [1, 4095])]
    rep = A.is_decomposable(f, "guided")
    assert (rep.decomposable, rep.complete, rep.inner.stage) == (True, True, 1)
    assert F.product_fsr(rep.outer, rep.inner) == f
    # a primitive stage-16 register's periods, 1 and 65535, reach no stage
    assert A.is_irreducible(lin("x^16 + x^5 + x^3 + x^2 + 1"))


def test_stage_19_registers_are_decided_uncapped_and_capped(monkeypatch):
    # the dec registers (ell = 9) of the 18-input AND and of g AND NOT g
    # over it: periods 1, 1 and 27 reach 2^1 and 2^18 only.  Stage 18 is
    # read off the colouring of the cycles, so with no cap and capped at 17
    # the searches build a cycle and a window mask for the two fixed
    # points alone
    made, masks = [], []
    cycle, mask = A.Cycle, A._window_mask

    def cycle_spy(bits):
        made.append(len(bits))
        return cycle(bits)

    def mask_spy(c, m):
        masks.append(m)
        return mask(c, m)

    monkeypatch.setattr(A, "Cycle", cycle_spy)
    monkeypatch.setattr(A, "_window_mask", mask_spy)
    b = C.Builder(18)
    g = b.and_chain(range(18))
    and18 = b.build(g)
    contra18 = b.build(b.AND(g, b.NOT(g)))
    for f0, decomposable in ((and18, False), (contra18, True)):
        f = R.build_indecomposability_fsr(f0).fsr
        assert f.stage == 19
        made.clear()
        masks.clear()
        # the two fixed points make a stage-1 sub-register
        assert not A.is_irreducible(f)
        assert made == [1, 1] and masks == [1, 1]
        for cap in (None, 17):
            made.clear()
            masks.clear()
            rep = A.is_decomposable(f, "guided", max_inner_stage=cap)
            assert (rep.decomposable, rep.complete) == (
                decomposable, decomposable or cap is None)
            if decomposable:
                assert (rep.inner.stage, rep.outer.stage) == (1, 18)
                assert rep.candidates_tried == 1
            else:
                # the stage-1 register and its complement; no stage 18
                assert rep.candidates_tried == 2
            assert made == [1, 1] and masks == [1, 1]


def test_every_subfsr_cycle_set_is_a_subset():
    rng = random.Random(7)
    for _ in range(25):
        f = random_nonsingular(rng, rng.randint(2, 7))
        cs = F.cycle_structure(f)
        for sub in A.find_subfsrs(f):
            assert sub.cycles <= cs.cycles
            assert F.cycle_structure(sub.fsr).cycles == sub.cycles
            assert sub.stage < f.stage


def _subfsrs_by_every_subset(f):
    """Reference: sort the cycles as iter_subfsrs does, then try every
    index subset of each stage in lexicographic order."""
    cys = sorted(F.cycle_structure(f).cycles, key=lambda c: (-c.period, c.bits))

    def subsets(start):
        for i in range(start, len(cys)):
            yield (i,)
            for rest in subsets(i + 1):
                yield (i,) + rest

    out = []
    for m in range(1, f.stage):
        for idx in subsets(0):
            cycles = [cys[i] for i in idx]
            if (sum(c.period for c in cycles) == 1 << m
                    and F.realizable_as_fsr(cycles, m)):
                out.append((m, frozenset(cycles)))
    return out


def test_find_subfsrs_is_complete_and_ordered():
    rng = random.Random(11)
    regs = [random_nonsingular(rng, n, fix_zero)
            for n in range(2, 7) for fix_zero in (False, True)
            for _ in range(4)]
    regs += [R.build_indecomposability_fsr(C.from_bits(bits)).fsr
             for bits in ([0, 0], [0, 1])]
    for f in regs:
        got = [(s.stage, s.cycles) for s in A.find_subfsrs(f)]
        assert got == _subfsrs_by_every_subset(f)


@st.composite
def top_registers(draw):
    """A nonsingular register of stage 2..9: a random one, a product with
    a stage-1 register on either side, or the linear register of a product
    of two polynomials, so that registers with a top sub-register are
    drawn too."""
    def register(n):
        gmask = draw(st.integers(0, (1 << (1 << (n - 1))) - 1))
        return F.Fsr(n, table=[(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                               for s in range(1 << n)])

    def poly(d):
        # degree d, constant term 1
        return L.GF2Poly(1 << d | draw(st.integers(0, (1 << d) - 1)) | 1)

    kind = draw(st.sampled_from(["random", "product", "linear"]))
    if kind == "random":
        return register(draw(st.integers(2, 9)))
    if kind == "product":
        pair = [register(1), register(draw(st.integers(1, 8)))]
        if draw(st.booleans()):
            pair.reverse()
        return F.product_fsr(*pair)
    d = draw(st.integers(1, 4))
    return L.lfsr_of(poly(d) * poly(draw(st.integers(1, 9 - d))))


def top_subfsrs_by_the_subset_search(f):
    """The cycle sets of f's stage n - 1 sub-registers, in order, from the
    subset search that iter_subfsrs runs below that stage."""
    m = f.stage - 1
    cys = sorted(F.cycle_structure(f).cycles,
                 key=lambda c: (-c.period, c.bits))
    cands = [(c, c.period, mask) for c in cys if c.period <= 1 << m
             and (mask := A._window_mask(c, m)) is not None]
    return [frozenset(s) for s in A._subset_dfs(cands, 1 << m)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(top_registers())
def test_top_subfsrs_by_colouring_match_the_subset_search(f):
    subs = [s for s in A.iter_subfsrs(f) if s.stage == f.stage - 1]
    assert [s.cycles for s in subs] == top_subfsrs_by_the_subset_search(f)
    for s in subs:
        assert F.cycle_structure(s.fsr).cycles == s.cycles


def test_subset_search_walks_past_the_recursion_limit():
    # 1,500 candidates of period 2 with disjoint windows: a subset summing
    # to 2048 takes 1,024 of them, one search level each
    cands = [(i, 2, 1 << i) for i in range(1500)]
    assert next(A._subset_dfs(cands, 2048)) == tuple(range(1024))


def test_decompose_with_inner_examples():
    f = F.Fsr(2, table=[0, 1, 0, 1])     # x2 + x0
    one = lin("x + 1")
    assert A.decompose_with_inner(f, one) == one
    assert A.decompose_with_inner(lin("x^3 + 1"), one) == lin("x^2 + x + 1")
    with pytest.raises(ValueError):
        A.decompose_with_inner(one, one)


def test_decompose_with_inner_checks_the_product(monkeypatch):
    f = F.Fsr(2, table=[0, 1, 0, 1])
    monkeypatch.setattr(A, "product_fsr", lambda h, g: lin("x^2 + x + 1"))
    with pytest.raises(A.InvariantError):
        A.decompose_with_inner(f, lin("x + 1"))


def test_decompose_with_inner_solves_its_definition():
    # decomposable with inner g: some h of stage n - k has h-product-g = f;
    # every h is tried for every g, and the products of each are counted:
    # given g, the outer factor is unique
    for n in (2, 3):
        for k in range(1, n):
            for gmask in range(1 << (1 << k)):
                g = F.Fsr(k, table=gmask)
                works = Counter(F.product_fsr(F.Fsr(n - k, table=hmask), g).table
                                for hmask in range(1 << (1 << (n - k))))
                for fmask in range(1 << (1 << n)):
                    f = F.Fsr(n, table=fmask)
                    h = A.decompose_with_inner(f, g)
                    if h is None:
                        assert works[f.table] == 0, (fmask, gmask)
                    else:
                        assert F.product_fsr(h, g) == f
                        assert works[f.table] == 1, (fmask, gmask)


@st.composite
def products(draw):
    """(f, g, h, x): f = h-product-g of stage 4..7 for an outer h and an
    inner g each nonsingular or singular, and a state x of f."""
    n = draw(st.integers(4, 7))
    k = draw(st.integers(1, n - 1))
    h, g = draw(any_register(n - k)), draw(any_register(k))
    return F.product_fsr(h, g), g, h, draw(st.integers(0, (1 << n) - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(products())
def test_decompose_with_inner_recovers_the_outer_factor(case):
    f, g, h, x = case
    assert A.decompose_with_inner(f, g) == h
    # each outer entry is read at the 2^k states sharing a window image, so
    # flipping f at one of them leaves no h to solve for
    table = bytearray(f.table)
    table[x] ^= 1
    assert A.decompose_with_inner(F.Fsr(f.stage, table=table), g) is None


def test_brute_decomposition():
    rep = A.is_decomposable(F.Fsr(2, table=[0, 1, 0, 1]), "brute")
    assert rep.decomposable and rep.complete
    assert F.product_fsr(rep.outer, rep.inner) == F.Fsr(2, table=[0, 1, 0, 1])
    # the trinomial register of stage 2 is indecomposable
    rep = A.is_decomposable(lin("x^2 + x + 1"), "brute")
    assert not rep.decomposable and rep.complete


def test_brute_refuses_wide_inner():
    with pytest.raises(ValueError):
        A.is_decomposable(F.Fsr(5, table=[s & 1 for s in range(32)]), "brute")
    rep = A.is_decomposable(F.Fsr(5, table=[s & 1 for s in range(32)]),
                            "brute", max_inner_stage=3)
    assert rep.decomposable  # pure cycling register factors readily


def test_inner_stage_cap_below_one_is_refused():
    f = F.Fsr(3, table=[0, 1] * 4)      # x^3 + 1 = (x + 1)(x^2 + x + 1)
    for strategy in ("brute", "guided"):
        assert A.is_decomposable(f, strategy, max_inner_stage=1).decomposable
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_inner_stage must be >= 1"):
                A.is_decomposable(f, strategy, max_inner_stage=cap)


def test_guided_preconditions():
    f = F.Fsr(2, table=[1, 0, 0, 1])  # f1(0) = 1
    with pytest.raises(ValueError):
        A.is_decomposable(f, "guided")
    with pytest.raises(ValueError):
        A.is_decomposable(F.Fsr(2, table=[0, 0, 1, 1]), "guided")


def test_inner_stage_cap_bounds_both_strategies():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has no inner factor of stage 1
    f = lin("x^4 + x^2 + 1")
    for strategy in ("brute", "guided"):
        rep = A.is_decomposable(f, strategy, max_inner_stage=1)
        assert (rep.decomposable, rep.complete) == (False, False), strategy
        for cap in (2, 3, None):
            rep = A.is_decomposable(f, strategy, max_inner_stage=cap)
            assert rep.decomposable and rep.complete, (strategy, cap)
            assert rep.inner.stage == 2


def test_capped_guided_search_stops_at_the_cap(monkeypatch):
    # a primitive degree-12 register has no sub-register at all, so only
    # the cap ends the search short of stage 11; its periods, 1 and 4095,
    # reach no 2^m below 2^12, so no window mask is built
    f = lin("x^12 + x^6 + x^4 + x + 1")
    tops, stages = [], []
    reachable, mask = A._reachable_stages, A._window_mask

    def reach_spy(periods, top):
        tops.append(top)
        return reachable(periods, top)

    def mask_spy(c, m):
        stages.append(m)
        return mask(c, m)

    monkeypatch.setattr(A, "_reachable_stages", reach_spy)
    monkeypatch.setattr(A, "_window_mask", mask_spy)
    rep = A.is_decomposable(f, "guided", max_inner_stage=1)
    assert (rep.decomposable, rep.candidates_tried, rep.complete) == (False, 0, False)
    assert tops == [1]
    assert A.is_decomposable(f, "guided").complete
    assert tops == [1, 11]
    assert stages == []


def test_brute_and_guided_agree_exhaustively():
    # every nonsingular stage <= 4 register fixing the zero state, under
    # no cap and under every inner-stage cap below n - 1
    for n in (2, 3, 4):
        for gmask in range(0, 1 << (1 << (n - 1)), 2):
            table = [(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                     for s in range(1 << n)]
            f = F.Fsr(n, table=table)
            for cap in (None, *range(1, n - 1)):
                b = A.is_decomposable(f, "brute", max_inner_stage=cap)
                g = A.is_decomposable(f, "guided", max_inner_stage=cap)
                assert ((b.decomposable, b.complete)
                        == (g.decomposable, g.complete)), (n, gmask, cap)
                if g.decomposable:
                    assert F.product_fsr(g.outer, g.inner) == f
                    assert cap is None or g.inner.stage <= cap


@st.composite
def zero_fixing_registers(draw):
    """A nonsingular register of stage <= 6 that fixes the zero state:
    a random one, or a product of two random ones, so that decomposable
    registers of stages 5 and 6 are drawn too."""
    def register(n):
        gmask = draw(st.integers(0, (1 << (1 << (n - 1))) - 1)) & ~1
        return F.Fsr(n, table=[(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                               for s in range(1 << n)])
    if draw(st.booleans()):
        return register(draw(st.integers(2, 6)))
    f = F.product_fsr(register(draw(st.integers(1, 3))),
                      register(draw(st.integers(1, 3))))
    assume(F.is_nonsingular(f))
    return f


@settings(derandomize=True, max_examples=60, deadline=None)
@given(zero_fixing_registers())
def test_brute_and_guided_agree_on_random_registers(f):
    # brute tries inner stages up to 3, which is every stage only for n <= 4
    brute = A.is_decomposable(f, "brute", max_inner_stage=3)
    guided = A.is_decomposable(f, "guided")
    if f.stage <= 4 or guided.decomposable and guided.inner.stage <= 3:
        assert brute.decomposable == guided.decomposable
    if brute.decomposable:
        assert guided.decomposable
    for rep in (brute, guided):
        if rep.decomposable:
            assert F.product_fsr(rep.outer, rep.inner) == f


def brute_by_every_table(f, cap):
    """The brute report by a literal loop that solves every inner table of
    stages 1..cap and counts each."""
    limit = min(cap, f.stage - 1)
    tried = 0
    for k in range(1, limit + 1):
        for mask in range(1 << (1 << k)):
            tried += 1
            g = F.Fsr(k, table=mask)
            h = A.decompose_with_inner(f, g)
            if h is not None:
                return A.DecompositionReport(True, h, g, "brute", tried, True)
    return A.DecompositionReport(False, None, None, "brute", tried,
                                 limit == f.stage - 1)


@st.composite
def any_register(draw, n):
    """A nonsingular or a singular register of stage n."""
    if draw(st.booleans()):
        gmask = draw(st.integers(0, (1 << (1 << (n - 1))) - 1))
        return F.Fsr(n, table=[(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                               for s in range(1 << n)])
    table = bytearray(b & 1 for b in draw(st.binary(min_size=1 << n,
                                                    max_size=1 << n)))
    s = draw(st.integers(0, (1 << n) - 1))
    table[s ^ 1] = table[s]         # f1(s) = f1(s ^ 1): singular
    return F.Fsr(n, table=table)


@st.composite
def brute_registers(draw):
    """A register of stage 2..7, nonsingular or singular, or a product of
    an outer and an inner factor each nonsingular or singular."""
    if draw(st.booleans()):
        return draw(any_register(draw(st.integers(2, 7))))
    inner = draw(st.integers(1, 3))
    outer = draw(st.integers(1, 7 - inner))
    return F.product_fsr(draw(any_register(outer)), draw(any_register(inner)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(brute_registers(), st.integers(1, 3))
def test_brute_matches_a_loop_over_every_inner_table(f, cap):
    assert A.is_decomposable(f, "brute", max_inner_stage=cap) \
        == brute_by_every_table(f, cap)


def test_nonsingular_registers_have_no_singular_inner_factor():
    for n in (2, 3, 4):
        singular = [g for k in range(1, min(3, n - 1) + 1)
                    for mask in range(1 << (1 << k))
                    if not F.is_nonsingular(g := F.Fsr(k, table=mask))]
        for gmask in range(1 << (1 << (n - 1))):
            f = F.Fsr(n, table=[(s & 1) ^ ((gmask >> (s >> 1)) & 1)
                                for s in range(1 << n)])
            for g in singular:
                assert A.decompose_with_inner(f, g) is None, (n, gmask, g)
    # a singular register keeps its singular inner factors
    zero = F.Fsr(1, table=[0, 0])
    for h in (lin("x + 1"), lin("x^2 + x + 1"), F.Fsr(3, table=[0, 1] * 4),
              F.Fsr(2, table=[1, 1, 0, 1])):
        f = F.product_fsr(h, zero)
        assert not F.is_nonsingular(f)
        rep = A.is_decomposable(f, "brute", max_inner_stage=3)
        assert rep.decomposable
        assert F.product_fsr(rep.outer, rep.inner) == f
        assert not F.is_nonsingular(rep.inner)


def test_product_of_zero_fixing_registers_is_reducible():
    rng = random.Random(13)
    found = 0
    while found < 20:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        h = random_nonsingular(rng, n, fix_zero=True)
        g = random_nonsingular(rng, m, fix_zero=True)
        prod = F.product_fsr(h, g)
        if not F.is_nonsingular(prod):
            continue
        found += 1
        subs = A.find_subfsrs(prod)
        assert any(s.fsr == g for s in subs), (list(h.table), list(g.table))


def test_join_graph_trivial_when_fields_match():
    base = lin("x^4 + x^2 + 1")
    g = A.cycle_join_graph(base, base, [0] * 16)
    assert g.arcs == []
    assert g.is_acyclic()
    assert all(len(comp) == 1 for comp in g.components())
    assert g.verify_join_identity()


def test_join_graph_precondition_errors():
    base = lin("x^4 + x^2 + 1")
    other = F.Fsr(4, table=[(s ^ (s >> 1)) & 1 for s in range(16)])
    if F.is_nonsingular(other):
        with pytest.raises(ValueError):
            A.cycle_join_graph(base, other, [0] * 16)
    # difference depending on x0: flip the base table at a single state
    tbl = list(base.table)
    tbl[5] ^= 1
    with pytest.raises(ValueError, match="x0"):
        A.cycle_join_graph(base, F.Fsr(4, table=tbl), [0] * 16)
    # marking both members of a conjugate pair
    lam = [0] * 16
    lam[6], lam[7] = 1, 1
    with pytest.raises(ValueError):
        A.cycle_join_graph(base, base, lam)
    with pytest.raises(ValueError, match="stage mismatch"):
        A.cycle_join_graph(base, lin("x^3 + x + 1"), [0] * 16)
    one = lin("x + 1")
    with pytest.raises(ValueError, match="stage >= 2"):
        A.cycle_join_graph(one, one, [0, 0])
    for size in (8, 15, 17, 32):
        with pytest.raises(ValueError, match="wrong length"):
            A.cycle_join_graph(base, base, [0] * size)
    # two windows of one base cycle, neither the conjugate of the other
    c = next(c for c in F.cycle_structure(base) if c.period == 6)
    v, w = sorted(c.window_ints(4))[:2]
    assert v ^ 1 != w
    lam = [0] * 16
    lam[v] = lam[w] = 1
    with pytest.raises(ValueError, match="marks a cycle more than once"):
        A.cycle_join_graph(base, base, lam)


def test_join_graph_predicate_entries_are_0_or_1():
    base = lin("x^4 + x^2 + 1")
    for bad in ([2] + [0] * 15, [0] * 15 + [3], [0] * 15 + [-1]):
        with pytest.raises(ValueError, match="0 or 1"):
            A.cycle_join_graph(base, base, bad)


def _random_join_instance(rng, n):
    """A base register, a toggled register and a valid marking."""
    g = random_nonsingular(rng, n)
    cs = F.cycle_structure(g)
    lam = [0] * (1 << n)
    marked = []
    taken = set()
    for c in cs:
        if rng.random() < 0.6:
            wins = sorted(c.window_ints(n))
            rng.shuffle(wins)
            for v in wins:
                if (v ^ 1) not in taken:
                    lam[v] = 1
                    taken.add(v)
                    marked.append(v)
                    break
    f3 = [0] * (1 << (n - 1))
    for v in marked:
        if rng.random() < 0.7:
            f3[v >> 1] = 1
    table = [g.table[s] ^ f3[s >> 1] for s in range(1 << n)]
    return g, F.Fsr(n, table=table), lam


def test_join_graph_component_identity_random():
    rng = random.Random(19)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 1000:
        attempts += 1
        n = rng.randint(3, 8)
        base, toggled, lam = _random_join_instance(rng, n)
        graph = A.cycle_join_graph(base, toggled, lam)
        if not graph.is_acyclic():
            continue
        checked += 1
        assert graph.verify_join_identity()
        # every sub-register of the toggled register stays within the base cycles
        if toggled.stage <= 6:
            base_cycles = F.cycle_structure(base).cycles
            for sub in A.find_subfsrs(toggled):
                assert sub.cycles <= base_cycles
    assert checked == 100


def stepped_orbits(f):
    """The state sets of f's orbits, each found by stepping f from a state
    not yet seen."""
    left = set(range(1 << f.stage))
    out = set()
    while left:
        s = left.pop()
        orbit = {s}
        t = f.step_int(s)
        while t != s:
            orbit.add(t)
            t = f.step_int(t)
        left -= orbit
        out.add(frozenset(orbit))
    return out


def window_union_identity(graph):
    """The join identity as first written: each component's union of base
    windows is one toggled orbit's state set, one-to-one."""
    m = graph.base.stage
    target = stepped_orbits(graph.toggled)
    comps = graph.components()
    if len(comps) != len(target):
        return False
    seen = set()
    for comp in comps:
        u = frozenset().union(*(c.window_ints(m) for c in comp))
        if u not in target or u in seen:
            return False
        seen.add(u)
    return True


def test_join_identity_matches_the_window_union_form():
    rng = random.Random(23)
    verdicts = []
    for _ in range(300):
        base, toggled, lam = _random_join_instance(rng, rng.randint(3, 8))
        graph = A.cycle_join_graph(base, toggled, lam)
        verdict = graph.verify_join_identity()
        assert verdict == window_union_identity(graph)
        verdicts.append((verdict, graph.is_acyclic()))
    assert {v for v, _ in verdicts} == {True, False}
    # an acyclic join keeps the identity; a cyclic one breaks it here
    assert all(v == acyclic for v, acyclic in verdicts)


def test_join_graph_cycles_follow_the_state_ids():
    base, toggled, lam = _random_join_instance(random.Random(5), 7)
    graph = A.cycle_join_graph(base, toggled, lam)
    _, bits, ids = F.state_cycles(base)
    assert graph.ids == ids
    assert graph.cycles == [F.Cycle(b) for b in bits]
    # every state is a window of the cycle its id names
    for s, i in enumerate(ids):
        assert s in graph.cycles[i].window_ints(base.stage)
    for a in graph.arcs:
        assert graph.cycles[ids[a.witness]] == a.tail
        assert graph.cycles[ids[a.witness ^ 1]] == a.head


def test_dot_export():
    f0 = __import__("fsrkit.circuit", fromlist=["from_bits"]).from_bits([0, 1])
    inst = R.build_irreducibility_fsr(f0)
    oracle = R.Alg1Oracle(1)
    base = L.lfsr_of(oracle.family.p2)
    graph = A.cycle_join_graph(base, inst.fsr, oracle.lam_table())
    dot = graph.to_dot()
    assert dot.startswith("digraph cycle_join {")
    assert 'label="acyclic=true"' in dot
    assert dot.count("->") == len(graph.arcs) >= 1
    # at least one arc leaves a short (base-family) cycle
    assert any(a.tail.period in (1, 3) for a in graph.arcs)


def test_isolated_matches_the_arc_scan():
    base = L.lfsr_of(L.LfsrFamily.for_ell(1).p2)
    oracle = R.Alg1Oracle(1)
    stray = F.Cycle([1, 1, 0, 1, 0])        # no cycle of the stage-4 base
    for bits in ([0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]):
        inst = R.build_irreducibility_fsr(C.from_bits(bits))
        graph = A.cycle_join_graph(base, inst.fsr, oracle.lam_table())
        assert graph.arcs
        for c in graph.cycles + [stray]:
            scan = all(a.tail != c and a.head != c for a in graph.arcs)
            assert graph.isolated(c) == scan
