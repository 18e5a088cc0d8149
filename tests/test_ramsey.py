"""Ordered spaces, arrow checks, and the graph translation.

The arrow oracle below enumerates every colouring with no pruning, so it
only runs on tiny instances; arrow_check must agree with it exactly.
Beyond them, flat cliques have closed-form answers (pigeonhole, and
R(3,3) = 6), and the decision kernel is pinned to the reference kernel
in helpers, which rescans every B-copy and tries every colour."""

import itertools

import pytest

from echelon import (
    EchelonedSpace,
    OrderedEchelonedSpace,
    OrderedEdgeColouredGraph,
    arrow_check,
    copy_set,
    enumerate_spaces,
    from_weights,
    graph_embeddings,
    ordered_embeddings,
    ordered_space_graph,
    phi_inverse,
    phi_translate,
    witness_search,
)
from echelon import ramsey
from echelon.errors import BudgetExceeded, EchelonError, ValidationError
from echelon.prng import SplitMix64Stream
from echelon.space import ENUMERATE_CAP

from helpers import (
    random_space,
    reference_arrow_check,
    reference_decide,
    reference_enumerate_spaces,
    reference_ordered_embeddings,
    reference_witness_search,
)

POINT = OrderedEchelonedSpace(EchelonedSpace(1, 0, ((0,),)), (0,))
EDGE = OrderedEchelonedSpace(from_weights(2, {(0, 1): 1}), (0, 1))


def ident(space):
    return OrderedEchelonedSpace(space, tuple(range(space.m)))


def flat(m):
    """All pairs at the same rank."""
    return from_weights(m, {p: 1 for p in itertools.combinations(range(m), 2)})


def shuffled(stream, n):
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def emb_oracle(a, c):
    """Order-preserving injections that carry every pair comparison."""
    found = []
    for img in itertools.permutations(range(c.m), a.m):
        pos = [c.order.index(img[x]) for x in a.order]
        if pos != sorted(pos):
            continue
        ok = True
        for p in itertools.combinations(range(a.m), 2):
            for q in itertools.combinations(range(a.m), 2):
                lhs = a.space.rank(*p) <= a.space.rank(*q)
                rhs = c.space.rank(img[p[0]], img[p[1]]) <= c.space.rank(
                    img[q[0]], img[q[1]]
                )
                if lhs != rhs:
                    ok = False
        if ok:
            found.append(img)
    return sorted(found)


def graph_emb_oracle(a, c):
    """Order-preserving injections with identical labels, non-edge included."""
    found = []
    for img in itertools.permutations(range(c.v), a.v):
        pos = [c.order.index(img[x]) for x in a.order]
        if pos != sorted(pos):
            continue
        if all(
            a.colour(p, q) == c.colour(img[p], img[q])
            for p, q in itertools.combinations(range(a.v), 2)
        ):
            found.append(img)
    return sorted(found)


def arrow_oracle(c, a, b, k):
    """Try literally every colouring of the A-copies.  A B-copy's A-copies
    share a colour when they use at most one, so a B-copy that contains no
    A-copy is monochromatic under every colouring."""
    copies_a = copy_set(a, c)
    copies_b = [
        frozenset(img) for img in ordered_embeddings(b, c)
    ]
    if not copies_b:
        return False
    for colouring in itertools.product(range(k), repeat=len(copies_a)):
        good = False
        for bset in copies_b:
            cols = {
                colouring[i]
                for i, cset in enumerate(copies_a)
                if cset <= bset
            }
            if len(cols) <= 1:
                good = True
                break
        if not good:
            return False
    return True


def test_ordered_space_validation():
    with pytest.raises(ValidationError):
        OrderedEchelonedSpace(EchelonedSpace(1, 0, ((0,),)), (0, 1))
    with pytest.raises(ValidationError):
        OrderedEchelonedSpace(from_weights(2, {(0, 1): 1}), (0, 0))


def test_ordered_embeddings_match_oracle():
    stream = SplitMix64Stream(11)
    for _ in range(25):
        a_sp = random_space(stream, stream.randrange(3) + 1)
        c_sp = random_space(stream, stream.randrange(3) + 2)
        a = OrderedEchelonedSpace(a_sp, shuffled(stream, a_sp.m))
        c = OrderedEchelonedSpace(c_sp, shuffled(stream, c_sp.m))
        assert sorted(ordered_embeddings(a, c)) == emb_oracle(a, c)


def test_copy_sets_are_point_sets():
    c = ident(from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}))
    copies = copy_set(EDGE, c)
    assert len(copies) == 3
    assert len(set(copies)) == 3
    assert all(len(s) == 2 for s in copies)


def test_arrow_check_matches_oracle_on_pigeonhole():
    # flat C with m points arrows (edge, 2 colours) exactly when m >= 3
    for size in range(2, 5):
        c = ident(flat(size))
        want = arrow_oracle(c, POINT, EDGE, 2)
        assert want == (size >= 3)
        assert arrow_check(c, POINT, EDGE, 2) == want


def test_arrow_check_matches_oracle_on_random_instances():
    stream = SplitMix64Stream(23)
    for _ in range(20):
        c = ident(random_space(stream, stream.randrange(2) + 3))
        b_sp = random_space(stream, 2)
        b = ident(b_sp)
        k = stream.randrange(2) + 2
        want = arrow_oracle(c, POINT, b, k)
        assert arrow_check(c, POINT, b, k) == want


def _budgeted_sizes(k, top=20):
    """Every m up to top whose k^m point colourings fit ARROW_BUDGET."""
    return [m for m in range(1, top + 1) if k**m <= ramsey.ARROW_BUDGET]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_flat_clique_arrows_the_edge_over_points_exactly_past_k(k):
    """Pigeonhole: k colours on the points of flat K_m force a
    monochromatic pair exactly when m >= k + 1.  Colourings with up to k
    colours in use take the colour-symmetry path for k >= 3."""
    for m in _budgeted_sizes(k):
        assert arrow_check(ident(flat(m)), POINT, EDGE, k) == (m >= k + 1), (m, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_flat_clique_arrows_the_triangle_over_points_exactly_past_2k(k):
    """Pigeonhole: k colours on the points of flat K_m force three points of
    one colour exactly when m >= 2k + 1."""
    triangle = ident(flat(3))
    for m in _budgeted_sizes(k):
        assert arrow_check(ident(flat(m)), POINT, triangle, k) == (m >= 2 * k + 1), (m, k)


def test_two_colourings_of_the_edges_of_k6_force_a_triangle():
    """R(3,3) = 6 (Greenwood & Gleason 1955): flat K5 has a 2-colouring of
    its edges with no monochromatic triangle, flat K6 has none."""
    triangle = ident(flat(3))
    assert not arrow_check(ident(flat(5)), EDGE, triangle, 2)
    assert arrow_check(ident(flat(6)), EDGE, triangle, 2)


def test_a_b_copy_with_no_a_copy_is_monochromatic():
    """The A-copies of a B-copy that contains none share every colour, so
    one such B-copy makes C arrow, whatever the colouring."""
    assert arrow_check(POINT, EDGE, POINT, 2)
    arrows, copies_a, copies_b = ramsey._arrow(EDGE, EDGE, POINT, 2, ramsey.ARROW_BUDGET)
    assert arrows and len(copies_a) == 1 and len(copies_b) == 2
    for c, a, b in ((POINT, EDGE, POINT), (EDGE, EDGE, POINT)):
        assert reference_arrow_check(c, a, b, 2) and arrow_oracle(c, a, b, 2)
    assert ramsey._decide([], [frozenset({0})], 3) and not ramsey._decide([frozenset({0})], [], 3)


def _subsets(pattern, m):
    return [(pairs, frozenset(h)) for pairs, h in ramsey._subsets(pattern, range(m))]


def test_decide_matches_the_reference_kernel_exhaustively():
    """Every 4-point C under the identity order, A a point or an edge, every
    B of 2 or 3 points, k = 1..3; then seeded C of 5 and 6 points with
    seeded A and B wherever k^(A-copies) <= 2^12.  The same answer as the
    kernel that rescans every B-copy at every node and tries every colour
    (computed once per distinct input)."""
    known = {}

    def pin(copies_a, copies_b, k):
        key = copies_a, copies_b, k
        if key not in known:
            known[key] = reference_decide(copies_a, copies_b, k)
        assert ramsey._decide(copies_a, copies_b, k) == known[key], key
        return known[key]

    subsets_a = [_subsets(ramsey._pattern(a), 4) for a in (POINT, EDGE)]
    subsets_b = [_subsets(ramsey._pattern(ident(sp)), 4) for m in (2, 3) for sp in enumerate_spaces(m)]
    decided = 0
    for c in enumerate_spaces(4):
        for s_a in subsets_a:
            copies_a = tuple(ramsey._walk(s_a, c.table))
            for s_b in subsets_b:
                copies_b = tuple(ramsey._walk(s_b, c.table))
                for k in (1, 2, 3):
                    pin(copies_a, copies_b, k)
                    decided += 1
    assert decided == 4683 * 2 * 14 * 3
    stream = SplitMix64Stream(2121)
    answers = set()
    for _ in range(300):
        c = ident(random_space(stream, stream.randrange(2) + 5))
        a = ident(random_space(stream, stream.randrange(3) + 1))
        b = ident(random_space(stream, stream.randrange(2) + 2))
        k = stream.randrange(3) + 1
        copies_a = copy_set(a, c)
        if k ** len(copies_a) <= 1 << 12:
            answers.add(pin(copies_a, copy_set(b, c), k))
    assert answers == {True, False}


def test_one_colour_arrows_as_soon_as_there_is_a_b_copy():
    """With k = 1 every B-copy is monochromatic: flat K13 arrows flat K6
    into flat K13 without a search over its 1,716 A-copies, and a C with
    no B-copy still does not arrow."""
    c = ident(flat(13))
    arrows, copies_a, copies_b = ramsey._arrow(c, ident(flat(6)), c, 1, ramsey.ARROW_BUDGET)
    assert arrows and len(copies_a) == 1716 and len(copies_b) == 1
    assert not arrow_check(ident(flat(3)), POINT, ident(flat(4)), 1)


def test_arrow_check_rejects_bad_colour_count():
    with pytest.raises(ValidationError):
        arrow_check(POINT, POINT, POINT, 0)


def test_arrow_budget():
    c = ident(flat(4))
    with pytest.raises(BudgetExceeded):
        arrow_check(c, POINT, EDGE, 2, budget=2)


def distinct(m):
    """Every pair at its own rank: no two pairs share one."""
    return from_weights(m, {p: i + 1 for i, p in enumerate(itertools.combinations(range(m), 2))})


def test_a_c_without_b_copies_answers_false_whatever_the_budget():
    """A 6-point C with 15 distinct ranks holds no flat triangle, so it
    cannot arrow: 3^15 colourings of its edge copies exceed both budgets,
    yet the budget is never consulted.  With a B-copy it still binds."""
    c, triangle = ident(distinct(6)), ident(flat(3))
    for k, budget in ((3, 5), (3, ramsey.ARROW_BUDGET), (1, ramsey.ARROW_BUDGET)):
        arrows, copies_a, copies_b = ramsey._arrow(c, EDGE, triangle, k, budget)
        assert (arrows, len(copies_a), len(copies_b)) == (False, 15, 0)
    with pytest.raises(BudgetExceeded) as info:
        arrow_check(ident(flat(6)), EDGE, triangle, 3, 5)
    assert info.value.message == "3^15 colourings exceed the budget 5"


@pytest.mark.parametrize("k, budget", [(0, 0), (0, -1), (-2, 0), (0, 1)])
def test_arrow_check_refuses_as_witness_search_does(monkeypatch, k, budget):
    """One check, in one order, before any copy is listed: a budget below
    1 is refused before fewer than one colour."""

    def no_copies(*args):
        raise AssertionError("copies listed before the arguments were checked")

    monkeypatch.setattr(ramsey, "copy_set", no_copies)
    monkeypatch.setattr(ramsey, "_walk", no_copies)
    want = (
        ("arrow/budget", f"the budget {budget} admits no colouring")
        if budget < 1
        else ("arrow/colours", "at least one colour required")
    )
    for call in (
        lambda: arrow_check(EDGE, POINT, EDGE, k, budget),
        lambda: witness_search(POINT, EDGE, k, budget=budget),
    ):
        with pytest.raises((BudgetExceeded, ValidationError)) as info:
            call()
        assert (info.value.code, info.value.message) == want


def test_arrow_fails_when_c_is_b_itself():
    # colour the two points differently
    assert not arrow_check(EDGE, POINT, EDGE, 2)


def test_arrow_single_copy_is_monochromatic():
    stream = SplitMix64Stream(5)
    for _ in range(10):
        sp = random_space(stream, stream.randrange(3) + 1)
        s = ident(sp)
        assert arrow_check(s, s, s, 3)


def test_pigeonhole_witness_is_three_points():
    c = witness_search(POINT, EDGE, 2)
    assert c is not None
    assert c.space.m == 3
    assert arrow_check(c, POINT, EDGE, 2)


def test_point_witness_is_a_point():
    c = witness_search(POINT, POINT, 5)
    assert c is not None and c.space.m == 1


def test_self_witness_is_the_edge():
    c = witness_search(EDGE, EDGE, 2)
    assert c is not None
    assert c.space.m == 2
    assert arrow_check(c, EDGE, EDGE, 2)


def test_witness_search_can_fail_within_cap():
    # colouring each point by itself defeats any C with as many points as copies
    a = POINT
    b = EDGE
    c = witness_search(a, b, 4, size_cap=3)
    assert c is None or arrow_check(c, a, b, 4)


@pytest.mark.parametrize("budget", [1, 0, -1])
def test_witness_search_refuses_a_budget_below_one(budget):
    """Every candidate has at least one colouring, so a budget below 1 would
    skip them all and report no witness; it is refused before the search."""
    if budget >= 1:
        assert witness_search(POINT, EDGE, 2, budget=budget) is None  # 2^n > 1 for every candidate
        assert witness_search(POINT, EDGE, 1, budget=budget).space.m == 2
        return
    with pytest.raises(BudgetExceeded) as info:
        witness_search(POINT, EDGE, 2, budget=budget)
    assert info.value.code == "arrow/budget"
    assert info.value.message == f"the budget {budget} admits no colouring"


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("cap", [1, 2, 4])
def test_witness_search_refuses_fewer_than_one_colour(k, cap):
    """k < 1 is refused before the search, whatever the cap.  A cap below
    |B| examines no candidate, so the search that checked k only per
    candidate answered None there; every other cap raised the same error."""
    with pytest.raises(ValidationError) as info:
        witness_search(POINT, EDGE, k, size_cap=cap)
    assert (info.value.code, info.value.message) == ("arrow/colours", "at least one colour required")
    if cap < EDGE.m:
        assert reference_witness_search(POINT, EDGE, k, size_cap=cap) is None
    else:
        with pytest.raises(ValidationError) as before:
            reference_witness_search(POINT, EDGE, k, size_cap=cap)
        assert before.value.message == info.value.message


@pytest.mark.parametrize("budget, size", [(8, 3), (7, None)])
def test_witness_search_decides_a_candidate_at_the_exact_budget(budget, size):
    """The flat triangle has 3 point copies: 2^3 colourings fit a budget of
    8 and it is decided; at 7 every candidate of 3 or 4 points is skipped."""
    found = witness_search(POINT, EDGE, 2, budget=budget)
    assert (found and found.m) == size
    assert found == reference_witness_search(POINT, EDGE, 2, budget=budget)


def _search_outcome(search, a, b, k, **options):
    try:
        c = search(a, b, k, **options)
    except EchelonError as e:
        return type(e).__name__, e.code, e.message
    return None if c is None else (c.space.table, c.space.n, c.order)


def test_witness_search_matches_the_reference_search():
    """A seeded sample of the grid: every A and B of at most 3 points (B in
    reversed order), k in 0..3, and four (cap, seed, samples, budget)
    settings.  The same witness, None or error as the search that wraps
    every candidate and calls arrow_check, except where k < 1 meets a cap
    below |B| (pinned in the test above)."""
    small = [sp for m in (1, 2, 3) for sp in enumerate_spaces(m)]
    grid = [
        (a_sp, b_sp, k, options)
        for a_sp in small
        for b_sp in small
        for k in range(4)
        for options in (
            dict(size_cap=4, seed=0, samples=200, budget=1 << 20),
            dict(size_cap=5, seed=3, samples=30, budget=1 << 20),
            dict(size_cap=4, seed=0, samples=200, budget=64),
            dict(size_cap=2, seed=0, samples=5, budget=1 << 20),
        )
        if k >= 1 or options["size_cap"] >= b_sp.m
    ]
    stream = SplitMix64Stream(1818)
    kinds = set()
    for _ in range(120):
        a_sp, b_sp, k, options = grid[stream.randrange(len(grid))]
        a = ident(a_sp)
        b = OrderedEchelonedSpace(b_sp, tuple(reversed(range(b_sp.m))))
        got = _search_outcome(witness_search, a, b, k, **options)
        assert got == _search_outcome(reference_witness_search, a, b, k, **options), (a, b, k, options)
        kinds.add("none" if got is None else "error" if isinstance(got[0], str) else "witness")
    assert kinds == {"none", "error", "witness"}


def test_witness_search_compiles_each_pattern_once(monkeypatch):
    """A and B are compiled once per call, and only the witness returned is
    built as an ordered space: candidates stay bare tables."""
    compiled, built = [], []
    triangle = ident(flat(3))
    pattern, post_init = ramsey._pattern, OrderedEchelonedSpace.__post_init__

    def counting_pattern(a):
        compiled.append(a)
        return pattern(a)

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ramsey, "_pattern", counting_pattern)
    monkeypatch.setattr(OrderedEchelonedSpace, "__post_init__", counting_post_init)
    assert witness_search(EDGE, triangle, 2) is None
    assert compiled == [EDGE, triangle] and built == []
    compiled.clear()
    found = witness_search(POINT, EDGE, 3)
    assert compiled == [POINT, EDGE] and built == [found]
    assert found.m == 4


def test_graph_roundtrip_through_phi():
    stream = SplitMix64Stream(7)
    for _ in range(15):
        sp = random_space(stream, stream.randrange(3) + 2)
        s = OrderedEchelonedSpace(sp, shuffled(stream, sp.m))
        g = ordered_space_graph(s)
        assert g.is_complete()
        colour = object()
        h = phi_translate(g, colour)
        assert not any(lab == colour for _, lab in h.edges)
        back = phi_inverse(h, colour)
        assert back == g


def test_phi_requires_complete_graph():
    g = OrderedEdgeColouredGraph(3, (0, 1, 2), (((0, 1), 1),))
    with pytest.raises(ValidationError):
        phi_translate(g, 1)


def test_translation_preserves_embedding_sets():
    stream = SplitMix64Stream(41)
    for _ in range(20):
        a_sp = random_space(stream, 2)
        c_sp = random_space(stream, stream.randrange(2) + 3)
        a = ident(a_sp)
        c = OrderedEchelonedSpace(c_sp, shuffled(stream, c_sp.m))
        ga, gc = ordered_space_graph(a), ordered_space_graph(c)
        before = sorted(graph_embeddings(ga, gc))
        assert before == graph_emb_oracle(ga, gc)
        for colour in range(1, c_sp.n + 1):
            ha, hc = phi_translate(ga, colour), phi_translate(gc, colour)
            assert sorted(graph_embeddings(ha, hc)) == before


def test_graph_embeddings_agree_on_shared_scale():
    # C restricted to a point subset keeps literal ranks, so both notions
    # of embedding see the identity inclusion
    c_sp = flat(4)
    c = ident(c_sp)
    a = ident(flat(2))
    ga, gc = ordered_space_graph(a), ordered_space_graph(c)
    assert sorted(ordered_embeddings(a, c)) == sorted(graph_embeddings(ga, gc))


def partial_graph(stream, v):
    """A graph on v vertices under a shuffled order: each pair a non-edge,
    an edge coloured None, or an edge coloured 1 or 2, and the edges listed
    in a shuffled order."""
    drawn = [
        (pair, stream.randrange(4)) for pair in itertools.combinations(range(v), 2)
    ]
    edges = [(pair, (None, 1, 2)[d - 1]) for pair, d in drawn if d]
    listing = shuffled(stream, len(edges))
    return OrderedEdgeColouredGraph(v, shuffled(stream, v), tuple(edges[i] for i in listing))


def test_graph_embeddings_match_the_oracle_on_partial_shuffled_graphs():
    stream = SplitMix64Stream(26)
    found = 0
    for a_v in range(5):
        for c_v in range(6):
            for _ in range(8):
                a, c = partial_graph(stream, a_v), partial_graph(stream, c_v)
                got = graph_embeddings(a, c)
                assert sorted(got) == graph_emb_oracle(a, c)
                assert len(set(got)) == len(got)
                found += len(got)
                if a_v > c_v:
                    assert got == []
                if a_v == 0:
                    assert got == [()]
    assert found > 100


def test_graph_embeddings_list_c_position_subsets_in_order():
    c = OrderedEdgeColouredGraph(4, (2, 0, 3, 1), ())
    a = OrderedEdgeColouredGraph(2, (1, 0), ())
    got = graph_embeddings(a, c)
    # position subsets (0,1), (0,2), ... of c, a's point 1 first in a's order
    assert got == [(c.order[q], c.order[p]) for p, q in itertools.combinations(range(4), 2)]


def test_phi_inverse_lists_its_edges_in_pair_order():
    h = OrderedEdgeColouredGraph(4, (3, 1, 0, 2), (((2, 3), 5), ((0, 2), 4), ((1, 3), 5)))
    back = phi_inverse(h, 7)
    assert [pair for pair, _ in back.edges] == list(itertools.combinations(range(4), 2))
    assert dict(back.edges) == {
        (0, 1): 7, (0, 2): 4, (0, 3): 7, (1, 2): 7, (1, 3): 5, (2, 3): 5
    }
    assert back.order == h.order and back.is_complete()


def test_an_edge_coloured_none_stays_an_edge_through_phi_inverse():
    h = OrderedEdgeColouredGraph(3, (0, 1, 2), (((1, 2), None), ((0, 1), 1)))
    back = phi_inverse(h, 3)
    assert back.edges == (((0, 1), 1), ((0, 2), 3), ((1, 2), None))
    assert phi_inverse(OrderedEdgeColouredGraph(0, (), ()), 3).edges == ()


def test_graph_validation():
    with pytest.raises(ValidationError):
        OrderedEdgeColouredGraph(2, (0, 1), (((1, 0), 1),))
    with pytest.raises(ValidationError):
        OrderedEdgeColouredGraph(2, (0,), ())
    with pytest.raises(ValidationError):
        OrderedEdgeColouredGraph(2, (0, 1), (((0, 1), 1), ((0, 1), 2)))


def test_enumerated_spaces_all_support_identity_order():
    for sp in enumerate_spaces(3):
        s = ident(sp)
        assert copy_set(POINT, s) == tuple(frozenset({i}) for i in range(3))


def test_ordered_embeddings_match_the_reference_exhaustively():
    """Every A of at most 3 points against every 4-point C, each under a
    seeded order, then seeded C of 5 and 6 points: the same maps as the
    fully checked loop, in the same order."""
    stream = SplitMix64Stream(707)
    small = [sp for m in (1, 2, 3) for sp in enumerate_spaces(m)]
    found = 0
    for c_sp in enumerate_spaces(4):
        c = OrderedEchelonedSpace(c_sp, shuffled(stream, 4))
        for a_sp in small:
            a = OrderedEchelonedSpace(a_sp, shuffled(stream, a_sp.m))
            got = ordered_embeddings(a, c)
            assert got == reference_ordered_embeddings(a, c), (a, c)
            found += len(got)
    for _ in range(300):
        c_sp = random_space(stream, stream.randrange(2) + 5)
        a_sp = random_space(stream, stream.randrange(4) + 1)
        c = OrderedEchelonedSpace(c_sp, shuffled(stream, c_sp.m))
        a = OrderedEchelonedSpace(a_sp, shuffled(stream, a_sp.m))
        got = ordered_embeddings(a, c)
        assert got == reference_ordered_embeddings(a, c), (a, c)
        found += len(got)
    assert found > 10_000  # the chains accept as well as refuse


def test_witness_search_matches_the_reference_kernels(monkeypatch):
    """The same witnesses with the kept candidates replaced by the reference
    enumeration and the decision by the reference kernel."""
    stream = SplitMix64Stream(808)
    triangle = ident(flat(3))
    cases = [(POINT, EDGE, 2, 4, 0), (EDGE, triangle, 2, 5, 3), (POINT, triangle, 2, 5, 1)]
    for _ in range(3):
        a = ident(random_space(stream, stream.randrange(2) + 1))
        b = ident(random_space(stream, 3))
        k, cap = stream.randrange(2) + 2, stream.randrange(2) + 4
        cases.append((a, b, k, cap, stream.randrange(1 << 16)))

    def answers():
        out = []
        for a, b, k, cap, seed in cases:
            c = witness_search(a, b, k, size_cap=cap, seed=seed, samples=20)
            out.append(None if c is None else (c.space, c.order))
        return out

    got = answers()
    monkeypatch.setattr(ramsey, "_exhaustive", lambda m: tuple(reference_enumerate_spaces(m)))
    monkeypatch.setattr(ramsey, "_decide", reference_decide)
    assert got == answers()
    assert any(w is None for w in got) and any(w is not None for w in got)


def test_witness_search_enumerates_each_size_once(monkeypatch):
    """The spaces of each size up to ENUMERATE_CAP are enumerated on first
    use and kept across searches; larger sizes are sampled, never kept."""
    calls = []

    def counting(m):
        calls.append(m)
        return enumerate_spaces(m)

    monkeypatch.setattr(ramsey, "enumerate_spaces", counting)
    ramsey._exhaustive.cache_clear()
    exhaustive = list(range(EDGE.m, ENUMERATE_CAP + 1))
    found = witness_search(POINT, EDGE, 4, size_cap=6, samples=5)  # no C of 4 points arrows
    assert found.m == 5 and calls == exhaustive
    assert witness_search(EDGE, ident(flat(3)), 2) is None
    assert witness_search(POINT, EDGE, 2).m == 3
    assert calls == exhaustive
    assert ramsey._exhaustive.cache_info().currsize == len(exhaustive)  # sizes 5 and 6 were sampled


def test_random_ordered_space_keeps_the_draw_order():
    """Each sample is the space of pair-keyed weights drawn as before: one
    draw for the level count, then one per pair in lexicographic order."""
    for m in range(2, 9):
        got, want = SplitMix64Stream(m), SplitMix64Stream(m)
        pairs = list(itertools.combinations(range(m), 2))
        for _ in range(20):
            levels = want.randrange(len(pairs)) + 1
            weights = {p: want.randrange(levels) for p in pairs}
            assert ramsey._random_space(m, got) == from_weights(m, weights)


@pytest.mark.parametrize("order", [(0.0, 1, 2), (False, 1, 2), ("a", 1, 2)], ids=["float", "bool", "str"])
def test_an_order_must_list_int_points(order):
    """A float or a string is no point, and False is not point 0: the
    ordered space and the ordered graph refuse them before any walk."""
    x = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    with pytest.raises(ValidationError) as err:
        OrderedEchelonedSpace(x, order)
    assert err.value.code == "ordered/shape"
    with pytest.raises(ValidationError) as err:
        OrderedEdgeColouredGraph(3, order, ())
    assert err.value.code == "ordered/shape"


@pytest.mark.parametrize("edge", [(0.0, 1), (0, True), ("a", 1)], ids=["float", "bool", "str"])
def test_a_graph_edge_must_join_int_vertices(edge):
    with pytest.raises(ValidationError) as err:
        OrderedEdgeColouredGraph(3, (0, 1, 2), ((edge, 1),))
    assert err.value.code == "graph/shape"


@pytest.mark.parametrize("v, order", [(2.0, (0, 1)), (True, (0,)), ("2", (0, 1))], ids=["float", "bool", "str"])
def test_a_graph_vertex_count_must_be_an_int(v, order):
    """A vertex count that is not an int has no order to list."""
    with pytest.raises(ValidationError) as err:
        OrderedEdgeColouredGraph(v, order, ())
    assert err.value.code == "ordered/shape"


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_arrow_arguments_must_be_ints(bad):
    """A colour count or a budget that is not an int is refused with the
    code of its range check, by both entry points."""
    for call, code in (
        (lambda: arrow_check(EDGE, POINT, EDGE, bad), "arrow/colours"),
        (lambda: arrow_check(EDGE, POINT, EDGE, 2, bad), "arrow/budget"),
        (lambda: witness_search(POINT, EDGE, bad), "arrow/colours"),
        (lambda: witness_search(POINT, EDGE, 2, budget=bad), "arrow/budget"),
    ):
        with pytest.raises((BudgetExceeded, ValidationError)) as err:
            call()
        assert err.value.code == code
