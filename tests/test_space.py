"""Core tests: validation, enumeration against an independent counting
oracle, morphism predicates against quantifier oracles, and canonical
forms against brute-force isomorphism."""

import copy
import hashlib
import itertools
import math
import time

import networkx as nx
import pytest
from sympy.functions.combinatorial.numbers import stirling
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon import (
    DeterministicLimitModel,
    EchelonedSpace,
    RandomLimitModel,
    amalgamate,
    are_isomorphic,
    back_and_forth,
    canonical_form,
    embedding_rank_map,
    enumerate_embeddings,
    enumerate_spaces,
    from_metric,
    from_rank_table,
    from_weights,
    homomorphism_rank_map,
    induced_subspace,
    is_embedding,
    is_homomorphism,
    metrize_dull,
)
from echelon import jsonio
from echelon import space as space_module
from echelon.errors import CapExceeded, ValidationError
from echelon.katetov import katetov_space
from echelon.prng import SplitMix64Stream
from echelon.ramsey import _random_space
from helpers import (
    random_amalgam_triple,
    random_space,
    reference_are_isomorphic,
    reference_canon_search,
    reference_enumerate_spaces,
    reference_refine,
)

# --- independent oracles ---


def ordered_set_partitions(k: int) -> int:
    """Number of ways to arrange k labelled items into a nonempty sequence
    of nonempty blocks.  Standard recurrence over the size of the first
    block; counts labelled spaces on m points at k = C(m,2)."""
    a = [1]
    for i in range(1, k + 1):
        a.append(sum(math.comb(i, j) * a[i - j] for j in range(1, i + 1)))
    return a[k]


def permute_table(table, perm):
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[perm[i]][perm[j]] = table[i][j]
    return tuple(tuple(row) for row in out)


def iso_oracle(x: EchelonedSpace, y: EchelonedSpace) -> bool:
    if x.m != y.m:
        return False
    return any(
        permute_table(x.table, perm) == y.table
        for perm in itertools.permutations(range(x.m))
    )


def hom_oracle(x, y, h) -> bool:
    """Quantifier form: every rank comparison between pairs survives h."""
    points = range(x.m)
    all_pairs = [(a, b) for a in points for b in points]
    for p in all_pairs:
        for q in all_pairs:
            if x.rank(*p) <= x.rank(*q):
                if y.rank(h[p[0]], h[p[1]]) > y.rank(h[q[0]], h[q[1]]):
                    return False
    return True


def emb_oracle(x, y, h) -> bool:
    if len(set(h)) != x.m:
        return False
    points = range(x.m)
    all_pairs = [(a, b) for a in points for b in points]
    for p in all_pairs:
        for q in all_pairs:
            fwd = x.rank(*p) <= x.rank(*q)
            bwd = y.rank(h[p[0]], h[p[1]]) <= y.rank(h[q[0]], h[q[1]])
            if fwd != bwd:
                return False
    return True


EXPECTED_COUNTS = {2: 1, 3: 13, 4: 4683}

SPACES_M2 = list(enumerate_spaces(2))
SPACES_M3 = list(enumerate_spaces(3))
POINT = EchelonedSpace(1, 0, ((0,),))


def test_counting_oracle_arithmetic():
    assert ordered_set_partitions(0) == 1
    assert ordered_set_partitions(1) == 1
    assert ordered_set_partitions(3) == 13
    assert ordered_set_partitions(6) == 4683


def test_enumerate_counts_match_oracle():
    for m, expected in EXPECTED_COUNTS.items():
        assert expected == ordered_set_partitions(m * (m - 1) // 2)
    assert len(SPACES_M2) == EXPECTED_COUNTS[2]
    assert len(SPACES_M3) == EXPECTED_COUNTS[3]


def test_enumerate_m4_count():
    assert sum(1 for _ in enumerate_spaces(4)) == EXPECTED_COUNTS[4]


def test_enumerate_single_point():
    assert list(enumerate_spaces(1)) == [POINT]


def test_enumerate_yields_valid_distinct_lex():
    seen = []
    for sp in SPACES_M3:
        assert EchelonedSpace(sp.m, sp.n, sp.table) == sp  # the checked constructor accepts it
        flat = tuple(itertools.chain.from_iterable(sp.table))
        seen.append(flat)
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)


def test_enumerate_spaces_matches_the_filtered_products():
    for m in (1, 2, 3, 4):
        for up_to_iso in (False, True):
            got = list(enumerate_spaces(m, up_to_iso=up_to_iso))
            assert got == list(reference_enumerate_spaces(m, up_to_iso)), (m, up_to_iso)


def test_unchecked_builders_make_valid_spaces():
    """Every caller of the rank-compression kernel or of the rank-string
    reader skips the constructor's checks; every space they build must
    pass them."""
    built = [sp for m in (1, 2, 3, 4) for sp in enumerate_spaces(m)]
    stream = SplitMix64Stream(31)
    for _ in range(200):
        sp = random_space(stream, stream.randrange(7) + 1)
        points = [p for p in range(sp.m) if stream.randrange(2)] or [sp.m - 1]
        built += [
            sp,
            from_metric(metrize_dull(sp)),
            canonical_form(sp).space,
            induced_subspace(sp, points).space,
            amalgamate(*random_amalgam_triple(stream)).space,
            _random_space(stream.randrange(7) + 2, stream),
        ]
    for seed in range(3):
        for model in (RandomLimitModel(seed), DeterministicLimitModel(seed)):
            built += [model.sample_prefix(n) for n in (1, 2, 7, 20)]
        cert = back_and_forth(RandomLimitModel(seed), DeterministicLimitModel(seed), 8)
        built += [cert.left_space, cert.right_space]
    for sp in built:
        assert EchelonedSpace(sp.m, sp.n, sp.table) == sp


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_spaces(5))


def test_enumerate_up_to_iso_m3():
    orbits = set()
    for sp in SPACES_M3:
        orbit = frozenset(
            permute_table(sp.table, perm) for perm in itertools.permutations(range(3))
        )
        orbits.add(orbit)
    reps = list(enumerate_spaces(3, up_to_iso=True))
    assert len(reps) == len(orbits)
    rep_tables = {sp.table for sp in reps}
    for orbit in orbits:
        assert len(rep_tables & orbit) == 1


def test_validation_rejects_bad_tables():
    with pytest.raises(ValidationError):
        EchelonedSpace(2, 1, ((1, 1), (1, 0)))  # nonzero diagonal
    with pytest.raises(ValidationError):
        EchelonedSpace(2, 1, ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValidationError):
        EchelonedSpace(2, 2, ((0, 2), (2, 0)))  # rank 1 never attained
    with pytest.raises(ValidationError):
        EchelonedSpace(2, 1, ((0, 0), (0, 0)))  # off-diagonal at the bottom
    with pytest.raises(ValidationError):
        EchelonedSpace(2, 1, ((0, 1),))  # wrong shape


@pytest.mark.parametrize("n", [1, 5, False])
def test_a_single_point_has_no_ranks(n):
    assert EchelonedSpace(1, 0, ((0,),)).rank_classes() == {}
    with pytest.raises(ValidationError) as err:
        EchelonedSpace(1, n, ((0,),))
    assert err.value.code == "space/surjective"


def test_the_default_order_reader_is_built_once_per_point_count():
    assert space_module._colex_reader(4) is space_module._colex_reader(4)
    assert space_module._colex_reader(3)((1, 2, 2)) == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
    assert space_module._colex_reader(4)((1, 2, 3, 4, 5, 6)) == (
        (0, 1, 2, 4),
        (1, 0, 3, 5),
        (2, 3, 0, 6),
        (4, 5, 6, 0),
    )


def test_the_colex_reader_reads_eta_rows():
    """One flat pair order: a space document's ``eta`` rows, concatenated,
    read back to the space's table."""
    spaces = list(enumerate_spaces(4))
    assert len(spaces) == 4683
    stream = SplitMix64Stream(1717)
    spaces += [random_space(stream, m) for m in range(5, 41) for _ in range(3)]
    for sp in spaces:
        eta = [r for row in jsonio.space_to_json(sp)["eta"] for r in row]
        assert space_module._colex_reader(sp.m)(eta) == sp.table


@pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
def test_compress_ranks_each_pair_by_its_colex_index(m):
    stream = SplitMix64Stream(900 + m)
    pairs = list(space_module._colex_pairs(m))
    assert pairs == sorted(itertools.combinations(range(m), 2), key=lambda p: (p[1], p[0]))
    for _ in range(20):
        values = [stream.randrange(m) for _ in pairs]
        levels = sorted(set(values))
        sp, got = space_module._compress(m, values)
        assert got == levels and sp.n == len(levels)
        for (i, j), value in zip(pairs, values):
            assert sp.table[i][j] == sp.table[j][i] == levels.index(value) + 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: EchelonedSpace(2, True, ((0, 1), (1, 0))),
        lambda: EchelonedSpace(2, 1.0, ((0, 1), (1, 0))),
    ],
    ids=["n-true", "n-float"],
)
def test_a_rank_count_must_be_an_int(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == "space/surjective"


@pytest.mark.parametrize(
    "build",
    [
        lambda: EchelonedSpace(True, 0, ((0,),)),
        lambda: EchelonedSpace("a", 0, ((0,),)),
        lambda: from_weights(True, {}),
        lambda: from_weights(2.0, {(0, 1): 1}),
        lambda: list(enumerate_spaces(True)),
        lambda: list(enumerate_spaces("a")),
    ],
    ids=["space-true", "space-str", "weights-true", "weights-float", "enumerate-true", "enumerate-str"],
)
def test_a_point_count_must_be_an_int(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == "space/shape"


def test_from_rank_table_infers_ranks():
    sp = from_rank_table(((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    assert sp.n == 2
    assert sp.rank(0, 2) == 2


def test_from_weights_compresses_dense():
    sp = from_weights(3, {(0, 1): 5, (0, 2): 100, (1, 2): 100})
    assert sp.table == ((0, 1, 2), (1, 0, 2), (2, 2, 0))


def test_from_weights_rejects_conflict_and_nan():
    with pytest.raises(ValidationError):
        from_weights(2, {(0, 1): 1, (1, 0): 2})
    with pytest.raises(ValidationError):
        from_weights(2, {(0, 1): float("nan")})
    with pytest.raises(ValidationError):
        from_weights(3, {(0, 1): 1, (0, 2): 1})  # missing pair
    with pytest.raises(ValidationError):
        from_weights(3, {(0, 1): 1 + 2j, (0, 2): 2 + 1j, (1, 2): 3 + 3j})


@pytest.mark.parametrize("m", [0, -1, 2.0, "2", None])
def test_from_weights_refuses_a_bad_point_count(m):
    with pytest.raises(ValidationError) as err:
        from_weights(m, {(0, 1): 1})
    assert err.value.code == "space/shape"


def test_homomorphism_matches_quantifier_oracle():
    spaces = [POINT] + SPACES_M2 + SPACES_M3
    for x in spaces:
        for y in spaces:
            for h in itertools.product(range(y.m), repeat=x.m):
                assert is_homomorphism(x, y, h) == hom_oracle(x, y, h), (x, y, h)


def test_embedding_matches_quantifier_oracle():
    spaces = [POINT] + SPACES_M2 + SPACES_M3
    for x in spaces:
        for y in spaces:
            for h in itertools.product(range(y.m), repeat=x.m):
                assert is_embedding(x, y, h) == emb_oracle(x, y, h), (x, y, h)


def test_embedding_implies_homomorphism():
    for x in SPACES_M2 + SPACES_M3:
        for y in SPACES_M3:
            for h in itertools.permutations(range(y.m), x.m):
                if is_embedding(x, y, h):
                    assert is_homomorphism(x, y, h)


def test_constant_maps_are_homomorphisms():
    for x in SPACES_M3:
        for y in SPACES_M3:
            for target in range(y.m):
                h = (target,) * x.m
                assert is_homomorphism(x, y, h)
                witness = homomorphism_rank_map(x, y, h)
                assert witness is not None and set(witness) == {0}


def test_rank_map_witnesses_are_monotone():
    for x in SPACES_M2:
        for y in SPACES_M3:
            for h in itertools.product(range(y.m), repeat=x.m):
                witness = homomorphism_rank_map(x, y, h)
                if witness is None:
                    continue
                assert witness[0] == 0
                assert all(witness[i] <= witness[i + 1] for i in range(len(witness) - 1))
                strict = embedding_rank_map(x, y, h)
                if strict is not None:
                    assert all(strict[i] < strict[i + 1] for i in range(len(strict) - 1))


def test_embedding_rank_map_checks_the_point_map_once(monkeypatch):
    calls = []
    check = space_module._check_point_map

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(space_module, "_check_point_map", counting)
    for x in SPACES_M2:
        for y in SPACES_M3:
            for h in itertools.product(range(y.m), repeat=x.m):
                calls.clear()
                embedding_rank_map(x, y, h)
                assert len(calls) == 1


def test_enumerate_embeddings_matches_oracle():
    for x in SPACES_M2 + SPACES_M3[:5]:
        for y in SPACES_M3:
            found = enumerate_embeddings(x, y)
            expected = [
                h
                for h in itertools.permutations(range(y.m), x.m)
                if emb_oracle(x, y, h)
            ]
            maps = [h for h, _ in found]
            assert sorted(maps) == sorted(expected)
            assert maps == sorted(maps)
            for h, witness in found:
                assert witness[0] == 0
                assert all(a < b for a, b in zip(witness, witness[1:]))


def test_canonical_equality_is_isomorphism_m3():
    canon = [canonical_form(sp).space for sp in SPACES_M3]
    for i, x in enumerate(SPACES_M3):
        for j, y in enumerate(SPACES_M3):
            assert (canon[i] == canon[j]) == iso_oracle(x, y), (i, j)


def test_canonical_order_reconstructs_the_space():
    for sp in SPACES_M3 + [POINT]:
        cf = canonical_form(sp)
        # order[k] = original point placed at canonical position k
        perm = [0] * sp.m
        for pos, orig in enumerate(cf.order):
            perm[orig] = pos
        assert permute_table(sp.table, perm) == cf.space.table


def test_canonical_m4_spot_checks():
    some = list(itertools.islice(enumerate_spaces(4), 0, 400, 13))
    for sp in some:
        for perm in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 0, 3, 1)):
            shuffled = from_rank_table(permute_table(sp.table, perm))
            assert canonical_form(sp).space == canonical_form(shuffled).space
    assert canonical_form(some[0]).space != canonical_form(some[1]).space or iso_oracle(
        some[0], some[1]
    )


def test_are_isomorphic_matches_oracle_and_witnesses():
    for x in SPACES_M3:
        for y in SPACES_M3:
            witness = are_isomorphic(x, y)
            assert (witness is not None) == iso_oracle(x, y)
            if witness is not None:
                assert is_embedding(x, y, witness)


def test_are_isomorphic_size_mismatch():
    assert are_isomorphic(POINT, SPACES_M2[0]) is None


@st.composite
def space_with_weights(draw):
    idx = draw(st.integers(min_value=0, max_value=len(SPACES_M3) - 1))
    sp = SPACES_M3[idx]
    steps = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=sp.n, max_size=sp.n)
    )
    levels = list(itertools.accumulate(steps))
    return sp, levels


@given(space_with_weights())
@settings(max_examples=60, deadline=None)
def test_monotone_reweighting_is_invisible(case):
    sp, levels = case
    weights = {
        (i, j): levels[sp.rank(i, j) - 1]
        for i in range(sp.m)
        for j in range(i + 1, sp.m)
    }
    assert from_weights(sp.m, weights) == sp


@given(
    st.integers(min_value=0, max_value=len(SPACES_M3) - 1),
    st.permutations(list(range(3))),
)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_permutation_invariant(idx, perm):
    sp = SPACES_M3[idx]
    shuffled = from_rank_table(permute_table(sp.table, tuple(perm)))
    assert canonical_form(sp).space == canonical_form(shuffled).space


def test_induced_subspace_compresses_and_witnesses():
    sp = from_rank_table(((0, 1, 3), (1, 0, 2), (3, 2, 0)))
    sub = induced_subspace(sp, (0, 2))
    assert sub.space.table == ((0, 1), (1, 0))
    assert sub.points == (0, 2)
    assert sub.rank_map[0] == 0
    assert all(a < b for a, b in zip(sub.rank_map, sub.rank_map[1:]))
    assert is_embedding(sub.space, sp, sub.points)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=7))
@settings(max_examples=80, deadline=None)
def test_induced_subspace_rank_map_is_the_embedding_witness(seed, m):
    stream = SplitMix64Stream(seed)
    sp = random_space(stream, m)
    points = [p for p in range(m) if stream.randrange(2)] or [0]
    sub = induced_subspace(sp, points)
    assert sub.points == tuple(points)
    assert sub.rank_map == embedding_rank_map(sub.space, sp, sub.points)


def test_rank_classes_partition_pairs():
    sp = from_rank_table(((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    classes = sp.rank_classes()
    assert tuple(classes[1]) == ((0, 1),)
    assert tuple(classes[2]) == ((0, 2), (1, 2))


# --- pruned canonical search against the unpruned reference ---


def uniform(m):
    return from_rank_table([[0 if i == j else 1 for j in range(m)] for i in range(m)])


def graph_space(g):
    """Rank 1 on the edges of a graph on 0..m-1, rank 2 on the non-edges."""
    m = g.number_of_nodes()
    return from_weights(
        m, {(i, j): 1 if g.has_edge(i, j) else 2 for i, j in itertools.combinations(range(m), 2)}
    )


def shuffled(stream, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        k = stream.randrange(i + 1)
        items[i], items[k] = items[k], items[i]
    return items


def random_relabelling(stream, sp):
    return from_rank_table(permute_table(sp.table, shuffled(stream, range(sp.m))))


def assert_matches_reference(sp):
    cf = canonical_form(sp)
    flat, order = reference_canon_search(sp, tuple([0] * sp.m))
    assert tuple(cf.space.rank(a, b) for a, b in cf.space.pairs()) == flat, sp.table
    assert cf.order == order, sp.table


def test_canonical_form_matches_reference_all_m4():
    count = 0
    for sp in enumerate_spaces(4):
        assert_matches_reference(sp)
        count += 1
    assert count == 4683


def test_canonical_form_matches_reference_beyond_desk_scale():
    stream = SplitMix64Stream(2024)
    spaces = [random_space(stream, m) for m in (5, 6, 7) for _ in range(30)]
    spaces += [uniform(m) for m in (5, 6, 7)] + [graph_space(nx.petersen_graph())]
    # regular graphs that are not vertex-transitive: refinement ties points
    # of different orbits, so the search must compare unrelated branches
    spaces += [
        graph_space(nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(k))) for k in (4, 5)
    ]
    spaces.append(graph_space(nx.frucht_graph()))
    for sp in spaces:
        assert_matches_reference(sp)
        assert_matches_reference(random_relabelling(stream, sp))


def cells_of(colours):
    """The ordered partition of a colouring: points grouped by colour, in
    colour order, each cell ascending."""
    by_colour = {}
    for v, c in enumerate(colours):
        by_colour.setdefault(c, []).append(v)
    return [by_colour[c] for c in sorted(by_colour)]


def colours_of(cells):
    """The dense colouring of an ordered partition: a point's colour is
    its cell's index."""
    colours = [0] * sum(map(len, cells))
    for c, cell in enumerate(cells):
        for v in cell:
            colours[v] = c
    return tuple(colours)


def refine_colours(rows, colours):
    """The cell kernel on a colouring, read back as dense colours."""
    return colours_of(space_module._refine(rows, cells_of(colours)))


def refine_inputs(sp):
    """Every (keyed rows, colours) that canonical_form hands its refinement
    kernel, in call order, the cells read as dense colours."""
    refine = space_module._refine
    seen = []

    def record(rows, cells):
        seen.append((rows, colours_of(cells)))
        return refine(rows, cells)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_refine", record)
        canonical_form(sp)
    return seen


def assert_refine_matches_reference(sp):
    """The integer-keyed kernel against the tuple-profile one, from the
    all-0 colouring, from its refinement, and from every point
    individualized in either, as the search individualizes."""
    m = sp.m
    rows = refine_inputs(sp)[0][0]
    blank = (0,) * m
    refined = reference_refine(sp, blank)
    assert refine_colours(rows, blank) == refined, sp.table
    for colours in (blank, refined):
        for v in range(m):
            child = list(colours)
            child[v] = m
            assert refine_colours(rows, child) == reference_refine(sp, child), (sp.table, v)


def test_refine_matches_the_tuple_profile_kernel_all_m4():
    for sp in enumerate_spaces(4):
        assert_refine_matches_reference(sp)


def test_refine_matches_the_tuple_profile_kernel_on_random_spaces():
    stream = SplitMix64Stream(1613)
    for m in range(5, 14):
        for _ in range(50):
            assert_refine_matches_reference(random_space(stream, m))


def table_space(m, rank):
    return from_rank_table([[0 if i == j else rank(i, j) for j in range(m)] for i in range(m)])


def petersen():
    """Adjacent when the 2-subsets of 0..4 are disjoint, as in the search benchmark."""
    v = list(itertools.combinations(range(5), 2))
    return table_space(10, lambda i, j: 1 if not set(v[i]) & set(v[j]) else 2)


def paley13():
    squares = {x * x % 13 for x in range(1, 13)}
    return table_space(13, lambda i, j: 1 if (j - i) % 13 in squares else 2)


@pytest.mark.parametrize(
    "sp, calls",
    [
        (uniform(8), 92),
        (petersen(), 21),
        (paley13(), 12),
        (table_space(16, lambda i, j: min((i - j) % 16, (j - i) % 16)), 7),
    ],
    ids=["uniform8", "petersen", "paley13", "cycle16"],
)
def test_canonical_search_visits_the_pinned_number_of_nodes(monkeypatch, sp, calls):
    refine = space_module._refine
    count = 0

    def counting(rows, colours):
        nonlocal count
        count += 1
        return refine(rows, colours)

    monkeypatch.setattr(space_module, "_refine", counting)
    canonical_form(sp)
    assert count == calls


def cycle16():
    return table_space(16, lambda i, j: min((i - j) % 16, (j - i) % 16))


def deep_search_spaces():
    """Spaces whose searches individualize two or more levels deep, and a
    seeded relabelling of each."""
    spaces = [uniform(8), petersen(), paley13(), cycle16(), graph_space(nx.frucht_graph())]
    spaces += [
        graph_space(nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(k))) for k in (4, 5)
    ]
    stream = SplitMix64Stream(1919)
    return spaces + [random_relabelling(stream, sp) for sp in spaces]


def test_refine_matches_the_tuple_profile_kernel_along_search_paths():
    """Every colouring the search refines, down to the leaves: the kernel's
    singleton cells and rounds that split nothing occur mostly at depth 2
    and below, which the tests from the blank colouring do not reach."""
    checked = 0
    for sp in deep_search_spaces():
        for rows, colours in refine_inputs(sp):
            assert refine_colours(rows, colours) == reference_refine(sp, colours), (
                sp.table,
                colours,
            )
            checked += 1
    assert checked > 300


def test_refine_leaves_its_input_alone_and_returns_a_partition(monkeypatch):
    """Sibling nodes share their parent's cells, so on every input the
    search makes the kernel leaves the partition as it was, and returns
    ascending cells that together hold every point once."""
    refine = space_module._refine
    checked = 0

    def checking(rows, cells):
        nonlocal checked
        before = copy.deepcopy(cells)
        out = refine(rows, cells)
        assert cells == before
        assert all(cell == sorted(cell) for cell in out)
        assert sorted(v for cell in out for v in cell) == list(range(len(rows)))
        checked += 1
        return out

    monkeypatch.setattr(space_module, "_refine", checking)
    for sp in deep_search_spaces():
        canonical_form(sp)
    assert checked > 300


def test_are_isomorphic_gives_the_two_search_witness():
    """The witness, or None, of two full canonical searches and a checked
    map, on a seeded sample of 4-point spaces, each against a relabelling,
    its successor in enumeration order and a relabelled other space; on
    random 5- to 10-point spaces against a relabelling; and on the deep
    search spaces against each other's relabellings."""
    stream = SplitMix64Stream(2323)
    spaces = list(enumerate_spaces(4))
    pairs = []
    for _ in range(800):
        i = stream.randrange(len(spaces))
        other = spaces[stream.randrange(len(spaces))]
        x = spaces[i]
        pairs += [
            (x, random_relabelling(stream, x)),
            (x, spaces[(i + 1) % len(spaces)]),
            (x, random_relabelling(stream, other)),
        ]
    for m in range(5, 11):
        for _ in range(10):
            x = random_space(stream, m)
            pairs.append((x, random_relabelling(stream, x)))
    deep = deep_search_spaces()
    pairs += [(x, random_relabelling(stream, y)) for x in deep for y in deep if x.m == y.m]
    found = 0
    for x, y in pairs:
        witness = are_isomorphic(x, y)
        assert witness == reference_are_isomorphic(x, y), (x.table, y.table)
        found += witness is not None
    assert 0 < found < len(pairs)


@pytest.mark.parametrize(
    "sp, calls, canonical_calls",
    [(uniform(8), 100, 92), (petersen(), 25, 21), (paley13(), 15, 12), (cycle16(), 10, 7)],
    ids=["uniform8", "petersen", "paley13", "cycle16"],
)
def test_are_isomorphic_stops_at_the_first_tables_leaf(monkeypatch, sp, calls, canonical_calls):
    """The second search ends at its first least leaf instead of running
    its tree out, so the pair costs fewer refinements than two
    canonical_form calls (``canonical_calls`` as pinned above).  The count
    depends on the relabelling, so the relabelling is fixed."""
    y = random_relabelling(SplitMix64Stream(5), sp)
    refine = space_module._refine
    count = 0

    def counting(rows, colours):
        nonlocal count
        count += 1
        return refine(rows, colours)

    monkeypatch.setattr(space_module, "_refine", counting)
    assert are_isomorphic(sp, y) is not None
    assert count == calls
    assert count < 2 * canonical_calls


def test_canonical_forms_keep_their_bytes():
    """sha256 of repr((table, order)) over every 4-point space in
    enumeration order, then over K(X) for the uniform 3-point X."""
    digest = hashlib.sha256()
    for sp in enumerate_spaces(4):
        cf = canonical_form(sp)
        digest.update(repr((cf.space.table, cf.order)).encode())
    assert digest.hexdigest() == "3a3c02624dcd5ec1d5579ca0c76de1d889bdcddacd759fdb57ea3222e740d0e7"
    kx = katetov_space(uniform(3)).materialize(cap=1024)
    assert kx.m == 515
    cf = canonical_form(kx)
    digest.update(repr((cf.space.table, cf.order)).encode())
    assert digest.hexdigest() == "e608a3c9ae0173fc62d1dbc48c6dbec5212689516dde6ee29ec1a7d04a88fd92"


# --- isomorphism against networkx as an independent oracle ---


def rank_graph(sp):
    g = nx.complete_graph(sp.m)
    for i, j in sp.pairs():
        g.edges[i, j]["rank"] = sp.rank(i, j)
    return g


def random_space_with(stream, m, n):
    """Ranks 1..n on the pairs of m points, each rank attained."""
    pairs = list(itertools.combinations(range(m), 2))
    extra = [stream.randrange(n) + 1 for _ in range(len(pairs) - n)]
    ranks = shuffled(stream, list(range(1, n + 1)) + extra)
    table = [[0] * m for _ in range(m)]
    for (i, j), r in zip(pairs, ranks):
        table[i][j] = table[j][i] = r
    return EchelonedSpace(m, n, tuple(tuple(row) for row in table))


def test_isomorphism_agrees_with_networkx():
    stream = SplitMix64Stream(77)
    same_rank = nx.algorithms.isomorphism.numerical_edge_match("rank", 0)
    agreed = {True: 0, False: 0}
    for m in (5, 6, 7, 8):
        for case in range(24):
            x = random_space(stream, m)
            if case % 2 == 0:
                y = random_relabelling(stream, x)
            else:
                y = random_space_with(stream, m, x.n)
            expected = nx.is_isomorphic(rank_graph(x), rank_graph(y), edge_match=same_rank)
            witness = are_isomorphic(x, y)
            assert (witness is not None) == expected, (x.table, y.table)
            assert (canonical_form(x).space == canonical_form(y).space) == expected
            if witness is not None:
                assert is_embedding(x, y, witness)
            agreed[expected] += 1
    assert agreed[True] >= 48 and agreed[False] > 0


# --- class counts against Burnside's lemma as an independent oracle ---


def burnside_count(m, n):
    """Isomorphism classes of spaces on m points with exactly n ranks.

    Such a space is a surjection from the pairs onto 1..n, and a point
    permutation fixes one exactly when it is constant on the permutation's
    cycles on the pairs, so (1/m!) * sum over sigma of n! * S(c(sigma), n)."""
    pairs = list(itertools.combinations(range(m), 2))
    total = 0
    for sigma in itertools.permutations(range(m)):
        image = {p: tuple(sorted((sigma[p[0]], sigma[p[1]]))) for p in pairs}
        seen, cycles = set(), 0
        for p in pairs:
            if p not in seen:
                cycles += 1
                while p not in seen:
                    seen.add(p)
                    p = image[p]
        total += math.factorial(n) * int(stirling(cycles, n))
    assert total % math.factorial(m) == 0
    return total // math.factorial(m)


def test_class_counts_at_m4_equal_burnside():
    reps = list(enumerate_spaces(4, up_to_iso=True))
    by_n = [sum(1 for sp in reps if sp.n == n) for n in range(1, 7)]
    assert by_n == [burnside_count(4, n) for n in range(1, 7)] == [1, 9, 36, 74, 75, 30]


def test_canonical_forms_at_m5_count_the_burnside_classes():
    """Every labelled 5-point space with 2 and with 3 ranks, canonicalized:
    the distinct canonical tables are the classes Burnside's lemma counts."""
    read = space_module._colex_reader(5)
    for n, labelled, classes in ((2, 1022, 32), (3, 55980, 693)):
        tables, count = set(), 0
        for ranks in itertools.product(range(1, n + 1), repeat=10):
            if len(set(ranks)) == n:
                tables.add(canonical_form(EchelonedSpace(5, n, read(ranks))).space.table)
                count += 1
        assert count == labelled
        assert len(tables) == burnside_count(5, n) == classes


def test_are_isomorphic_uniform_m10_is_fast():
    x = uniform(10)
    y = random_relabelling(SplitMix64Stream(10), x)
    t0 = time.perf_counter()
    witness = are_isomorphic(x, y)
    elapsed = time.perf_counter() - t0
    assert witness is not None and is_embedding(x, y, witness)
    assert elapsed < 1.0, f"{elapsed:.2f}s"


@pytest.mark.parametrize("points", [[0.5, 1], ["a"], [True, 2], [1, True], ["a", 1]])
def test_induced_subspace_refuses_a_point_that_is_not_an_int(points):
    """A float or a string is no point, and True is not point 1."""
    x = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    with pytest.raises(ValidationError) as err:
        induced_subspace(x, points)
    assert err.value.code == "space/shape"
