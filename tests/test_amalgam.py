"""Strong amalgamation over a shared subspace.

Chain arithmetic is pinned on worked examples (values derived by hand
from the interleaving rule); the square properties are then checked on
seeded random triples."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon import (
    amalgamate,
    chain_amalgam,
    from_weights,
    is_embedding,
    jep,
)
from echelon import amalgam
from echelon.errors import MorphismError, ValidationError
from echelon.prng import SplitMix64Stream

from helpers import (
    random_amalgam_triple,
    random_space,
    random_superspace,
    reference_amalgamate,
    reference_chain_amalgam,
    reference_jep,
)


def test_chain_amalgam_no_gaps():
    # both chains are bot < r1, fully shared
    chain = chain_amalgam(2, 2, 2, (0, 1), (0, 1))
    assert chain.size == 3
    assert chain.g1 == (0, 1)
    assert chain.g2 == (0, 1)
    assert chain.top == 2


def test_chain_amalgam_disjoint_tails():
    # chains bot < r1 < r2 < r3 glued along bot < r1
    chain = chain_amalgam(2, 4, 4, (0, 1), (0, 1))
    assert chain.size == 7
    assert chain.g1 == (0, 1, 2, 3)
    assert chain.g2 == (0, 1, 4, 5)
    assert chain.top == 6


def test_chain_amalgam_interleaves_first_side_first():
    # shared element sits at height 2 in the first chain, height 1 in the
    # second; the first chain's gap element lands below it
    chain = chain_amalgam(2, 4, 2, (0, 2), (0, 1))
    assert chain.size == 5
    assert chain.g1 == (0, 1, 2, 3)
    assert chain.g2 == (0, 2)
    assert chain.top == 4


def test_chain_amalgam_rejects_bad_maps():
    with pytest.raises(ValidationError):
        chain_amalgam(2, 3, 3, (1, 2), (0, 1))  # bottom not fixed
    with pytest.raises(ValidationError):
        chain_amalgam(3, 3, 3, (0, 2, 1), (0, 1, 2))  # not increasing
    with pytest.raises(ValidationError):
        chain_amalgam(2, 3, 3, (0, 5), (0, 1))  # out of range
    with pytest.raises(ValidationError):
        chain_amalgam(2, 3, 3, (0,), (0, 1))  # wrong length


def test_amalgamate_worked_example():
    shared = from_weights(2, {(0, 1): 1})
    b1 = from_weights(3, {(0, 1): 2, (0, 2): 1, (1, 2): 3})
    b2 = from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    result = amalgamate(shared, b1, b2, (0, 1), (0, 1))
    assert result.space.m == 4
    assert result.g1 == (0, 1, 2)
    assert result.g2 == (0, 1, 3)
    # B1 keeps ranks 2,1,3; B2's fresh point sees the shared pair's class;
    # the cross pair gets the fresh top
    t = result.space.table
    assert t[0][1] == 2 and t[0][2] == 1 and t[1][2] == 3
    assert t[0][3] == 2 and t[1][3] == 2
    assert t[2][3] == 4
    assert result.space.n == 4


def test_amalgamate_rejects_non_embeddings():
    shared = from_weights(2, {(0, 1): 1})
    b = from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    with pytest.raises(MorphismError):
        amalgamate(shared, b, b, (0, 0), (0, 1))


def test_square_properties_on_seeded_triples():
    stream = SplitMix64Stream(2024)
    for trial in range(60):
        shared, b1, b2, f1, f2 = random_amalgam_triple(stream)
        result = amalgamate(shared, b1, b2, f1, f2)
        g1, g2 = result.g1, result.g2
        # exact commuting square
        assert tuple(g1[f1[a]] for a in range(shared.m)) == tuple(
            g2[f2[a]] for a in range(shared.m)
        ), trial
        assert is_embedding(b1, result.space, g1)
        assert is_embedding(b2, result.space, g2)
        # strong amalgamation: the legs overlap exactly on the shared image
        overlap = set(g1) & set(g2)
        assert overlap == {g1[f1[a]] for a in range(shared.m)}, trial


@st.composite
def amalgam_triples(draw):
    """(A, B1, B2, f1, f2) on at most 7 points a side, built from a seed."""
    a_size = draw(st.integers(min_value=1, max_value=7))
    sizes = [draw(st.integers(min_value=a_size, max_value=7)) for _ in range(2)]
    stream = SplitMix64Stream(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    shared = random_space(stream, a_size)
    b1, f1 = random_superspace(stream, shared, sizes[0])
    b2, f2 = random_superspace(stream, shared, sizes[1])
    return shared, b1, b2, f1, f2


def _pullback(space, g):
    """The space that ``space`` induces on the points g[0], g[1], ..."""
    k = len(g)
    return from_weights(k, {(i, j): space.rank(g[i], g[j]) for i in range(k) for j in range(i + 1, k)})


@given(amalgam_triples())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_amalgam_restricts_to_both_sides(triple):
    shared, b1, b2, f1, f2 = triple
    result = amalgamate(shared, b1, b2, f1, f2)
    for side, g in ((b1, result.g1), (b2, result.g2)):
        assert len(set(g)) == len(g)
        assert _pullback(result.space, g) == side


@given(amalgam_triples())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_amalgam_images_overlap_exactly_on_the_shared_image(triple):
    shared, b1, b2, f1, f2 = triple
    result = amalgamate(shared, b1, b2, f1, f2)
    g1, g2 = result.g1, result.g2
    assert set(g1) & set(g2) == {g1[f1[a]] for a in range(shared.m)}
    assert set(g1) & set(g2) == {g2[f2[a]] for a in range(shared.m)}
    assert set(g1) | set(g2) == set(range(result.space.m))


def test_jep_overlaps_in_one_point():
    stream = SplitMix64Stream(11)
    for _ in range(20):
        left = random_space(stream, stream.randrange(4) + 1)
        right = random_space(stream, stream.randrange(4) + 1)
        result = jep(left, right)
        assert result.space.m == left.m + right.m - 1
        assert is_embedding(left, result.space, result.g1)
        assert is_embedding(right, result.space, result.g2)
        assert len(set(result.g1) & set(result.g2)) == 1


@pytest.mark.parametrize(
    "args",
    [
        (2, 3, 3, (0, "a"), (0, 1)),
        (2, 3, 3, (0, 1), (0, 1.0)),
        (2, 3, 3, (False, True), (0, 1)),
        ("2", 3, 3, (0, 1), (0, 1)),
        (2, 3.0, 3, (0, 1), (0, 1)),
        (True, 2, 2, (0,), (0,)),
    ],
    ids=["map-str", "map-float", "map-bool", "size-str", "size-float", "size-bool"],
)
def test_chain_amalgam_refuses_values_that_are_not_ints(args):
    """A float or a string is no chain position or size, and False is not
    the bottom."""
    with pytest.raises(ValidationError) as err:
        chain_amalgam(*args)
    assert err.value.code == "chain/map"


def _strict_chain_maps(size_a, size_b):
    return [(0, *rest) for rest in itertools.combinations(range(1, size_b), size_a - 1)]


def test_chain_amalgam_matches_the_two_loop_reference_exhaustively():
    """Every strict chain map of a shared chain of at most 4 elements into
    two chains of at most 6."""
    cases = 0
    for size_a in range(1, 5):
        for size_b1, size_b2 in itertools.product(range(size_a, 7), repeat=2):
            for h1, h2 in itertools.product(_strict_chain_maps(size_a, size_b1), _strict_chain_maps(size_a, size_b2)):
                args = (size_a, size_b1, size_b2, h1, h2)
                assert chain_amalgam(*args) == reference_chain_amalgam(*args), args
                cases += 1
    assert cases == sum(math.comb(6, size_a) ** 2 for size_a in range(1, 5))


def test_amalgamate_and_jep_match_the_reference_on_seeded_triples():
    stream = SplitMix64Stream(28)
    for trial in range(3000):
        shared, b1, b2, f1, f2 = random_amalgam_triple(stream)
        assert amalgamate(shared, b1, b2, f1, f2) == reference_amalgamate(shared, b1, b2, f1, f2), trial
        assert jep(b1, b2) == reference_jep(b1, b2), trial


def test_amalgamate_does_not_recheck_the_rank_maps_it_reads(monkeypatch):
    """The embeddings' rank maps are strict int chain maps already, so
    ``amalgamate`` builds the chain amalgam without the public checks,
    which ``chain_amalgam`` still runs once per chain map."""
    calls = []
    check = amalgam._check_chain_map
    monkeypatch.setattr(amalgam, "_check_chain_map", lambda *args: calls.append(args) or check(*args))
    stream = SplitMix64Stream(29)
    for trial in range(200):
        shared, b1, b2, f1, f2 = random_amalgam_triple(stream)
        assert amalgamate(shared, b1, b2, f1, f2) == reference_amalgamate(shared, b1, b2, f1, f2), trial
    assert calls == []
    chain_amalgam(2, 3, 3, (0, 1), (0, 2))
    assert len(calls) == 2


def test_amalgamate_matches_the_reference_on_named_shapes():
    shared = from_weights(2, {(0, 1): 1})
    left = from_weights(3, {(0, 1): 2, (0, 2): 1, (1, 2): 3})
    # the right side lies wholly inside the shared image: no fresh point,
    # so the fresh top labels no pair and the amalgam is the left side
    inside = amalgamate(shared, left, shared, (2, 0), (0, 1))
    assert inside == reference_amalgamate(shared, left, shared, (2, 0), (0, 1))
    assert inside.space == left and inside.g2 == (2, 0) and inside.space.n < inside.chain.top
    # the left side is the shared space: the right side's points follow it
    right = from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    equal = amalgamate(shared, shared, right, (0, 1), (1, 2))
    assert equal == reference_amalgamate(shared, shared, right, (0, 1), (1, 2))
    assert equal.g1 == (0, 1) and equal.g2 == (2, 0, 1)
    # joint embedding of two points is the point itself
    point = from_weights(1, {})
    joint = jep(point, point)
    assert joint == reference_jep(point, point)
    assert joint.space == point and joint.g1 == joint.g2 == (0,)
