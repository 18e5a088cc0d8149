"""The one-point-extension space K(X) and its functor action.

Size identities are checked two ways: the closed formulas and a direct
count of the chain built label by label.  Extension realization is pinned
on a worked example, then swept exhaustively for small bases.  The
position formulas are pinned against the label-list code kept in
``helpers``: the chain, the label transport on every embedding between
small spaces, the one-point extensions against the enumeration filter,
the digit-table K(phi) against the per-point loop, and the realization's
one rank map against the induced-subspace check."""

import hashlib
import itertools

import pytest

from echelon import (
    EchelonedSpace,
    chain_label_map,
    embedding_rank_map,
    enumerate_embeddings,
    enumerate_spaces,
    from_weights,
    induced_subspace,
    is_embedding,
    katetov_chain,
    katetov_map,
    katetov_space,
    one_point_extensions,
    realize_extension,
)
from echelon import katetov
from echelon.errors import CapExceeded, MorphismError
from echelon.katetov import APART, BOT, KatetovChain, rank_label, slot
from echelon.prng import SplitMix64Stream

from helpers import (
    random_embedding_chain,
    reference_chain_label_map,
    reference_chain_labels,
    reference_katetov_map,
    reference_one_point_extensions,
    reference_realize_extension,
)

SMALL = [next(iter(enumerate_spaces(1)))] + list(enumerate_spaces(2)) + list(
    enumerate_spaces(3)
)


def chain_size_formula(m: int, n: int) -> int:
    return n + 2 + (n + 1) * m


def katetov_size_formula(m: int, n: int) -> int:
    return m + (chain_size_formula(m, n) - 1) ** m


def test_chain_structure_two_points():
    chain = KatetovChain.of(2, 1)
    assert chain.labels == (
        BOT,
        APART,
        slot(1, 0),
        slot(2, 0),
        rank_label(1),
        slot(1, 1),
        slot(2, 1),
    )
    assert len(chain) == chain_size_formula(2, 1)
    assert chain.position(rank_label(1)) == 4
    assert chain.label_at(1) == APART


def test_chain_positions_equal_the_label_list():
    for m in range(4):
        for n in range(7):
            chain = KatetovChain.of(m, n)
            labels = reference_chain_labels(m, n)
            assert chain.labels == labels and len(chain) == len(labels)
            for pos, label in enumerate(labels):
                assert chain.position(label) == pos
                assert chain.label_at(pos) == label
            off_chain = (slot(m + 1, 0), slot(1, n + 1), rank_label(0), rank_label(n + 1), ("top",))
            malformed = (("rank",), ("slot", "a", 1), (), ("rank", 1.0))
            for off in off_chain + malformed:
                with pytest.raises(KeyError):
                    chain.position(off)
            for pos in (-1, len(labels)):
                with pytest.raises(IndexError):
                    chain.label_at(pos)


def test_size_identities_small_bases():
    for sp in SMALL:
        chain = katetov_chain(sp)
        assert len(chain) == chain_size_formula(sp.m, sp.n)
        kx = katetov_space(sp)
        assert kx.m == katetov_size_formula(sp.m, sp.n)
        assert kx.width == len(chain) - 1
        assert kx.n == len(chain) - 1


def test_katetov_materializes_to_a_valid_space():
    sp = from_weights(2, {(0, 1): 1})
    kx = katetov_space(sp)
    table = kx.materialize()
    assert isinstance(table, EchelonedSpace)  # constructor enforces density
    assert table.m == 38
    assert table.n == 6
    for u in range(kx.m):
        for v in range(kx.m):
            assert table.rank(u, v) == kx.rank(u, v)


def test_materialize_matches_rank_on_small_bases():
    """The table K(X) is materialized to is a valid space, and it agrees
    with ``rank`` on every ordered pair; the uniform 3-point base gives 515
    points."""
    uniform = from_weights(3, {p: 1 for p in itertools.combinations(range(3), 2)})
    for base in SMALL[:2] + [uniform]:
        kx = katetov_space(base)
        space = kx.materialize(cap=1024)
        assert EchelonedSpace(space.m, space.n, space.table) == space
        assert (space.m, space.n) == (kx.m, kx.n)
        for u in range(kx.m):
            row = space.table[u]
            assert all(row[v] == kx.rank(u, v) for v in range(kx.m)), (base, u)
    assert space.m == 515


def test_materialize_cap():
    sp = next(sp for sp in enumerate_spaces(3) if sp.n == 3)
    with pytest.raises(CapExceeded):
        katetov_space(sp).materialize()


def test_base_size_cap():
    four = next(iter(enumerate_spaces(4)))
    with pytest.raises(CapExceeded):
        katetov_space(four)


def test_identity_embedding_for_all_small_bases():
    for sp in SMALL:
        kx = katetov_space(sp)
        lam = kx.identity_embedding()
        assert lam == tuple(range(sp.m))
        assert embedding_rank_map(sp, kx, lam) is not None


def test_function_point_roundtrip():
    kx = katetov_space(from_weights(2, {(0, 1): 1}))
    for point in range(kx.base.m, kx.m):
        values = kx.function_values(point)
        assert len(values) == kx.base.m
        assert all(1 <= v <= kx.width for v in values)
        assert kx.function_point(values) == point


def test_rank_rules():
    base = from_weights(2, {(0, 1): 1})
    kx = katetov_space(base)
    chain = kx.chain
    assert kx.rank(0, 1) == chain.position(rank_label(1))
    f = kx.function_point((1, 1))
    g = kx.function_point((2, 3))
    assert kx.rank(f, g) == chain.position(APART)
    assert kx.rank(0, g) == 2
    assert kx.rank(1, g) == 3
    assert kx.rank(f, f) == 0


def test_realize_extension_worked_example():
    base = from_weights(2, {(0, 1): 1})
    ext = from_weights(3, {(0, 1): 2, (0, 2): 1, (1, 2): 2})
    kx, g = realize_extension(base, ext)
    assert g[0] == 0 and g[1] == 1
    assert is_embedding(ext, kx, g)
    chain = kx.chain
    # the new point sits strictly below the realized pair class at 0 and
    # exactly on it at 1
    assert kx.rank(g[2], 0) == chain.position(slot(1, 0))
    assert kx.rank(g[2], 1) == chain.position(rank_label(1))


def test_every_extension_realizes_over_identity():
    for sp in [SMALL[0]] + list(enumerate_spaces(2)):
        for ext in one_point_extensions(sp):
            kx, g = realize_extension(sp, ext)
            assert tuple(g[: sp.m]) == tuple(range(sp.m))
            assert is_embedding(ext, kx, g)


def test_rank_reads_one_digit(monkeypatch):
    """A rank between a base point and an extension point reads that
    point's one digit: realizing every four-point space over its first
    three points decodes no code, and the digit read agrees with the
    decoded value tuple on every extension point of every small base."""
    decodes = []
    decode = katetov.KatetovSpace.function_values
    monkeypatch.setattr(
        katetov.KatetovSpace, "function_values", lambda kx, f: decodes.append(f) or decode(kx, f)
    )
    for ext in enumerate_spaces(4):
        realize_extension(induced_subspace(ext, range(3)).space, ext)
    assert decodes == []
    monkeypatch.undo()
    points = 0
    for sp in SMALL:
        kx = katetov_space(sp)
        for f in range(sp.m, kx.m):
            values = kx.function_values(f)
            assert kx.function_point(values) == f
            for x in range(sp.m):
                assert kx.rank(x, f) == kx.rank(f, x) == values[x]
            points += 1
    assert len(SMALL) == 15 and points == 2 + 36 + 35456


def outcome(realize, space, extension):
    """What a realization gives: its base and g, or its error."""
    try:
        kx, g = realize(space, extension)
    except MorphismError as err:
        return err.code, err.message
    return kx.base, g


def test_realize_extension_equals_the_induced_subspace_check():
    """The identity's rank map decides the restriction as the induced
    subspace comparison did, on every base of at most 3 points against every
    space one point larger."""
    counts = {"ok": 0, "extend/restriction": 0}
    for sp in SMALL:
        for ext in enumerate_spaces(sp.m + 1):
            got = outcome(realize_extension, sp, ext)
            assert got == outcome(reference_realize_extension, sp, ext), (sp.table, ext.table)
            counts["ok" if got[0] == sp else got[0]] += 1
    assert counts == {"ok": 1 + 13 + 4683, "extend/restriction": 12 * 4683}


def test_realize_extension_rejects_wrong_restriction():
    base = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    flat = from_weights(4, {p: 1 for p in itertools.combinations(range(4), 2)})
    with pytest.raises(MorphismError):
        realize_extension(base, flat)  # restriction collapses the classes
    with pytest.raises(MorphismError):
        realize_extension(base, base)  # wrong point count


def test_one_point_extensions_restrict_back():
    base = from_weights(2, {(0, 1): 1})
    exts = list(one_point_extensions(base))
    assert len(exts) == 13  # every 3-point space restricts to the 2-point one
    for ext in exts:
        assert induced_subspace(ext, (0, 1)).space == base


def test_chain_label_map_transport():
    x = from_weights(2, {(0, 1): 1})
    y = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    phi = (0, 2)  # X's pair lands on Y's rank-2 class
    mapping = chain_label_map(x, y, phi)
    assert mapping[BOT] == BOT
    assert mapping[APART] == APART
    assert mapping[slot(1, 0)] == slot(1, 0)
    assert mapping[slot(2, 0)] == slot(2, 0)
    assert mapping[rank_label(1)] == rank_label(2)
    assert mapping[slot(1, 1)] == slot(1, 2)
    assert chain_label_map(y, x, (0, 1, 1)) is None  # not an embedding


def test_chain_label_map_equals_the_label_loop():
    maps = 0
    for x in SMALL:
        for y in SMALL:
            for phi, _ in enumerate_embeddings(x, y):
                assert chain_label_map(x, y, phi) == reference_chain_label_map(x, y, phi), (x, y, phi)
                maps += 1
    assert maps == 200


def test_one_point_extensions_equal_the_enumeration_filter():
    total = 0
    for base in SMALL:
        exts = one_point_extensions(base)
        assert exts == list(reference_one_point_extensions(base)), base
        total += len(exts)
    assert total == 4697


def test_one_point_extensions_refuse_before_building(monkeypatch):
    four = next(iter(enumerate_spaces(4)))

    def no_space(space):
        raise AssertionError("K(X) built past the cap")

    monkeypatch.setattr(katetov, "KatetovSpace", no_space)
    with pytest.raises(CapExceeded) as info:
        one_point_extensions(four)
    with pytest.raises(CapExceeded) as expected:
        next(enumerate_spaces(5))
    assert (info.value.code, info.value.message) == (expected.value.code, expected.value.message)


def test_functor_preserves_identity():
    for sp in [SMALL[0]] + list(enumerate_spaces(2)):
        kx = katetov_space(sp)
        assert katetov_map(kx, kx, tuple(range(sp.m))) == tuple(range(kx.m))


def test_functor_preserves_composition_seeded():
    stream = SplitMix64Stream(77)
    for trial in range(10):
        sizes = (1 + stream.randrange(2),)
        sizes += (min(3, sizes[0] + stream.randrange(3)),)
        sizes += (min(3, sizes[1] + stream.randrange(3)),)
        (x, y, z), (phi1, phi2) = random_embedding_chain(stream, sizes)
        kx, ky, kz = katetov_space(x), katetov_space(y), katetov_space(z)
        k1 = katetov_map(kx, ky, phi1)
        k2 = katetov_map(ky, kz, phi2)
        composed = tuple(phi2[p] for p in phi1)
        direct = katetov_map(kx, kz, composed)
        assert direct == tuple(k2[p] for p in k1), trial


def test_functor_action_is_an_embedding():
    stream = SplitMix64Stream(13)
    for _ in range(6):
        (x, y), (phi,) = random_embedding_chain(stream, (2, 3))
        kx, ky = katetov_space(x), katetov_space(y)
        kmap = katetov_map(kx, ky, phi)
        assert embedding_rank_map(kx, ky, kmap) is not None


def test_katetov_map_rejects_non_embeddings():
    x = from_weights(2, {(0, 1): 1})
    y = from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    with pytest.raises(MorphismError) as info:
        katetov_map(katetov_space(x), katetov_space(y), (0, 0))
    assert info.value.code == "katetov/not-embedding"


def test_katetov_map_equals_the_per_point_loop():
    kats = [katetov_space(sp) for sp in SMALL]
    maps = points = 0
    for kx in kats:
        for ky in kats:
            for phi, _ in enumerate_embeddings(kx.base, ky.base):
                image = katetov_map(kx, ky, phi)
                assert image == reference_katetov_map(kx, ky, phi), (kx.base, ky.base, phi)
                maps += 1
                points += len(image)
    assert (maps, points) == (200, 216136)


def test_katetov_map_checks_the_transported_positions(monkeypatch):
    x = from_weights(2, {(0, 1): 1})
    kx = katetov_space(x)

    def past_the_top(source, target, phi):  # a rank map K(Y)'s chain cannot hold
        return (0, target.n + 1)

    monkeypatch.setattr(katetov, "embedding_rank_map", past_the_top)
    with pytest.raises(MorphismError) as info:
        katetov_map(kx, kx, (0, 1))
    assert info.value.code == "katetov/point"


def test_one_chain_per_shape():
    x = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    y = from_weights(3, {(0, 1): 2, (0, 2): 1, (1, 2): 2})
    assert x != y and (x.m, x.n) == (y.m, y.n)
    assert katetov_chain(x) == katetov_chain(y)
    assert katetov_space(x).chain == katetov_space(y).chain
    assert katetov_chain(x) != katetov_chain(from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}))


def test_realizations_of_all_small_extensions_are_pinned():
    """The SHA-256 of ``repr(g)`` over every extension of criterion 4,
    recorded from the per-point implementation."""
    digest = hashlib.sha256()
    count = 0
    for m in (1, 2, 3):
        small = [sp for sp in SMALL if sp.m == m]
        for ext in enumerate_spaces(m + 1):
            sub = induced_subspace(ext, range(m)).space
            base = next(b for b in small if b == sub)
            digest.update(repr(realize_extension(base, ext).g).encode())
            count += 1
    assert count == 4697
    assert digest.hexdigest() == "752b644ac9e581b3143ad47676a73e7d1341336cedae4a613d488e2478eed8ac"


@pytest.mark.parametrize("bad", [1.5, True, "a"], ids=["float", "bool", "str"])
def test_function_point_refuses_a_position_that_is_not_an_int(bad):
    """A float or a string is no chain position, and True is not position 1."""
    kx = katetov_space(from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2}))
    with pytest.raises(MorphismError) as err:
        kx.function_point((bad, 1, 1))
    assert err.value.code == "katetov/point"
    assert str(err.value) == f"chain position {bad} out of range"
