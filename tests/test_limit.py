"""Generative models of the limit space, plus the rational enumeration
they lean on.

Random mode must replay the seeded colouring exactly; deterministic mode
must honour witness demands by construction.  Back-and-forth is tested
against both, including the self-pairing that forces the identity."""

import hashlib
import time
from fractions import Fraction

import pytest

from echelon import (
    Demand,
    DeterministicLimitModel,
    ExactLabel,
    OpenInterval,
    RandomLimitModel,
    back_and_forth,
    is_dull,
    limit_new,
    metrize_dull,
    nth_rational,
    rational_between,
    rational_index,
    simplest_between,
)
from echelon import prng
from echelon.errors import CapExceeded, DemandError, EchelonError, ValidationError
from echelon.limit import LimitModel
from echelon.prng import SplitMix64Stream
from helpers import (
    ReferenceDeterministicLimitModel,
    deadline,
    reference_back_and_forth,
    reference_simplest_between,
)

# SHA-256 of the first 64 points' labels, "p/q" joined by commas over pairs
# (u, v), u < v, in lexicographic order; the same value the benchmark pins.
DET_LABELS_N64 = "fb7b36ad94fe37dc89c4b4f284ffe60d59402cc90076d06f5f70e90a1870f1bd"

# --- rational enumeration ---


def test_rational_enumeration_frozen_prefix():
    want = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(3),
        Fraction(1, 4),
    ]
    assert [nth_rational(i) for i in range(1, 9)] == want


def test_rational_enumeration_is_bijective():
    seen = set()
    for i in range(1, 300):
        q = nth_rational(i)
        assert q > 0
        assert rational_index(q) == i
        seen.add(q)
    assert len(seen) == 299


def test_simplest_between():
    assert simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert simplest_between(Fraction(1), Fraction(2)) == Fraction(3, 2)
    assert simplest_between(Fraction(5, 2), None) == Fraction(3)
    lo, hi = Fraction(7, 15), Fraction(8, 15)
    mid = simplest_between(lo, hi)
    assert lo < mid < hi
    # nothing with a smaller denominator fits in the gap
    for den in range(1, mid.denominator):
        for num in range(den * 7 // 15, den * 8 // 15 + 2):
            assert not (lo < Fraction(num, den) < hi)


def test_simplest_between_matches_the_stern_brocot_walk():
    farey = sorted({Fraction(a, b) for b in range(1, 6) for a in range(-6, 16)})
    checked = 0
    for lo in farey:
        for hi in farey + [None]:
            if hi is not None and (hi <= lo or hi <= 0):
                continue
            assert simplest_between(lo, hi) == reference_simplest_between(lo, hi), (lo, hi)
            checked += 1
    assert checked > 1000
    stream = SplitMix64Stream(2024)
    for _ in range(300):
        lo = Fraction(stream.randrange(10**5), stream.randrange(10**3) + 1)
        hi = lo + Fraction(stream.randrange(10**4) + 1, stream.randrange(10**6) + 1)
        assert simplest_between(lo, hi) == reference_simplest_between(lo, hi), (lo, hi)
        small = Fraction(stream.randrange(300), stream.randrange(50) + 1)
        assert simplest_between(small, None) == reference_simplest_between(small, None)


def test_simplest_between_large_and_empty_intervals():
    with deadline(2.0):
        assert simplest_between(Fraction(10**12), None) == 10**12 + 1
        assert simplest_between(Fraction(0), Fraction(1, 10**12)) == Fraction(1, 10**12 + 1)
        assert simplest_between(Fraction(-5), Fraction(1, 10**12)) == Fraction(1, 10**12 + 1)
        det = DeterministicLimitModel()
        det.limit_points(2)
        z = det.ensure_witness(Demand(((0, OpenInterval(Fraction(10**12), None)),)))
        assert det.rank_label(z, 0) == 10**12 + 1
        for lo, hi in ((Fraction(-1), Fraction(0)), (Fraction(-3), Fraction(-1)), (Fraction(1), Fraction(1))):
            with pytest.raises(ValueError, match="empty interval"):
                simplest_between(lo, hi)


def test_rational_between_avoids_forbidden():
    lo, hi = Fraction(0), Fraction(1)
    taken = {simplest_between(lo, hi)}
    for _ in range(10):
        q = rational_between(lo, hi, taken)
        assert lo < q < hi and q not in taken
        taken.add(q)


# --- deterministic mode ---


def test_first_two_points_share_the_least_label():
    det = DeterministicLimitModel()
    det.limit_points(2)
    assert det.rank_label(0, 1) == Fraction(1)


def test_deterministic_ignores_seed():
    a = limit_new("deterministic", 0).sample_prefix(7)
    b = limit_new("deterministic", 99).sample_prefix(7)
    assert a == b


def test_labels_stable_under_growth():
    det = DeterministicLimitModel()
    det.limit_points(4)
    before = {(u, v): det.rank_label(u, v) for u in range(4) for v in range(u + 1, 4)}
    det.limit_points(9)
    for (u, v), lab in before.items():
        assert det.rank_label(u, v) == lab


def test_prefix_is_a_valid_space_and_dull_after_metrization():
    for mode, seed in (("deterministic", 0), ("random", 5)):
        model = limit_new(mode, seed)
        sp = model.sample_prefix(9)
        assert sp.m == 9
        assert is_dull(metrize_dull(sp))


def test_deterministic_witness_exact_and_fresh():
    det = DeterministicLimitModel()
    det.limit_points(3)
    lab = det.rank_label(0, 1)
    z = det.ensure_witness(Demand(((0, ExactLabel(lab)), (1, ExactLabel(lab)))))
    assert det.rank_label(z, 0) == lab
    assert det.rank_label(z, 1) == lab
    # the non-demanded point got a fresh label above everything older
    other = det.rank_label(z, 2)
    assert other > max(lab, det.rank_label(0, 2))


def test_deterministic_witness_interval_tiers():
    det = DeterministicLimitModel()
    det.limit_points(4)
    lo, hi = Fraction(1), Fraction(2)
    same = Demand(((0, OpenInterval(lo, hi)), (1, OpenInterval(lo, hi))))
    z = det.ensure_witness(same)
    assert det.rank_label(z, 0) == det.rank_label(z, 1)
    assert lo < det.rank_label(z, 0) < hi

    split = Demand(((0, OpenInterval(lo, hi, 0)), (1, OpenInterval(lo, hi, 1))))
    w = det.ensure_witness(split)
    assert lo < det.rank_label(w, 0) < det.rank_label(w, 1) < hi

    unbounded = Demand(((0, OpenInterval(Fraction(50), None)),))
    v = det.ensure_witness(unbounded)
    assert det.rank_label(v, 0) > 50


def test_density_between_adjacent_labels():
    det = DeterministicLimitModel()
    det.limit_points(8)
    labels = det.existing_labels()
    assert labels == sorted(set(labels))
    for a, b in zip(labels, labels[1:]):
        z = det.ensure_witness(Demand(((0, OpenInterval(a, b)),)))
        assert a < det.rank_label(z, 0) < b
    top = det.existing_labels()[-1]
    z = det.ensure_witness(Demand(((0, OpenInterval(top, None)),)))
    assert det.rank_label(z, 0) > top


def test_deterministic_growth_matches_the_reference():
    det, ref = DeterministicLimitModel(), ReferenceDeterministicLimitModel()
    for n in range(1, 129):
        assert det.limit_points(n) == ref.limit_points(n)
        assert det.existing_labels() == ref.existing_labels()
        assert [det.rank_label(v, n - 1) for v in range(n)] == [
            ref.rank_label(v, n - 1) for v in range(n)
        ]


def _random_demand(stream, model):
    """Up to four entries: exact labels (existing, new, or the simplest
    rational of a bound pair), bounded intervals with tiers 0-2 over two
    shared bound pairs, and intervals unbounded above."""
    labels = model.existing_labels()
    bounds = [Fraction(0)] + labels
    pairs = []
    for _ in range(2):
        i = stream.randrange(len(bounds))
        j = i + 1 + stream.randrange(min(3, len(bounds) - i))
        pairs.append((bounds[i], bounds[j] if j < len(bounds) else None))
    points = list(range(model.size))
    entries = []
    for _ in range(min(stream.randrange(4) + 1, model.size)):
        point = points.pop(stream.randrange(len(points)))
        kind = stream.randrange(4)
        if kind == 0:
            pick = stream.randrange(3)
            if pick == 0 and labels:
                value = labels[stream.randrange(len(labels))]
            elif pick == 1:  # where an interval entry's label would land
                lo, hi = pairs[stream.randrange(2)]
                value = simplest_between(lo, hi)
            else:
                value = Fraction(stream.randrange(40) + 1, stream.randrange(5) + 1)
            entries.append((point, ExactLabel(value)))
        elif kind == 3:
            entries.append((point, OpenInterval(bounds[stream.randrange(len(bounds))], None, stream.randrange(3))))
        else:
            lo, hi = pairs[kind - 1]
            entries.append((point, OpenInterval(lo, hi, stream.randrange(3))))
    return Demand(tuple(entries))


def test_deterministic_demands_match_the_reference():
    for seed in range(60):
        stream = SplitMix64Stream(seed)
        det, ref = DeterministicLimitModel(), ReferenceDeterministicLimitModel()
        det.limit_points(2)
        ref.limit_points(2)
        for _ in range(14):
            if stream.randrange(3) == 0:
                n = det.size + stream.randrange(3) + 1
                det.limit_points(n)
                ref.limit_points(n)
            else:
                demand = _random_demand(stream, det)
                assert det.ensure_witness(demand) == ref.ensure_witness(demand)
            assert det.existing_labels() == ref.existing_labels()
        assert det.size == ref.size
        for u in range(det.size):
            for v in range(u + 1, det.size):
                assert det.rank_label(u, v) == ref.rank_label(u, v), (seed, u, v)


def test_deterministic_labels_n64_digest():
    det = DeterministicLimitModel()
    det.limit_points(64)
    text = ",".join(
        f"{q.numerator}/{q.denominator}"
        for q in (det.rank_label(u, v) for u in range(64) for v in range(u + 1, 64))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == DET_LABELS_N64


def test_deterministic_growth_scale_gate():
    start = time.perf_counter()
    DeterministicLimitModel().limit_points(256)
    assert time.perf_counter() - start < 2.0


def test_demand_validation():
    det = DeterministicLimitModel()
    det.limit_points(2)
    with pytest.raises(DemandError):
        det.ensure_witness(Demand(((5, ExactLabel(Fraction(1))),)))
    with pytest.raises(DemandError):
        det.ensure_witness(
            Demand(((0, ExactLabel(Fraction(1))), (0, ExactLabel(Fraction(1)))))
        )
    with pytest.raises(DemandError):
        det.ensure_witness(Demand(((0, ExactLabel(0.5)),)))
    with pytest.raises(DemandError):
        det.ensure_witness(Demand(((0, OpenInterval(Fraction(2), Fraction(1))),)))
    with pytest.raises(DemandError):
        det.ensure_witness(Demand(((0, "nonsense"),)))


# --- random mode ---


def test_random_labels_replay_the_colouring():
    seed = 31
    model = RandomLimitModel(seed)
    model.limit_points(12)
    for u in range(12):
        for v in range(u + 1, 12):
            idx = prng.edge_colour(Fraction(1, 2), seed, u, v)
            assert model.colour_index(u, v) == idx
            assert model.rank_label(u, v) == nth_rational(idx)


def test_random_witness_scan():
    model = RandomLimitModel(3)
    model.limit_points(6)
    lab = model.rank_label(0, 1)
    z = model.ensure_witness(Demand(((0, ExactLabel(lab)),)))
    assert model.rank_label(z, 0) == lab
    assert z != 0


def test_random_witness_interval():
    model = RandomLimitModel(8)
    model.limit_points(4)
    z = model.ensure_witness(Demand(((0, OpenInterval(Fraction(1, 2), None)),)))
    assert model.rank_label(z, 0) > Fraction(1, 2)


def test_random_witness_cap():
    model = RandomLimitModel(1, cap=8)
    model.limit_points(2)
    rare = nth_rational(64)  # colour index 64: probability 2^-64 per edge
    with pytest.raises(CapExceeded):
        model.ensure_witness(Demand(((0, ExactLabel(rare)),)))


def test_mode_dispatch():
    assert limit_new("random", 4).mode == "random"
    assert limit_new("deterministic", 4).mode == "deterministic"
    with pytest.raises(ValidationError):
        limit_new("other", 0)
    with pytest.raises(ValidationError):
        limit_new("random", 0).rank_label(0, 1)  # nothing materialized yet


def test_limit_points_returns_the_ids():
    model = limit_new("random", 2)
    assert model.limit_points(5) == (0, 1, 2, 3, 4)
    assert model.size >= 5


# --- back and forth ---


def test_same_seed_random_models_match_identically():
    cert = back_and_forth(RandomLimitModel(17), RandomLimitModel(17), 6)
    assert cert.left == cert.right
    assert cert.left_space == cert.right_space


def test_random_vs_deterministic_certificates():
    for seed in (1, 2, 3, 4, 5):
        cert = back_and_forth(RandomLimitModel(seed), DeterministicLimitModel(), 4)
        assert set(cert.left) >= set(range(4))
        assert set(cert.right) >= set(range(4))
        assert cert.left_space == cert.right_space
        k = len(cert.left)
        assert len(cert.right) == k
        assert len(cert.left_labels) == k * (k - 1) // 2


def test_deterministic_self_pairing():
    cert = back_and_forth(DeterministicLimitModel(), DeterministicLimitModel(), 5)
    assert cert.left == cert.right


def test_back_and_forth_depth_validation():
    with pytest.raises(ValidationError):
        back_and_forth(RandomLimitModel(0), RandomLimitModel(1), 0)


def _certificate_or_code(back_and_forth_impl, modes, seed, depth):
    models = [
        RandomLimitModel(seed + 100 * side, cap=4096)
        if mode == "random"
        else DeterministicLimitModel(seed + 100 * side)
        for side, mode in enumerate(modes)
    ]
    try:
        cert = back_and_forth_impl(*models, depth)
    except EchelonError as exc:
        return exc.code
    return (
        cert.left,
        cert.right,
        cert.left_space,
        cert.right_space,
        cert.left_labels,
        cert.right_labels,
    )


@pytest.mark.parametrize("first", ["random", "deterministic"])
@pytest.mark.parametrize("second", ["random", "deterministic"])
def test_back_and_forth_matches_the_reference(first, second):
    """Every decision of the cursor-and-bijection back-and-forth is pinned
    against the scan-and-rebuild original: matched points, both spaces and
    both label tuples, or the error code where either side raises (the
    random models' witness cap is lowered so that cap errors are compared
    as well)."""
    for seed in range(6):
        for depth in range(1, 9):
            got = _certificate_or_code(back_and_forth, (first, second), seed, depth)
            want = _certificate_or_code(reference_back_and_forth, (first, second), seed, depth)
            assert got == want, (seed, depth)


class _DemandIgnoringModel(LimitModel):
    """Answers every demand with a fresh point and labels the pair u < v
    by a fixed function of (u, v), so no demand is really met."""

    mode = "ignoring"
    seed = 0

    def __init__(self, label):
        super().__init__()
        self.label = label

    def _label(self, u, v):
        return self.label(min(u, v), max(u, v))

    def _extend(self):
        self.size += 1

    def ensure_witness(self, demand):
        self._extend()
        return self.size - 1


def _pair_index(u, v):
    return v * (v - 1) // 2 + u + 1


@pytest.mark.parametrize("impl", [back_and_forth, reference_back_and_forth])
@pytest.mark.parametrize(
    "make_pair",
    [
        # one label against several: the label classes stop being a bijection
        lambda: (DeterministicLimitModel(), _DemandIgnoringModel(lambda u, v: Fraction(1))),
        # distinct labels in opposite orders: a bijection, but not an isomorphism
        lambda: (
            _DemandIgnoringModel(lambda u, v: Fraction(_pair_index(u, v))),
            _DemandIgnoringModel(lambda u, v: Fraction(1, _pair_index(u, v))),
        ),
    ],
    ids=["classes-merge", "order-reversed"],
)
def test_back_and_forth_refuses_a_broken_correspondence(impl, make_pair):
    with pytest.raises(EchelonError) as info:
        impl(*make_pair(), 4)
    assert info.value.code == "limit/certificate"
