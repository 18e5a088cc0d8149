"""Generative models of the limit space, plus the rational enumeration
they lean on.

Random mode must replay the seeded colouring exactly; deterministic mode
must honour witness demands by construction.  Back-and-forth is tested
against both, including the self-pairing that forces the identity."""

import hashlib
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from echelon import (
    Demand,
    DeterministicLimitModel,
    ExactLabel,
    OpenInterval,
    RandomLimitModel,
    back_and_forth,
    from_weights,
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
from echelon.limit import GROW_BLOCK, WITNESS_CAP, LimitModel, _tier_pattern_ok
from echelon.prng import SplitMix64Stream
from echelon.rationals import exact_rational
from helpers import (
    ReferenceDeterministicLimitModel,
    ReferenceRandomLimitModel,
    deadline,
    reference_back_and_forth,
    reference_simplest_between,
    reference_tier_pattern_ok,
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


def test_exact_rational_reads_three_kinds():
    q = Fraction(5, 3)
    assert exact_rational(q) is q
    for value, want in ((3, Fraction(3)), ("7", Fraction(7)), ("7/4", Fraction(7, 4)),
                        (" 1/2 ", Fraction(1, 2)), ("1.5", Fraction(3, 2))):
        got = exact_rational(value)
        assert got == want and type(got) is Fraction
    for bad in (True, 0.5, None, "1/0", "a/b", Decimal("1"), "1e3", "1E3", "1.5e-2", "1e100000000"):
        assert exact_rational(bad) is None


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
        labels = {(u, v): model.rank_label(u, v) for u in range(9) for v in range(u + 1, 9)}
        assert sp == from_weights(9, labels)


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


def test_deterministic_witness_steps_over_an_existing_label():
    """2, the simplest rational in (1, 3), is already a label, so the
    bisection that would index it finds it there and the tier-0 choice
    moves past it to 5/2;
    tier 1 lies above tier 0, the exact label 7/2 joins the index, and the
    undemanded point gets the next fresh label."""
    one, three = Fraction(1), Fraction(3)
    demand = Demand(
        (
            (0, OpenInterval(one, three)),
            (1, OpenInterval(one, three, 1)),
            (2, ExactLabel(Fraction(7, 2))),
        )
    )
    want = [Fraction(5, 2), Fraction(8, 3), Fraction(7, 2), Fraction(26)]
    det, ref = DeterministicLimitModel(), ReferenceDeterministicLimitModel()
    for model in (det, ref):
        model.limit_points(8)
        assert Fraction(2) in model.existing_labels()
        z = model.ensure_witness(demand)
        assert [model.rank_label(z, v) for v in range(4)] == want
    assert det.existing_labels() == ref.existing_labels()
    assert set(want) <= set(det.existing_labels())


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


def _random_demand(stream, labels, size):
    """Up to four entries on points below size: exact labels (from labels,
    new, or the simplest rational of a bound pair), bounded intervals with
    tiers 0-2 over two shared bound pairs, and intervals unbounded above."""
    bounds = [Fraction(0)] + labels
    pairs = []
    for _ in range(2):
        i = stream.randrange(len(bounds))
        j = i + 1 + stream.randrange(min(3, len(bounds) - i))
        pairs.append((bounds[i], bounds[j] if j < len(bounds) else None))
    points = list(range(size))
    entries = []
    for _ in range(min(stream.randrange(4) + 1, size)):
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
                demand = _random_demand(stream, det.existing_labels(), det.size)
                assert det.ensure_witness(demand) == ref.ensure_witness(demand)
            assert det.existing_labels() == ref.existing_labels()
        assert det.size == ref.size
        for u in range(det.size):
            for v in range(u + 1, det.size):
                assert det.rank_label(u, v) == ref.rank_label(u, v), (seed, u, v)


TIER_CASES = [
    # (entries as (point, bounds group or None for exact, tier), labels by point, want)
    ([(0, 0, 0), (1, 0, 0)], [2, 2], True),  # a repeated tier with equal labels
    ([(0, 0, 0), (1, 0, 0)], [2, 3], False),  # a repeated tier with different labels
    ([(0, 0, 0), (1, 0, 3)], [2, 3], True),  # skipped tier numbers
    ([(0, 0, 3), (1, 0, 0)], [2, 3], False),  # labels falling as the tier rises
    ([(0, 0, 1), (1, 1, 0)], [3, 2], True),  # two bounds groups are checked apart
    ([(0, 0, 0), (1, 1, 0), (2, 0, 0)], [2, 5, 3], False),
    ([(0, None, 0), (1, 0, 0), (2, None, 0)], [4, 2, 1], True),  # exact entries carry no tier
    ([(0, None, 0)], [1], True),
    ([], [], True),
]


def _tier_entries(spec):
    bounds = [(Fraction(1), Fraction(9)), (Fraction(0), None)]
    return [
        (point, ExactLabel(Fraction(point + 1)) if group is None else OpenInterval(*bounds[group], tier))
        for point, group, tier in spec
    ]


def test_tier_pattern_matches_the_reference():
    """The sorted (tier, label) pairs of each bounds group give the answer
    of the per-tier dicts: on named cases, and on seeded entry lists with
    repeated tiers holding equal or different labels, skipped tier
    numbers, two bounds groups and exact entries mixed in."""
    for spec, labels, want in TIER_CASES:
        entries, label_of = _tier_entries(spec), [Fraction(x) for x in labels].__getitem__
        assert _tier_pattern_ok(entries, label_of) == reference_tier_pattern_ok(entries, label_of) == want, spec
    outcomes = set()
    stream = SplitMix64Stream(29)
    for _ in range(2000):
        k = stream.randrange(6)
        spec = [(point, [None, 0, 1][stream.randrange(3)], [0, 1, 3][stream.randrange(3)]) for point in range(k)]
        labels = [stream.randrange(4) + 1 for _ in range(k)]
        entries, label_of = _tier_entries(spec), [Fraction(x) for x in labels].__getitem__
        got = _tier_pattern_ok(entries, label_of)
        assert got == reference_tier_pattern_ok(entries, label_of), (spec, labels)
        outcomes.add(got)
    assert outcomes == {True, False}


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


@pytest.mark.parametrize("make", [DeterministicLimitModel, lambda: RandomLimitModel(0)])
def test_unreadable_demand_labels_are_demand_errors(make):
    """Only exact_rational's three kinds of value read as labels."""
    model = make()
    model.limit_points(2)
    for entry, code in (
        (ExactLabel("1/0"), "demand/label"),
        (ExactLabel(Decimal("1")), "demand/label"),
        (ExactLabel(np.int64(1)), "demand/label"),
        (OpenInterval(0, "1/0"), "demand/interval"),
        (OpenInterval(Decimal(0), None), "demand/interval"),
        (OpenInterval(np.int64(0), 2), "demand/interval"),
    ):
        with pytest.raises(DemandError) as err:
            model.ensure_witness(Demand(((0, entry),)))
        assert err.value.code == code


@pytest.mark.parametrize(
    "make", [DeterministicLimitModel, lambda: RandomLimitModel(0)], ids=["deterministic", "random"]
)
def test_a_bool_or_negative_tier_is_refused(make):
    """A tier is an int that is not a bool, as the point is."""
    model = make()
    model.limit_points(2)
    for tier in (True, False, -1):
        with pytest.raises(DemandError) as err:
            model.ensure_witness(Demand(((0, OpenInterval(Fraction(0), None, tier)),)))
        assert err.value.code == "demand/interval"


def test_random_model_refuses_an_unreadable_rate():
    for bad in ("abc", "1/0", float("nan")):
        with pytest.raises(ValidationError) as err:
            RandomLimitModel(0, bad)
        assert err.value.code == "prob/range"


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


@pytest.mark.parametrize("cap", [2.5, True, "8", 0, -3], ids=["float", "bool", "str", "zero", "negative"])
def test_random_model_refuses_a_witness_cap_below_one_or_not_an_int(cap):
    """A cap of 2.5 used to stay on the model as its size after the cap
    error, True read as 1, "8" escaped as a bare TypeError and 0 scanned
    only the materialized prefix; each is now refused when the model is
    built."""
    with pytest.raises(ValidationError) as err:
        RandomLimitModel(1, cap=cap)
    assert err.value.code == "limit/count"


def test_a_witness_cap_of_one_is_a_model():
    model = RandomLimitModel(1, cap=1)
    model.limit_points(1)
    assert model.ensure_witness(Demand(())) == 0


def test_random_witness_cap():
    model = RandomLimitModel(1, cap=8)
    model.limit_points(2)
    rare = nth_rational(64)  # colour index 64: probability 2^-64 per edge
    with pytest.raises(CapExceeded):
        model.ensure_witness(Demand(((0, ExactLabel(rare)),)))


RATES = (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10))


def test_random_alphabet_is_finite():
    for p in RATES:
        alphabet = RandomLimitModel(0, p).alphabet
        assert len(alphabet) == len(prng.geometric_thresholds(p)) + 2
        assert alphabet == (Fraction(0),) + tuple(nth_rational(c) for c in range(1, len(alphabet)))
    assert len(RandomLimitModel(0).alphabet) - 1 == 65


def test_random_prefixes_match_the_reference():
    """The colour kernel and the alphabet ranks echelon the same prefix as
    the scalar labels do."""
    for seed in range(20):
        for p in RATES:
            for n in (1, 2, 5, 33, 100):
                got = RandomLimitModel(seed, p).sample_prefix(n)
                assert got == ReferenceRandomLimitModel(seed, p).sample_prefix(n), (seed, p, n)


@pytest.mark.parametrize("mode", ["deterministic", "random"])
def test_a_shorter_prefix_echelons_its_own_labels(mode):
    """sample_prefix(n) below the model's size reads the first n points'
    labels, not the first pairs of a longer prefix."""
    model = limit_new(mode, 5)
    model.limit_points(40)
    assert model.size >= 40
    for n in (1, 2, 3, 4, 7, 16, 39):
        labels = {(u, v): model.rank_label(u, v) for u in range(n) for v in range(u + 1, n)}
        assert model.sample_prefix(n) == from_weights(n, labels), n


def _witness_outcome(model, demand):
    try:
        z = model.ensure_witness(demand)
    except EchelonError as exc:
        return exc.code, exc.message, model.size
    return z, model.size


def test_random_demands_match_the_reference():
    """Witness ids, the prefix size after every call and the cap errors,
    code and message, on exact, interval and tiered demands (intervals
    unbounded above included) under caps low enough that the prefix can
    already be past them."""
    for seed in range(60):
        stream = SplitMix64Stream(seed)
        p = RATES[stream.randrange(len(RATES))]
        cap = (12, 300, 3000, 3000)[stream.randrange(4)]
        new, ref = RandomLimitModel(seed, p, cap=cap), ReferenceRandomLimitModel(seed, p, cap=cap)
        n = stream.randrange(12) + 1
        new.limit_points(n)
        ref.limit_points(n)
        # bounds and exact labels come from the first 12 points' labels
        labels = sorted({nth_rational(prng.edge_colour(p, seed, u, v)) for v in range(12) for u in range(v)})
        for _ in range(6):
            if stream.randrange(4) == 0:
                n = new.size + stream.randrange(GROW_BLOCK) + 1
                new.limit_points(n)
                ref.limit_points(n)
            else:
                demand = _random_demand(stream, labels, ref.size)
                assert _witness_outcome(new, demand) == _witness_outcome(ref, demand), (seed, demand)


def test_random_exact_demands_past_the_prefix_match_the_reference():
    """Six exact labels that a candidate meets with probability 2^-7: the
    scan runs past the six-point prefix, which grows to hold the witness."""
    labels = (Fraction(1),) * 5 + (Fraction(1, 2),)
    for seed in range(10):
        demand = Demand(tuple((i, ExactLabel(lab)) for i, lab in enumerate(labels[seed % 6 :] + labels[: seed % 6])))
        new, ref = RandomLimitModel(seed), ReferenceRandomLimitModel(seed)
        new.limit_points(6)
        ref.limit_points(6)
        assert _witness_outcome(new, demand) == _witness_outcome(ref, demand)
        assert new.size > 6


def test_random_empty_demand_from_an_empty_prefix():
    new, ref = RandomLimitModel(4), ReferenceRandomLimitModel(4)
    assert _witness_outcome(new, Demand(())) == _witness_outcome(ref, Demand(())) == (0, GROW_BLOCK)


def test_zero_probability_demand_reaches_the_cap_quickly():
    """No label of the finite alphabet lies in (1, 7/6), so every candidate
    up to the cap is scanned before the cap error."""
    model = RandomLimitModel(0)
    model.limit_points(1)
    with deadline(2.0):
        with pytest.raises(CapExceeded) as info:
            model.ensure_witness(Demand(((0, OpenInterval(Fraction(1), Fraction(7, 6))),)))
    assert info.value.code == "limit/witness-cap"
    assert info.value.message == f"no witness among the first {WITNESS_CAP} points (cap {WITNESS_CAP})"
    assert model.size == WITNESS_CAP


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
def test_random_existing_labels_match_the_pairwise_loop(p):
    for seed in range(10):
        for size in (0, 1, 2, 40, 300):
            model = RandomLimitModel(seed, p)
            model.limit_points(size)
            assert model.existing_labels() == LimitModel.existing_labels(model), (seed, size)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 256)])
def test_random_existing_labels_across_a_block_boundary(p):
    """362 points fill one block of rows (65,341 pairs); 363 add a second
    block, which starts at row 362."""
    for size, offsets in ((362, [0]), (363, [0, 361 * 362 // 2])):
        model = RandomLimitModel(3, p)
        model.limit_points(size)
        assert [lo for lo, _ in prng._colour_blocks(p, 3, size)] == offsets
        assert model.existing_labels() == LimitModel.existing_labels(model), size


def test_random_existing_labels_at_a_thousand_points():
    model = RandomLimitModel(0)
    model.limit_points(1000)
    with deadline(2.0):
        labels = model.existing_labels()
    assert len(labels) == 18 and labels == sorted(set(labels))
    assert set(labels) <= set(model.alphabet[1:])


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


@pytest.mark.parametrize("first", ["random", "deterministic"])
@pytest.mark.parametrize("second", ["random", "deterministic"])
def test_deep_back_and_forth_matches_the_reference(first, second):
    """The bisection gap search makes the same demands as the reference's
    scan over every known label, deep into the correspondence."""
    for depth in (20, 40):
        got = _certificate_or_code(back_and_forth, (first, second), 0, depth)
        want = _certificate_or_code(reference_back_and_forth, (first, second), 0, depth)
        assert got == want, depth


def test_deterministic_back_and_forth_at_depth_80():
    with deadline(2.0):
        cert = back_and_forth(DeterministicLimitModel(0), DeterministicLimitModel(100), 80)
    assert set(range(80)) <= set(cert.left) and set(range(80)) <= set(cert.right)
    assert cert.left_space == cert.right_space


def _count_rank_label_reads(model):
    """Wrap the model's rank_label; the list's one entry counts the calls."""
    calls = [0]
    read = model.rank_label

    def counted(u, v):
        calls[0] += 1
        return read(u, v)

    model.rank_label = counted
    return calls


@pytest.mark.parametrize(
    "make_pair, depth, reads",
    [
        (lambda: (RandomLimitModel(3), DeterministicLimitModel()), 8, 56),
        (lambda: (DeterministicLimitModel(), DeterministicLimitModel()), 40, 1560),
    ],
    ids=["random-deterministic-8", "deterministic-deterministic-40"],
)
def test_back_and_forth_reads_each_pair_once_per_pass(make_pair, depth, reads):
    """Each side reads every matched pair once during the search and once
    in the final re-verification: 2 * C(k, 2) reads per side."""
    models = make_pair()
    counts = [_count_rank_label_reads(model) for model in models]
    cert = back_and_forth(*models, depth)
    k = len(cert.left)
    assert counts == [[k * (k - 1)], [k * (k - 1)]] == [[reads], [reads]]


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


def test_back_and_forth_stops_at_the_first_pair_out_of_order():
    """Labels that rise on one side and fall on the other take different
    gaps of the two known lists, which the step after the witness refuses:
    the search stops at depth 4 with three points on the first side."""
    first = _DemandIgnoringModel(lambda u, v: Fraction(_pair_index(u, v)))
    second = _DemandIgnoringModel(lambda u, v: Fraction(1, _pair_index(u, v)))
    with pytest.raises(EchelonError) as info:
        back_and_forth(first, second, 4)
    assert (info.value.code, info.value.message) == (
        "limit/certificate",
        "back-and-forth produced a non-isomorphism",
    )
    assert (first.size, second.size) == (3, 3)


def test_back_and_forth_refuses_a_new_label_with_a_known_image():
    """The deterministic side's point 2 brings a new label, but the side
    that ignores demands answers with its one label, already matched."""
    with pytest.raises(EchelonError) as info:
        back_and_forth(DeterministicLimitModel(), _DemandIgnoringModel(lambda u, v: Fraction(1)), 4)
    assert (info.value.code, info.value.message) == (
        "limit/certificate",
        "correspondence lost label classes",
    )


@pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
def test_counts_and_depths_must_be_ints(bad):
    """A point count, a prefix size or a depth that is not an int is
    refused with the code of its range check."""
    for call, code in (
        (lambda: limit_new("deterministic", 0).limit_points(bad), "limit/count"),
        (lambda: limit_new("random", 0).sample_prefix(bad), "limit/count"),
        (lambda: back_and_forth(RandomLimitModel(0), DeterministicLimitModel(), bad), "limit/depth"),
    ):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == code
