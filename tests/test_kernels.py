import random

import numpy as np
import pytest

from orbilens import _kernels
from orbilens.core import LensSpace, reduce
from orbilens.errors import CountingRangeExceeded
from orbilens.search import isometry_classes
from orbilens.spectrum import multiplicity_series

import oracles


def test_overflow_guard():
    with pytest.raises(OverflowError):
        _kernels.invariant_series([1, 2, 3, 4, 5], 3, 200_000)


def test_trivial_cases():
    out = _kernels.invariant_series([], 5, 4)
    assert list(out) == [1, 0, 0, 0, 0]
    out = _kernels.invariant_series([0, 0], 1, 3)
    # two free variables: compositions of m into 2 parts
    assert list(out) == [1, 2, 3, 4]


def _dp(q, p1, p2, padding, mmax):
    """Lag-2 difference of the DP counts, padding as zero-weight variables."""
    counts = _kernels.invariant_series([p1, -p1, p2, -p2] + [0] * padding, q, mmax)
    mult = counts.copy()
    mult[2:] -= counts[:-2]
    return mult


def _assert_lattice_equals_dp(q, p1, p2, padding, mmax):
    got = _kernels.multiplicities((p1, p2), q, padding, mmax)
    assert got.dtype == np.int64
    assert np.array_equal(got, _dp(q, p1, p2, padding, mmax)), (q, p1, p2, padding)


@pytest.mark.parametrize("padding", [0, 1])
def test_lattice_equals_dp_on_every_class_small_q(padding):
    for q in range(2, 61):
        classes, _ = isometry_classes(q, padding)
        for space in classes:
            _assert_lattice_equals_dp(q, *space.rotations, padding, 4 * q + 2)


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_lattice_equals_dp_trivial_group(padding):
    _assert_lattice_equals_dp(1, 0, 0, padding, 40)


@pytest.mark.parametrize("q, p1, p2", [(5, 1, 2), (12, 3, 4), (30, 6, 5), (2, 1, 1)])
def test_lattice_equals_dp_at_every_shallow_depth(q, p1, p2):
    # Depths at and around the progression step q / gcd(p, q) exercise
    # the edges of the lag sums.
    for mmax in range(2 * q + 3):
        for padding in (0, 1):
            _assert_lattice_equals_dp(q, p1, p2, padding, mmax)


def test_lattice_equals_dp_on_seeded_sample():
    rng = random.Random(20161)
    for _ in range(12):
        q = rng.randint(61, 300)
        space = reduce(q, [rng.randint(1, q - 1), rng.randint(1, q - 1)], rng.randint(0, 1))
        q = space.q
        _assert_lattice_equals_dp(q, *space.rotations, space.padding, 4 * q + 2)


def test_lattice_exact_where_row_offsets_leave_int64():
    # At q = 2^61 - 1 the row offsets c * t pass 2^63 within 30 rows.  At
    # the larger orders the step q / gcd and the start points pass it too;
    # at L(2^64 + 1 : 1, 2^64) only they do (c = 1).  The reference
    # enumerates exponent tuples in Python integers.
    for q, rotations, padding in (
        (2**61 - 1, (1, 3), 0),
        (2**64 + 1, (1, 2), 0),
        (2**64 + 1, (1, 2**64), 0),
        (2**63 + 5, (3, 2**62), 0),
        (10**30, (1, 3), 1),
    ):
        space = LensSpace(q, rotations, padding)
        got = _kernels.multiplicities(rotations, q, padding, 30)
        assert list(got) == oracles.brute_multiplicities(space, 30), q


@pytest.mark.parametrize("rotations", [(1, 2), (3, 5), (2,), (1, 2, 3)])
def test_padding_past_kmax_matches_brute_force(rotations):
    # More padded coordinates than degrees take the binomial convolution.
    q = 12 if len(rotations) < 3 else 7
    for kmax in range(7):
        for padding in (kmax + 1, kmax + 2, 40):
            space = reduce(q, rotations, padding)
            got = _kernels.multiplicities(space.rotations, space.q, padding, kmax)
            assert got.dtype == np.int64
            assert list(got) == oracles.brute_multiplicities(space, kmax), (space, kmax)


def test_padding_past_kmax_takes_no_per_coordinate_pass(monkeypatch):
    calls = []
    real_cumsum = np.cumsum

    def counting_cumsum(*args, **kwargs):
        calls.append(1)
        return real_cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting_cumsum)
    got = _kernels.multiplicities((1, 2), 7, 5_000_000, 2)
    assert calls == []
    assert list(got) == [1, 5_000_000, 12_500_002_500_001]


def test_spectrum_counts_two_blocks_on_the_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("two rotation blocks reached the dynamic program")

    monkeypatch.setattr(_kernels, "invariant_series", refuse)
    series = multiplicity_series(reduce(195, [3, 5], 1), 782)
    assert series.dtype == np.int64 and len(series) == 783


@pytest.mark.parametrize("padding, degree", [(0, 5_000_000), (1, 200_000)])
def test_lattice_overflow_guard(padding, degree):
    with pytest.raises(CountingRangeExceeded, match=f"degree {degree} "):
        _kernels.multiplicities((1, 2), 7, padding, degree)
    with pytest.raises(CountingRangeExceeded, match=f"degree {degree} "):
        multiplicity_series(reduce(7, [1, 2], padding), degree)


def test_int64_guard_reachable_below_cell_limit():
    # 4_000_001 x 4 cells pass the cell limit; the counts would not fit int64.
    with pytest.raises(CountingRangeExceeded, match="degree 4000000 .*int64"):
        _kernels.multiplicities((1, 2), 7, 0, 4_000_000)


def test_variable_cells_capped_in_both_kernels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the counting table was allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(CountingRangeExceeded, match="degree 2 .*cell limit"):
        _kernels.multiplicities((1, 2), 7, 10**9, 2)
    # At q = 1 the residue table would fit; degrees x variables do not.
    mmax = _kernels.MAX_TABLE_CELLS // 3
    with pytest.raises(CountingRangeExceeded, match=f"degree {mmax} .*cell limit"):
        _kernels.invariant_series([1, 2, 3], 1, mmax)


def test_dp_table_cap_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the counting table was allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    # One rotation block never meets the int64 guard; the table would
    # take 100000001 x 400 int64 cells, about 320 GB.
    with pytest.raises(CountingRangeExceeded, match="cell limit"):
        _kernels.invariant_series([1, -1], 400, 100_000_000)
    with pytest.raises(CountingRangeExceeded):
        multiplicity_series(reduce(400, [1]), 100_000_000)
