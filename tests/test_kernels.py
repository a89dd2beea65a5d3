import pytest

from orbilens import _kernels


def test_overflow_guard():
    with pytest.raises(OverflowError):
        _kernels.invariant_series([1, 2, 3, 4, 5], 3, 200_000)


def test_trivial_cases():
    out = _kernels.invariant_series([], 5, 4)
    assert list(out) == [1, 0, 0, 0, 0]
    out = _kernels.invariant_series([0, 0], 1, 3)
    # two free variables: compositions of m into 2 parts
    assert list(out) == [1, 2, 3, 4]
