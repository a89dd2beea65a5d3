import itertools
import math
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from orbilens.core import LensSpace

# Subprocesses the tests start (python -m orbilens.cli) import the
# package from this checkout, as the tests themselves do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@st.composite
def reduced_spaces(draw, qmin=2, qmax=40, paddings=(0,)):
    """Random reduced two-rotation descriptors."""
    q = draw(st.integers(qmin, qmax))
    p1 = draw(st.integers(1, q - 1))
    p2 = draw(st.integers(1, q - 1))
    if math.gcd(math.gcd(p1, p2), q) != 1:
        g = math.gcd(math.gcd(p1, p2), q)
        q, p1, p2 = q // g, (p1 // g) % (q // g), (p2 // g) % (q // g)
        if q == 1 or p1 == 0 or p2 == 0:
            q, p1, p2 = 5, 1, 2
    w = draw(st.sampled_from(paddings))
    return LensSpace(q, (p1, p2), w)


def all_reduced_pairs(q):
    """All reduced rotation tuples (p1 <= p2) for one order."""
    out = []
    for p1 in range(1, q):
        for p2 in range(p1, q):
            if math.gcd(math.gcd(p1, p2), q) == 1:
                out.append((p1, p2))
    return out


def all_reduced_tuples(q, n):
    """All reduced sorted rotation tuples of length n for one order."""
    return [
        rots
        for rots in itertools.combinations_with_replacement(range(1, q), n)
        if math.gcd(q, *rots) == 1
    ]


@pytest.fixture(scope="session")
def q195_pair():
    from orbilens.core import reduce

    return reduce(195, [3, 5]), reduce(195, [6, 35])
