"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Budgets and tolerances are asserted, not just aspired to.
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from orbilens.core import (
    LensSpace,
    decompose_singular,
    is_isometric,
    pad,
    reduce,
    sphere,
)
from orbilens.heat import HeatVerdict, csc2_sum, csc4_sum, heat_expansion_3d, same_heat_expansion
from orbilens.search import isometry_classes, verify_rigidity
from orbilens.spectrum import (
    generating_function,
    is_isospectral,
    isospectral_bound,
    multiplicity,
    multiplicity_series,
    residue_case3,
    residue_cot_sum,
)

import oracles


@contextmanager
def criterion(cid, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {cid} FAIL - {desc}")
        raise
    print(f"[acceptance] {cid} PASS - {desc}")


def test_c1_oracle_equivalence_random_spaces():
    with criterion("C1", "multiplicities match brute-force enumeration (50 spaces, k<=100)"):
        started = time.perf_counter()
        rng = random.Random(20260810)
        spaces = [sphere(), sphere(2, 1)]
        while len(spaces) < 50:
            q = rng.randint(2, 25)
            p1 = rng.randint(1, q - 1)
            p2 = rng.randint(1, q - 1)
            if math.gcd(math.gcd(p1, p2), q) != 1:
                continue
            spaces.append(LensSpace(q, (p1, p2), rng.choice((0, 1))))
        for space in spaces:
            if space.q == 1:
                expected = [
                    (k + 1) ** 2
                    if space.padding == 0
                    else (2 * k + 3) * (k + 2) * (k + 1) // 6
                    for k in range(101)
                ]
            else:
                expected = oracles.brute_multiplicities(space, 100)
            assert list(multiplicity_series(space, 100)) == expected, space
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c2_sphere_and_projective_baselines():
    with criterion("C2", "sphere multiplicities (k+1)^2 and projective parity, k<=50"):
        s3 = sphere()
        rp3 = reduce(2, [1, 1])
        for k in range(51):
            assert multiplicity(s3, k) == (k + 1) ** 2
            assert multiplicity(rp3, k) == ((k + 1) ** 2 if k % 2 == 0 else 0)


def test_c3_rigidity_3d():
    with criterion("C3", "3D rigidity sweep 8<=q<=60: no isospectral non-isometric pair"):
        started = time.perf_counter()
        summary = verify_rigidity(8, 60)
        elapsed = time.perf_counter() - started
        assert summary.findings == ()
        assert summary.small_q_findings == ()
        assert summary.pairs_checked > 1000
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_c4_rigidity_4d():
    with criterion("C4", "4D rigidity sweep 8<=q<=40 (padded): no counterexample"):
        started = time.perf_counter()
        summary = verify_rigidity(8, 40, padding=1)
        elapsed = time.perf_counter() - started
        assert summary.findings == ()
        assert summary.small_q_findings == ()
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_c5_padding_identity():
    with criterion("C5", "exact identity N_3d = (1-z) * N_4d for every class, q<=40"):
        for q in range(1, 41):
            for space in isometry_classes(q, 0)[0]:
                n0 = generating_function(space).numerator
                n1 = generating_function(LensSpace(q, space.rotations, 1)).numerator
                prod = [0] * (len(n1) + 1)
                for i, c in enumerate(n1):
                    prod[i] += c
                    prod[i + 1] -= c
                while len(prod) > 1 and prod[-1] == 0:
                    prod.pop()
                assert tuple(prod) == n0, space


def test_c6_degenerate_pair_reproduction():
    with criterion("C6", "q=195 pair: non-isometric, non-isospectral, equal heat tables"):
        started = time.perf_counter()
        first = reduce(195, [3, 5])
        second = reduce(195, [6, 35])
        assert is_isometric(first, second) is None
        decision = is_isospectral(first, second)
        assert not decision.isospectral
        assert decision.first_differing_k is not None
        assert decision.first_differing_k <= 782 == isospectral_bound(first)
        for space in (first, second):
            d = decompose_singular(space)
            assert (d.alpha, d.beta, d.g) == (5, 3, 13)
        e1, e2 = heat_expansion_3d(first), heat_expansion_3d(second)
        assert e1.coefficients() == e2.coefficients()
        assert e1.terms[0].coefficient.inv_pi == Fraction(1, 6240)
        assert same_heat_expansion(first, second) is HeatVerdict.GUARANTEED_EQUAL
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_c7_padded_degenerate_pair():
    with criterion("C7", "padded q=195 pair: same verdicts in dimension 4"):
        first = pad(reduce(195, [3, 5]), 1)
        second = pad(reduce(195, [6, 35]), 1)
        assert is_isometric(first, second) is None
        # padding preserves the isometry classification
        assert (is_isometric(first, second) is None) == (
            is_isometric(reduce(195, [3, 5]), reduce(195, [6, 35])) is None
        )
        assert not is_isospectral(first, second).isospectral
        assert same_heat_expansion(first, second) is HeatVerdict.GUARANTEED_EQUAL


def test_c8_cotangent_sum_identities():
    with criterion("C8", "csc^2/csc^4 closed forms vs trig sums, 2<=m<=500, rel 1e-9"):
        for m in range(2, 501):
            t2 = sum(1.0 / math.sin(math.pi * r / m) ** 2 for r in range(1, m))
            t4 = sum(1.0 / math.sin(math.pi * r / m) ** 4 for r in range(1, m))
            assert abs(float(csc2_sum(m)) - t2) <= 1e-9 * t2
            assert abs(float(csc4_sum(m)) - t4) <= 1e-9 * t4


def test_c9a_closed_form_residues():
    with criterion("C9a", "closed-form residues match numeric limits (10 spaces, 1e-8)"):
        spaces = []
        for q in range(6, 40):
            for x in range(2, q - 1):
                if 1 < math.gcd(x, q):
                    spaces.append(reduce(q, [1, x]))
            if len(spaces) >= 10:
                break
        assert len(spaces) >= 10
        for space in spaces[:10]:
            closed = residue_case3(space)
            limit = oracles.numeric_residue_limit(space, 1)
            assert abs(closed - limit) < 1e-8, space


def case5_spaces(qmax):
    out = []
    for q in range(2, qmax + 1):
        for x in range(2, q):
            if q % x != 0:
                continue
            for second in range(1, q):
                y = math.gcd(second, q)
                if y > x and math.gcd(x, second) == 1:
                    out.append(LensSpace(q, (x, second)))
    return out


def test_c9b_cotangent_residues():
    with criterion(
        "C9b", "cotangent-sum residues: nonzero and within 1e-6 of limits, q<=60"
    ):
        spaces = case5_spaces(60)
        assert spaces, "shape enumeration must be non-empty"
        for space in spaces:
            profile = residue_cot_sum(space)
            assert abs(profile.value) > 1e-10, space
            limit = oracles.numeric_residue_limit(space, profile.x)
            assert abs(profile.value - limit) < 1e-6, space


def test_c10_pole_order_at_unity():
    with criterion("C10", "pole order 3 at z=1 via exact rational growth fit (20 spaces)"):
        rng = random.Random(195)
        spaces = [sphere()]
        while len(spaces) < 20:
            q = rng.randint(2, 30)
            p1 = rng.randint(1, q - 1)
            p2 = rng.randint(1, q - 1)
            if math.gcd(math.gcd(p1, p2), q) != 1:
                continue
            spaces.append(LensSpace(q, (p1, p2)))
        for space in spaces:
            gf = generating_function(space)
            assert oracles.fitted_pole_order_at_one(gf) == 3, space


def test_c11_sweep_determinism():
    with criterion("C11", "sweep stdout byte-identical for 1 and 8 threads"):
        outs = []
        for threads in ("1", "8"):
            res = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "orbilens.cli",
                    "sweep",
                    "8",
                    "40",
                    "--format",
                    "json-lines",
                    "--threads",
                    threads,
                ],
                capture_output=True,
            )
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1]
