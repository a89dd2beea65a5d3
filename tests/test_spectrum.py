import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbilens.core import LensSpace, canonical_form, reduce, sphere
from orbilens import spectrum
from orbilens.errors import (
    CountingRangeExceeded,
    DimensionMismatch,
    NotADivisor,
    PoleEvaluation,
    PreconditionViolated,
    UnsupportedPadding,
)
from orbilens.search import isometry_classes
from orbilens.spectrum import (
    MAX_TABLE_ROWS,
    evaluate_F,
    generating_function,
    is_isospectral,
    isospectral_bound,
    multiplicity,
    multiplicity_series,
    order_spectrum,
    pole_order,
    residue_case3,
    residue_cot_sum,
    spectrum_table,
)

from conftest import all_reduced_pairs, all_reduced_tuples, reduced_spaces
import oracles


class TestMultiplicity:
    def test_sphere_squares(self):
        s = sphere()
        for k in range(51):
            assert multiplicity(s, k) == (k + 1) ** 2

    def test_projective_space_parity(self):
        rp3 = reduce(2, [1, 1])
        for k in range(51):
            expected = (k + 1) ** 2 if k % 2 == 0 else 0
            assert multiplicity(rp3, k) == expected

    def test_constants_always_invariant(self):
        for space in (sphere(), reduce(2, [1, 1]), reduce(195, [3, 5]), reduce(9, [1, 3], 1)):
            assert multiplicity(space, 0) == 1

    @pytest.mark.parametrize("padding", [0, 1])
    def test_exhaustive_small_orders_match_brute_force(self, padding):
        for q in range(2, 9):
            for rots in all_reduced_pairs(q):
                space = LensSpace(q, rots, padding)
                expected = oracles.brute_multiplicities(space, 25)
                got = list(multiplicity_series(space, 25))
                assert got == expected, space

    @given(reduced_spaces(qmax=14, paddings=(0, 1)), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_random_matches_brute_force(self, space, k):
        assert multiplicity(space, k) == oracles.brute_multiplicities(space, k)[k]

    @pytest.mark.parametrize("n, qmax", [(1, 12), (3, 8)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_other_block_counts_match_brute_force(self, n, qmax, padding):
        # n != 2 counts on the dynamic program; padding adds prefix sums.
        for q in range(1, qmax + 1):
            tuples = all_reduced_tuples(q, n) if q > 1 else [(0,) * n]
            for rots in tuples:
                space = LensSpace(q, rots, padding)
                expected = oracles.brute_multiplicities(space, 12)
                assert list(multiplicity_series(space, 12)) == expected, space

    def test_padded_sphere_dimension_counts(self):
        # S^4 harmonic dimensions: (2k+3)(k+2)(k+1)/6
        s4 = sphere(2, 1)
        for k in range(20):
            expected = (2 * k + 3) * (k + 2) * (k + 1) // 6
            assert multiplicity(s4, k) == expected

    def test_weyl_law_sanity(self):
        sphere_sum = sum((k + 1) ** 2 for k in range(101))
        for q, rots in [(7, [1, 2]), (12, [1, 5]), (15, [3, 2]), (195, [3, 5])]:
            space = reduce(q, rots)
            total = int(multiplicity_series(space, 100).sum())
            assert 0.5 * sphere_sum / q <= total <= 2.0 * sphere_sum / q

    def test_negative_degree_rejected(self):
        space = reduce(7, [1, 2])
        with pytest.raises(PreconditionViolated):
            multiplicity(space, -1)
        with pytest.raises(PreconditionViolated):
            multiplicity_series(space, -3)


class TestSpectrumTable:
    def test_eigenvalue_ladder_3d(self):
        table = spectrum_table(reduce(7, [1, 2]), 5)
        for row in table.rows:
            assert row.eigenvalue == row.k * (row.k + 2)

    def test_eigenvalue_ladder_4d(self):
        table = spectrum_table(reduce(7, [1, 2], 1), 5)
        for row in table.rows:
            assert row.eigenvalue == row.k * (row.k + 3)

    def test_zero_rows_retained(self):
        table = spectrum_table(reduce(2, [1, 1]), 3)
        assert [r.multiplicity for r in table.rows] == [1, 0, 9, 0]

    def test_single_row(self):
        table = spectrum_table(reduce(195, [3, 5]), 0)
        assert table.rows == (type(table.rows[0])(0, 0, 1),)

    def test_row_limit_refused_before_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("multiplicities were counted")

        monkeypatch.setattr(spectrum, "multiplicity_series", refuse)
        with pytest.raises(PreconditionViolated, match=f"degree {MAX_TABLE_ROWS} .*row limit"):
            spectrum_table(reduce(7, [1, 2]), MAX_TABLE_ROWS)

    @pytest.mark.parametrize("rotations", [(1, 2), (1,), (1, 2, 3)])
    def test_huge_padding_refused_before_counting(self, rotations):
        # One prefix sum or weight per padded coordinate would take
        # minutes and gigabytes at this padding.
        space = LensSpace(7, rotations, 10**9)
        with pytest.raises(CountingRangeExceeded, match="degree 2 .*cell limit"):
            multiplicity_series(space, 2)
        with pytest.raises(CountingRangeExceeded, match="degree 2 .*cell limit"):
            spectrum_table(space, 2)


class TestGeneratingFunction:
    def test_sphere_numerator(self):
        gf = generating_function(sphere())
        assert gf.numerator == (1, 0, -1)
        assert gf.denominator_power == 4

    def test_projective_numerator_and_roundtrip(self):
        gf = generating_function(reduce(2, [1, 1]))
        assert gf.degree <= 2 * 2 * 2 - 2 * 2 + 2
        assert gf.taylor(10) == [1, 0, 9, 0, 25, 0, 49, 0, 81, 0, 121]

    @pytest.mark.parametrize(
        "q,rots,padding",
        [(7, [1, 2], 0), (9, [1, 3], 0), (12, [2, 3], 0), (10, [1, 2], 1), (15, [3, 5], 1)],
    )
    def test_roundtrip_reproduces_multiplicities(self, q, rots, padding):
        space = reduce(q, rots, padding)
        gf = generating_function(space)
        kmax = 3 * space.n * space.q
        assert gf.taylor(kmax) == list(multiplicity_series(space, kmax))

    @given(reduced_spaces(qmax=15, paddings=(0, 1)))
    @settings(max_examples=25, deadline=None)
    def test_degree_bound(self, space):
        gf = generating_function(space)
        assert gf.degree <= 2 * space.n * space.q - 2 * space.n + 2

    def test_padding_identity_exact(self):
        # numerator over the common denominator satisfies
        # N_unpadded(z) = (1 - z) * N_padded(z) exactly
        for q, rots in [(5, [1, 2]), (9, [1, 3]), (12, [2, 3]), (15, [3, 5])]:
            n0 = generating_function(reduce(q, rots, 0)).numerator
            n1 = generating_function(reduce(q, rots, 1)).numerator
            prod = [0] * (len(n1) + 1)
            for i, c in enumerate(n1):
                prod[i] += c
                prod[i + 1] -= c
            while len(prod) > 1 and prod[-1] == 0:
                prod.pop()
            assert tuple(prod) == n0

    def test_unsupported_padding(self):
        with pytest.raises(UnsupportedPadding):
            generating_function(reduce(7, [1, 2], 2))

    def test_constant_coefficient_is_one(self):
        for q, rots in [(7, [1, 2]), (195, [3, 5])]:
            gf = generating_function(reduce(q, rots))
            assert gf.taylor(0) == [1]


class TestIsospectral:
    def test_identity(self):
        space = reduce(9, [1, 3])
        assert is_isospectral(space, space).isospectral

    def test_swapped_rotations(self):
        assert is_isospectral(reduce(11, [2, 5]), reduce(11, [5, 2])).isospectral

    def test_famous_pair_differs(self, q195_pair):
        first, second = q195_pair
        decision = is_isospectral(first, second)
        assert not decision.isospectral
        assert decision.first_differing_k is not None
        assert decision.first_differing_k <= isospectral_bound(first) == 782

    def test_famous_pair_differing_k_matches_brute_force(self, q195_pair):
        first, second = q195_pair
        k = is_isospectral(first, second).first_differing_k
        m1 = oracles.brute_multiplicities(first, k)
        m2 = oracles.brute_multiplicities(second, k)
        assert m1[:k] == m2[:k]
        assert m1[k] != m2[k]

    def test_group_order_is_spectral(self):
        decision = is_isospectral(reduce(7, [1, 2]), reduce(9, [1, 2]))
        assert not decision.isospectral
        assert "order" in decision.reason

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_isospectral(reduce(7, [1, 2]), reduce(7, [1, 2], 1))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_isometric_implies_isospectral_exhaustive(self, padding):
        for q in range(2, 41):
            reps = {c.rotations: c for c in isometry_classes(q, padding)[0]}
            for rots in all_reduced_pairs(q):
                member = LensSpace(q, rots, padding)
                rep = reps[canonical_form(member).rotations]
                assert is_isospectral(member, rep).isospectral


class TestEvaluateF:
    def test_value_at_zero_is_one(self):
        for space in (sphere(), reduce(7, [1, 2]), reduce(195, [6, 35]), reduce(9, [1, 3], 1)):
            assert abs(evaluate_F(space, 0.0) - 1.0) < 1e-12

    def test_sphere_closed_form(self):
        assert abs(evaluate_F(sphere(), 0.5) - 12.0) < 1e-12

    @given(
        reduced_spaces(qmax=20, paddings=(0, 1)),
        st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_series_inside_disk(self, space, z):
        series = multiplicity_series(space, 90)
        direct = sum(int(m) * z**k for k, m in enumerate(series))
        tail = abs(z) ** 91 * 10 * (91 + 1) ** 3
        got = evaluate_F(space, z)
        assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct)) + tail

    def test_pole_guard(self):
        with pytest.raises(PoleEvaluation):
            evaluate_F(reduce(7, [1, 2]), 1.0)


class TestResidueCase3:
    def test_closed_form_value(self):
        space = reduce(9, [1, 3])
        g = complex(math.cos(2 * math.pi / 9), math.sin(2 * math.pi / 9))
        expected = -2 * g / (9 * (1 - g**-2) * (1 - g**4))
        assert abs(residue_case3(space) - expected) < 1e-12

    @pytest.mark.parametrize("q,x", [(9, 3), (9, 6), (12, 4), (15, 5), (25, 10)])
    def test_matches_numeric_limit(self, q, x):
        space = reduce(q, [1, x])
        closed = residue_case3(space)
        limit = oracles.numeric_residue_limit(space, 1)
        assert abs(closed - limit) < 1e-8

    def test_conjugation_symmetry(self):
        space = reduce(9, [1, 3])
        assert abs(residue_case3(space, power=8) - residue_case3(space).conjugate()) < 1e-12

    def test_shape_rejected(self):
        with pytest.raises(PreconditionViolated):
            residue_case3(reduce(7, [1, 2]))  # manifold: gcd(x, q) = 1
        with pytest.raises(PreconditionViolated):
            residue_case3(reduce(9, [2, 3]))  # first rotation not 1
        with pytest.raises(PreconditionViolated):
            residue_case3(reduce(9, [1, 3]), power=3)


class TestResidueCotSum:
    def test_example_shape_is_nonzero(self):
        profile = residue_cot_sum(reduce(30, [2, 15]))
        assert profile.x == 2
        assert abs(profile.value) > 1e-10

    @pytest.mark.parametrize("q,rots", [(30, [2, 15]), (12, [2, 3]), (60, [4, 15]), (45, [3, 5])])
    def test_matches_numeric_limit(self, q, rots):
        space = reduce(q, rots)
        profile = residue_cot_sum(space)
        limit = oracles.numeric_residue_limit(space, profile.x)
        assert abs(profile.value - limit) < 1e-6

    def test_angle_values_well_defined(self):
        profile = residue_cot_sum(reduce(30, [2, 15]))
        assert len(profile.a_values) == len(profile.b_values) == profile.x
        assert all(0 < a < 30 for a in profile.a_values)
        assert all(0 < b < 30 for b in profile.b_values)

    def test_manifold_first_rotation_rejected(self):
        with pytest.raises(PreconditionViolated):
            residue_cot_sum(reduce(15, [1, 3]))

    def test_wrong_gcd_ordering_rejected(self):
        # first rotation's divisor must be the smaller one
        with pytest.raises(PreconditionViolated):
            residue_cot_sum(reduce(30, [15, 2]))


class TestPoleOrder:
    def test_order_at_unity(self):
        for q, rots in [(7, [1, 2]), (9, [1, 3]), (195, [3, 5])]:
            assert pole_order(reduce(q, rots), 1) == 3
        assert pole_order(reduce(12, [1, 5]), 2) == 3

    def test_non_divisor_rejected(self):
        with pytest.raises(NotADivisor):
            pole_order(reduce(9, [1, 3]), 4)

    def test_orbifold_element_with_repeated_unit_eigenvalue(self):
        # order-3 powers of the (1, 3) action at q=9 fix a plane, so the
        # eigenvalue 1 appears twice in their rotation spectrum
        assert pole_order(reduce(9, [1, 3]), 3) == 2

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_generic_manifold_elements_simple(self, q):
        assert pole_order(reduce(q, [1, 2]), q) == 1

    def test_matches_analytic_growth_for_manifolds(self):
        # for free actions the combinatorial count equals the analytic
        # pole order; verify the growth of F near a primitive root
        space = reduce(7, [1, 2])
        g = complex(math.cos(2 * math.pi / 7), math.sin(2 * math.pi / 7))
        vals = []
        for m in (3, 4, 5):
            z = g * (1 - 10.0**-m)
            vals.append(abs(evaluate_F(space, z)))
        slope = (math.log(vals[-1]) - math.log(vals[0])) / (2 * math.log(10.0))
        assert round(slope) == pole_order(space, 7) == 1


class TestOrderSpectrum:
    def test_divisor_sets(self):
        assert order_spectrum(reduce(12, [1, 5])) == (1, 2, 3, 4, 6, 12)
        assert order_spectrum(reduce(195, [3, 5])) == (1, 3, 5, 13, 15, 39, 65, 195)
        assert order_spectrum(sphere()) == (1,)
