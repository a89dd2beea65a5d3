import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from orbilens import records
from orbilens.core import LensSpace, decompose_singular, is_isometric, reduce
from orbilens.errors import PreconditionViolated, ShapeMismatch, UnsupportedShape
from orbilens.heat import (
    HeatCoefficient,
    HeatVerdict,
    csc2_sum,
    csc4_sum,
    heat_expansion_3d,
    _heat_keys,
    same_heat_expansion,
    stratum_b01,
)
from orbilens.search import _class_columns, isometry_classes

from conftest import reduced_spaces


def trig_csc2(m):
    return sum(1.0 / math.sin(math.pi * r / m) ** 2 for r in range(1, m))


def trig_csc4(m):
    return sum(1.0 / math.sin(math.pi * r / m) ** 4 for r in range(1, m))


def weighted_trig_sums(m, w):
    """b_0, b_1 of a circle of isotropy m summed term by term over the
    angles pi w r / m; b_1 carries the round sphere's curvature sum 2."""
    b0 = b1 = 0.0
    for r in range(1, m):
        s2 = math.sin(math.pi * (w * r % m) / m) ** 2
        b0 += 0.25 / s2
        b1 += 2 * (1.0 / (6.0 * s2) - 1.0 / (16.0 * s2 * s2))
    return b0, b1


class TestCotangentSums:
    def test_examples(self):
        assert csc2_sum(3) == Fraction(8, 3)
        assert csc4_sum(3) == Fraction(32, 9)
        assert csc2_sum(1) == 0
        assert csc4_sum(1) == 0
        assert csc2_sum(195) == Fraction(38024, 3)
        assert csc4_sum(50) == Fraction(50**4 + 10 * 50**2 - 11, 45)

    @pytest.mark.parametrize("m", list(range(2, 121)))
    def test_matches_direct_trig_sums(self, m):
        assert abs(float(csc2_sum(m)) - trig_csc2(m)) <= 1e-9 * float(csc2_sum(m))
        assert abs(float(csc4_sum(m)) - trig_csc4(m)) <= 1e-9 * float(csc4_sum(m))

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionViolated):
            csc2_sum(0)
        with pytest.raises(PreconditionViolated, match="m must be >= 1, got 0"):
            csc4_sum(0)


class TestStratumCoefficients:
    def test_example_m3(self):
        term = stratum_b01(3)
        assert term.b0 == Fraction(2, 3)
        assert term.b1 == Fraction(4, 9)

    def test_example_m2_single_term(self):
        assert stratum_b01(2).b0 == Fraction(1, 4)

    def test_exact_cot_sum_identities(self):
        # b_0 and b_1 are the quarter csc^2 sum and the curvature-weighted
        # csc^2/csc^4 combination; C8 ties those sums to trig
        for m in range(2, 301):
            term = stratum_b01(m)
            assert term.b0 == csc2_sum(m) / 4
            assert term.b1 == 2 * (csc2_sum(m) / 6 - csc4_sum(m) / 16)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 60, 150, 300])
    def test_trig_cross_checks(self, m):
        b0, b1 = weighted_trig_sums(m, 1)
        term = stratum_b01(m)
        assert abs(b0 - float(term.b0)) <= 1e-10 * max(1.0, float(term.b0))
        assert abs(b1 - float(term.b1)) <= 1e-10 * max(1.0, abs(float(term.b1)))

    def test_weight_independence(self):
        # a circle's generator may turn its normal plane by 2 pi w / m for
        # any unit w; the fixed-point sums, and so b_0 and b_1, do not
        # depend on w
        for m in range(2, 51):
            term = stratum_b01(m)
            for w in range(1, m):
                if math.gcd(w, m) != 1:
                    continue
                b0, b1 = weighted_trig_sums(m, w)
                assert abs(b0 - float(term.b0)) < 1e-9 * max(1.0, float(term.b0))
                assert abs(b1 - float(term.b1)) < 1e-9 * max(1.0, abs(float(term.b1)))

    def test_isotropy_one_rejected(self):
        with pytest.raises(PreconditionViolated):
            stratum_b01(1)


class TestDonnellyB:
    """b_0 against Donnelly's fixed-point sum of |det B|, B = (I - A)^(-1),
    over the nontrivial powers A of the rotation on the normal plane."""

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 25, 50])
    def test_det_sum_is_quarter_csc2_sum(self, m):
        total = 0.0
        for r in range(1, m):
            c, s = math.cos(2 * math.pi * r / m), math.sin(2 * math.pi * r / m)
            a = np.array([[c, -s], [s, c]])
            total += abs(np.linalg.det(np.linalg.inv(np.eye(2) - a)))
        assert total == pytest.approx(float(csc2_sum(m)) / 4.0, rel=1e-10)
        assert total == pytest.approx(float(stratum_b01(m).b0), rel=1e-10)


class TestHeatExpansion3D:
    def test_leading_coefficient_q195(self):
        exp = heat_expansion_3d(reduce(195, [3, 5]))
        assert exp.terms[0].coefficient == HeatCoefficient(inv_pi=Fraction(1, 6240))
        assert exp.terms[0].exponent == Fraction(-3, 2)

    def test_second_coefficient_q195(self):
        exp = heat_expansion_3d(reduce(195, [3, 5]))
        assert exp.terms[1].coefficient == HeatCoefficient(
            Fraction(1, 6240), Fraction(2, 9) + Fraction(2, 5)
        )

    def test_third_coefficient_structure(self):
        # smooth part halves (1/2! from the exponential ladder); circle part
        # feeds the isotropy-order polynomials through the curvature sum 2
        exp = heat_expansion_3d(reduce(195, [3, 5]))
        alpha, beta = exp.alpha, exp.beta
        circle = Fraction(-2 * (beta**2 - 29) * (beta**2 - 1), 720 * beta) + Fraction(
            -2 * (alpha**2 - 29) * (alpha**2 - 1), 720 * alpha
        )
        assert exp.terms[2].coefficient == HeatCoefficient(Fraction(1, 12480), circle)

    def test_manifold_has_no_circle_terms(self):
        exp = heat_expansion_3d(reduce(7, [1, 2]))
        assert exp.strata == ()
        assert exp.terms[1].coefficient == HeatCoefficient(inv_pi=Fraction(1, 224))
        assert all(t.coefficient.sqrt_pi == 0 for t in exp.terms)

    def test_q195_pair_tables_exactly_equal(self, q195_pair):
        e1 = heat_expansion_3d(q195_pair[0])
        e2 = heat_expansion_3d(q195_pair[1])
        assert e1.coefficients() == e2.coefficients()
        assert [t.exponent for t in e1.terms] == [
            Fraction(-3, 2),
            Fraction(-1, 2),
            Fraction(1, 2),
        ]

    def test_all_terms_exact(self):
        exp = heat_expansion_3d(reduce(30, [2, 15]))
        assert all(t["exact"] is True for t in records.heat_expansion_record(exp)["terms"])

    def test_shape_restrictions(self):
        with pytest.raises(UnsupportedShape):
            heat_expansion_3d(reduce(7, [1, 2], 1))
        with pytest.raises(UnsupportedShape):
            heat_expansion_3d(LensSpace(7, (1, 2, 3)))
        with pytest.raises(PreconditionViolated):
            heat_expansion_3d(reduce(7, [1, 2]), order=4)

    def test_order_truncation(self):
        exp = heat_expansion_3d(reduce(9, [1, 3]), order=2)
        assert len(exp.terms) == 2


class TestSameHeatExpansion:
    def test_q195_pair(self, q195_pair):
        assert same_heat_expansion(*q195_pair) is HeatVerdict.GUARANTEED_EQUAL

    def test_q195_padded_pair(self, q195_pair):
        a, b = q195_pair
        a1 = LensSpace(a.q, a.rotations, 1)
        b1 = LensSpace(b.q, b.rotations, 1)
        assert same_heat_expansion(a1, b1) is HeatVerdict.GUARANTEED_EQUAL

    def test_identity(self):
        space = reduce(9, [1, 3])
        assert same_heat_expansion(space, space) is HeatVerdict.GUARANTEED_EQUAL

    def test_isometric_descriptors(self):
        assert (
            same_heat_expansion(reduce(7, [1, 2]), reduce(7, [2, 3]))
            is HeatVerdict.GUARANTEED_EQUAL
        )

    def test_distinct_manifold_classes_unknown(self):
        assert same_heat_expansion(reduce(11, [1, 2]), reduce(11, [1, 3])) is HeatVerdict.UNKNOWN

    def test_mismatched_isotropy_unknown(self):
        # {alpha, beta} = {2, 1} vs {5, 1}
        assert same_heat_expansion(reduce(10, [1, 2]), reduce(10, [1, 5])) is HeatVerdict.UNKNOWN

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            same_heat_expansion(reduce(7, [1, 2]), reduce(9, [1, 2]))
        with pytest.raises(ShapeMismatch):
            same_heat_expansion(reduce(7, [1, 2]), reduce(7, [1, 2], 1))

    def test_three_blocks_refused(self):
        with pytest.raises(UnsupportedShape, match="two rotation blocks"):
            same_heat_expansion(reduce(7, [1, 2, 3]), reduce(7, [1, 2, 4]))

    def test_guaranteed_equal_implies_equal_tables_up_to_q100(self):
        for q in range(2, 101):
            classes, _ = isometry_classes(q)
            expansions = {}
            for i, a in enumerate(classes):
                for b in classes[i + 1 :]:
                    if same_heat_expansion(a, b) is not HeatVerdict.GUARANTEED_EQUAL:
                        continue
                    for s in (a, b):
                        if s not in expansions:
                            expansions[s] = heat_expansion_3d(s).coefficients()
                    assert expansions[a] == expansions[b], (a, b)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_class_keys_decide_like_same_heat_expansion(self, padding):
        # The heat sweep compares the keys of class representatives in
        # place of same_heat_expansion, which is sound only because
        # distinct representatives are never isometric.
        def lemma_matches(a, b):
            # the isotropy lemma's criterion, written out independently
            def applies(s):
                p1, p2 = s.rotations
                return p1 != p2 and (p1 + p2) % s.q != 0 and math.gcd(p1 * p2, s.q) > 1

            if not (applies(a) and applies(b)):
                return False
            da, db = decompose_singular(a), decompose_singular(b)
            return da.g == db.g and {da.alpha, da.beta} == {db.alpha, db.beta}

        for q in range(1, 41):
            classes, _ = isometry_classes(q, padding)
            keys = _heat_keys(q, *_class_columns(q)[:2])
            for i, a in enumerate(classes):
                for j in range(i + 1, len(classes)):
                    b = classes[j]
                    assert is_isometric(a, b) is None, (a, b)
                    by_key = keys[i] == keys[j]
                    verdict = same_heat_expansion(a, b)
                    assert by_key == (verdict is HeatVerdict.GUARANTEED_EQUAL), (a, b)
                    assert by_key == lemma_matches(a, b), (a, b)

    @given(reduced_spaces(qmax=40), reduced_spaces(qmax=40))
    @settings(max_examples=40, deadline=None)
    def test_never_claims_inequality_wrongly(self, a, b):
        # whenever the predicate promises equality, the computed tables agree
        if a.q != b.q:
            return
        if same_heat_expansion(a, b) is HeatVerdict.GUARANTEED_EQUAL:
            assert (
                heat_expansion_3d(a).coefficients() == heat_expansion_3d(b).coefficients()
            )
