import math
import random

import pytest
from hypothesis import given, settings

from orbilens.core import (
    LensSpace,
    apply_witness,
    canonical_form,
    decompose_singular,
    is_isometric,
    pad,
    reduce,
    sphere,
)
from orbilens.errors import (
    DimensionMismatch,
    InvalidOrder,
    PreconditionViolated,
    UnsupportedRank,
    ZeroRotation,
)

from conftest import all_reduced_pairs, all_reduced_tuples, reduced_spaces
import oracles


class TestReduce:
    def test_divides_out_common_factor(self):
        assert reduce(10, [2, 4]) == LensSpace(5, (1, 2))

    def test_already_reduced(self):
        assert reduce(7, [1, 2]) == LensSpace(7, (1, 2))

    def test_orbifold_entries_kept(self):
        assert reduce(195, [6, 35]) == LensSpace(195, (6, 35))

    def test_negative_and_large_entries_normalised(self):
        assert reduce(7, [-1, 9]) == LensSpace(7, (6, 2))

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            reduce(0, [1, 1])
        with pytest.raises(InvalidOrder):
            reduce(-3, [1, 1])

    def test_zero_rotation_rejected(self):
        with pytest.raises(ZeroRotation):
            reduce(9, [3, 9])

    def test_reduction_to_trivial_group_rejected(self):
        with pytest.raises(ZeroRotation):
            reduce(2, [2, 2])

    def test_empty_rotations_rejected(self):
        with pytest.raises(PreconditionViolated):
            reduce(5, [])

    @given(reduced_spaces())
    @settings(max_examples=60)
    def test_idempotent_on_reduced(self, space):
        assert reduce(space.q, list(space.rotations), space.padding) == space


class TestLensSpaceValidation:
    def test_out_of_range_rotation(self):
        with pytest.raises(ZeroRotation):
            LensSpace(5, (1, 5))

    def test_unreduced_rejected(self):
        with pytest.raises(PreconditionViolated):
            LensSpace(10, (2, 4))

    def test_sphere_descriptor(self):
        s = sphere()
        assert s.q == 1 and s.rotations == (0, 0) and s.ambient_dim == 3
        assert sphere(2, 1).ambient_dim == 4

    def test_sphere_only_zero_rotations(self):
        with pytest.raises(ZeroRotation):
            LensSpace(1, (1, 0))

    def test_ambient_dim(self):
        assert LensSpace(7, (1, 2)).ambient_dim == 3
        assert LensSpace(7, (1, 2), 1).ambient_dim == 4


class TestIsometric:
    def test_witness_example(self):
        w = is_isometric(reduce(7, [1, 2]), reduce(7, [2, 3]))
        assert w is not None
        assert (w.unit, w.signs, w.permutation) == (2, (1, -1), (0, 1))

    def test_swap_is_permutation_witness(self):
        a, b = reduce(11, [2, 5]), reduce(11, [5, 2])
        w = is_isometric(a, b)
        assert w is not None
        assert w.unit == 1 and w.signs == (1, 1) and w.permutation == (1, 0)

    def test_famous_pair_not_isometric(self, q195_pair):
        assert is_isometric(*q195_pair) is None

    def test_self_witness_is_identity(self):
        space = reduce(12, [1, 5])
        w = is_isometric(space, space)
        assert w.unit == 1 and w.signs == (1, 1) and w.permutation == (0, 1)

    def test_different_orders_never_isometric(self):
        assert is_isometric(reduce(7, [1, 2]), reduce(9, [1, 2])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_isometric(reduce(7, [1, 2]), reduce(7, [1, 2], padding=1))
        with pytest.raises(DimensionMismatch):
            is_isometric(reduce(7, [1, 2]), reduce(7, [1, 2, 3]))

    def test_sphere_pair(self):
        assert is_isometric(sphere(), sphere()) is not None

    @given(reduced_spaces(qmax=25))
    @settings(max_examples=50)
    def test_witness_applies_correctly(self, space):
        # Build an isometric partner by a random orbit move, then check the
        # returned witness actually maps one vector onto the other.
        rng = random.Random(space.q * 1000 + space.rotations[0])
        q = space.q
        l = rng.choice([u for u in range(1, q + 1) if math.gcd(u, q) == 1])
        signs = [rng.choice([1, -1]) for _ in space.rotations]
        moved = sorted(((s * l * p) % q) for s, p in zip(signs, space.rotations))
        partner = LensSpace(q, tuple(moved))
        w = is_isometric(space, partner)
        assert w is not None
        assert apply_witness(w, space) == partner.rotations

    @given(reduced_spaces(qmax=16), reduced_spaces(qmax=16))
    @settings(max_examples=40)
    def test_matches_exhaustive_orbit_search(self, a, b):
        if a.q != b.q:
            assert is_isometric(a, b) is None
            return
        assert (is_isometric(a, b) is not None) == oracles.isometric_exhaustive(a, b)

    @given(reduced_spaces(qmax=20), reduced_spaces(qmax=20))
    @settings(max_examples=40)
    def test_symmetric(self, a, b):
        if a.q != b.q:
            return
        assert (is_isometric(a, b) is None) == (is_isometric(b, a) is None)


@pytest.mark.parametrize(
    "n, qs", [(1, range(2, 25)), (3, (5, 7, 8, 9, 12))], ids=["n1", "n3"]
)
class TestOtherBlockOrbits:
    """The unit orbit for one and three rotation blocks."""

    def test_canonical_form_matches_literal_orbit_minimum(self, n, qs):
        for q in qs:
            for rots in all_reduced_tuples(q, n):
                space = LensSpace(q, rots)
                assert canonical_form(space).rotations == oracles.canonical_exhaustive(space)

    def test_is_isometric_matches_exhaustive_orbit_search(self, n, qs):
        rng = random.Random(n)
        for q in qs:
            spaces = [LensSpace(q, rots) for rots in all_reduced_tuples(q, n)]
            for a in spaces:
                # A random orbit move of a, unsorted, and a random space.
                l = rng.choice([u for u in range(1, q) if math.gcd(u, q) == 1])
                moved = [rng.choice([1, -1]) * l * p % q for p in a.rotations]
                rng.shuffle(moved)
                for b in (LensSpace(q, tuple(moved)), rng.choice(spaces)):
                    w = is_isometric(a, b)
                    assert (w is not None) == oracles.isometric_exhaustive(a, b), (a, b)
                    if w is not None:
                        assert apply_witness(w, a) == b.rotations


class TestCanonicalForm:
    def test_example(self):
        assert canonical_form(reduce(7, [2, 3])) == LensSpace(7, (1, 2))

    def test_minimal_fixed_point(self):
        space = LensSpace(9, (1, 1))
        assert canonical_form(space) == space

    @given(reduced_spaces(qmax=30))
    @settings(max_examples=60)
    def test_idempotent(self, space):
        c = canonical_form(space)
        assert canonical_form(c) == c

    @given(reduced_spaces(qmax=22))
    @settings(max_examples=40)
    def test_matches_literal_orbit_minimum(self, space):
        assert canonical_form(space).rotations == oracles.canonical_exhaustive(space)

    @pytest.mark.parametrize("q", [5, 8, 9, 12, 16])
    def test_separates_classes_exhaustively(self, q):
        spaces = [LensSpace(q, t) for t in all_reduced_pairs(q)]
        for i, a in enumerate(spaces):
            for b in spaces[i + 1 :]:
                same_class = is_isometric(a, b) is not None
                assert same_class == (canonical_form(a) == canonical_form(b))

    def test_constant_on_isometric_relabelings_q195(self):
        base = reduce(195, [6, 35])
        canon = canonical_form(base)
        rng = random.Random(195)
        units195 = [u for u in range(1, 195) if math.gcd(u, 195) == 1]
        for _ in range(25):
            l = rng.choice(units195)
            signs = [rng.choice([1, -1]) for _ in range(2)]
            rot = tuple(sorted(((s * l * p) % 195) for s, p in zip(signs, base.rotations)))
            assert canonical_form(LensSpace(195, rot)) == canon


class TestDecomposeSingular:
    def test_example_q195(self):
        for rots in ([3, 5], [6, 35]):
            d = decompose_singular(reduce(195, rots))
            assert (d.q1, d.q2) == (3, 5)
            assert (d.alpha_hat, d.beta_hat) == (65, 39)
            assert (d.g, d.alpha, d.beta) == (13, 5, 3)

    def test_manifold_case(self):
        d = decompose_singular(reduce(7, [1, 2]))
        assert (d.q1, d.q2, d.alpha_hat, d.beta_hat) == (1, 1, 7, 7)
        assert (d.g, d.alpha, d.beta) == (7, 1, 1)

    def test_rank_restriction(self):
        with pytest.raises(UnsupportedRank):
            decompose_singular(LensSpace(7, (1, 2, 3)))

    @given(reduced_spaces(qmax=60))
    @settings(max_examples=80)
    def test_invariants(self, space):
        d = decompose_singular(space)
        q = space.q
        assert q == d.alpha_hat * d.q1 == d.beta_hat * d.q2
        assert q == d.alpha * d.g * d.q1 == d.beta * d.g * d.q2
        assert math.gcd(d.alpha, d.beta) == 1
        assert q % (d.alpha * d.beta * d.g) == 0


class TestPad:
    def test_adds_fixed_coordinates(self):
        padded = pad(reduce(195, [3, 5]), 1)
        assert padded == LensSpace(195, (3, 5), 1)
        assert padded.ambient_dim == 4

    def test_zero_padding_disallowed(self):
        with pytest.raises(PreconditionViolated):
            pad(reduce(7, [1, 2]), 0)

    def test_padding_preserves_isometry_classification(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 100:
            q = rng.randint(2, 30)
            tuples = all_reduced_pairs(q)
            a = LensSpace(q, rng.choice(tuples))
            b = LensSpace(q, rng.choice(tuples))
            unpadded = is_isometric(a, b) is not None
            padded = is_isometric(pad(a, 1), pad(b, 1)) is not None
            assert unpadded == padded
            checked += 1
