from itertools import combinations
from math import comb

import numpy as np
import pytest

from orbilens import search
from orbilens.core import LensSpace, canonical_form, is_isometric, sphere
from orbilens.errors import PreconditionViolated
from orbilens.heat import HeatVerdict, same_heat_expansion
from orbilens.search import (
    MAX_SWEEP_ORDER,
    SMALL_Q_LIMIT,
    PerQ,
    find_heat_degenerate,
    isometry_classes,
    sweep_stream,
    verify_rigidity,
)
from orbilens.spectrum import is_isospectral, spectrum_table

from conftest import all_reduced_pairs


def brute_class_partition(q):
    """Partition all reduced tuples into isometry classes by pairwise tests."""
    tuples = [LensSpace(q, t) for t in all_reduced_pairs(q)]
    classes = []
    for space in tuples:
        for cls in classes:
            if is_isometric(cls[0], space) is not None:
                cls.append(space)
                break
        else:
            classes.append([space])
    return classes


class TestEnumerate:
    def test_trivial_order(self):
        assert isometry_classes(1) == ([sphere()], 1)
        assert isometry_classes(1, 1) == ([sphere(2, 1)], 1)
        for padding in (0, 1):
            [(per_q, findings)] = sweep_stream("rigidity", 1, 1, padding)
            assert per_q == PerQ(1, 1, 1, 0, 0) and findings == []

    @pytest.mark.parametrize("q", [2, 5, 6, 7, 12, 16, 20])
    def test_class_count_matches_brute_partition(self, q):
        classes, spaces = isometry_classes(q)
        brute = brute_class_partition(q)
        assert len(classes) == len(brute)
        assert spaces == len(all_reduced_pairs(q))
        # every representative is canonical and classes are distinct
        for c in classes:
            assert canonical_form(c) == c
        reps = {c.rotations for c in classes}
        assert len(reps) == len(classes)

    # Even orders matter: there fold(q/2) = q/2.
    @pytest.mark.parametrize("q", [*range(2, 65), 195])
    def test_members_map_to_listed_representative(self, q):
        members = all_reduced_pairs(q)
        # Canonical rotations do not depend on the padding.
        canonical = {canonical_form(LensSpace(q, rots)).rotations for rots in members}
        for padding in (0, 1):
            classes, spaces = isometry_classes(q, padding)
            reps = [c.rotations for c in classes]
            assert reps == sorted(set(reps)), "representatives strictly ascending"
            for c in classes:
                assert c.padding == padding and canonical_form(c) == c
            assert spaces == len(members)
            assert set(reps) == canonical

    def test_q195_contains_famous_classes(self, q195_pair):
        classes = {c.rotations for c in isometry_classes(195)[0]}
        c1 = canonical_form(q195_pair[0]).rotations
        c2 = canonical_form(q195_pair[1]).rotations
        assert c1 in classes and c2 in classes and c1 != c2

    def test_deterministic_order(self):
        for q in range(5, 10):
            assert isometry_classes(q) == isometry_classes(q)
        assert [per_q.q for per_q, _ in sweep_stream("rigidity", 5, 9)] == [5, 6, 7, 8, 9]

    def test_range_validation(self):
        for mode in ("rigidity", "heat-degenerate"):
            with pytest.raises(PreconditionViolated):
                next(sweep_stream(mode, 10, 5))
            with pytest.raises(PreconditionViolated):
                next(sweep_stream(mode, 2, 4, padding=2))

    def test_orders_above_cap_refused_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes were enumerated")

        monkeypatch.setattr(search, "isometry_classes", refuse)
        top = MAX_SWEEP_ORDER + 1
        for mode in ("rigidity", "heat-degenerate"):
            with pytest.raises(PreconditionViolated, match=f"order {top} exceeds"):
                next(sweep_stream(mode, 8, top))

    def test_order_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(search, "isometry_classes", lambda q, padding: ([sphere()], 1))
        for mode in ("rigidity", "heat-degenerate"):
            per_q, _ = next(sweep_stream(mode, MAX_SWEEP_ORDER, MAX_SWEEP_ORDER))
            assert per_q == PerQ(MAX_SWEEP_ORDER, 1, 1, 0, 0)


class TestVerifyRigidity:
    def test_no_counterexamples_3d(self):
        summary = verify_rigidity(8, 40)
        assert summary.findings == ()
        assert summary.small_q_findings == ()
        assert summary.dimension == 3
        assert summary.pairs_checked > 0

    def test_no_counterexamples_small_orders(self):
        summary = verify_rigidity(1, SMALL_Q_LIMIT - 1)
        assert summary.findings == () and summary.small_q_findings == ()

    def test_vacuous_single_class(self):
        summary = verify_rigidity(1, 1)
        assert summary.pairs_checked == 0 and summary.classes == 1

    def test_no_counterexamples_4d_sample(self):
        summary = verify_rigidity(8, 24, padding=1)
        assert summary.findings == ()
        assert summary.dimension == 4

    def test_isometric_members_share_spectrum(self):
        # spot re-verification: members of one class agree with their
        # representative through k = 100
        for q in (9, 12, 20):
            reps = {c.rotations: c for c in isometry_classes(q)[0]}
            for rots in all_reduced_pairs(q)[::3]:
                member = LensSpace(q, rots)
                rep = reps[canonical_form(member).rotations]
                assert spectrum_table(member, 100).rows == spectrum_table(rep, 100).rows
                assert is_isospectral(member, rep).isospectral


class TestRigidityFindings:
    # No swept order has isospectral classes, so one shared fingerprint
    # stands in for a collision of every class with every other.
    @pytest.mark.parametrize("q", [9, 12, 20, 30])
    def test_shared_fingerprint_reports_every_pair(self, q, monkeypatch):
        shared = np.arange(5, dtype=np.int64)
        monkeypatch.setattr(search, "multiplicity_series", lambda space, kmax: shared)
        classes, spaces = isometry_classes(q)
        per_q, findings = search._rigidity_slice(q, 0)
        assert [(f.first, f.second) for f in findings] == list(combinations(classes, 2))
        for f in findings:
            assert f.isospectral and f.first_differing_k is None
            assert not f.isometric and f.witness is None and f.heat_verdict is None
        assert per_q.pairs == comb(len(classes), 2) == per_q.findings
        assert (per_q.q, per_q.spaces, per_q.classes) == (q, spaces, len(classes))


class TestFindHeatDegenerate:
    def test_q195_contains_famous_pair(self, q195_pair):
        summary = find_heat_degenerate(195, 195)
        keys = {(p.first.rotations, p.second.rotations) for p in summary.findings}
        c1 = canonical_form(q195_pair[0]).rotations
        c2 = canonical_form(q195_pair[1]).rotations
        assert (c1, c2) in keys or (c2, c1) in keys

    def test_q195_padded_contains_famous_pair(self, q195_pair):
        summary = find_heat_degenerate(195, 195, padding=1)
        keys = {(p.first.rotations, p.second.rotations) for p in summary.findings}
        c1 = canonical_form(q195_pair[0]).rotations
        c2 = canonical_form(q195_pair[1]).rotations
        assert (c1, c2) in keys or (c2, c1) in keys

    @pytest.mark.parametrize("q", [7, 11, 13, 23])
    def test_prime_orders_have_no_findings(self, q):
        assert find_heat_degenerate(q, q).findings == ()

    def test_findings_are_sound(self):
        summary = find_heat_degenerate(8, 30)
        assert summary.findings, "composite orders in range should produce pairs"
        for pair in summary.findings:
            assert pair.heat_verdict == HeatVerdict.GUARANTEED_EQUAL.value
            assert not pair.isospectral
            assert pair.first_differing_k is not None
            assert same_heat_expansion(pair.first, pair.second) is HeatVerdict.GUARANTEED_EQUAL
            assert not is_isospectral(pair.first, pair.second).isospectral
            assert is_isometric(pair.first, pair.second) is None

    def test_stream_matches_summary(self):
        chunks = list(sweep_stream("heat-degenerate", 10, 20))
        summary = find_heat_degenerate(10, 20)
        assert tuple(c[0] for c in chunks) == summary.per_q
        flat = [p for _, reports in chunks for p in reports]
        assert tuple(flat) == summary.findings

    def test_unknown_mode_rejected(self):
        with pytest.raises(PreconditionViolated):
            list(sweep_stream("everything", 2, 3))
