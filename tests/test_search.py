import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter, defaultdict
from itertools import combinations
from math import comb

import numpy as np
import pytest

from orbilens import _kernels, cli, records, search
from orbilens.core import MAX_UNIT_ORDER, LensSpace, canonical_form, is_isometric, sphere
from orbilens.errors import PreconditionViolated
from orbilens.heat import HeatVerdict, _heat_keys, same_heat_expansion
from orbilens.search import (
    MAX_SWEEP_ORDER,
    SMALL_Q_LIMIT,
    PerQ,
    find_heat_degenerate,
    isometry_classes,
    sweep_stream,
    verify_rigidity,
)
from orbilens.spectrum import (
    is_isospectral,
    isospectral_bound,
    multiplicity_series,
    spectrum_table,
)

import oracles
from conftest import all_reduced_pairs
from test_golden import GOLDEN


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
            assert per_q == PerQ(1, 1, 1, 0, 0) and list(findings) == []

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

    # The unit normal form against the marking enumerator it replaced, at
    # every order to 400 and at orders with many coprime divisor pairs.
    # The oracle's orbits partition the rotation pairs, so their sizes
    # sum to the raw space count.
    def test_normal_form_matches_the_marking_oracle(self):
        sample = {210, 2310, 3990, 4004, 4096, *random.Random(20).sample(range(401, 4097), 2)}
        for q in [*range(1, 401), *sorted(sample)]:
            reps, sizes = oracles.marking_classes(q)
            p1, p2, spaces = search._class_columns(q)
            assert list(zip(p1.tolist(), p2.tolist())) == reps, q
            assert sum(sizes) == spaces, q

    # The closed-form count of Burnside's lemma, at every order to 1024
    # and at the sweep's largest orders.
    def test_class_count_matches_burnside(self):
        for q in [*range(1, 1025), 2310, 3990, 4004, 4096]:
            assert len(search._class_columns(q)[0]) == oracles.burnside_classes(q), q

    def test_order_above_unit_limit_refused(self):
        with pytest.raises(PreconditionViolated, match="unit-orbit limit"):
            isometry_classes(MAX_UNIT_ORDER + 1)

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
        # The call itself refuses, before any order is pulled.
        for mode in ("rigidity", "heat-degenerate"):
            with pytest.raises(PreconditionViolated):
                sweep_stream(mode, 10, 5)
            with pytest.raises(PreconditionViolated):
                sweep_stream(mode, 2, 4, padding=2)
        with pytest.raises(PreconditionViolated, match="unknown sweep mode"):
            sweep_stream("bogus", 8, 9)

    def test_mode_that_is_not_a_name_refused(self):
        # The mode table is a dict; an unhashable mode is refused, not a TypeError.
        with pytest.raises(PreconditionViolated, match="unknown sweep mode"):
            sweep_stream(["rigidity"], 8, 9)

    def test_orders_above_cap_refused_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("classes were enumerated")

        monkeypatch.setattr(search, "_class_columns", refuse)
        top = MAX_SWEEP_ORDER + 1
        for mode in ("rigidity", "heat-degenerate"):
            with pytest.raises(PreconditionViolated, match=f"order {top} exceeds"):
                next(sweep_stream(mode, 8, top))

    def test_order_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(search, "_class_columns", lambda q: (*columns([sphere()])[1:], 1))
        for mode in ("rigidity", "heat-degenerate"):
            per_q, _ = next(sweep_stream(mode, MAX_SWEEP_ORDER, MAX_SWEEP_ORDER))
            assert per_q == PerQ(MAX_SWEEP_ORDER, 1, 1, 0, 0)


@pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
def test_summary_record_reads_every_total_off_the_rows(mode):
    results = list(sweep_stream(mode, 1, 30, 1))
    rows = [per_q for per_q, _ in results]
    rec = records.summary_record(search.summarize_sweep(mode, 1, 30, 1, results))
    rows_only = [(per_q, ()) for per_q in rows]
    assert records.summary_record(search.summarize_sweep(mode, 1, 30, 1, rows_only)) == rec
    assert (rec["dimension"], rec["spaces"], rec["classes"], rec["pairs_checked"]) == (
        4, sum(p.spaces for p in rows), sum(p.classes for p in rows), sum(p.pairs for p in rows)
    )
    assert rec["findings"] + rec["small_q_findings"] == sum(len(r) for _, r in results)
    assert rec["findings"] > 0 or mode == "rigidity"


class TestVerifyRigidity:
    def test_no_counterexamples_3d(self):
        summary = verify_rigidity(8, 40)
        rec = records.summary_record(summary)
        assert summary.findings == ()
        assert summary.small_q_findings == ()
        assert rec["dimension"] == 3
        assert rec["pairs_checked"] > 0

    def test_no_counterexamples_small_orders(self):
        summary = verify_rigidity(1, SMALL_Q_LIMIT - 1)
        assert summary.findings == () and summary.small_q_findings == ()

    def test_vacuous_single_class(self):
        rec = records.summary_record(verify_rigidity(1, 1))
        assert rec["pairs_checked"] == 0 and rec["classes"] == 1

    def test_no_counterexamples_4d_sample(self):
        summary = verify_rigidity(8, 24, padding=1)
        assert summary.findings == ()
        assert records.summary_record(summary)["dimension"] == 4

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


def columns(spaces):
    """The order and the rotation columns (p1, p2) of same-order two-block spaces."""
    p1, p2 = np.array([s.rotations for s in spaces], np.int64).T
    return spaces[0].q, p1, p2


def share_one_fingerprint(monkeypatch):
    """Give every class one prefix row and, when deepened, one spectrum."""
    shared = np.arange(5, dtype=np.int64)
    monkeypatch.setattr(
        search, "_prefix_rows", lambda q, p1, p2, depth: np.tile(shared, (len(p1), 1))
    )
    monkeypatch.setattr(search, "multiplicity_series", lambda space, kmax: shared)


class TestRigidityFindings:
    # No swept order has isospectral classes, so one shared fingerprint
    # stands in for a collision of every class with every other.
    @pytest.mark.parametrize("q", [9, 12, 20, 30])
    def test_shared_fingerprint_reports_every_pair(self, q, monkeypatch):
        share_one_fingerprint(monkeypatch)
        classes, spaces = isometry_classes(q)
        per_q, findings = next(search.sweep_stream("rigidity", q, q, 0))
        assert [(f.first, f.second) for f in findings] == list(combinations(classes, 2))
        for f in findings:
            assert f.isospectral and f.first_differing_k is None
            assert f.heat_verdict is None
        assert per_q.pairs == comb(len(classes), 2) == per_q.findings
        assert (per_q.q, per_q.spaces, per_q.classes) == (q, spaces, len(classes))

    # No real order yields an isospectral pair, so no golden digest covers
    # one; these records and lines were recorded before the pair report
    # was cut down to the fields a sweep decides.
    PAIR_LINES = [
        '{"first":{"padding":0,"q":9,"rotations":[1,1]},"first_differing_k":null,'
        '"heat_verdict":null,"isometric":false,"isospectral":true,"q":9,"record":"pair",'
        '"second":{"padding":0,"q":9,"rotations":[1,2]},"witness":null}',
        '{"first":{"padding":0,"q":9,"rotations":[1,1]},"first_differing_k":null,'
        '"heat_verdict":null,"isometric":false,"isospectral":true,"q":9,"record":"pair",'
        '"second":{"padding":0,"q":9,"rotations":[1,3]},"witness":null}',
        '{"first":{"padding":0,"q":9,"rotations":[1,2]},"first_differing_k":null,'
        '"heat_verdict":null,"isometric":false,"isospectral":true,"q":9,"record":"pair",'
        '"second":{"padding":0,"q":9,"rotations":[1,3]},"witness":null}',
    ]
    PAIR_TEXT = (
        "pair q=9 L(9:1,1) | L(9:1,2) first_differing_k=None ISOSPECTRAL\n"
        "pair q=9 L(9:1,1) | L(9:1,3) first_differing_k=None ISOSPECTRAL\n"
        "pair q=9 L(9:1,2) | L(9:1,3) first_differing_k=None ISOSPECTRAL\n"
    )

    def test_shared_fingerprint_pair_records_pinned(self, capsys, monkeypatch):
        share_one_fingerprint(monkeypatch)
        assert cli.main(["sweep", "9", "9", "--format", "json-lines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if json.loads(l)["record"] == "pair"] == self.PAIR_LINES
        assert cli.main(["sweep", "9", "9", "--format", "text"]) == 0
        assert capsys.readouterr().out.startswith(self.PAIR_TEXT + "q=9 ")


class TestHashedKey:
    # The rigidity key is the built-in hash of a fingerprint's bytes,
    # which differs from process to process; the stdout must not.
    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_stdout_does_not_depend_on_the_hash_seed(self, seed, padding):
        command = f"sweep 8 40 --mode rigidity --padding {padding} --format json-lines"
        res = subprocess.run(
            [sys.executable, "-m", "orbilens.cli", *command.split()],
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
        )
        assert (hashlib.sha256(res.stdout).hexdigest(), len(res.stdout)) == GOLDEN[command]

    @pytest.mark.parametrize("padding", [0, 1])
    def test_exact_comparison_refuses_colliding_keys(self, padding, monkeypatch):
        real = list(sweep_stream("rigidity", 1, 60, padding))
        blocks, deepened = [], []
        rows_of, series = search._prefix_rows, search.multiplicity_series
        monkeypatch.setattr(
            search, "_prefix_rows", lambda *a: blocks.append(len(a[1])) or rows_of(*a)
        )
        monkeypatch.setattr(
            search, "multiplicity_series", lambda *a: deepened.append(a) or series(*a)
        )
        monkeypatch.setitem(
            search.SWEEP_MODES, "rigidity", (lambda q, p1, p2: np.zeros(len(p1), np.int64), True)
        )
        collided = list(sweep_stream("rigidity", 1, 60, padding))
        assert [row for row, _ in collided] == [row for row, _ in real]
        assert all(list(reports) == [] for _, reports in real + collided)
        # Every class of an order with two or more shares the one bucket,
        # fingerprinted as one block, and the prefixes refuse every pair.
        assert blocks == [row.classes for row, _ in real if row.classes > 1]
        assert deepened == []


def assert_bucket_findings_exact(mode, classes, findings):
    """Check one order's findings against is_isospectral, bucket pair by bucket pair.

    A finding must carry is_isospectral's first_differing_k, and a pair
    of bucket-mates that is no finding must be one the mode excludes.
    Returns the number of bucket-mate pairs.
    """
    key, isospectral = search.SWEEP_MODES[mode]
    found = {(f.first, f.second): f.first_differing_k for f in findings}
    buckets = defaultdict(list)
    for c, k in zip(classes, key(*columns(classes))):
        buckets[k].append(c)
    buckets.pop(None, None)
    mates = 0
    for members in buckets.values():
        for a, b in combinations(members, 2):
            mates += 1
            decision = is_isospectral(a, b)
            if (a, b) in found:
                assert decision.isospectral == isospectral, (a, b)
                assert found.pop((a, b)) == decision.first_differing_k, (a, b)
            else:
                assert decision.isospectral != isospectral, (a, b)
    assert not found, "findings that are not bucket-mates"
    return mates


class TestBucketMatrix:
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
    def test_every_order_to_48_against_is_isospectral(self, mode, padding):
        for per_q, findings in sweep_stream(mode, 1, 48, padding):
            classes, _ = isometry_classes(per_q.q, padding)
            assert_bucket_findings_exact(mode, classes, findings)

    # Every reduced pair of one order in one bucket: isometric members of
    # a class are isospectral, members of distinct classes are not.
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
    def test_one_bucket_of_isospectral_and_other_pairs(self, mode, padding, monkeypatch):
        spaces = [LensSpace(12, rots, padding) for rots in all_reduced_pairs(12)]
        monkeypatch.setattr(search, "_class_columns", lambda q: (*columns(spaces)[1:], len(spaces)))
        _, isospectral = search.SWEEP_MODES[mode]
        monkeypatch.setitem(
            search.SWEEP_MODES, mode, (lambda q, p1, p2: np.zeros(len(p1), np.int64), isospectral)
        )
        [(per_q, findings)] = sweep_stream(mode, 12, 12, padding)
        assert assert_bucket_findings_exact(mode, spaces, findings) == comb(len(spaces), 2)
        assert 0 < per_q.findings == len(findings) < per_q.pairs


class TestPrefixDeepening:
    # At a prefix of one degree most bucket-mates agree on it, so the
    # sweep decides them at the certifying depth.
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("mode", list(search.SWEEP_MODES))
    def test_every_order_to_48_against_is_isospectral(self, mode, padding, monkeypatch):
        deepened = []
        series = search.multiplicity_series
        monkeypatch.setattr(search, "_prefix_depth", lambda q: 1)
        monkeypatch.setattr(
            search, "multiplicity_series", lambda *a: deepened.append(a) or series(*a)
        )
        for per_q, findings in sweep_stream(mode, 1, 48, padding):
            classes, _ = isometry_classes(per_q.q, padding)
            assert_bucket_findings_exact(mode, classes, findings)
        assert len(deepened) > 100

    # For even q, L(q:1,1) and L(q:1,q/2) agree through degree q/2 and
    # first differ at q/2 + 1 (see isospectral_bound), inside the sweep's
    # prefix.  Keyed on q/2 degrees they share a bucket and agree on its
    # prefix, so only the exact comparison can tell them apart.
    @pytest.mark.parametrize("padding", [0, 1])
    def test_prefix_collision_refused_by_exact_comparison(self, padding, monkeypatch):
        keys, _ = search.SWEEP_MODES["rigidity"]
        for q in range(8, 65, 2):
            pair = [LensSpace(q, (1, 1), padding), LensSpace(q, (1, q // 2), padding)]
            assert canonical_form(pair[1]) == pair[1]
            assert is_isospectral(*pair).first_differing_k == q // 2 + 1
            first, second = keys(*columns(pair))
            assert first != second
        monkeypatch.setattr(search, "_prefix_depth", lambda q: q // 2)
        deepened = []
        series = search.multiplicity_series
        monkeypatch.setattr(
            search, "multiplicity_series", lambda *a: deepened.append(a[0]) or series(*a)
        )
        for q in range(8, 65, 2):
            pair = [LensSpace(q, (1, 1), padding), LensSpace(q, (1, q // 2), padding)]
            first, second = keys(*columns(pair))
            assert first == second
            [(per_q, findings)] = sweep_stream("rigidity", q, q, padding)
            assert list(findings) == [] and per_q.findings == 0
            assert set(pair) <= set(deepened)


# The separation depth D(q): the largest degree through which two distinct
# classes of order q agree, plus one, that is their first differing degree.
# Pinned at odd q; at every even q >= 4 it is q/2 + 1 (isospectral_bound).
ODD_SEPARATION_DEPTHS = {
    5: 2, 7: 2, 9: 4, 11: 3, 13: 4, 15: 7, 17: 5, 19: 6, 21: 8, 23: 7, 25: 8, 27: 10,
    29: 8, 31: 10, 33: 13, 35: 13, 37: 10, 39: 14, 41: 11, 43: 12, 45: 16, 47: 13,
    49: 13, 51: 19, 53: 14, 55: 15, 57: 20, 59: 16, 61: 16, 63: 22, 65: 17, 67: 18,
    69: 25, 71: 19, 73: 19, 75: 26, 77: 20, 79: 21, 81: 28, 83: 22, 85: 23, 87: 31,
    89: 23, 91: 24, 93: 32, 95: 25, 97: 25, 99: 34, 101: 26, 103: 27, 105: 37, 107: 28,
    109: 28, 111: 38, 113: 29, 115: 30, 117: 40, 119: 31, 121: 31, 123: 43, 125: 32,
    127: 33,
}


@pytest.mark.parametrize("padding", [0, 1])
def test_separation_depth_to_128(padding):
    # In lexicographic order the deepest pair of prefix rows is a pair of
    # neighbours, so D(q) is the longest common prefix of neighbours.
    # Padding 0 reads the sweep's own prefix rows, padding 1 each class's
    # multiplicity_series; the deepest pair is confirmed at the
    # certifying depth.
    depths = {}
    for q in range(4, 129):
        p1, p2, _ = search._class_columns(q)
        classes = [LensSpace(q, rots, padding) for rots in zip(p1.tolist(), p2.tolist())]
        depth = search._prefix_depth(q)
        if padding:
            rows = np.array([multiplicity_series(c, depth) for c in classes])
        else:
            rows = search._prefix_rows(q, p1, p2, depth)
        order = np.lexsort(rows.T[::-1])
        differ = rows[order[1:]] != rows[order[:-1]]
        assert differ.any(axis=1).all(), q
        first = differ.argmax(axis=1)
        r = int(first.argmax())
        a, b = (classes[order[r + s]] for s in (0, 1))
        exact = multiplicity_series(a, isospectral_bound(a)) != multiplicity_series(
            b, isospectral_bound(b))
        assert int(np.flatnonzero(exact)[0]) == first[r] <= q // 2 + 1, q
        depths[q] = int(first[r])
    assert {q: d for q, d in depths.items() if q % 2} == ODD_SEPARATION_DEPTHS
    assert all(d == q // 2 + 1 for q, d in depths.items() if q % 2 == 0)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    # A rigidity order holds its class columns, one int64 key per class,
    # and the prefix rows of one key slice with their counting grid.
    # Its traced peak stays within 8 memory budgets of int64 cells
    # (2 MiB) at any order; one prefix row per class is 32 MB at
    # q = 4004 (2027 classes, 2005 degrees).
    PEAK = 8 * 8 * _kernels.CHUNK_CELLS

    @pytest.mark.parametrize("q", [720, 1024, 4004])
    def test_rigidity_order_holds_no_fingerprint_per_class(self, q):
        assert traced_peak(lambda: list(sweep_stream("rigidity", q, q))) < self.PEAK

    def test_peak_bound_fails_an_order_that_keeps_every_row(self, monkeypatch):
        # One key slice as large as the order: every class's row at once.
        monkeypatch.setattr(_kernels, "CHUNK_CELLS", 1 << 40)
        assert traced_peak(lambda: list(sweep_stream("rigidity", 4004, 4004))) > self.PEAK

    @pytest.mark.parametrize("q,largest", [(195, 24), (360, 24), (720, 48)])
    def test_heat_order_holds_one_bucket_of_fingerprints(self, q, largest, monkeypatch):
        keys = _heat_keys(q, *search._class_columns(q)[:2])
        buckets = Counter(keys[keys >= 0].tolist())
        assert max(buckets.values()) == largest
        alive, most = [], 0

        def tracked(fingerprint):
            # Count the fingerprint rows still reachable once these are made.
            def made(*args):
                nonlocal most
                rows = fingerprint(*args)
                alive.append((weakref.ref(rows), len(rows) if rows.ndim == 2 else 1))
                most = max(most, sum(n for ref, n in alive if ref() is not None))
                return rows
            return made

        for seam in ("_prefix_rows", "multiplicity_series"):
            monkeypatch.setattr(search, seam, tracked(getattr(search, seam)))
        assert list(sweep_stream("heat-degenerate", q, q))[0][1]
        assert 2 <= most <= largest

    # The order holds one block of prefix rows, int64 and at most the
    # largest bucket's (q/2 + 3 wide), and one chunk of pair comparisons
    # (CHUNK_CELLS cells of each side and their bool difference).
    # At these orders both fit within 9 bytes per cell of the largest
    # bucket's (4q + 3)-wide rows.
    @pytest.mark.parametrize("q", [720, 1024])
    def test_heat_order_peak_within_one_bucket_matrix(self, q):
        keys = _heat_keys(q, *search._class_columns(q)[:2])
        buckets = Counter(keys[keys >= 0].tolist())
        largest = max(buckets.values())
        enumeration = traced_peak(lambda: isometry_classes(q))
        sweep = traced_peak(lambda: list(sweep_stream("heat-degenerate", q, q)))
        assert sweep <= enumeration + largest * (4 * q + 3) * 9


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
