"""Coverage classifier tests: geometry, catalogs, events, policy."""

import contextlib
import http.server
import json
import math
import os
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import numpy as np
import pytest

from abps_toolkit import coverage
from abps_toolkit.coverage import (
    AccessPoint,
    CatalogUnavailable,
    CoverageEvent,
    EventKind,
    LocalCatalog,
    NicActivation,
    RemoteCatalog,
    TrajectorySample,
    TtlCache,
    apply_policy,
    classify,
    classify_trajectory,
    extrapolate,
    haversine_m,
    load_trajectory,
    predict_coverage,
    query_aps,
)
from abps_toolkit.ctmc import ValidationError

# 1 meter in degrees of longitude at the equator
M = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)


def walk(length_m, speed=1.0, step_s=1.0):
    """Straight equatorial walk eastwards, one sample per step."""
    n = int(length_m / speed / step_s)
    return [TrajectorySample(i * step_s, 0.0, i * step_s * speed * M) for i in range(n + 1)]


def math_haversine(lat1, lon1, lat2, lon2):
    """Scalar reference formula on the math module."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2.0 * coverage.EARTH_RADIUS_M * math.asin(math.sqrt(a))


def ap(essid, x_m, radius, group=None):
    return AccessPoint(essid, 0.0, x_m * M, radius_m=radius, group=group)


def corridor_catalog():
    """A campus-network corridor plus isolated third-party points."""
    return [
        ap("campus-1", 40, 60, group="campusnet"),
        ap("campus-2", 120, 60, group="campusnet"),
        ap("campus-3", 200, 60, group="campusnet"),
        ap("campus-4", 280, 60, group="campusnet"),
        ap("cafe-hotspot", 150, 30),
        ap("bar-guests", 20, 25),
    ]


def endpoints_catalog():
    """Coverage only at both ends of the walk, nothing in the middle."""
    return [ap("park-wifi", 30, 50), ap("corner-shop", 470, 50)]


class TestGeometry:
    def test_haversine_known_distance(self):
        # one degree of longitude at the equator
        assert haversine_m(0, 0, 0, 1) == pytest.approx(
            coverage.EARTH_RADIUS_M * math.pi / 180, rel=1e-9
        )

    def test_haversine_broadcasts_like_scalar_calls(self):
        lat = np.array([[0.0], [10.5], [-45.25]])
        lon = np.array([[0.0], [179.9], [-3.0]])
        ap_lat = np.array([0.0, 10.5004, -89.0, 60.0])
        ap_lon = np.array([0.001, -179.9, 12.0, -3.0])
        matrix = haversine_m(lat, lon, ap_lat, ap_lon)
        assert matrix.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                args = (float(lat[i, 0]), float(lon[i, 0]), float(ap_lat[j]), float(ap_lon[j]))
                assert matrix[i, j] == haversine_m(*args)
                assert matrix[i, j] == pytest.approx(math_haversine(*args), rel=1e-12)

    def test_query_containment(self):
        catalog = LocalCatalog([ap("one", 50, 30)])
        assert len(query_aps(catalog, 0.0, 0.0, 100.0)) == 1
        assert query_aps(catalog, 0.0, 0.0, 10.0) == []

    def test_query_monotone_in_radius(self):
        catalog = LocalCatalog(corridor_catalog())
        small = {a.essid for a in query_aps(catalog, 0.0, 150 * M, 100.0)}
        large = {a.essid for a in query_aps(catalog, 0.0, 150 * M, 250.0)}
        assert small <= large

    def test_query_validates_inputs(self):
        catalog = LocalCatalog([])
        with pytest.raises(ValidationError):
            query_aps(catalog, 91.0, 0.0, 10.0)
        with pytest.raises(ValidationError):
            query_aps(catalog, 0.0, 0.0, 0.0)

    def test_query_order_matches_sorted_reference(self):
        # a small grid of positions and few names, so distances and ESSIDs tie
        rng = np.random.default_rng(11)
        aps = [AccessPoint(f"ap-{rng.integers(4)}", float(rng.integers(-3, 4)) * 40 * M,
                           float(rng.integers(-3, 4)) * 40 * M) for _ in range(120)]
        catalog = LocalCatalog(aps)
        for lat, lon, radius in ((0.0, 0.0, 100.0), (20 * M, -40 * M, 250.0), (0.0, 0.0, 1.0)):
            found = sorted((haversine_m(lat, lon, a.lat, a.lon), a.essid, j)
                           for j, a in enumerate(aps))
            expected = [id(aps[j]) for d, _, j in found if d <= radius]
            assert [id(a) for a in catalog.query(lat, lon, radius)] == expected

    def test_corridor_points_share_group(self):
        catalog = LocalCatalog(corridor_catalog())
        found = query_aps(catalog, 0.0, 160 * M, 120.0)
        corridor = [a for a in found if a.essid.startswith("campus")]
        assert len(corridor) >= 2
        assert {a.group for a in corridor} == {"campusnet"}


def brute_force(aps, lat, lon):
    """(distance, id) of every access point seen from one position, by a
    distance to each: nearest first, then ESSID, then catalog index."""
    found = sorted((haversine_m(lat, lon, a.lat, a.lon), a.essid, j) for j, a in enumerate(aps))
    return [(d, id(aps[j])) for d, _, j in found]


def within(ranked, radius):
    return [i for d, i in ranked if d <= radius]


def tied_catalog(seed=3):
    """Masts on a 40 m grid around the equator, both poles and both sides
    of the antimeridian, four ESSIDs; a mast carrying two ESSIDs and one
    ESSID listed twice at one position, so distances and names tie."""
    rng = np.random.default_rng(seed)
    aps = []
    for lat0, lon0 in ((0.0, 0.0), (89.9, 0.0), (-89.9, 120.0), (10.0, 180.0), (10.0, -180.0)):
        for _ in range(40):
            lat = lat0 + float(rng.integers(-4, 5)) * 40 * M
            lon = lon0 + float(rng.integers(-4, 5)) * 40 * M / math.cos(math.radians(lat0))
            if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
                aps.append(AccessPoint(f"ap-{rng.integers(4)}", lat, lon))
        aps.append(AccessPoint("mast-b", lat0, lon0))
        aps.append(AccessPoint("mast-a", lat0, lon0, radius_m=80.0))
        aps.append(AccessPoint("twice", lat0, lon0))
        aps.append(AccessPoint("twice", lat0, lon0, radius_m=20.0))
    return aps


def positions_near(aps, seed=4):
    """Every AP's own position, random positions up to ~400 m off the masts
    on either side of the poles' and the antimeridian's seams, and positions
    due north and south of the masts."""
    rng = np.random.default_rng(seed)
    lat, lon = [a.lat for a in aps], [a.lon for a in aps]
    for a in aps[::7]:
        for _ in range(3):
            d_lat = float(rng.uniform(-1, 1)) * 400 * M
            d_lon = float(rng.uniform(-1, 1)) * 400 * M / max(math.cos(math.radians(a.lat)), 1e-3)
            lat.append(min(max(a.lat + d_lat, -90.0), 90.0))
            lon.append((a.lon + d_lon + 180.0) % 360.0 - 180.0)
        # due north and south, just inside the radii tested: the edge of the band
        for r in (100.0, 250.0, 1000.0):
            for sign in (1, -1):
                lat.append(min(max(a.lat + sign * r * (1 - 1e-7) * M, -90.0), 90.0))
                lon.append(a.lon)
    lat += [89.9, -89.9, 90.0, -90.0, 10.0, 10.0]
    lon += [180.0, -180.0, 0.0, 0.0, 180.0, -180.0]
    return lat, lon


class TestQueryMany:
    """``LocalCatalog.query_many`` against a distance to every access point."""

    def test_matches_brute_force_by_identity_and_order(self):
        aps = tied_catalog()
        lat, lon = positions_near(aps)
        ranked = [brute_force(aps, a, o) for a, o in zip(lat, lon)]
        catalog = LocalCatalog(aps)
        for radius in (-1.0, 0.0, 1.0, 100.0, 250.0, 1000.0, 3e7, math.inf, math.nan):
            answers = catalog.query_many(lat, lon, radius)
            assert len(answers) == len(lat)
            for answer, expected in zip(answers, ranked):
                assert type(answer) is tuple
                assert [id(x) for x in answer] == within(expected, radius)

    def test_ties_ordered_by_essid_then_catalog_index(self):
        aps = [ap("twice", 0, 50), ap("near", 10, 50), ap("mast-b", 0, 50),
               ap("twice", 0, 20), ap("mast-a", 0, 80)]
        found = LocalCatalog(aps).query_many([0.0, 0.0], [0.0, 8 * M], 20.0)
        assert [(a.essid, a.radius_m) for a in found[0]] == [
            ("mast-a", 80), ("mast-b", 50), ("twice", 50), ("twice", 20), ("near", 50)]
        assert [a.essid for a in found[1]] == ["near", "mast-a", "mast-b", "twice", "twice"]

    def test_band_wider_than_the_catalog_and_whole_globe(self):
        aps = tied_catalog()
        everything = LocalCatalog(aps).query_many([0.0, -90.0], [0.0, 180.0], 3e7)
        for answer, (lat, lon) in zip(everything, ((0.0, 0.0), (-90.0, 180.0))):
            assert len(answer) == len(aps)
            assert [id(a) for a in answer] == within(brute_force(aps, lat, lon), 3e7)

    def test_empty_catalog_and_empty_batch(self):
        assert LocalCatalog([]).query_many([0.0, 45.0], [0.0, 7.0], 500.0) == [(), ()]
        assert LocalCatalog([]).query(0.0, 0.0, 500.0) == []
        assert LocalCatalog(tied_catalog()).query_many([], [], 500.0) == []

    def test_single_position_is_query(self):
        aps = tied_catalog()
        catalog = LocalCatalog(aps)
        lat, lon = positions_near(aps)
        for a, o in zip(lat[::5], lon[::5]):
            found = catalog.query(a, o, 250.0)
            assert type(found) is list
            assert [id(x) for x in found] == [id(x) for x in catalog.query_many([a], [o], 250.0)[0]]
            assert [id(x) for x in found] == within(brute_force(aps, a, o), 250.0)

    def test_batch_split_into_parts(self, monkeypatch):
        aps = tied_catalog()
        lat, lon = positions_near(aps)
        whole = LocalCatalog(aps).query_many(lat, lon, 250.0)
        monkeypatch.setattr(coverage, "_BATCH_PAIRS", 50)
        split = LocalCatalog(aps).query_many(lat, lon, 250.0)
        assert [[id(a) for a in t] for t in split] == [[id(a) for a in t] for t in whole]


class TestPredictCoverage:
    def test_single_ap_chord_duration(self):
        # 30 m disc centered on a 1 m/s path: covered for the 60 m chord
        timeline = predict_coverage(walk(100), [ap("mid", 50, 30)])
        covered = [iv for iv in timeline if iv.covered]
        assert len(covered) == 1
        assert covered[0].duration == pytest.approx(60.0, abs=1e-3)
        assert covered[0].essids == ("mid",)

    def test_never_covered(self):
        timeline = predict_coverage(walk(100), [ap("far", 5000, 30)])
        assert len(timeline) == 1
        assert not timeline[0].covered
        assert timeline[0].duration == pytest.approx(100.0)

    def test_endpoints_fixture_three_intervals(self):
        timeline = predict_coverage(walk(500), endpoints_catalog())
        assert [iv.covered for iv in timeline] == [True, False, True]

    def test_partition_no_gaps_no_overlaps(self):
        track = walk(500)
        timeline = predict_coverage(track, corridor_catalog() + endpoints_catalog())
        assert timeline[0].start == track[0].t
        assert timeline[-1].end == track[-1].t
        for a, b in zip(timeline, timeline[1:]):
            assert a.end == pytest.approx(b.start, abs=1e-9)

    def test_same_group_merges_into_one_interval(self):
        timeline = predict_coverage(walk(360), corridor_catalog())
        covered = [iv for iv in timeline if iv.covered]
        assert len(covered) == 1
        assert "campusnet" in covered[0].groups
        assert covered[0].duration == pytest.approx(340.0, abs=0.5)

    def test_network_swap_splits_interval(self):
        # coverage gap smaller than the sample spacing; consecutive samples
        # are covered by different networks, so the interval splits at the
        # instant the first network's coverage runs out
        split_aps = [ap("alpha", 40, 50.3), ap("beta", 141, 50.3)]
        covered = [iv for iv in predict_coverage(walk(200), split_aps) if iv.covered]
        assert len(covered) == 2
        assert covered[0].end == pytest.approx(90.3, abs=1e-3)
        assert covered[0].essids == ("alpha",)
        assert covered[1].essids == ("beta",)
        same_group = [ap("alpha", 40, 50.3, "net"), ap("beta", 141, 50.3, "net")]
        covered = [iv for iv in predict_coverage(walk(200), same_group) if iv.covered]
        assert len(covered) == 1
        # a group name is an opaque string: one that looks like an ungrouped
        # AP's name and catalog index is still a different network
        lookalike = [ap("alpha", 40, 50.3), ap("beta", 141, 50.3, "alpha#0")]
        covered = [iv for iv in predict_coverage(walk(200), lookalike) if iv.covered]
        assert len(covered) == 2
        assert covered[0].end == pytest.approx(90.3, abs=1e-3)
        assert (covered[0].essids, covered[0].groups) == (("alpha",), ())
        assert (covered[1].essids, covered[1].groups) == (("beta",), ("alpha#0",))

    def test_no_access_points_one_uncovered_interval(self):
        timeline = predict_coverage(walk(100), [])
        assert [(iv.start, iv.end, iv.covered) for iv in timeline] == [(0.0, 100.0, False)]
        events = classify_trajectory(walk(100), LocalCatalog([]))
        assert [(e.timestamp, e.kind) for e in events] == [(0.0, EventKind.EV_NO_WIFI)]

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            predict_coverage([TrajectorySample(0, 0, 0)], [])
        with pytest.raises(ValidationError, match="^classification needs at least 2 samples$"):
            classify_trajectory([TrajectorySample(0, 0, 0)], LocalCatalog([]))

    @pytest.mark.parametrize("k, t, lat, lon", [
        pytest.param(3, 3.0, 999.0, 0.0, id="999.0-0.0"),
        pytest.param(3, 3.0, 0.0, -180.5, id="0.0--180.5"),
        pytest.param(3, 3.0, float("nan"), 0.0, id="nan-0.0"),
        pytest.param(3, 3.0, 0.0, float("inf"), id="0.0-inf"),
        # a non-finite first or last timestamp stretches an interval to infinity
        pytest.param(10, float("inf"), 0.0, 10 * M, id="t=inf"),
        pytest.param(0, -float("inf"), 0.0, 0.0, id="t=-inf"),
    ])
    def test_rejects_invalid_coordinates(self, k, t, lat, lon):
        track = walk(10)
        track[k] = TrajectorySample(t, lat, lon)
        with pytest.raises(ValidationError, match=f"sample {k}"):
            predict_coverage(track, [ap("mid", 5, 30)])

    def test_first_offending_sample_is_named(self):
        # one pass over the whole walk still reports the first bad sample,
        # its timestamp before its coordinates, and the time order last
        track = walk(10)
        track[6] = TrajectorySample(float("nan"), 0.0, 6 * M)
        track[4] = TrajectorySample(4.0, 91.0, 4 * M)
        track[2] = TrajectorySample(1.0, 0.0, 2 * M)
        with pytest.raises(ValidationError) as err:
            predict_coverage(track, [])
        assert str(err.value) == (f"trajectory sample 4 (t=4.0) has invalid coordinates"
                                  f" (91.0, {4 * M})")
        track[4] = TrajectorySample(float("inf"), 91.0, 4 * M)
        with pytest.raises(ValidationError, match="^trajectory sample 4 has a non-finite"):
            predict_coverage(track, [])
        track[4] = TrajectorySample(4.0, 0.0, 4 * M)
        with pytest.raises(ValidationError, match="^trajectory sample 6 has a non-finite"):
            predict_coverage(track, [])
        track[6] = TrajectorySample(6.0, 0.0, 6 * M)
        with pytest.raises(ValidationError) as err:
            predict_coverage(track, [])
        assert str(err.value) == "trajectory timestamps must strictly increase (1.0 then 1.0)"


def reference_predict_coverage(trajectory, aps):
    """The scalar prediction: per-sample sets of network keys, and one
    60-step bisection per crossing over the APs that crossing probes, along
    a step that crosses ±180° the short way round."""
    lat = np.array([a.lat for a in aps])
    lon = np.array([a.lon for a in aps])
    radius = np.array([a.radius_m for a in aps])
    first = {}
    network = np.array([first.setdefault(a.group, j) if a.group else j
                        for j, a in enumerate(aps)], dtype=np.intp)
    covering = haversine_m(np.array([s.lat for s in trajectory])[:, None],
                           np.array([s.lon for s in trajectory])[:, None], lat, lon) <= radius
    keys = [set(network[row].tolist()) for row in covering]

    def cross_time(a, b, probe, inside_at_a):
        lo, hi = a.t, b.t
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f = (mid - a.t) / (b.t - a.t)
            here = haversine_m(a.lat + f * (b.lat - a.lat), a.lon + f * wrap(b.lon - a.lon),
                               lat[probe], lon[probe])
            if bool((here <= radius[probe]).any()) == inside_at_a:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intervals, start, since = [], trajectory[0].t, 0

    def close(end, until):
        seen = [aps[j] for j in np.flatnonzero(covering[since:until].any(axis=0))]
        intervals.append(coverage.CoverageInterval(
            start, end, bool(keys[since]), tuple(sorted({a.essid for a in seen})),
            tuple(sorted({a.group for a in seen if a.group}))))

    for i in range(len(trajectory) - 1):
        now, nxt = keys[i], keys[i + 1]
        if (now or nxt) and not (now & nxt):
            probe = np.isin(network, network[covering[i]]) if now else slice(None)
            t_cross = cross_time(trajectory[i], trajectory[i + 1], probe, bool(now))
            close(t_cross, i + 1)
            start, since = t_cross, i + 1
    close(trajectory[-1].t, len(trajectory))
    return [iv for iv in intervals if iv.duration > 0.0]


def wrap(lon):
    """A longitude, or a step in longitude, moved into [-180, 180] across
    the antimeridian."""
    return lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon


def random_case(rng, t0, n=60, dt=(0.5, 4.0), speed=1.4, origin=None):
    """A seeded walk and catalog in a local metric frame: APs near the walk,
    grouped or not, some that the walk grazes at a sample, and handover
    pairs of ungrouped APs centred on consecutive samples. The frame's
    origin is drawn unless ``origin`` gives its (lat, lon)."""
    lat0, lon0 = rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)
    if origin is not None:
        lat0, lon0 = origin
    m_lat = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)
    m_lon = m_lat / math.cos(math.radians(lat0))
    t = t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(*dt, n - 1))])
    heading = np.cumsum(rng.normal(0.0, 0.3, n))
    step = speed * np.diff(t, prepend=t[0])
    x, y = np.cumsum(step * np.cos(heading)), np.cumsum(step * np.sin(heading))

    def at(px, py, radius, name, group=None):
        return AccessPoint(name, lat0 + py * m_lat, wrap(lon0 + px * m_lon), radius, group or None)

    aps = []
    for k in range(int(rng.integers(0, 25))):
        i = int(rng.integers(n))
        aps.append(at(x[i] + rng.normal(0, 20), y[i] + rng.normal(0, 20),
                      rng.uniform(5.0, 40.0), f"ap{k}", rng.choice(["", "", "g1", "g2"])))
    for k in range(int(rng.integers(0, 5))):
        i = int(rng.integers(n - 1))
        ux, uy = x[i + 1] - x[i], y[i + 1] - y[i]
        norm = math.hypot(ux, uy)
        radius = rng.uniform(5.0, 40.0)
        # sample i lies just inside the rim, so the walk grazes the disc
        offset = radius * (1.0 - rng.uniform(1e-6, 1e-4))
        aps.append(at(x[i] - uy / norm * offset, y[i] + ux / norm * offset, radius,
                      f"tangent{k}"))
    for k in range(int(rng.integers(0, 3))):
        i = int(rng.integers(n - 1))
        reach = 0.6 * math.hypot(x[i + 1] - x[i], y[i + 1] - y[i])
        aps += [at(x[i], y[i], reach, f"hand{k}a"), at(x[i + 1], y[i + 1], reach, f"hand{k}b")]
    walk = [TrajectorySample(float(ti), lat0 + yi * m_lat, wrap(lon0 + xi * m_lon))
            for ti, xi, yi in zip(t, x, y)]
    return walk, aps


class TestLockstepBisection:
    """``predict_coverage`` gives the reference's intervals, float for float."""

    def test_equals_scalar_reference_on_random_walks(self):
        rng = np.random.default_rng(20121015)
        crossings = grazes = handovers = 0
        for case in range(90):
            # timestamps near the end of a day put the fixed point late
            t0 = rng.uniform(86_300.0, 86_390.0) if case % 3 == 0 else rng.uniform(0.0, 1e4)
            walk, aps = random_case(rng, t0)
            if case % 5 == 0:
                aps.append(AccessPoint("start", walk[0].lat, walk[0].lon, 30.0, "g1"))
            expected = reference_predict_coverage(walk, aps)
            assert predict_coverage(walk, aps) == expected
            assert expected[0].covered or case % 5
            crossings += len(expected) - 1
            grazes += sum(iv.covered and iv.duration < 0.5 for iv in expected)
            handovers += sum(a.covered and b.covered for a, b in zip(expected, expected[1:]))
        assert crossings > 200 and grazes > 5 and handovers > 10

    def test_equals_scalar_reference_on_sparse_and_empty_walks(self):
        rng = np.random.default_rng(7)
        for case in range(20):
            # samples far apart from t = 0: a crossing early in the first
            # step needs more than 60 steps to reach its fixed point
            walk, aps = random_case(rng, 0.0, n=12, dt=(500.0, 1500.0), speed=0.05)
            a, b = walk[0], walk[1]
            rim = 0.8 + 1e-3  # the disc's rim, as a fraction of the first step
            aps.append(AccessPoint("rim", a.lat + rim * (b.lat - a.lat),
                                   a.lon + rim * (b.lon - a.lon),
                                   0.8 * haversine_m(a.lat, a.lon, b.lat, b.lon)))
            assert predict_coverage(walk, aps) == reference_predict_coverage(walk, aps)
            assert predict_coverage(walk, []) == reference_predict_coverage(walk, [])

    def test_equals_scalar_reference_on_fixtures(self):
        split = [ap("alpha", 40, 50.3), ap("beta", 141, 50.3)]
        grouped = [ap("alpha", 40, 50.3, "net"), ap("beta", 141, 50.3, "net")]
        for track, aps in ((walk(500), corridor_catalog() + endpoints_catalog()),
                           (walk(200), split), (walk(200), grouped),
                           (walk(100), [ap("mid", 50, 30)]), (walk(100), [])):
            assert predict_coverage(track, aps) == reference_predict_coverage(track, aps)

    # The tests below guard the latitude band: an AP is left out of a
    # sample's or a crossing's pairs only when R|dphi| exceeds the largest
    # radius, with a margin.

    @pytest.mark.parametrize("lat, ap_lat", [
        *((lat, lat + offset_m * M) for lat in (0.0, 45.0, -60.0, 89.9, -89.9)
          for offset_m in (5.0, -50.0, 500.0)),
        # across the equator R|dphi| rounds so that a band of exactly the
        # computed distance, with no margin, leaves this pair out
        (0.0027046761310742795, -0.0003354206093708215),
    ])
    def test_rim_at_the_latitude_bound_on_a_samples_meridian(self, lat, ap_lat):
        # due north or south of sample 5 of an eastward walk, a disc's rim at
        # R|dphi| times 1 -/+ 1e-12, or at the computed distance itself
        track = [TrajectorySample(float(i), lat, 10.0 + 1.4 * i * M / math.cos(math.radians(lat)))
                 for i in range(11)]
        s = track[5]
        bound = coverage.EARTH_RADIUS_M * abs(math.radians(ap_lat) - math.radians(s.lat))
        exact = float(haversine_m(s.lat, s.lon, ap_lat, s.lon))
        for rim, inside in ((bound * (1 - 1e-12), False), (exact, True),
                            (bound * (1 + 1e-12), True)):
            aps = [AccessPoint("rim", ap_lat, s.lon, rim)]
            expected = reference_predict_coverage(track, aps)
            assert predict_coverage(track, aps) == expected
            assert [iv.covered for iv in expected] == ([False, True, False] if inside else [False])

    def test_aps_on_the_walks_latitude_far_off_in_longitude(self):
        # in every sample's band, covering none of them
        rng = np.random.default_rng(31)
        for case in range(10):
            track, aps = random_case(rng, rng.uniform(0.0, 1e4))
            for k, off in enumerate((0.01, -1.0, 90.0, 179.99, -180.0, 180.0)):
                s = track[(7 * k + case) % len(track)]
                aps.append(AccessPoint(f"far{k}", s.lat, wrap(s.lon + off), 40.0,
                                       "far" if k % 2 else None))
            assert predict_coverage(track, aps) == reference_predict_coverage(track, aps)

    @pytest.mark.parametrize("seed, origin", enumerate([
        (89.9, 20.0), (-89.9, -100.0), (89.99, 0.0), (0.0, 179.9995), (51.5, -179.999),
        (-89.9, 179.9)]))
    def test_near_the_poles_and_across_the_antimeridian(self, seed, origin):
        rng = np.random.default_rng(seed)
        crossings = 0
        for case in range(12):
            track, aps = random_case(rng, rng.uniform(0.0, 1e4), origin=origin)
            crossings += sum(a.lon * b.lon < -1.0 for a, b in zip(track, track[1:]))
            expected = reference_predict_coverage(track, aps)
            assert predict_coverage(track, aps) == expected
        if abs(origin[1]) > 179.0:
            assert crossings > 0

    def test_one_disc_wider_than_the_band_of_the_rest(self):
        # one radius 100 times the others: the band keeps every pair
        rng = np.random.default_rng(1015)
        for case in range(20):
            track, aps = random_case(rng, rng.uniform(0.0, 1e4))
            radius = 100.0 * max((a.radius_m for a in aps), default=40.0)
            s = track[int(rng.integers(len(track)))]
            aps.insert(int(rng.integers(len(aps) + 1)), AccessPoint(
                "wide", s.lat + rng.uniform(0.9, 1.1) * radius * M, s.lon, radius))
            assert predict_coverage(track, aps) == reference_predict_coverage(track, aps)


class TestClassify:
    def test_long_short_no_wifi(self):
        timeline = predict_coverage(walk(100), [ap("mid", 50, 30)])
        events = classify(timeline, threshold_s=40.0)
        kinds = [e.kind for e in events]
        assert EventKind.EV_LONG_WIFI in kinds  # the 60 s crossing
        short = classify(timeline, threshold_s=70.0)
        assert EventKind.EV_SHORT_WIFI in [e.kind for e in short]

    def test_exhaustive_and_exclusive(self):
        timeline = predict_coverage(walk(500), endpoints_catalog())
        events = classify(timeline)
        assert len(events) == len(timeline)
        for interval, event in zip(timeline, events):
            assert event.timestamp == interval.start
            if not interval.covered:
                assert event.kind is EventKind.EV_NO_WIFI
                assert event.duration is None
            elif interval.duration >= 40.0:
                assert event.kind is EventKind.EV_LONG_WIFI
            else:
                assert event.kind is EventKind.EV_SHORT_WIFI
                assert 0.0 < event.duration < 40.0

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            classify([], threshold_s=0.0)


class TestPolicy:
    def test_policy_table(self):
        assert apply_policy(CoverageEvent(0, EventKind.EV_NO_WIFI)) == NicActivation(False, True)
        assert apply_policy(CoverageEvent(0, EventKind.EV_SHORT_WIFI)) == NicActivation(True, True)
        assert apply_policy(CoverageEvent(0, EventKind.EV_LONG_WIFI)) == NicActivation(True, False)

    def test_never_everything_off(self):
        for kind in EventKind:
            active = apply_policy(CoverageEvent(0, kind))
            assert active.active_wifi or active.active_umts


class TestUseCases:
    def test_corridor_switches_umts_off(self):
        events = classify_trajectory(walk(360), LocalCatalog(corridor_catalog()))
        long_events = [e for e in events if e.kind is EventKind.EV_LONG_WIFI]
        assert len(long_events) == 1
        assert apply_policy(long_events[0]).active_umts is False
        assert any(essid.startswith("campus") for essid in long_events[0].essids)

    def test_endpoints_keep_umts_on_in_the_middle(self):
        events = classify_trajectory(walk(500), LocalCatalog(endpoints_catalog()))
        kinds = [e.kind for e in events]
        assert EventKind.EV_NO_WIFI in kinds
        middle = events[kinds.index(EventKind.EV_NO_WIFI)]
        assert apply_policy(middle).active_umts is True
        assert apply_policy(middle).active_wifi is False

    def test_every_access_point_listed_at_one_place_counts(self):
        # one mast, one ESSID, two radii: the query route keeps both, as
        # predicting over the catalog itself does
        wide, narrow = ap("dup", 50, 40), ap("dup", 50, 10)
        expected = classify(predict_coverage(walk(100), [wide, narrow]), 15.0)
        for catalog in (LocalCatalog([wide, narrow]), TtlCache(LocalCatalog([narrow, wide]))):
            events = classify_trajectory(walk(100), catalog, 15.0)
            assert events == expected
            assert [(e.kind, e.duration) for e in events][1] == (
                EventKind.EV_LONG_WIFI, pytest.approx(80.0, abs=1e-6))

        class Scripted:
            def query_many(self, lat, lon, radius):
                return [(wide,)] + [(narrow,)] * 50 + [(wide,)] * (len(lat) - 51)

        events = classify_trajectory(walk(100), Scripted(), 15.0)
        assert [(e.kind, e.duration) for e in events][1] == (
            EventKind.EV_LONG_WIFI, pytest.approx(80.0, abs=1e-6))


class TestTwoRoutesAgree:
    """The query route classifies as predicting over the whole catalog."""

    @pytest.mark.parametrize("seed", range(3))
    def test_query_route_equals_prediction_over_the_catalog(self, seed):
        rng = np.random.default_rng([27, seed])
        for case in range(12):
            # samples up to ~6 m apart, APs up to 40 m: every AP that covers
            # a point of the walk lies within the 100 m query radius of a sample
            track, aps = random_case(rng, rng.uniform(0.0, 1e4), n=40, dt=(0.5, 2.0),
                                     speed=3.0)
            for k in range(int(rng.integers(1, 4))):
                s = track[int(rng.integers(len(track)))]
                group = str(rng.choice(["", "g1", "g3"])) or None
                radii = sorted(rng.uniform(5.0, 40.0, 2))
                # the same ESSID on one mast, with two radii
                aps += [AccessPoint(f"mast{k}", s.lat, s.lon, r, group) for r in radii]
            aps = [aps[j] for j in rng.permutation(len(aps))]
            expected = classify(predict_coverage(track, aps), 20.0)
            cache = TtlCache(LocalCatalog(aps))
            for catalog in (LocalCatalog(aps), cache, cache):
                assert classify_trajectory(track, catalog, 20.0, 100.0) == expected
            assert cache.hits == len(track)

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (60.0, 10.0), (-33.87, 151.21)])
    @pytest.mark.parametrize("heading", [0.0, 0.6, math.pi / 2], ids=["east", "ene", "north"])
    def test_an_access_point_on_a_long_step_is_found(self, origin, heading):
        # a 1 km step from an uncovered sample into a covered one; an AP of
        # half the 100 m query radius sits on the step's middle, 500 m from
        # both ends, and the bisection of the step's edge lands in it first
        lat0, lon0 = origin
        m_lat = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)
        m_lon = m_lat / math.cos(math.radians(lat0))

        def at(d):
            return lat0 + d * math.sin(heading) * m_lat, lon0 + d * math.cos(heading) * m_lon

        track = [TrajectorySample(0.0, *at(0.0)), TrajectorySample(100.0, *at(1000.0)),
                 TrajectorySample(101.0, *at(1010.0))]
        a, b = track[:2]
        aps = [AccessPoint("middle", (a.lat + b.lat) / 2, (a.lon + b.lon) / 2, 50.0),
               AccessPoint("end", *at(1000.0), 30.0)]
        expected = classify(predict_coverage(track, aps), 20.0)
        # coverage starts at the middle disc's near edge, 450 m in
        assert [e.kind for e in expected] == [EventKind.EV_NO_WIFI, EventKind.EV_LONG_WIFI]
        assert expected[1].timestamp == pytest.approx(45.0, abs=0.1)
        for catalog in (LocalCatalog(aps), TtlCache(LocalCatalog(aps))):
            assert classify_trajectory(track, catalog, 20.0, 100.0) == expected


    @pytest.mark.parametrize("east", [True, False])
    def test_a_step_across_the_antimeridian_goes_the_short_way(self, east):
        # 111 m across ±180° on the equator, out of a 30 m disc on the first
        # sample: covered as long as on the same step beside the antimeridian
        lon0, lon1 = (179.9995, -179.9995) if east else (-179.9995, 179.9995)
        track = [TrajectorySample(0.0, 0.0, lon0), TrajectorySample(10.0, 0.0, lon1)]
        aps = [AccessPoint("start", 0.0, lon0, 30.0)]
        timeline = predict_coverage(track, aps)
        assert [iv.covered for iv in timeline] == [True, False]
        assert timeline[0].start == 0.0
        assert timeline[0].end == pytest.approx(2.697965, abs=1e-6)
        beside = [TrajectorySample(0.0, 0.0, 179.999), TrajectorySample(10.0, 0.0, 180.0)]
        assert timeline[0].end == pytest.approx(
            predict_coverage(beside, [AccessPoint("start", 0.0, 179.999, 30.0)])[0].end,
            abs=1e-9)
        expected = classify(timeline, 20.0)
        for catalog in (LocalCatalog(aps), TtlCache(LocalCatalog(aps))):
            assert classify_trajectory(track, catalog, 20.0, 100.0) == expected


class TestCatalogFiles:
    def test_fixture_roundtrip(self, tmp_path):
        path = tmp_path / "aps.csv"
        path.write_text(
            "essid,lat,lon,radius_m,group,open\n"
            "campus-1,0.0,0.0003,60,campusnet,true\n"
            "cafe,0.0,0.0010,30,,false\n"
        )
        catalog = LocalCatalog(path)
        assert len(catalog.access_points) == 2
        assert catalog.access_points[0].group == "campusnet"
        assert catalog.access_points[1].group is None
        assert catalog.access_points[1].open is False
        assert catalog.skipped_records == 0

    def test_malformed_rows_skipped_with_count(self, tmp_path):
        path = tmp_path / "aps.csv"
        path.write_text(
            "essid,lat,lon,radius_m,group,open\n"
            "good,0.0,0.0,50,,true\n"
            "bad-lat,91.5,0.0,50,,true\n"
            "bad-radius,0.0,0.0,-3,,true\n"
            "bad-number,0.0,xyz,50,,true\n"
        )
        catalog = LocalCatalog(path)
        assert len(catalog.access_points) == 1
        assert catalog.skipped_records == 3

    def test_infinite_radius_row_skipped_with_count(self, tmp_path):
        path = tmp_path / "aps.csv"
        path.write_text(
            "essid,lat,lon,radius_m,group,open\n"
            "good,0.0,0.0,50,,true\n"
            "huge,0.0,0.0,inf,,true\n"
        )
        catalog = LocalCatalog(path)
        assert [a.essid for a in catalog.access_points] == ["good"]
        assert catalog.skipped_records == 1

    def test_header_required(self, tmp_path):
        path = tmp_path / "aps.csv"
        path.write_text("campus-1,0.0,0.0003,60,campusnet,true\n")
        with pytest.raises(ValidationError, match="header"):
            LocalCatalog(path)
        path.write_text("")
        with pytest.raises(ValidationError, match="^catalog file is empty$"):
            LocalCatalog(path)

    def test_trajectory_roundtrip(self, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_text("t,lat,lon,speed\n0,0.0,0.0,1.5\n1,0.0,0.0001,\n2,0.0,0.0002,1.4\n")
        track = load_trajectory(path)
        assert len(track) == 3
        assert track[0].speed == 1.5
        assert track[1].speed is None

    def test_trajectory_malformed_speed_cell(self, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_text("t,lat,lon,speed\n0,45.07,7.68,1.4\n2,45.07,7.68,abc\n")
        with pytest.raises(ValidationError) as err:
            load_trajectory(path)
        assert str(err.value) == (f"{path}:3: malformed trajectory row"
                                  " ['2', '45.07', '7.68', 'abc']")

    def test_trajectory_requires_increasing_time(self, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_text("0,0.0,0.0\n0,0.0,0.0001\n")
        with pytest.raises(ValidationError, match="increase"):
            load_trajectory(path)

    @pytest.mark.parametrize("read, rows, byte", [
        (load_trajectory, [b"t,lat,lon", b"0,0.0,0.0", b"1,0.0,\xff0.0001"], "0xff"),
        (LocalCatalog, [b"essid,lat,lon,radius_m,group,open", b"caf\xc3\xa9,0.0,0.0,50,,true",
                        b"caf\xe9,0.0,0.0,50,,true"], "0xe9"),
    ])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, read, rows, byte):
        path = tmp_path / "file.csv"
        path.write_bytes(b"\r\n".join(rows) + b"\r\n")
        with pytest.raises(ValidationError) as err:
            read(path)
        assert str(err.value) == f"{path}:3: byte {byte} is not UTF-8"


_EMPTY = object()


class FakeResponse:
    def __init__(self, status_code=200, payload=_EMPTY, bad_json=False):
        self.status_code = status_code
        self._payload = [] if payload is _EMPTY else payload
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, response=None, error=None):
        self.response = response
        self.error = error
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": params, "headers": headers})
        if self.error is not None:
            raise self.error
        return self.response


class TestRemoteCatalog:
    RECORD = {"essid": "remote-1", "lat": 0.0, "lon": 0.0003,
              "radius_m": 60, "group": "campusnet", "open": True}

    def test_query_parses_records(self):
        session = FakeSession(FakeResponse(payload=[self.RECORD]))
        catalog = RemoteCatalog("http://catalog.example/aps", session=session)
        found = catalog.query(0.0, 0.0, 500.0)
        assert [a.essid for a in found] == ["remote-1"]
        assert session.calls[0]["params"] == {"lat": 0.0, "lon": 0.0, "radius": 500.0}

    def test_credentials_from_environment(self, monkeypatch):
        monkeypatch.setenv(coverage.CATALOG_TOKEN_ENV, "sekrit")
        session = FakeSession(FakeResponse(payload=[]))
        RemoteCatalog("http://catalog.example/aps", session=session).query(0, 0, 10)
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_http_error_raises_unavailable(self):
        session = FakeSession(FakeResponse(status_code=503))
        with pytest.raises(CatalogUnavailable):
            RemoteCatalog("http://x", session=session).query(0, 0, 10)

    def test_network_error_raises_unavailable(self):
        session = FakeSession(error=urllib.error.URLError("nope"))
        with pytest.raises(CatalogUnavailable):
            RemoteCatalog("http://x", session=session).query(0, 0, 10)

    def test_malformed_body_raises_unavailable(self):
        session = FakeSession(FakeResponse(bad_json=True))
        with pytest.raises(CatalogUnavailable):
            RemoteCatalog("http://x", session=session).query(0, 0, 10)

    @pytest.mark.parametrize("payload", [{"error": "quota"}, None, 5, "aps"])
    def test_body_not_an_array_raises_unavailable(self, payload):
        session = FakeSession(FakeResponse(payload=payload))
        with pytest.raises(CatalogUnavailable, match="not a JSON array"):
            RemoteCatalog("http://x", session=session).query(0, 0, 10)
        events = classify_trajectory(walk(100), RemoteCatalog("http://x", session=session))
        assert [e.kind for e in events] == [EventKind.EV_SHORT_WIFI]

    def test_malformed_records_skipped(self):
        session = FakeSession(
            FakeResponse(payload=[self.RECORD, {"essid": "broken", "lat": "x", "lon": 0},
                                  None, 5, "remote-2", [self.RECORD],
                                  dict(self.RECORD, group=5)])
        )
        catalog = RemoteCatalog("http://x", session=session)
        assert len(catalog.query(0.0, 0.0, 500.0)) == 1
        assert catalog.skipped_records == 6

    def test_infinite_radius_record_skipped(self):
        huge = json.loads('{"essid": "huge", "lat": 0.0, "lon": 0.0, "radius_m": Infinity}')
        session = FakeSession(FakeResponse(payload=[self.RECORD, huge]))
        catalog = RemoteCatalog("http://x", session=session)
        assert [a.essid for a in catalog.query(0.0, 0.0, 500.0)] == ["remote-1"]
        assert catalog.skipped_records == 1

    @pytest.mark.parametrize("url", ["file:///etc/hosts", "ftp://catalog.example/aps",
                                     "catalog.example/aps"])
    def test_only_http_urls(self, url):
        with pytest.raises(ValidationError, match="http"):
            RemoteCatalog(url, session=FakeSession())

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_positive_and_finite(self, timeout_s):
        with pytest.raises(ValidationError, match=f"^catalog timeout_s must be positive and "
                                                  f"finite, got {timeout_s}$"):
            RemoteCatalog("http://catalog.invalid/aps", timeout_s=timeout_s)

    def test_one_request_per_position(self):
        session = FakeSession(FakeResponse(payload=[self.RECORD]))
        track = walk(100)
        events = classify_trajectory(track, RemoteCatalog("http://x", session=session))
        assert [e.kind for e in events] == [EventKind.EV_LONG_WIFI, EventKind.EV_NO_WIFI]
        assert [(c["params"]["lat"], c["params"]["lon"]) for c in session.calls] == [
            (s.lat, s.lon) for s in track]
        # behind a cache: one request per distinct position
        session.calls.clear()
        cache = TtlCache(RemoteCatalog("http://x", session=session))
        classify_trajectory(track + [TrajectorySample(101 + i, s.lat, s.lon)
                                     for i, s in enumerate(track[::-1])], cache)
        assert len(session.calls) == len(track) == cache.misses

    def test_first_failure_stops_the_walk_and_degrades(self):
        class FailsThird(FakeSession):
            def get(self, url, params=None, headers=None, timeout=None):
                if len(self.calls) == 2:
                    self.error = TimeoutError("slow")
                return super().get(url, params, headers, timeout)

        session = FailsThird(FakeResponse(payload=[self.RECORD]))
        events = classify_trajectory(walk(100), RemoteCatalog("http://x", session=session))
        assert [e.kind for e in events] == [EventKind.EV_SHORT_WIFI]
        assert events[0].duration is None
        assert len(session.calls) == 3

    def test_unavailable_degrades_to_short_wifi(self):
        session = FakeSession(error=TimeoutError("slow"))
        catalog = RemoteCatalog("http://x", session=session)
        events = classify_trajectory(walk(100), catalog)
        assert [e.kind for e in events] == [EventKind.EV_SHORT_WIFI]
        assert apply_policy(events[0]) == NicActivation(True, True)

    @pytest.mark.parametrize("change, message", [
        (lambda track: track[:3] + [track[2]] + track[3:], r"increase \(2\.0 then 2\.0\)"),
        (lambda track: track[:5] + [TrajectorySample(5, 95.0, 0.0)] + track[6:],
         r"^trajectory sample 5 \(t=5\) has invalid coordinates \(95\.0, 0\.0\)"),
        (lambda track: track[:7] + [TrajectorySample(math.nan, 0.0, 0.0)] + track[8:],
         "^trajectory sample 7 has a non-finite timestamp"),
    ])
    def test_bad_walk_rejected_before_the_catalog_is_asked(self, change, message):
        session = FakeSession(error=TimeoutError("slow"))
        with pytest.raises(ValidationError, match=message):
            classify_trajectory(change(walk(10)), RemoteCatalog("http://x", session=session))
        with pytest.raises(ValidationError, match="query radius must be positive"):
            classify_trajectory(walk(10), RemoteCatalog("http://x", session=session),
                                query_radius_m=0.0)
        assert session.calls == []


@contextlib.contextmanager
def catalog_server(reply):
    """A loopback HTTP server; ``reply(path)`` gives (status, headers, body).
    Yields its base URL and the list of requests it received."""
    seen = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append({"path": self.path, "headers": dict(self.headers)})
            status, headers, body = reply(self.path)
            self.send_response(status)
            for name, value in {"Content-Length": str(len(body)), **headers}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.handle_error = lambda request, address: None  # clients that gave up
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def json_reply(body, status=200):
    return lambda path: (status, {"Content-Type": "application/json"}, body.encode())


class TestRemoteCatalogOverHttp:
    """The default stdlib transport against loopback servers."""

    BODY = ('[{"essid": "remote-1", "lat": 0.0, "lon": 0.0003, "radius_m": 60,'
            ' "group": "campusnet", "open": true}]')

    def test_records_and_query_string(self, monkeypatch):
        monkeypatch.setenv(coverage.CATALOG_TOKEN_ENV, "sekrit")
        with catalog_server(json_reply(self.BODY)) as (url, seen):
            found = RemoteCatalog(url + "/aps?key=k1", timeout_s=5.0).query(0.0, 0.0, 500.0)
        assert [a.essid for a in found] == ["remote-1"]
        assert found[0].group == "campusnet"
        assert seen[0]["path"] == "/aps?key=k1&lat=0.0&lon=0.0&radius=500.0"
        assert seen[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_http_error_raises_unavailable(self):
        with catalog_server(json_reply('{"error": "busy"}', status=503)) as (url, _):
            with pytest.raises(CatalogUnavailable, match="HTTP 503"):
                RemoteCatalog(url, timeout_s=5.0).query(0.0, 0.0, 10.0)

    def test_body_not_an_array_raises_unavailable(self):
        with catalog_server(json_reply('{"error": "quota"}')) as (url, _):
            with pytest.raises(CatalogUnavailable, match="not a JSON array"):
                RemoteCatalog(url, timeout_s=5.0).query(0.0, 0.0, 10.0)

    def test_truncated_body_raises_unavailable(self):
        # http.client's IncompleteRead is no OSError
        cut = lambda path: (200, {"Content-Length": "100"}, b"[]")  # noqa: E731
        with catalog_server(cut) as (url, _):
            with pytest.raises(CatalogUnavailable, match="IncompleteRead"):
                RemoteCatalog(url, timeout_s=5.0).query(0.0, 0.0, 10.0)

    def test_slow_server_times_out(self):
        def slow(path):
            time.sleep(1.0)
            return 200, {}, b"[]"

        with catalog_server(slow) as (url, _):
            start = time.monotonic()
            with pytest.raises(CatalogUnavailable):
                RemoteCatalog(url, timeout_s=0.2).query(0.0, 0.0, 10.0)
            assert time.monotonic() - start < 0.9

    def test_token_not_sent_to_redirect_target(self, monkeypatch):
        monkeypatch.setenv(coverage.CATALOG_TOKEN_ENV, "sekrit")
        with catalog_server(json_reply(self.BODY)) as (target, at_target):
            moved = lambda path: (302, {"Location": target + path}, b"")  # noqa: E731
            with catalog_server(moved) as (url, at_origin):
                found = RemoteCatalog(url + "/aps", timeout_s=5.0).query(0.0, 0.0, 500.0)
        assert [a.essid for a in found] == ["remote-1"]
        assert at_origin[0]["headers"]["Authorization"] == "Bearer sekrit"
        assert at_target[0]["path"] == at_origin[0]["path"]
        assert "authorization" not in {k.lower() for k in at_target[0]["headers"]}

    def test_redirect_to_another_scheme_refused(self):
        moved = lambda path: (302, {"Location": "ftp://127.0.0.1:9/aps"}, b"")  # noqa: E731
        with catalog_server(moved) as (url, _):
            with pytest.raises(CatalogUnavailable, match="unknown url type"):
                RemoteCatalog(url, timeout_s=5.0).query(0.0, 0.0, 10.0)


def test_cli_imports_no_http_stack():
    """An HTTP stack is loaded only by a remote catalog query."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from abps_toolkit import cli, coverage\n"
            "assert cli.main(['sweep']) == 0\n"
            "print(sorted(m for m in ('requests', 'urllib3', 'urllib.request', 'http.client')"
            " if m in sys.modules))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestTtlCache:
    def test_hits_within_ttl_and_expiry(self):
        clock = {"now": 0.0}
        inner = LocalCatalog([ap("one", 50, 30)])
        cache = TtlCache(inner, ttl_s=60.0, clock=lambda: clock["now"])
        first = cache.query(0.0, 0.0, 100.0)
        second = cache.query(0.0, 0.0, 100.0)
        assert first == second
        assert (cache.hits, cache.misses) == (1, 1)
        clock["now"] = 61.0
        cache.query(0.0, 0.0, 100.0)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_different_keys_do_not_collide(self):
        cache = TtlCache(LocalCatalog([ap("one", 50, 30)]), ttl_s=60.0)
        assert len(cache.query(0.0, 0.0, 100.0)) == 1
        assert cache.query(0.0, 0.0, 10.0) == []

    @staticmethod
    def retraced_walk():
        """Positions along the corridor with repeats, within and across walks."""
        there = [(0.0, x * 7 * M) for x in range(40)]
        return there + there[::-1] + there[5:15]

    def test_batch_counts_equal_the_per_position_loop(self):
        aps = corridor_catalog()
        loop = TtlCache(LocalCatalog(aps), ttl_s=60.0, clock=lambda: 0.0)
        batch = TtlCache(LocalCatalog(aps), ttl_s=60.0, clock=lambda: 0.0)
        for radius in (100.0, 100.0004, 250.0):
            positions = self.retraced_walk()
            one_by_one = [loop.query(a, o, radius) for a, o in positions]
            lat, lon = zip(*positions)
            together = batch.query_many(lat, lon, radius)
            assert [[id(x) for x in t] for t in together] == [
                [id(x) for x in t] for t in one_by_one]
            assert (batch.hits, batch.misses) == (loop.hits, loop.misses)
        # 40 distinct positions; 100.0004 m rounds to the key of 100 m
        assert (batch.hits, batch.misses) == (190, 80)

    def test_repeated_position_is_one_miss_in_one_call(self):
        class Counting(LocalCatalog):
            def query_many(self, lat, lon, radius):
                batches.append(list(zip(lat, lon)))
                return super().query_many(lat, lon, radius)

        batches = []
        cache = TtlCache(Counting(corridor_catalog()), ttl_s=60.0)
        lat, lon = zip(*self.retraced_walk())
        first = cache.query_many(lat, lon, 100.0)
        assert batches == [list(zip(lat, lon))[:40]]
        assert (cache.hits, cache.misses) == (50, 40)
        # a hit is the stored tuple itself; a fully cached batch asks nothing
        again = cache.query_many(lat, lon, 100.0)
        assert all(a is b for a, b in zip(again, first)) and len(batches) == 1
        assert (cache.hits, cache.misses) == (140, 40)

    def test_batch_entries_expire(self):
        clock = {"now": 0.0}
        cache = TtlCache(LocalCatalog(corridor_catalog()), ttl_s=60.0,
                         clock=lambda: clock["now"])
        lat, lon = zip(*self.retraced_walk())
        cache.query_many(lat, lon, 100.0)
        clock["now"] = 59.9
        cache.query_many(lat[:40], lon[:40], 100.0)
        assert (cache.hits, cache.misses) == (90, 40)
        clock["now"] = 60.0
        cache.query_many(lat[:40], lon[:40], 100.0)
        assert (cache.hits, cache.misses) == (90, 80)

    @pytest.mark.parametrize("ttl_s", [0.0, -1.0, math.nan])
    def test_ttl_must_be_positive(self, ttl_s):
        with pytest.raises(ValidationError, match=f"^cache ttl_s must be positive, got {ttl_s}$"):
            TtlCache(LocalCatalog([]), ttl_s=ttl_s)

    def test_mutating_an_answer_leaves_the_cache(self):
        cache = TtlCache(LocalCatalog([ap("one", 50, 30)]), ttl_s=60.0)
        found = cache.query(0.0, 0.0, 100.0)
        found.clear()
        assert [a.essid for a in cache.query(0.0, 0.0, 100.0)] == ["one"]
        assert [a.essid for a in cache.query_many([0.0], [0.0], 100.0)[0]] == ["one"]


class TestExtrapolate:
    def test_linear_continuation(self):
        track = [TrajectorySample(0, 0.0, 0.0), TrajectorySample(10, 0.0, 10 * M)]
        extended = extrapolate(track, horizon_s=20.0, step_s=10.0)
        assert len(extended) == 4
        assert extended[-1].t == 30.0
        assert extended[-1].lon == pytest.approx(30 * M)

    def test_validation(self):
        with pytest.raises(ValidationError):
            extrapolate([TrajectorySample(0, 0, 0)], 10.0)
        track = [TrajectorySample(0, 0.0, 0.0), TrajectorySample(10, 0.0, 10 * M)]
        for horizon_s, step_s, name in ((math.inf, 1.0, "horizon_s"), (math.nan, 1.0, "horizon_s"),
                                        (0.0, 1.0, "horizon_s"), (10.0, math.nan, "step_s"),
                                        (10.0, math.inf, "step_s"), (10.0, -1.0, "step_s")):
            with pytest.raises(ValidationError, match=f"^{name} must be positive and finite"):
                extrapolate(track, horizon_s, step_s)
        # the walk is checked as every other walk consumer checks it
        for bad, message in (
                (TrajectorySample(0, 0.0, M), r"^trajectory timestamps must strictly increase "
                                              r"\(0 then 0\)$"),
                (TrajectorySample(10, 95.0, M), r"^trajectory sample 1 \(t=10\) has invalid "
                                                r"coordinates \(95.0, "),
                (TrajectorySample(math.nan, 0.0, M), r"^trajectory sample 1 has a non-finite "
                                                     r"timestamp t=nan$")):
            with pytest.raises(ValidationError, match=message):
                extrapolate([TrajectorySample(0, 0.0, 0.0), bad], 10.0)

    def test_times_are_the_last_plus_multiples_of_the_step(self):
        track = [TrajectorySample(9, 0.0, 0.0), TrajectorySample(10, 0.0, M)]
        extended = extrapolate(track, horizon_s=1.0, step_s=0.1)
        assert [s.t for s in extended[2:]] == [10 + k * 0.1 for k in range(1, 11)]

    @pytest.mark.parametrize("last_t, horizon_s, step_s", [
        (1e9, 1.0, 1e-8),  # t + step_s == t: stepping would never end
        (10.0, 1e300, 1e-10),  # more steps than a float can count
    ])
    def test_step_too_small_for_the_timestamps_rejected(self, last_t, horizon_s, step_s):
        track = [TrajectorySample(last_t - 1, 0.0, 0.0), TrajectorySample(last_t, 0.0, M)]
        with pytest.raises(ValidationError, match=f"^step_s={step_s} is too small"):
            extrapolate(track, horizon_s, step_s)
