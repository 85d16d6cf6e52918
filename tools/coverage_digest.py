"""Fingerprint both coverage routes over a fixed family of catalogs and walks.

Prints three lines per (catalog, walk) case, each with a sha256: the
``predict_coverage`` intervals over the whole catalog, the
``LocalCatalog.query_many`` answers at two radii (as catalog indices, in
order), and the ``classify_trajectory`` events through a fresh ``TtlCache``
in front of the catalog. Run it in two checkouts and compare the outputs::

    python tools/coverage_digest.py > a.txt      # in one checkout
    python tools/coverage_digest.py b.txt        # in the other
    diff a.txt b.txt

Each run imports the package from the ``src`` directory beside this script,
so the two outputs fingerprint the two checkouts. The catalogs and walks are
seeded and made here: grouped and ungrouped access points with shared
ESSIDs, same-ESSID pairs with two radii on one mast, equal records listed
twice, walks that start inside a disc, and places near both poles (89.9°)
and on both sides of the antimeridian. Counts of the cases and of what they
cover go to stderr, with the number of cases whose query-route events equal
the classified prediction over the whole catalog.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abps_toolkit import coverage  # noqa: E402
from abps_toolkit.coverage import AccessPoint, TrajectorySample  # noqa: E402

PLACES = [(0.0, 0.0), (45.07, 7.68), (-33.87, 151.21), (89.9, 20.0), (-89.9, -100.0),
          (10.0, 179.999), (-20.0, -179.999), (60.0, 179.99)]
SEEDS = range(8)
WALKS = 4
ESSIDS = ["cafe", "library", "station", "campus", "hotel", "bar"]
GROUPS = ["", "", "", "net-a", "net-b"]
QUERY_RADII = (60.0, 500.0)
M_LAT = 180.0 / (math.pi * coverage.EARTH_RADIUS_M)   # one meter north, in degrees


def wrap(lon: float) -> float:
    return (lon + 180.0) % 360.0 - 180.0 if abs(lon) > 180.0 else lon


def place_frame(lat0: float, lon0: float):
    """Local meters (east, north) to (lat, lon) around a place."""
    m_lon = M_LAT / math.cos(math.radians(lat0))
    return lambda x, y: (min(max(lat0 + y * M_LAT, -90.0), 90.0), wrap(lon0 + x * m_lon))


def catalog(rng, at) -> tuple[list[AccessPoint], int]:
    """A catalog around a place, and its number of co-located same-ESSID pairs."""
    aps = []
    for _ in range(int(rng.integers(10, 60))):
        lat, lon = at(rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0))
        aps.append(AccessPoint(str(rng.choice(ESSIDS)), lat, lon, float(rng.uniform(5.0, 120.0)),
                               str(rng.choice(GROUPS)) or None))
    pairs = int(rng.integers(0, 4))
    for _ in range(pairs):
        mast = aps[int(rng.integers(len(aps)))]
        aps.append(AccessPoint(mast.essid, mast.lat, mast.lon,
                               mast.radius_m * float(rng.uniform(0.2, 0.9)), mast.group))
    if rng.random() < 0.5:
        twin = aps[int(rng.integers(len(aps)))]
        aps.append(AccessPoint(twin.essid, twin.lat, twin.lon, twin.radius_m, twin.group))
    return [aps[j] for j in rng.permutation(len(aps))], pairs


def walk(rng, at, aps) -> list[TrajectorySample]:
    """A wandering walk; about half of them start on an access point."""
    n = int(rng.integers(30, 120))
    t = rng.uniform(0.0, 1e4) + np.concatenate([[0.0], np.cumsum(rng.uniform(1.0, 3.0, n - 1))])
    heading = rng.uniform(0.0, 2 * math.pi) + np.cumsum(rng.normal(0.0, 0.3, n))
    step = rng.uniform(1.0, 5.0) * np.diff(t, prepend=t[0])
    x = np.cumsum(step * np.cos(heading)) + rng.uniform(-500.0, 500.0)
    y = np.cumsum(step * np.sin(heading)) + rng.uniform(-500.0, 500.0)
    samples = [TrajectorySample(float(ti), *at(xi, yi)) for ti, xi, yi in zip(t, x, y)]
    if rng.random() < 0.5:
        start = aps[int(rng.integers(len(aps)))]
        samples[0] = TrajectorySample(samples[0].t, start.lat, start.lon)
    return samples


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def main(out) -> None:
    counts = dict.fromkeys(("cases", "covered intervals", "listings", "events", "same-ESSID pairs",
                            "walks starting covered", "walks across 180",
                            "query-route events equal to the prediction's"), 0)
    for (k, (lat0, lon0)), seed in itertools.product(enumerate(PLACES), SEEDS):
        rng = np.random.default_rng([seed, k])
        at = place_frame(lat0, lon0)
        aps, pairs = catalog(rng, at)
        counts["same-ESSID pairs"] += pairs
        local = coverage.LocalCatalog(aps)
        index_of = {id(ap): j for j, ap in enumerate(aps)}
        for w in range(WALKS):
            track = walk(rng, at, aps)
            name = f"place={lat0:g},{lon0:g} seed={seed} aps={len(aps)} pairs={pairs} walk={w}"
            intervals = coverage.predict_coverage(track, aps)
            lat, lon = [s.lat for s in track], [s.lon for s in track]
            answers = [[[index_of[id(ap)] for ap in answer]
                        for answer in local.query_many(lat, lon, radius)]
                       for radius in QUERY_RADII]
            cache = coverage.TtlCache(coverage.LocalCatalog(aps))
            events = coverage.classify_trajectory(track, cache)
            print(f"{name} intervals {sha(intervals)}", file=out)
            print(f"{name} answers {sha(answers)}", file=out)
            print(f"{name} events {sha(events)}", file=out)
            counts["cases"] += 1
            counts["covered intervals"] += sum(iv.covered for iv in intervals)
            counts["listings"] += sum(len(a) for per_radius in answers for a in per_radius)
            counts["events"] += len(events)
            counts["walks starting covered"] += intervals[0].covered
            counts["walks across 180"] += any(a.lon * b.lon < -1.0
                                              for a, b in zip(track, track[1:]))
            counts["query-route events equal to the prediction's"] += (
                events == coverage.classify(intervals))
    print(", ".join(f"{v} {k}" for k, v in counts.items()), file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/coverage_digest.py [OUTPUT]")
    if len(sys.argv) == 2:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            main(handle)
    else:
        main(sys.stdout)
