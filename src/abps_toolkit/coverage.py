"""WiFi coverage prediction along a trajectory and the NIC activation policy.

A catalog of geolocated access points (a local fixture file or a remote
lookup service) feeds a classifier that walks a trajectory, splits it into
covered and uncovered intervals, and emits one of three events per
interval: no WiFi ahead, WiFi for a short while, WiFi for a long while.
The activation policy maps events to which interfaces stay powered.

Coverage is disc-based: a point is covered while it sits within some
access point's radius, decided once per trajectory as a (sample x AP)
boolean matrix. Both routes list their (position, AP) pairs from one index
of the access points in latitude order: a great-circle distance is never
less than R|dphi|, so only the pairs whose latitudes lie within a reach of
each other (a band, found by binary search) get a distance; the index's
``band`` alone writes the reach. Access points sharing a network group are
treated as one network, so walking across them keeps a single coverage
interval alive (link-layer roaming); every ungrouped access point is a
network of its own, and coverage with no persisting network splits at the
handover point. Interval edges are located by bisecting the interpolated
position between trajectory samples, so sub-sample precision comes for
free; blips smaller than the sample spacing are invisible by construction.

Whether an edge lies between two samples depends only on the disc matrix,
so every edge of a walk is found first and all of them are bisected in
lockstep. The (edge, AP) pairs are listed once, from the band around the
latitude span of each edge's step, and each step computes one distance per
pair. A step is a function of each edge's bracket alone, so the search
stops at the first step that narrows no bracket, at most 60 steps in, on
the very floats that 60 scalar steps per edge would give.

The query route (``classify_trajectory``) asks its catalog once per walk,
about every sample and about points within each step longer than the query
radius, so that it finds every access point of radius up to half the query
radius that covers some point of the walk. Every catalog source answers
``query_many`` for a batch of positions, and ``query`` is its one-position
case. ``LocalCatalog`` answers a batch from the distances of the pairs in
each position's band, a few thousand pairs at a time; ``TtlCache`` sends
only the positions it holds no live entry for, and ``RemoteCatalog`` sends
one request per position, since the service answers one at a time.
"""

from __future__ import annotations

import csv
import enum
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence
from urllib.parse import urlencode, urlsplit

import numpy as np

from abps_toolkit._text import read_utf8
from abps_toolkit.ctmc import ValidationError

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_AP_RADIUS_M = 50.0
DEFAULT_LONG_THRESHOLD_S = 40.0
CATALOG_TOKEN_ENV = "ABPS_CATALOG_TOKEN"

CATALOG_FIELDS = ("essid", "lat", "lon", "radius_m", "group", "open")


class CatalogUnavailable(RuntimeError):
    """The access-point catalog could not be reached or answered an error."""


class EventKind(enum.Enum):
    EV_NO_WIFI = "EV_NO_WIFI"
    EV_SHORT_WIFI = "EV_SHORT_WIFI"
    EV_LONG_WIFI = "EV_LONG_WIFI"


class NicActivation(NamedTuple):
    active_wifi: bool
    active_umts: bool


@dataclass(frozen=True)
class AccessPoint:
    essid: str
    lat: float
    lon: float
    radius_m: float = DEFAULT_AP_RADIUS_M
    group: str | None = None
    open: bool = True

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValidationError(f"longitude {self.lon} outside [-180, 180]")
        if not (self.radius_m > 0.0 and math.isfinite(self.radius_m)):
            raise ValidationError("coverage radius must be positive and finite")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    lat: float
    lon: float
    speed: float | None = None


@dataclass(frozen=True)
class CoverageInterval:
    start: float
    end: float
    covered: bool
    essids: tuple[str, ...] = ()
    groups: tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CoverageEvent:
    """One classifier decision; duration is None when unknown or uncovered."""

    timestamp: float
    kind: EventKind
    duration: float | None = None
    essids: tuple[str, ...] = ()


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters; array arguments broadcast.

    The terms are ordered so that no full-size difference array outlives its
    use and numpy can update temporaries in place: a (samples x APs) call
    holds at most three such arrays at once.
    """
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin(np.radians(np.subtract(lon2, lon1)) / 2) ** 2 * (np.cos(p1) * np.cos(p2))
         + np.sin((p2 - p1) / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


class _ApIndex:
    """Access points in latitude order, one site each, with their columns;
    ``order`` gives each site's place in the sequence it was built from."""

    def __init__(self, aps: Sequence[AccessPoint]) -> None:
        columns = np.array([[ap.lat for ap in aps], [ap.lon for ap in aps],
                            [ap.radius_m for ap in aps]], dtype=float)
        self.order = np.argsort(columns[0])
        self.lat, self.lon, self.radius = columns[:, self.order]
        self.aps = np.fromiter(aps, dtype=object, count=len(aps))[self.order]
        self.phi = np.radians(self.lat)

    def band(self, low, high, reach_m: float):
        """Per row, the first site and the number of sites within ``reach_m``
        of the latitude span [low, high] (radians), with a margin of 1e-9 of
        the reach plus 1 um, far more than a distance's or a position's rounding."""
        reach = max(reach_m * (1 + 1e-9) + 1e-6, 0.0) / EARTH_RADIUS_M
        start = np.searchsorted(self.phi, low - reach, "left")
        return start, np.searchsorted(self.phi, high + reach, "right") - start

    @staticmethod
    def pairs(start, count):
        """The (row, site) pairs of a band, row by row."""
        row = np.repeat(np.arange(len(count)), count)
        return row, np.arange(len(row)) + np.repeat(start - np.cumsum(count) + count, count)


# ---------------------------------------------------------------------------
# Catalog sources


class _Catalog:
    """What every catalog source answers. ``query_many`` gives, for each
    position, a tuple of the access points within ``radius`` meters of it,
    nearest first, equal distances in ESSID order, then in catalog order;
    ``query`` is its one-position case. Positions are valid coordinates, as
    ``query_aps`` and ``classify_trajectory`` check."""

    def query(self, lat: float, lon: float, radius: float) -> list[AccessPoint]:
        return list(self.query_many([lat], [lon], radius)[0])


# LocalCatalog.query_many halves a batch of positions until each part has at
# most this many positions and band pairs together, or one position. That
# bounds the memory of its pair arrays, and its int64 sort key stays below
# _BATCH_PAIRS**2 times the number of APs (or that number squared).
_BATCH_PAIRS = 4096


class LocalCatalog(_Catalog):
    """Fixture-backed catalog: a CSV with header essid,lat,lon,radius_m,group,open."""

    def __init__(self, source) -> None:
        self.skipped_records = 0
        if isinstance(source, (str, Path)):
            self.access_points = self._parse(read_utf8(source, ""))
        else:
            self.access_points = tuple(source)

    @cached_property
    def _ranked(self) -> tuple[_ApIndex, np.ndarray]:
        """The index, built on the first query, and each site's tie rank."""
        aps = self.access_points
        index = _ApIndex(aps)
        by_essid = np.array(sorted(range(len(aps)), key=lambda j: aps[j].essid), dtype=np.int64)
        return index, np.argsort(by_essid)[index.order]

    def _parse(self, fh) -> tuple[AccessPoint, ...]:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("catalog file is empty")
        if tuple(h.strip() for h in header) != CATALOG_FIELDS:
            raise ValidationError(
                f"catalog header must be {','.join(CATALOG_FIELDS)}"
            )
        aps = []
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            ap = _record_to_ap({k: v.strip() for k, v in zip(CATALOG_FIELDS, row)})
            if ap is None:
                self.skipped_records += 1
            else:
                aps.append(ap)
        return tuple(aps)

    def query_many(self, lat: Sequence[float], lon: Sequence[float],
                   radius: float) -> list[tuple[AccessPoint, ...]]:
        """Each position's access points within ``radius``, from one distance
        computation over the (position, AP) pairs of each position's band."""
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        index, tie = self._ranked
        phi = np.radians(lat)
        start, count = index.band(phi, phi, radius)
        if len(lat) > 1 and len(lat) + int(count.sum()) > _BATCH_PAIRS:
            half = len(lat) // 2
            return (self.query_many(lat[:half], lon[:half], radius)
                    + self.query_many(lat[half:], lon[half:], radius))
        row, pos = index.pairs(start, count)
        dist = haversine_m(lat[row], lon[row], index.lat[pos], index.lon[pos])
        hit = dist <= radius
        row, pos, dist = row[hit], pos[hit], dist[hit]
        # One sort on one int64 key: row, then distance, then tie rank. Equal
        # distances share a level, their dense rank among all the hits.
        by_dist = np.argsort(dist)
        ranked = dist[by_dist]
        level = np.empty(len(dist), dtype=np.int64)
        level[by_dist] = np.cumsum(np.diff(ranked, prepend=ranked[:1]) > 0)
        key = (row * len(dist) + level) * len(tie) + tie[pos]
        found = tuple(index.aps[pos[np.argsort(key)]].tolist())
        ends = np.cumsum(np.bincount(row, minlength=len(lat))).tolist()
        return [found[a:b] for a, b in zip([0, *ends], ends)]


class _Reply(NamedTuple):
    status_code: int
    body: bytes

    def json(self):
        import json

        return json.loads(self.body)


class _UrllibSession:
    """The default transport of ``RemoteCatalog``: ``requests.get``'s call
    shape on the standard library, which is imported on the first query so
    that no program pays for an HTTP stack it never uses."""

    def get(self, url: str, params: dict, headers: dict, timeout: float) -> _Reply:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(url + ("&" if "?" in url else "?") + urlencode(params))
        for name, value in headers.items():
            # urllib's redirect handler copies every other header to the
            # target, whatever its host
            request.add_unredirected_header(name, value)
        # http(s) handlers alone: a redirect to any other scheme fails as unknown
        opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                        urllib.request.HTTPSHandler(), urllib.request.HTTPDefaultErrorHandler(),
                        urllib.request.HTTPRedirectHandler(), urllib.request.HTTPErrorProcessor(),
                        urllib.request.UnknownHandler()):
            opener.add_handler(handler)
        try:
            with opener.open(request, timeout=timeout) as reply:
                return _Reply(reply.status, reply.read())
        except urllib.error.HTTPError as err:
            err.close()
            return _Reply(err.code, b"")


class RemoteCatalog(_Catalog):
    """HTTP catalog client: GET with lat/lon/radius, records come back as JSON.

    Credentials, when needed, are read from the environment variable named
    by ``token_env`` and sent as a bearer token, never to a redirect target.
    ``session`` is anything with ``requests.Session``'s ``get``; the default
    speaks http and https through the standard library.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0,
                 token_env: str = CATALOG_TOKEN_ENV, session=None) -> None:
        if urlsplit(base_url).scheme not in ("http", "https"):
            raise ValidationError(f"catalog URL must be http or https, got {base_url!r}")
        if not (timeout_s > 0.0 and math.isfinite(timeout_s)):
            raise ValidationError(f"catalog timeout_s must be positive and finite, got {timeout_s}")
        self.base_url = base_url
        self.timeout_s = timeout_s
        self.token_env = token_env
        self.session = session or _UrllibSession()
        self.skipped_records = 0

    def query_many(self, lat: Sequence[float], lon: Sequence[float],
                   radius: float) -> list[tuple[AccessPoint, ...]]:
        """One request per position, since the service answers one position
        at a time; the first failure raises ``CatalogUnavailable``."""
        return [self._ask(a, o, radius) for a, o in zip(lat, lon)]

    def _ask(self, lat: float, lon: float, radius: float) -> tuple[AccessPoint, ...]:
        import http.client

        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            response = self.session.get(
                self.base_url,
                params={"lat": lat, "lon": lon, "radius": radius},
                headers=headers,
                timeout=self.timeout_s,
            )
        # socket and urllib errors (requests' too) are OSErrors; a broken
        # HTTP exchange (IncompleteRead, BadStatusLine) is not
        except (OSError, http.client.HTTPException) as err:
            raise CatalogUnavailable(f"catalog request failed: {err}") from err
        if response.status_code != 200:
            raise CatalogUnavailable(
                f"catalog answered HTTP {response.status_code}"
            )
        try:
            records = response.json()
        except ValueError as err:
            raise CatalogUnavailable("catalog answered malformed JSON") from err
        if not isinstance(records, list):
            raise CatalogUnavailable(
                f"catalog answered {repr(records)[:80]}, not a JSON array"
            )
        aps = []
        for record in records:
            ap = _record_to_ap(record)
            if ap is None:
                self.skipped_records += 1
            else:
                aps.append(ap)
        # the service already filters; re-check locally so the contract holds
        return LocalCatalog(aps).query_many([lat], [lon], radius)[0]


class TtlCache(_Catalog):
    """Thread-safe TTL cache in front of any catalog source.

    A batch reads the clock once and sends every position without a live
    entry to the catalog in one ``query_many`` call; a position repeated in
    a batch is one miss, then hits. Entries are the catalog's tuples, so a
    hit copies nothing.
    """

    def __init__(self, catalog, ttl_s: float = 300.0, clock=time.monotonic) -> None:
        # an entry must outlive its batch's clock reading, as it does in a
        # loop of one-position batches
        if not (ttl_s > 0.0):
            raise ValidationError(f"cache ttl_s must be positive, got {ttl_s}")
        self.catalog = catalog
        self.ttl_s = ttl_s
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[float, tuple[AccessPoint, ...]]] = {}
        self.hits = 0
        self.misses = 0

    def query_many(self, lat: Sequence[float], lon: Sequence[float],
                   radius: float) -> list[tuple[AccessPoint, ...]]:
        r = round(radius, 3)
        keys = [(round(a, 7), round(o, 7), r) for a, o in zip(lat, lon)]
        now = self.clock()
        with self._lock:
            found = {key: entry[1] for key in keys
                     if (entry := self._entries.get(key)) is not None and entry[0] > now}
        # the first position of each key that has no live entry
        missing: dict[tuple, tuple[float, float]] = {}
        for key, a, o in zip(keys, lat, lon):
            if key not in found:
                missing.setdefault(key, (a, o))
        answers = (self.catalog.query_many([a for a, _ in missing.values()],
                                           [o for _, o in missing.values()], radius)
                   if missing else [])
        found.update(zip(missing, answers))
        with self._lock:
            self.hits += len(keys) - len(missing)
            self.misses += len(missing)
            for key, aps in zip(missing, answers):
                self._entries[key] = (now + self.ttl_s, aps)
        return [found[key] for key in keys]


def _record_to_ap(record) -> AccessPoint | None:
    """The access point a record describes, or None when it is malformed."""
    try:
        group = (record.get("group") or "").strip() or None
        raw_open = str(record.get("open", "true")).strip().lower()
        if raw_open not in ("true", "false", "1", "0", "yes", "no"):
            return None
        return AccessPoint(
            essid=str(record["essid"]),
            lat=float(record["lat"]),
            lon=float(record["lon"]),
            radius_m=float(record.get("radius_m") or DEFAULT_AP_RADIUS_M),
            group=group,
            open=raw_open in ("true", "1", "yes"),
        )
    # AttributeError: a JSON record that is not an object, or a group that
    # is not a string
    except (AttributeError, KeyError, TypeError, ValueError, ValidationError):
        return None


def query_aps(catalog, lat: float, lon: float, radius: float) -> list[AccessPoint]:
    """All catalog access points within ``radius`` meters of the position."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValidationError(f"invalid coordinates ({lat}, {lon})")
    _check_radius(radius)
    return catalog.query(lat, lon, radius)


def _check_radius(radius: float) -> None:
    if not (radius > 0.0):
        raise ValidationError("query radius must be positive")


# ---------------------------------------------------------------------------
# Trajectories


def load_trajectory(path) -> list[TrajectorySample]:
    """Read a ``t,lat,lon[,speed]`` CSV. The first row is a header when its
    t, lat and lon cells hold no number; any other row that does not parse
    is an error naming its line, and so is a sample that
    :func:`_check_trajectory` rejects."""
    samples: list[TrajectorySample] = []
    lines: list[int] = []
    for lineno, row in enumerate(csv.reader(read_utf8(path, "")), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            t, lat, lon = (float(row[k]) for k in range(3))
            speed = float(row[3]) if len(row) > 3 and row[3].strip() else None
        except (ValueError, IndexError):
            if lineno == 1 and not any(map(_is_number, row[:3])):
                continue  # header
            raise ValidationError(f"{path}:{lineno}: malformed trajectory row {row!r}")
        samples.append(TrajectorySample(t, lat, lon, speed))
        lines.append(lineno)
    _check_trajectory(samples, lambda k: f"{path}:{lines[k]}: ")
    return samples


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _check_trajectory(samples: Sequence[TrajectorySample],
                      where: Callable[[int], str] = lambda k: "") -> np.ndarray:
    """The t, lat and lon columns of a valid trajectory, as a (3 x samples)
    array; an error names the first offending sample k, after ``where(k)``."""
    columns = np.array([(s.t, s.lat, s.lon) for s in samples], dtype=float)
    columns = columns.reshape(-1, 3).T.copy()
    t, lat, lon = columns
    valid = np.isfinite(t) & (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
    if not valid.all():
        k = int(valid.argmin())
        s = samples[k]
        if not math.isfinite(s.t):
            raise ValidationError(
                f"{where(k)}trajectory sample {k} has a non-finite timestamp t={s.t}")
        raise ValidationError(
            f"{where(k)}trajectory sample {k} (t={s.t}) has invalid coordinates "
            f"({s.lat}, {s.lon})"
        )
    rising = t[1:] > t[:-1]
    if not rising.all():
        k = int(rising.argmin())
        raise ValidationError(f"{where(k + 1)}trajectory timestamps must strictly increase "
                              f"({samples[k].t} then {samples[k + 1].t})")
    return columns


def extrapolate(samples: Sequence[TrajectorySample], horizon_s: float,
                step_s: float = 1.0) -> list[TrajectorySample]:
    """Extend a trajectory by dead reckoning from its last two samples."""
    if len(samples) < 2:
        raise ValidationError("extrapolation needs at least 2 samples")
    _check_trajectory(samples)
    for name, value in (("horizon_s", horizon_s), ("step_s", step_s)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValidationError(f"{name} must be positive and finite, got {value}")
    a, b = samples[-2], samples[-1]
    end = b.t + horizon_s + 1e-12
    if b.t + step_s == b.t or not math.isfinite((end - b.t) / step_s):
        raise ValidationError(f"step_s={step_s} is too small to step from t={b.t} "
                              f"over a {horizon_s} s horizon")
    # The k-th new sample lies at b.t + k * step_s, k = 1..n: the largest n
    # whose time is within the horizon, from the quotient corrected for rounding.
    n = int((end - b.t) / step_s)
    while b.t + (n + 1) * step_s <= end:
        n += 1
    while n > 0 and b.t + n * step_s > end:
        n -= 1
    dt = b.t - a.t
    vlat = (b.lat - a.lat) / dt
    vlon = (b.lon - a.lon) / dt
    extended = list(samples)
    for k in range(1, n + 1):
        t = b.t + k * step_s
        extended.append(
            TrajectorySample(t, b.lat + vlat * (t - b.t), b.lon + vlon * (t - b.t), b.speed)
        )
    return extended


# ---------------------------------------------------------------------------
# Coverage prediction


def _wrap_lon(lon: np.ndarray) -> np.ndarray:
    """Longitudes, or steps in longitude, moved by a turn into [-180, 180],
    so that a step across the antimeridian goes the short way round."""
    return lon - 360.0 * np.sign(lon) * (np.abs(lon) > 180.0)


def predict_coverage(
    trajectory: Sequence[TrajectorySample], aps: Sequence[AccessPoint]
) -> list[CoverageInterval]:
    """Split a trajectory into maximal covered/uncovered intervals.

    The intervals partition [first sample, last sample] with no gaps or
    overlaps. A covered interval persists while at least one network keeps
    covering the walk; a network swap with no network covering both sides
    closes the interval at the handover instant.
    """
    if len(trajectory) < 2:
        raise ValidationError("coverage prediction needs at least 2 samples")
    t, s_lat, s_lon = _check_trajectory(trajectory)

    index = _ApIndex(aps)
    # network of each site, numbered from 0: its own, or its group's (keyed
    # by the group's first site, so that a group name is an opaque string)
    first: dict[str, int] = {}
    network = np.unique([first.setdefault(ap.group, j) if ap.group else j
                         for j, ap in enumerate(index.aps)], return_inverse=True)[1]
    # only the sites within r_max of a sample's latitude can cover it
    r_max = index.radius.max(initial=0.0)
    s_phi = np.radians(s_lat)
    row, pos = index.pairs(*index.band(s_phi, s_phi, r_max))
    hit = haversine_m(s_lat[row], s_lon[row], index.lat[pos], index.lon[pos]) <= index.radius[pos]
    # covering[i, j]: sample i lies within site j's disc; by_net[i, n]:
    # within a disc of network n
    covering = np.zeros((len(t), len(aps)), dtype=bool)
    covering[row[hit], pos[hit]] = True
    by_net = np.zeros((len(t), network.max(initial=-1) + 1), dtype=bool)
    by_net[row[hit], network[pos[hit]]] = True
    covered = by_net.any(axis=1)
    # coverage flips, or no network persists across a handover
    flip = np.flatnonzero((covered[:-1] | covered[1:]) & ~(by_net[:-1] & by_net[1:]).any(axis=1))

    # Bisect every crossing at once, on the pairs of its latitude span. The
    # probe is every AP when entering coverage, else the APs of the networks
    # covering sample i. A step is a function of (lo, hi) alone, so the
    # first step that moves no bracket leaves them where 60 steps would.
    inside = covered[flip]
    row, pos = index.pairs(*index.band(np.minimum(s_phi[flip], s_phi[flip + 1]),
                                       np.maximum(s_phi[flip], s_phi[flip + 1]), r_max))
    probe = ~inside[row] | by_net[flip[row], network[pos]]
    row, pos = row[probe], pos[probe]
    ap_lat, ap_lon, ap_radius = index.lat[pos], index.lon[pos], index.radius[pos]
    t0, dt = t[flip], t[flip + 1] - t[flip]
    lat0, dlat = s_lat[flip], s_lat[flip + 1] - s_lat[flip]
    lon0, dlon = s_lon[flip], _wrap_lon(s_lon[flip + 1] - s_lon[flip])
    lo, hi = t0, t[flip + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = (mid - t0) / dt
        here = haversine_m((lat0 + f * dlat)[row], (lon0 + f * dlon)[row], ap_lat, ap_lon)
        hit = np.zeros(len(flip), dtype=bool)
        hit[row[here <= ap_radius]] = True
        same = hit == inside
        new_lo, new_hi = np.where(same, mid, lo), np.where(same, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi

    cuts = [trajectory[0].t, *(0.5 * (lo + hi)).tolist(), trajectory[-1].t]
    rows = [0, *(flip + 1).tolist(), len(trajectory)]
    intervals = []
    for k in range(len(rows) - 1):
        seen = index.aps[covering[rows[k]:rows[k + 1]].any(axis=0)].tolist()
        intervals.append(
            CoverageInterval(
                cuts[k], cuts[k + 1], bool(covered[rows[k]]),
                tuple(sorted({ap.essid for ap in seen})),
                tuple(sorted({ap.group for ap in seen if ap.group})),
            )
        )
    return [iv for iv in intervals if iv.duration > 0.0]


def classify(
    timeline: Sequence[CoverageInterval],
    threshold_s: float = DEFAULT_LONG_THRESHOLD_S,
) -> list[CoverageEvent]:
    """One event per interval: no coverage, short coverage or long coverage."""
    if not (threshold_s > 0.0):
        raise ValidationError("threshold must be positive")
    events = []
    for interval in timeline:
        if not interval.covered:
            kind, duration = EventKind.EV_NO_WIFI, None
        elif interval.duration >= threshold_s:
            kind, duration = EventKind.EV_LONG_WIFI, interval.duration
        else:
            kind, duration = EventKind.EV_SHORT_WIFI, interval.duration
        events.append(
            CoverageEvent(interval.start, kind, duration, interval.essids)
        )
    return events


def apply_policy(event: CoverageEvent) -> NicActivation:
    """Interface activation for an event; at least one NIC is always on."""
    if event.kind is EventKind.EV_NO_WIFI:
        return NicActivation(active_wifi=False, active_umts=True)
    if event.kind is EventKind.EV_SHORT_WIFI:
        return NicActivation(active_wifi=True, active_umts=True)
    return NicActivation(active_wifi=True, active_umts=False)


def _along_walk(lat: np.ndarray, lon: np.ndarray, spacing_m: float):
    """The positions to ask about along a walk: its samples, and within each
    step that may be longer than ``spacing_m`` the fewest evenly spaced
    points that leave no two neighbours more than ``spacing_m`` apart along
    the walk. So every point of the walk lies within ``spacing_m / 2`` of a
    position asked about. The points are interpolated linearly in latitude
    and longitude, as :func:`predict_coverage` bisects a step.

    Along such a path a step is at most R * hypot(dphi, c * dlambda) long,
    where c is the largest cosine of a latitude on the step. The count of
    positions grows with the walk's length over ``spacing_m``.
    """
    phi = np.radians(lat)
    dlat = np.diff(lat)
    dlon = _wrap_lon(np.diff(lon))
    low, high = np.minimum(phi[:-1], phi[1:]), np.maximum(phi[:-1], phi[1:])
    length = EARTH_RADIUS_M * np.hypot(np.radians(dlat),
                                       np.cos(np.clip(0.0, low, high)) * np.radians(dlon))
    parts = np.maximum(np.ceil(length / spacing_m), 1.0).astype(np.int64)
    if parts.max(initial=1) == 1:
        return lat, lon
    # position k is part j of step i: sample i when j = 0
    step = np.repeat(np.arange(len(parts)), parts)
    f = (np.arange(len(step)) - np.repeat(np.cumsum(parts) - parts, parts)) / parts[step]
    ask_lat = np.append(lat[step] + f * dlat[step], lat[-1])
    return ask_lat, _wrap_lon(np.append(lon[step] + f * dlon[step], lon[-1]))


def classify_trajectory(
    trajectory: Sequence[TrajectorySample],
    catalog,
    threshold_s: float = DEFAULT_LONG_THRESHOLD_S,
    query_radius_m: float = 500.0,
) -> list[CoverageEvent]:
    """Ask the catalog once about the walk (:func:`_along_walk`), then
    predict coverage on the access points found and classify. Every access
    point of radius up to ``query_radius_m / 2`` that covers some point of
    the walk is among those found.

    The walk and the radius are checked first, so bad input raises
    ``ValidationError`` whatever the catalog does. When the catalog is
    unreachable the classifier degrades to a single conservative
    short-coverage event (both interfaces on) spanning the whole trajectory;
    its duration is unknown and left unset.
    """
    if len(trajectory) < 2:
        raise ValidationError("classification needs at least 2 samples")
    _, lat, lon = _check_trajectory(trajectory)
    _check_radius(query_radius_m)
    ask_lat, ask_lon = _along_walk(lat, lon, query_radius_m)
    try:
        answers = catalog.query_many(ask_lat.tolist(), ask_lon.tolist(), query_radius_m)
    except CatalogUnavailable:
        return [
            CoverageEvent(trajectory[0].t, EventKind.EV_SHORT_WIFI, None, ())
        ]
    # Each access point once, as in the catalog: listings merge by identity
    # at C speed, then the distinct objects by value, so that the fresh
    # copies a remote catalog parses per request count once.
    listed = list(chain.from_iterable(answers))
    distinct = dict.fromkeys(dict(zip(map(id, listed), listed)).values())
    return classify(predict_coverage(trajectory, list(distinct)), threshold_s)
