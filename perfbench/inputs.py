"""Seeded inputs of the benchmark workloads.

Every generator here is a pure function of the benchmark seed (plus a round
or call index), so the same seed always gives the same grids, seeds, city
and walks. The program under test only ever sees the generated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream identifiers keep the generators of different inputs independent.
_GRID, _POINT, _COMPARE, _TRAFFIC, _CITY, _WALKS = range(6)


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


# -- sweep-grid --------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """One window grid: ``t_minus`` x ``t_plus``, every pair valid."""

    t_minus: tuple[float, ...]
    t_plus: tuple[float, ...]

    def argv(self) -> list[str]:
        return [
            "--grid",
            "tmin:" + ",".join(repr(v) for v in self.t_minus),
            "tplus:" + ",".join(repr(v) for v in self.t_plus),
        ]


def sweep_grid(seed: int, index: int, n_minus: int = 4, n_plus: int = 3) -> SweepGrid:
    """A grid shaped like the default one (4 x 3): T_W_minus in [2, 40) s,
    T_W_plus in [40, 200) s, rounded to 0.01 s so the CLI text is short."""
    rng = _rng(seed, _GRID, index)
    t_minus = np.round(np.sort(rng.uniform(2.0, 40.0, n_minus)), 2)
    t_plus = np.round(np.sort(rng.uniform(40.0, 200.0, n_plus)), 2)
    return SweepGrid(tuple(float(v) for v in t_minus), tuple(float(v) for v in t_plus))


def grid_point(seed: int, index: int, grid: SweepGrid) -> tuple[float, float]:
    """The (T_W_minus, T_W_plus) point of ``grid`` solved from the listing."""
    rng = _rng(seed, _POINT, index)
    return (
        grid.t_minus[int(rng.integers(len(grid.t_minus)))],
        grid.t_plus[int(rng.integers(len(grid.t_plus)))],
    )


# -- crossval ----------------------------------------------------------------


def compare_seed(seed: int, index: int) -> int:
    """Root seed handed to ``abps compare --seed`` for its ``index``-th call."""
    return int(_rng(seed, _COMPARE, index).integers(1, 2**31))


def traffic_seed(seed: int, index: int) -> int:
    return int(_rng(seed, _TRAFFIC, index).integers(1, 2**31))


# -- coverage-city -----------------------------------------------------------

_LAT0, _LON0 = 45.07, 7.68
_M_PER_DEG_LAT = 111_195.0
_M_PER_DEG_LON = _M_PER_DEG_LAT * math.cos(math.radians(_LAT0))


def _to_latlon(x_m: float, y_m: float) -> tuple[float, float]:
    return _LAT0 + y_m / _M_PER_DEG_LAT, _LON0 + x_m / _M_PER_DEG_LON


@dataclass(frozen=True)
class CitySpec:
    """Size of a synthetic city; ``FULL_CITY`` is the benchmark's."""

    blocks: int = 12             # street grid is blocks x blocks, 100 m apart
    n_aps: int = 200
    n_networks: int = 12         # networks of APs_PER_NETWORK APs along a street
    walk_sets: int = 8           # benchmark round r classifies set r % walk_sets
    walks_per_set: int = 12
    repeats_per_set: int = 3     # walks of a set that retrace an earlier walk's route
    samples: int = 200           # samples per walk
    dt_s: float = 2.0


FULL_CITY = CitySpec()
BLOCK_M = 100.0
APS_PER_NETWORK = 6


@dataclass(frozen=True)
class City:
    catalog_rows: tuple[tuple[str, float, float, float, str, bool], ...]
    walks: tuple[tuple[tuple[float, float, float], ...], ...]   # (t, lat, lon)
    walk_sets: tuple[tuple[int, ...], ...]   # walk indices of each set

    def catalog_csv(self) -> str:
        lines = ["essid,lat,lon,radius_m,group,open"]
        for essid, lat, lon, radius, group, is_open in self.catalog_rows:
            lines.append(f"{essid},{lat!r},{lon!r},{radius!r},{group},{str(is_open).lower()}")
        return "\n".join(lines) + "\n"

    def walk_csv(self, index: int) -> str:
        lines = ["t,lat,lon"]
        lines += [f"{t!r},{lat!r},{lon!r}" for t, lat, lon in self.walks[index]]
        return "\n".join(lines) + "\n"

    def write(self, directory: Path) -> tuple[Path, list[Path]]:
        """Write the catalog and one CSV per walk; return their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        catalog = directory / "catalog.csv"
        catalog.write_text(self.catalog_csv(), encoding="utf-8")
        walks = []
        for i in range(len(self.walks)):
            path = directory / f"walk{i:02d}.csv"
            path.write_text(self.walk_csv(i), encoding="utf-8")
            walks.append(path)
        return catalog, walks


def _street_point(rng: np.random.Generator, extent: float) -> tuple[float, float, bool]:
    """A random point on a street and whether that street runs along x."""
    along_x = bool(rng.integers(2))
    line = BLOCK_M * int(rng.integers(0, int(extent / BLOCK_M) + 1))
    pos = float(rng.uniform(0.0, extent))
    return (pos, line, along_x) if along_x else (line, pos, along_x)


def _access_points(rng: np.random.Generator, spec: CitySpec):
    extent = spec.blocks * BLOCK_M
    rows = []
    # Networks: overlapping APs strung along one street, roamed as one group.
    for k in range(spec.n_networks):
        x, y, along_x = _street_point(rng, extent)
        spacing = float(rng.uniform(60.0, 90.0))
        start = min(x if along_x else y, extent - (APS_PER_NETWORK - 1) * spacing)
        for j in range(APS_PER_NETWORK):
            d = start + j * spacing
            px, py = (d, y) if along_x else (x, d)
            lat, lon = _to_latlon(px, py)
            rows.append((f"net{k}", lat, lon, float(rng.uniform(45.0, 60.0)), f"grp{k}", True))
    # Isolated APs, each its own network, spread evenly over all streets (so
    # every walk meets about as many per meter) a few meters off the street.
    streets = [(along_x, k * BLOCK_M) for k in range(spec.blocks + 1) for along_x in (True, False)]
    n_isolated = spec.n_aps - len(rows)
    spacing = extent / math.ceil(n_isolated / len(streets))
    for i in range(n_isolated):
        along_x, line = streets[i % len(streets)]
        pos = (i // len(streets) + float(rng.uniform(0.25, 0.75))) * spacing
        off = float(rng.uniform(-25.0, 25.0))
        lat, lon = _to_latlon(pos, line + off) if along_x else _to_latlon(line + off, pos)
        rows.append((f"ap{i}", lat, lon, float(rng.uniform(20.0, 60.0)), "",
                     bool(rng.integers(2))))
    return tuple(rows)


def _route(rng: np.random.Generator, spec: CitySpec) -> list[tuple[float, float]]:
    """Positions of a walk along the street grid, turning at crossings."""
    n = spec.blocks
    step = float(rng.uniform(3.0, 4.0)) * spec.dt_s    # a jogging pace, m/s

    def headings(ix: int, iy: int, back: tuple[int, int] | None) -> list[tuple[int, int]]:
        return [
            (dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= ix + dx <= n and 0 <= iy + dy <= n and (dx, dy) != back
        ]

    ix, iy = (int(v) for v in rng.integers(0, n + 1, size=2))
    options = headings(ix, iy, None)
    dx, dy = options[int(rng.integers(len(options)))]
    progress = 0.0               # meters past crossing (ix, iy) along (dx, dy)
    points = []
    for _ in range(spec.samples):
        points.append((ix * BLOCK_M + dx * progress, iy * BLOCK_M + dy * progress))
        progress += step
        while progress >= BLOCK_M:
            progress -= BLOCK_M
            ix, iy = ix + dx, iy + dy
            options = headings(ix, iy, (-dx, -dy))
            if not ((dx, dy) in options and rng.random() < 0.6):
                dx, dy = options[int(rng.integers(len(options)))]
    return points


def city(seed: int, spec: CitySpec = FULL_CITY) -> City:
    """A seeded city: access points along streets and sets of walks through it.

    In each set the last ``repeats_per_set`` walks retrace routes of earlier
    walks of the set at a later time, so a position cache sees exact repeats.
    """
    rng = _rng(seed, _CITY)
    aps = _access_points(rng, spec)
    wrng = _rng(seed, _WALKS)
    walks, sets = [], []
    fresh = spec.walks_per_set - spec.repeats_per_set
    for _ in range(spec.walk_sets):
        routes = [_route(wrng, spec) for _ in range(fresh)]
        routes += [routes[int(wrng.integers(fresh))] for _ in range(spec.repeats_per_set)]
        sets.append(tuple(range(len(walks), len(walks) + len(routes))))
        for route in routes:
            t0 = round(float(wrng.uniform(0.0, 86_400.0)), 3)
            walks.append(tuple(
                (t0 + k * spec.dt_s, *_to_latlon(x, y)) for k, (x, y) in enumerate(route)
            ))
    return City(aps, tuple(walks), tuple(sets))
