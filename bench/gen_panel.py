"""Seeded generator of paper-shaped inputs: panel, zones and adjacency CSVs.

Each unit's annual temperature is a zone climate plus a linear warming trend,
a year-to-year shock shared with its latent group, and its own noise. The
shared shocks give the difference and sign distances real cluster structure;
a few "null" units have no trend and extra noise, so their slopes test as
non-significant; a few "island" units have no border, so the contiguity
weights (NN) have zero rows.

Only numpy's PCG64 stream and fixed-precision formatting are used, so one
seed always gives byte-identical files.

    python3 bench/gen_panel.py --seed 0 --k 168 --out inputs
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

ZONES = ("Europe", "Asia", "Eurasia", "Africa", "North America",
         "Central America", "South America", "Oceania")
# Rough share of the world's countries in each zone.
ZONE_SHARE = (0.25, 0.22, 0.05, 0.27, 0.03, 0.06, 0.07, 0.05)
ZONE_CLIMATE = (8.0, 18.0, 4.0, 24.0, 6.0, 25.0, 20.0, 22.0)

NULL_SHARE = 0.04      # units with no trend: about 6 of 168
ISLAND_SHARE = 0.06    # units with no land border
GROUPS_PER_ZONE = 3    # latent shock groups; 24 in all
BORDERS = 3            # nearest same-zone neighbours each unit borders


def generate(seed: int, k: int, first_year: int = 1901,
             last_year: int = 2022) -> dict:
    """Return ids, zones, years, the k x T value matrix and border pairs."""
    rng = np.random.default_rng(seed)
    years = np.arange(first_year, last_year + 1)
    t = years.size
    ids = [f"u{i:04d}" for i in range(k)]

    zone = np.minimum(np.searchsorted(np.cumsum(ZONE_SHARE), rng.random(k)),
                      len(ZONES) - 1)
    group = zone * GROUPS_PER_ZONE + rng.integers(0, GROUPS_PER_ZONE, size=k)
    shocks = rng.normal(0.0, 0.45, size=(len(ZONES) * GROUPS_PER_ZONE, t))

    climate = np.asarray(ZONE_CLIMATE)[zone] + rng.normal(0.0, 3.0, size=k)
    slope = rng.uniform(0.006, 0.02, size=k)
    loading = rng.uniform(0.7, 1.3, size=k)
    noise_sd = rng.uniform(0.15, 0.3, size=k)
    null = rng.random(k) < NULL_SHARE
    slope[null] = 0.0
    noise_sd[null] = 0.6

    centred = (years - years.mean())[None, :]
    values = (climate[:, None] + slope[:, None] * centred
              + loading[:, None] * shocks[group]
              + noise_sd[:, None] * rng.standard_normal((k, t)))

    # Units sit near their zone's centre on a plane; each non-island unit
    # borders its nearest same-zone non-island units.
    centre = rng.uniform(0.0, 100.0, size=(len(ZONES), 2))
    position = centre[zone] + rng.normal(0.0, 5.0, size=(k, 2))
    island = rng.random(k) < ISLAND_SHARE
    pairs = set()
    for i in np.flatnonzero(~island):
        peers = np.flatnonzero((zone == zone[i]) & ~island)
        peers = peers[peers != i]
        gap = np.hypot(*(position[peers] - position[i]).T)
        for j in peers[np.argsort(gap, kind="stable")[:BORDERS]]:
            pairs.add((min(i, j), max(i, j)))

    return {"ids": ids, "zones": [ZONES[z] for z in zone], "years": years,
            "values": values, "borders": sorted(pairs)}


def write_inputs(data: dict, out: Path) -> dict[str, Path]:
    """Write panel.csv (long), zones.csv and adjacency.csv under out."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("panel", "zones", "adjacency")}
    ids = data["ids"]
    with paths["panel"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "temperature"])
        for cid, row in zip(ids, data["values"]):
            for year, value in zip(data["years"], row):
                writer.writerow([cid, int(year), f"{value:.4f}"])
    with paths["zones"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "zone"])
        writer.writerows(zip(ids, data["zones"]))
    with paths["adjacency"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country_a", "country_b"])
        writer.writerows((ids[i], ids[j]) for i, j in data["borders"])
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--k", type=int, required=True, help="number of units")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    data = generate(args.seed, args.k)
    for name, path in write_inputs(data, args.out).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
