"""Shared fixtures: deterministic toy panels and the optional real dataset.

Real-data fixtures are gated on environment variables and skip cleanly when
the files are absent:

  STARCLUST_DATA       panel CSV (country,year,temperature)
  STARCLUST_ADJACENCY  country adjacency CSV (country_a,country_b)
  STARCLUST_ZONES      zone metadata CSV (country,zone)
"""
from __future__ import annotations

import csv
import importlib.util
import os
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from starclust import TemperaturePanel, attach_zones, load_adjacency, load_panel

DATA_ENV = "STARCLUST_DATA"
ADJACENCY_ENV = "STARCLUST_ADJACENCY"
ZONES_ENV = "STARCLUST_ZONES"


def _env_path(name: str) -> Path | None:
    value = os.environ.get(name)
    if not value:
        return None
    path = Path(value)
    return path if path.is_file() else None


def dataset_available() -> bool:
    return _env_path(DATA_ENV) is not None


requires_dataset = pytest.mark.skipif(
    not dataset_available(),
    reason=f"real panel not configured (set {DATA_ENV} to the CSV path)",
)


@pytest.fixture(scope="session")
def real_panel() -> TemperaturePanel:
    path = _env_path(DATA_ENV)
    if path is None:
        pytest.skip(f"real panel not configured (set {DATA_ENV})")
    panel = load_panel(path)
    zones = _env_path(ZONES_ENV)
    if zones is not None:
        panel = attach_zones(panel, zones)
    return panel


@pytest.fixture(scope="session")
def real_adjacency(real_panel: TemperaturePanel) -> np.ndarray:
    path = _env_path(ADJACENCY_ENV)
    if path is None:
        pytest.skip(f"adjacency not configured (set {ADJACENCY_ENV})")
    return load_adjacency(path, real_panel)


@pytest.fixture(scope="session")
def synthetic_inputs(tmp_path_factory) -> dict[str, Path]:
    """Paper-shaped panel, zones and adjacency CSVs: 168 units, 1901-2022,
    from the benchmark's seeded generator (bench/gen_panel.py, seed 0)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen_panel.py"
    spec = importlib.util.spec_from_file_location("gen_panel", path)
    gen_panel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_panel)
    return gen_panel.write_inputs(gen_panel.generate(seed=0, k=168),
                                  tmp_path_factory.mktemp("synthetic"))


@pytest.fixture(scope="session")
def synthetic_panel(synthetic_inputs) -> TemperaturePanel:
    return attach_zones(load_panel(synthetic_inputs["panel"]),
                        synthetic_inputs["zones"])


@pytest.fixture(scope="session")
def synthetic_adjacency(synthetic_inputs, synthetic_panel) -> np.ndarray:
    return load_adjacency(synthetic_inputs["adjacency"], synthetic_panel)


def make_panel(values: np.ndarray, first_year: int = 1990,
               ids: list[str] | None = None,
               zones: list[str] | None = None) -> TemperaturePanel:
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    if ids is None:
        ids = [f"C{i:02d}" for i in range(n)]
    return TemperaturePanel(ids=ids, years=tuple(range(first_year, first_year + t)),
                            values=values, zones=zones or ())


def generated_panel(seed: int, k: int) -> TemperaturePanel:
    """The benchmark generator's panel (bench/gen_panel.py) of k units over
    1901-2022, at full precision: not rounded through its CSV."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen_panel.py"
    spec = importlib.util.spec_from_file_location("gen_panel", path)
    gen_panel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_panel)
    data = gen_panel.generate(seed, k)
    return make_panel(data["values"], first_year=int(data["years"][0]), ids=data["ids"])


def borders_of(ids, edges) -> np.ndarray:
    """Symmetric boolean border matrix over `ids` from (id, id) edges."""
    index = {cid: i for i, cid in enumerate(ids)}
    borders = np.zeros((len(ids), len(ids)), dtype=bool)
    for a, b in edges:
        borders[index[a], index[b]] = borders[index[b], index[a]] = True
    return borders


def assignment_of(mapping: dict[str, int], idio=(), null=(), scheme: str = "B"):
    """Assignment over the sorted ids of `mapping` (id -> cluster), `idio` and `null`."""
    from starclust import ClusterAssignment
    from starclust.clustering import IDIOSYNCRATIC, NULL
    ids = sorted([*mapping, *idio, *null])
    codes = [mapping.get(cid, IDIOSYNCRATIC if cid in idio else NULL) for cid in ids]
    return ClusterAssignment(
        scheme=scheme, ids=ids, codes=codes,
        resolved_components=len(set(mapping.values())) + len(idio))


def code_of(assign, cid: str) -> int:
    return int(assign.codes[assign.ids.index(cid)])


def write_panel(panel: TemperaturePanel, path: str | Path) -> None:
    """Write a panel's temperatures to a long CSV with full precision
    (round-trips bit-exactly). Zones are not written: they belong in a zones file."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "temperature"])
        for cid, row in zip(panel.ids, panel.values):
            for year, value in zip(panel.years, row):
                writer.writerow([cid, year, repr(float(value))])


def fixed_builder(weights: dict) -> Callable[[TemperaturePanel], dict]:
    """Weight builder that hands back the same matrices for any training slice."""
    return lambda panel: dict(weights)


def dyadic(rng: np.random.Generator, shape, low: float = -90.0,
           high: float = 60.0) -> np.ndarray:
    """Exact dyadic rationals (multiples of 2^-10) inside [low, high]."""
    grid = rng.integers(int(low * 1024), int(high * 1024) + 1, size=shape)
    return grid / 1024.0


@pytest.fixture
def toy_panel() -> TemperaturePanel:
    """6 countries x 12 years, deterministic dyadic values."""
    rng = np.random.default_rng(42)
    base = dyadic(rng, (6, 12), low=5.0, high=25.0)
    trend = np.linspace(0, 2, 12) * np.arange(1, 7)[:, None] / 6
    return make_panel(np.round(base + trend, 6))


@pytest.fixture
def grouped_panel() -> TemperaturePanel:
    """9 countries in 3 sharply separated dynamic groups, 41 years.

    Group g has slope (0.12, 0.05, 0.0)[g] plus a group-specific oscillation
    dominating the sign pattern, so all three schemes recover the same
    3-cluster structure.
    """
    rng = np.random.default_rng(3)
    n, t = 9, 41
    slopes = [0.12, 0.05, 0.0]
    patterns = [
        np.tile([1.0, 1.0, -1.0, -1.0], 11)[:t],
        np.tile([1.0, -1.0], 21)[:t],
        np.tile([1.0, -1.0, -1.0, 1.0, 1.0, -1.0], 7)[:t],
    ]
    values = np.empty((n, t))
    for i in range(n):
        g = i // 3
        noise = rng.normal(0, 0.004, t)
        values[i] = 12.0 + 2 * i + slopes[g] * np.arange(t) + 0.8 * patterns[g] + noise
    return make_panel(values, first_year=1950)


@pytest.fixture
def ring_weights():
    """Row-normalized ring contiguity for n units: two neighbours at 0.5."""
    def build(n: int, labels: tuple[str, ...], kind: str = "NN"):
        from starclust import WeightMatrix
        values = np.zeros((n, n))
        for i in range(n):
            values[i, (i - 1) % n] = 0.5
            values[i, (i + 1) % n] = 0.5
        return WeightMatrix(kind=kind, labels=labels, values=values)
    return build
