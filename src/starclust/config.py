"""Declarative run configuration loaded from YAML, overridable by CLI flags.

Validation is fail-fast and complete: unknown keys, wrong types, out-of-range
values, and missing input files are all reported before any computation runs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import yaml

from .errors import ValidationError

_STATISTICS = ("SQ", "R")
_GRANULARITIES = ("year", "observation")


@dataclass(frozen=True)
class RunConfig:
    panel_path: str | None = None
    adjacency_path: str | None = None
    zones_path: str | None = None
    output_dir: str = "out"
    seed: int = 0
    trend_alpha: float = 0.05
    k_a: int = 4
    k_b: int = 5
    k_c: int = 12
    min_cluster_size: int = 2
    include_null_in_dA: bool = True
    rescale_distances: bool = False
    rescale_rho: float = 0.95
    split_year: int = 2000
    horizon: int = 22
    mcs_alpha: float = 0.01
    mcs_reps: int = 10_000
    mcs_block: int = 2
    mcs_statistic: str = "SQ"
    granularity: str = "year"

    def validate(self, require_panel: bool = True,
                 require_adjacency: bool = False) -> None:
        if require_panel:
            if not self.panel_path:
                raise ValidationError("no panel data file configured")
            if not Path(self.panel_path).is_file():
                raise ValidationError(f"panel file not found: {self.panel_path}")
        if require_adjacency:
            if not self.adjacency_path:
                raise ValidationError("no adjacency file configured "
                                      "(needed for contiguity weights)")
        for label, path in (("adjacency", self.adjacency_path),
                            ("zones", self.zones_path)):
            if path and not Path(path).is_file():
                raise ValidationError(f"{label} file not found: {path}")
        if not 0 < self.trend_alpha < 1:
            raise ValidationError(f"trend_alpha outside (0, 1): {self.trend_alpha}")
        for name, k in (("A", self.k_a), ("B", self.k_b), ("C", self.k_c)):
            if k < 1:
                raise ValidationError(f"cluster count for scheme {name} must be >= 1")
        if self.min_cluster_size < 1:
            raise ValidationError("min_cluster_size must be >= 1")
        if not 0 < self.rescale_rho <= 1:
            raise ValidationError(f"rescale_rho outside (0, 1]: {self.rescale_rho}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 < self.mcs_alpha < 1:
            raise ValidationError(f"mcs_alpha outside (0, 1): {self.mcs_alpha}")
        if self.mcs_reps < 100:
            raise ValidationError(f"mcs_reps must be >= 100, got {self.mcs_reps}")
        if self.mcs_block < 1:
            raise ValidationError(f"mcs_block must be >= 1, got {self.mcs_block}")
        if self.mcs_statistic not in _STATISTICS:
            raise ValidationError(f"mcs_statistic must be one of {_STATISTICS}")
        if self.granularity not in _GRANULARITIES:
            raise ValidationError(f"granularity must be one of {_GRANULARITIES}")

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        effective = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(effective) - {f.name for f in fields(self)}
        if unknown:
            raise ValidationError(f"unknown config overrides: {sorted(unknown)}")
        return replace(self, **effective)


_SCHEMA = {
    "data": {"panel": ("panel_path", str), "adjacency": ("adjacency_path", str),
             "zones": ("zones_path", str)},
    "clusters": {"A": ("k_a", int), "B": ("k_b", int), "C": ("k_c", int),
                 "min_size": ("min_cluster_size", int)},
    "weights": {"include_null_in_dA": ("include_null_in_dA", bool),
                "rescale": ("rescale_distances", bool),
                "rho": ("rescale_rho", float)},
    "mcs": {"alpha": ("mcs_alpha", float), "reps": ("mcs_reps", int),
            "block": ("mcs_block", int), "statistic": ("mcs_statistic", str)},
}
_TOP_LEVEL = {
    "output_dir": ("output_dir", str), "seed": ("seed", int),
    "trend_alpha": ("trend_alpha", float), "split_year": ("split_year", int),
    "horizon": ("horizon", int), "granularity": ("granularity", str),
}


def _coerce(value: Any, target: type, where: str) -> Any:
    if target is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if target is int and isinstance(value, bool):
        raise ValidationError(f"{where}: expected {target.__name__}, got bool")
    if not isinstance(value, target):
        raise ValidationError(
            f"{where}: expected {target.__name__}, got {type(value).__name__}"
        )
    return value


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError(f"config root must be a mapping, got {type(raw).__name__}")
    values: dict[str, Any] = {}
    for key, entry in raw.items():
        if key in _SCHEMA:
            if not isinstance(entry, dict):
                raise ValidationError(f"config section {key!r} must be a mapping")
            for sub, sub_value in entry.items():
                if sub not in _SCHEMA[key]:
                    raise ValidationError(f"unknown config key {key}.{sub}")
                name, target = _SCHEMA[key][sub]
                values[name] = _coerce(sub_value, target, f"{key}.{sub}")
        elif key in _TOP_LEVEL:
            name, target = _TOP_LEVEL[key]
            values[name] = _coerce(entry, target, key)
        else:
            raise ValidationError(f"unknown config key {key!r}")
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ValidationError(f"config file {p} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
