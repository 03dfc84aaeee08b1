"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: explicit normal equations, O(K^3)
linkage re-scans over the raw distance matrix, brute-force distance loops,
pure-Python forecast recursions, a bootstrap that materialises the full
reps x periods index matrix, a row-by-row panel CSV reader, and a STAR fit
that solves one country's equation at a time.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import stats

from starclust.errors import NumericalError, ValidationError
from starclust.panel import (_LONG_HEADER, _META_COLUMNS, TemperaturePanel,
                             _meta_from_strings, _parse_temperature, detect_format)
from starclust.star import EquationFit
from starclust.trends import panel_differences
from starclust.weights import WeightMatrix


def ols_normal_equations(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Solve the least-squares problem via (X'X)^{-1} X'y explicitly."""
    xtx = design.T @ design
    xty = design.T @ response
    return np.linalg.solve(xtx, xty)


def trend_stats(series: np.ndarray) -> dict:
    """Linear trend on t = 1..T with classical OLS inference."""
    y = np.asarray(series, dtype=float)
    n = len(y)
    t = np.arange(1, n + 1, dtype=float)
    design = np.column_stack([np.ones(n), t])
    intercept, slope = ols_normal_equations(design, y)
    resid = y - design @ np.array([intercept, slope])
    s2 = float(resid @ resid) / (n - 2)
    cov = s2 * np.linalg.inv(design.T @ design)
    se = float(np.sqrt(cov[1, 1]))
    tstat = slope / se if se > 0 else np.inf * np.sign(slope)
    p = 2 * stats.t.sf(abs(tstat), n - 2)
    return {"intercept": float(intercept), "slope": float(slope), "se": se,
            "t": float(tstat), "p": float(p)}


def brute_slope_distance(slopes: list[float]) -> np.ndarray:
    n = len(slopes)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = abs(slopes[i] - slopes[j])
    return out


def brute_diff_distance(values: np.ndarray) -> np.ndarray:
    """Euclidean distance between first-difference series, explicit loops."""
    diffs = np.diff(values, axis=1)
    n = diffs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(diffs.shape[1]):
                acc += (diffs[i, t] - diffs[j, t]) ** 2
            out[i, j] = acc ** 0.5
    return out


def brute_hamming_distance(values: np.ndarray) -> np.ndarray:
    """Hamming distance between sign strings of the annual changes."""
    diffs = np.diff(values, axis=1)
    signs = (diffs > 0).astype(int)
    n = signs.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(1 for a, b in zip(signs[i], signs[j]) if a != b)
    return out


def naive_linkage(values: np.ndarray, labels: list[str]) -> list[tuple[frozenset, frozenset, float]]:
    """Average-linkage merge sequence recomputed from the raw matrix each step.

    Tie-break matches the package rule: among minimal-distance pairs, pick the
    one whose (smaller, larger) representative labels sort first, where the
    representative is the smallest member label.
    """
    clusters: list[set[int]] = [{i} for i in range(len(labels))]
    merges = []
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                dist = float(np.mean([values[i, j]
                                      for i in clusters[a] for j in clusters[b]]))
                rep_a = min(labels[i] for i in clusters[a])
                rep_b = min(labels[i] for i in clusters[b])
                key = (dist, min(rep_a, rep_b), max(rep_a, rep_b))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (dist, _, _), a, b = best
        merges.append((frozenset(clusters[a]), frozenset(clusters[b]), dist))
        merged = clusters[a] | clusters[b]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(merged)
    return merges


def lance_williams_linkage(values: np.ndarray, labels: list[str]) -> list[tuple[frozenset, frozenset, float]]:
    """Average-linkage merge sequence from a full rescan of updated distances.

    Same tie rule as naive_linkage, but inter-cluster distances follow the
    package's floating-point recurrence (n_a d(a,c) + n_b d(b,c)) / (n_a + n_b)
    instead of a fresh mean over raw distances. The two can differ in the last
    bit, which is enough to break an exact tie the other way on integer
    (Hamming) matrices; this oracle reproduces the package's heights exactly.
    """
    k = len(labels)
    members = {i: frozenset([i]) for i in range(k)}
    reps = {i: labels[i] for i in range(k)}
    dist = {frozenset((a, b)): float(values[a, b])
            for a in range(k) for b in range(a + 1, k)}
    merges = []
    while len(members) > 1:
        pair = min(dist, key=lambda p: (dist[p], *sorted(reps[c] for c in p)))
        a, b = sorted(pair)
        na, nb = len(members[a]), len(members[b])
        node = k + len(merges)
        for c in members:
            if c not in pair:
                dist[frozenset((node, c))] = (na * dist.pop(frozenset((a, c)))
                                              + nb * dist.pop(frozenset((b, c)))) / (na + nb)
        merges.append((members[a], members[b], dist.pop(pair)))
        members[node] = members.pop(a) | members.pop(b)
        reps[node] = min(reps.pop(a), reps.pop(b))
    return merges


def dendrogram_leafset_merges(dendro) -> list[tuple[frozenset, frozenset, float]]:
    """Re-express a Dendrogram's merges as (leafset, leafset, height) triples."""
    k = dendro.n_leaves
    members = {i: frozenset([i]) for i in range(k)}
    out = []
    for step, merge in enumerate(dendro.merges):
        left = members.pop(merge.left)
        right = members.pop(merge.right)
        out.append((left, right, merge.height))
        members[k + step] = left | right
    return out


def mask_and_normalize(full_weights: np.ndarray, same_cluster: np.ndarray) -> np.ndarray:
    """Cluster-restriction oracle: zero out cross-cluster entries, renormalize."""
    masked = np.where(same_cluster, full_weights, 0.0)
    out = np.zeros_like(masked)
    for i in range(masked.shape[0]):
        total = masked[i].sum()
        if total > 0:
            out[i] = masked[i] / total
    return out


def hand_forecast(c: np.ndarray, phi: np.ndarray, psi: np.ndarray,
                  weights: np.ndarray, last_diff: np.ndarray,
                  last_level: np.ndarray, horizon: int) -> np.ndarray:
    """Pure-Python iterated STAR forecast, returning the level path."""
    n = len(c)
    x = list(map(float, last_diff))
    levels = [list(map(float, last_level))]
    for _ in range(horizon):
        nxt = []
        for i in range(n):
            spatial = sum(weights[i][j] * x[j] for j in range(n))
            nxt.append(c[i] + phi[i] * x[i] + psi[i] * spatial)
        x = nxt
        levels.append([levels[-1][i] + x[i] for i in range(n)])
    return np.array(levels[1:]).T  # N x horizon


def scalar_ar1_forecast(c: float, phi: float, last_diff: float,
                        last_level: float, horizon: int) -> list[float]:
    """Univariate AR(1)-on-differences forecast for one unit."""
    x = last_diff
    level = last_level
    path = []
    for _ in range(horizon):
        x = c + phi * x
        level += x
        path.append(level)
    return path


def simulate_star(n_units: int, n_years: int, c: float, phi: float, psi: float,
                  weights: np.ndarray, seed: int, sigma: float = 1.0,
                  first_year: int = 1901, base_level: float = 10.0) -> np.ndarray:
    """Simulate levels whose differences follow the STAR recursion."""
    rng = np.random.default_rng(seed)
    diffs = np.zeros((n_units, n_years - 1))
    diffs[:, 0] = rng.normal(0, sigma, n_units)
    for t in range(1, n_years - 1):
        shock = rng.normal(0, sigma, n_units)
        diffs[:, t] = c + phi * diffs[:, t - 1] + psi * (weights @ diffs[:, t - 1]) + shock
    levels = np.empty((n_units, n_years))
    levels[:, 0] = base_level + rng.normal(0, 1, n_units)
    levels[:, 1:] = levels[:, [0]] + np.cumsum(diffs, axis=1)
    return levels


def _block_indices(rng: np.random.Generator, n_periods: int, block: int,
                   reps: int) -> np.ndarray:
    """Moving-block bootstrap index matrix (reps x n_periods), block=1 is iid."""
    n_blocks = math.ceil(n_periods / block)
    starts = rng.integers(0, n_periods - block + 1, size=(reps, n_blocks))
    idx = (starts[:, :, None] + np.arange(block)[None, None, :]).reshape(reps, -1)
    return idx[:, :n_periods]


def gather_boot_means(matrix: np.ndarray, block: int, reps: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Moving-block bootstrap means (models x reps) by gathering every
    resampled period through the index matrix, as mcs once did."""
    n_periods = matrix.shape[1]
    idx = _block_indices(rng, n_periods, block, reps)
    boot_means = np.empty((matrix.shape[0], reps))
    chunk = max(1, 500_000 // n_periods)
    for start in range(0, reps, chunk):
        sel = idx[start:start + chunk]
        boot_means[:, start:start + chunk] = matrix[:, sel].mean(axis=2)
    return boot_means


# Row-by-row panel reader: `_read_rows`, `_load_long` and `_load_wide` as the
# package had them before long panels were parsed column-wise (verbatim), and
# `load_panel_rows` composing them as `starclust.panel.load_panel` does.

def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValidationError(f"empty file: {path}")
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:]


def _load_long(header: list[str], rows: list[list[str]]) -> TemperaturePanel:
    lowered = [h.lower() for h in header]
    col = {name: lowered.index(name) for name in _LONG_HEADER if name in lowered}
    missing = [name for name in _LONG_HEADER if name not in col]
    if missing:
        raise ValidationError(f"long panel header missing columns: {missing}")
    meta_col = {name: lowered.index(name) for name in _META_COLUMNS if name in lowered}

    cells: dict[tuple[str, int], float] = {}
    meta: dict[str, dict[str, str]] = {}
    for lineno, row in enumerate(rows, start=2):
        if len(row) < len(header):
            raise ValidationError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        country = row[col["country"]].strip()
        year_text = row[col["year"]].strip()
        try:
            year = int(year_text)
        except ValueError:
            raise ValidationError(
                f"line {lineno}: non-integer year {year_text!r} for country {country!r}"
            ) from None
        value = _parse_temperature(row[col["temperature"]].strip(), country, year)
        if (country, year) in cells:
            raise ValidationError(f"duplicate entry for country {country!r}, year {year}")
        cells[(country, year)] = value
        entry = meta.setdefault(country, {})
        for name, idx in meta_col.items():
            text = row[idx].strip()
            if not text:
                continue
            if name in entry and entry[name] != text:
                raise ValidationError(
                    f"conflicting {name} for country {country!r}: "
                    f"{entry[name]!r} vs {text!r}"
                )
            entry[name] = text

    if not cells:
        raise ValidationError("long panel has a header but no observations")
    ids = sorted({country for country, _ in cells})
    years = sorted({year for _, year in cells})
    full_years = list(range(years[0], years[-1] + 1))
    gaps = [(country, year) for country in ids for year in full_years
            if (country, year) not in cells]
    if gaps:
        shown = ", ".join(f"{c}/{y}" for c, y in gaps[:10])
        more = "" if len(gaps) <= 10 else f" (+{len(gaps) - 10} more)"
        raise ValidationError(f"missing observations: {shown}{more}")

    values = np.array([[cells[(c, y)] for y in full_years] for c in ids], dtype=float)
    countries = tuple(_meta_from_strings(c, meta.get(c, {})) for c in ids)
    return TemperaturePanel(countries=countries, years=tuple(full_years), values=values)


def _load_wide(header: list[str], rows: list[list[str]]) -> TemperaturePanel:
    lowered = [h.lower() for h in header]
    year_cols = [(i, int(h)) for i, h in enumerate(lowered) if h.lstrip("-").isdigit()]
    if not year_cols:
        raise ValidationError("wide panel has no year columns")
    meta_col = {name: lowered.index(name) for name in _META_COLUMNS if name in lowered}
    id_col = lowered.index("country")

    years = [y for _, y in year_cols]
    if years != sorted(years):
        order = np.argsort(years)
        year_cols = [year_cols[i] for i in order]
        years = [y for _, y in year_cols]
    for prev, cur in zip(years, years[1:]):
        if cur != prev + 1:
            raise ValidationError(f"wide panel year columns not consecutive: {prev} then {cur}")

    seen: dict[str, int] = {}
    records: list[tuple[CountryMeta, list[float]]] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) < len(header):
            raise ValidationError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        country = row[id_col].strip()
        if country in seen:
            raise ValidationError(f"duplicate country row for {country!r}")
        seen[country] = lineno
        series = []
        for idx, year in year_cols:
            text = row[idx].strip()
            if not text:
                raise ValidationError(f"missing observation for country {country!r}, year {year}")
            series.append(_parse_temperature(text, country, year))
        entry = {name: row[idx].strip() for name, idx in meta_col.items() if row[idx].strip()}
        records.append((_meta_from_strings(country, entry), series))

    records.sort(key=lambda rec: rec[0].id)
    countries = tuple(rec[0] for rec in records)
    values = np.array([rec[1] for rec in records], dtype=float)
    return TemperaturePanel(countries=countries, years=tuple(years), values=values)


def load_panel_rows(path: str | Path, fmt: str = "auto") -> TemperaturePanel:
    header, rows = _read_rows(path)
    if fmt == "auto":
        fmt = detect_format(header)
    if fmt == "long":
        return _load_long(header, rows)
    return _load_wide(header, rows)


# Country-by-country STAR fit: `fit_star`, `_ols_with_fallback` and `_predict`
# as the package had them before the equations were solved as one batch
# (verbatim, except that the loop returns its equations instead of a model and
# forms the spatial lags inline).

def loop_fit_star(panel: TemperaturePanel, weights: WeightMatrix) -> dict[str, EquationFit]:
    """Estimate the per-country difference equations by OLS, one at a time.

    Usable rows run over t = 3..T of the level panel (T - 2 equations rows):
    differencing consumes the first year and the lag the second. A singular
    design (e.g. a constant spatial lag) drops the offending regressor, spatial
    term first, and records what was removed.
    """
    if tuple(weights.labels) != tuple(panel.ids):
        raise ValidationError("weight matrix labels must match panel id order")
    if panel.n_years < 4:
        raise ValidationError(f"need at least 4 years to fit, got {panel.n_years}")

    diffs = panel_differences(panel)      # N x (T-1), columns are years[1:]
    spatial = weights.values @ diffs
    response = diffs[:, 1:]               # x_t  for t = 3..T
    own_lag = diffs[:, :-1]               # x_{t-1}
    spatial_lag = spatial[:, :-1]         # sum_j w_ij x_{j,t-1}
    zero_row = weights.values.sum(axis=1) == 0.0

    equations: dict[str, EquationFit] = {}
    for i, cid in enumerate(panel.ids):
        y = response[i]
        columns: list[tuple[str, np.ndarray]] = [("const", np.ones_like(y)),
                                                 ("temporal", own_lag[i])]
        if not zero_row[i]:
            columns.append(("spatial", spatial_lag[i]))
        names, coefs, dropped = _ols_with_fallback(cid, columns, y)
        lookup = dict(zip(names, coefs))
        resid = y - _predict(columns, names, lookup)
        dof = len(y) - len(names)
        sigma2 = float(resid @ resid) / dof if dof > 0 else float(resid @ resid) / len(y)
        psi = lookup.get("spatial") if not zero_row[i] and "spatial" in lookup else None
        equations[cid] = EquationFit(country=cid,
                                     c=float(lookup.get("const", 0.0)),
                                     phi=float(lookup.get("temporal", 0.0)),
                                     psi=None if psi is None else float(psi),
                                     sigma2=sigma2,
                                     dropped=tuple(dropped))
    return equations


def _ols_with_fallback(cid: str, columns: list[tuple[str, np.ndarray]],
                       y: np.ndarray) -> tuple[list[str], np.ndarray, list[str]]:
    """Least squares, dropping the spatial then the temporal regressor on
    rank deficiency rather than returning an arbitrary minimum-norm solution."""
    drop_order = ("spatial", "temporal")
    kept = list(columns)
    dropped: list[str] = []
    while True:
        design = np.column_stack([col for _, col in kept])
        if np.linalg.matrix_rank(design) == design.shape[1]:
            coefs, *_ = np.linalg.lstsq(design, y, rcond=None)
            if not np.all(np.isfinite(coefs)):
                raise NumericalError(f"non-finite coefficients for {cid}")
            return [name for name, _ in kept], coefs, dropped
        candidates = [name for name in drop_order if any(n == name for n, _ in kept)]
        if not candidates:
            raise NumericalError(f"design matrix for {cid} is degenerate beyond repair")
        victim = candidates[0]
        kept = [(n, col) for n, col in kept if n != victim]
        dropped.append(victim)


def _predict(columns: list[tuple[str, np.ndarray]], names: list[str],
             lookup: dict[str, float]) -> np.ndarray:
    total = np.zeros_like(columns[0][1])
    for name, col in columns:
        if name in names:
            total = total + lookup[name] * col
    return total

