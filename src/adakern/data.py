"""Dataset ingestion, scaling, splits, and the synthetic generators."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    mode: str

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DataError("X and y have inconsistent shapes")
        if self.X.shape[0] < 1:
            raise DataError("dataset is empty")
        if self.mode not in (CLASSIFICATION, REGRESSION):
            raise DataError(f"unknown label mode {self.mode!r}")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise DataError("dataset contains non-finite values")


@dataclass
class Scaler:
    """Per-feature (min, max) pairs for min-max scaling to [0, 1]."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_minmax(X) -> Scaler:
    X = np.asarray(X, dtype=float)
    return Scaler(mins=X.min(axis=0), maxs=X.max(axis=0))


def apply_minmax(scaler: Scaler, X) -> np.ndarray:
    """Scale columns to [0, 1] on training data; constant features map to 0."""
    X = np.asarray(X, dtype=float)
    span = scaler.maxs - scaler.mins
    out = X - scaler.mins
    nonconst = span > 0
    out[:, nonconst] /= span[nonconst]
    out[:, ~nonconst] = 0.0
    return out


def inverse_minmax(scaler: Scaler, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return X * (scaler.maxs - scaler.mins) + scaler.mins


def _coerce_labels(y: np.ndarray, mode: str, where: str) -> np.ndarray:
    if mode != CLASSIFICATION:
        return y
    present = set(np.unique(y))
    if 0.0 in present and present <= {0.0, 1.0}:
        warnings.warn(f"{where}: coercing {{0, 1}} labels to {{-1, +1}}")
        return np.where(y > 0, 1.0, -1.0)
    if not present <= {-1.0, 1.0}:
        raise DataError(f"{where}: classification labels must be in {{-1, +1}}, got {sorted(present)}")
    return y


def parse_libsvm(lines, mode: str = CLASSIFICATION) -> Dataset:
    """Parse sparse "<label> <index>:<value> ..." text into a dense Dataset.

    Indices are 1-based and must be ascending within a line; the feature
    dimension is the largest index seen; absent indices are zero.
    """
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    width = 0
    for lineno, raw in enumerate(_iter_lines(lines), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        try:
            label = float(tokens[0])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad label {tokens[0]!r}") from exc
        entries: dict[int, float] = {}
        prev = 0
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError as exc:
                raise DataError(f"line {lineno}: malformed feature token {token!r}") from exc
            if idx <= prev:
                raise DataError(f"line {lineno}: feature indices must be ascending and 1-based")
            if not np.isfinite(val):
                raise DataError(f"line {lineno}: non-finite feature value in {token!r}")
            entries[idx] = val
            prev = idx
        if not np.isfinite(label):
            raise DataError(f"line {lineno}: non-finite label")
        labels.append(label)
        rows.append(entries)
        width = max(width, prev)
    if not rows:
        raise DataError("no data rows found")
    try:
        X = np.zeros((len(rows), max(width, 1)))
    except (MemoryError, ValueError) as exc:
        raise DataError(
            f"a dense {len(rows)} x {width} feature matrix (largest feature index "
            f"{width}) cannot be allocated"
        ) from exc
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    y = _coerce_labels(np.asarray(labels), mode, "libsvm input")
    return Dataset(X=X, y=y, mode=mode)


def parse_csv(lines, mode: str = CLASSIFICATION) -> Dataset:
    """Parse delimited rows with the label in the last column.

    A first row with any non-numeric cell is treated as a header and skipped.
    """
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(_iter_lines(lines), start=1):
        text = raw.strip()
        if not text:
            continue
        cells = [c.strip() for c in text.split(",")]
        if width is None:
            width = len(cells)
            try:
                rows.append([float(c) for c in cells])
            except ValueError:  # a header
                pass
            continue
        if len(cells) != width:
            raise DataError(f"line {lineno}: ragged row ({len(cells)} cells, expected {width})")
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"line {lineno}: non-numeric cell") from exc
        if not all(np.isfinite(v) for v in values):
            raise DataError(f"line {lineno}: non-finite value")
        rows.append(values)
    if not rows:
        raise DataError("no data rows found")
    table = np.asarray(rows)
    if table.shape[1] == 1:
        raise DataError("no feature columns remain after removing the label column")
    y = _coerce_labels(table[:, -1], mode, "csv input")
    return Dataset(X=table[:, :-1], y=y, mode=mode)


def _iter_lines(lines):
    if isinstance(lines, str):
        return lines.splitlines()
    return lines


def kfold(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seed-deterministic k folds partitioning range(n), sizes differing by <= 1."""
    if not 2 <= k <= n:
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    return [fold.copy() for fold in np.array_split(rng.permutation(n), k)]


def step_value(x, s: float = 3.0, w: float = 2.0, a: float = 0.05):
    """Smoothed staircase of height s, period w and smoothness a."""
    x = np.asarray(x, dtype=float)
    steps = np.floor(x / w)
    core = np.tanh(a * x / w - a * steps - 0.5 * a) / (2.0 * np.tanh(0.5 * a))
    return (core + 0.5 + steps) * s


def gen_step(grid=None, s: float = 3.0, w: float = 2.0, a: float = 0.05) -> Dataset:
    """Step-function regression data on the supplied grid (default [-5, 5])."""
    if grid is None:
        grid = np.linspace(-5.0, 5.0, 201)
    grid = np.asarray(grid, dtype=float)
    return Dataset(X=grid[:, None], y=step_value(grid, s, w, a), mode=REGRESSION)


def surface_value(u, v):
    """Quartic 2-D test surface used for the regression benchmark."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    du, dv = u - 0.5, v - 0.5
    g1 = du ** 4 - 10.0 * du ** 2 * dv ** 2 + 5.0 * dv ** 4
    return 42.659 * (0.1 + du * (g1 + 0.05))


def gen_2d(resolution: int = 20) -> Dataset:
    """resolution x resolution uniform grid on [-0.5, 0.5]^2 with surface targets."""
    axis = np.linspace(-0.5, 0.5, resolution)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    X = np.column_stack([uu.ravel(), vv.ravel()])
    return Dataset(X=X, y=surface_value(X[:, 0], X[:, 1]), mode=REGRESSION)


def gen_two_class_toy(n: int, seed: int, noise: float = 0.08) -> Dataset:
    """Two interleaved noisy arcs with balanced +-1 labels (seeded)."""
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    rng = np.random.default_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos
    t_pos = rng.uniform(0.0, np.pi, n_pos)
    t_neg = rng.uniform(0.0, np.pi, n_neg)
    pos = np.column_stack([np.cos(t_pos), np.sin(t_pos)])
    neg = np.column_stack([1.0 - np.cos(t_neg), 0.5 - np.sin(t_neg)])
    X = np.vstack([pos, neg]) + rng.normal(0.0, noise, (n, 2))
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n)
    return Dataset(X=X[order], y=y[order], mode=CLASSIFICATION)
