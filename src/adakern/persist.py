"""Versioned plain-text model persistence.

Key-value lines with dense arrays in 17-significant-digit scientific
notation, which round-trips float64 exactly, so save -> load -> predict is
bit-identical to the in-memory model on the same platform.

A file stores the adaptive matrix in the form the model holds
(:mod:`adaptive`), and loading builds that form, with no n x n F:

- :class:`adaptive.Factor`: a ``rank r`` line and n ``W`` rows of r
  values, none at r = 0 (format 2 on).
- :class:`adaptive.ClosedForm`: no F lines at all (format 4), since the
  tau = 0 closed form comes from the model's X, duals, sigma, eta and, in
  the decomposition mode, cluster assignment.
- :class:`adaptive.Dense`: n ``F`` rows, or F blocks in the decomposition
  mode.  An edited F is one; so is the F of a format 1 to 3 file, which
  keeps its rows or blocks when it is loaded and saved again.

Files of formats 1 to 3 still load.  Format 3 drops the
``projection_rounds`` line, which formats 1 and 2 must hold with a
positive integer.  Clusters are enumerated only through
:class:`adaptive.Partition`, built on load from the ``assignment`` and
``clusters`` lines before any block is formed.  A model with eta unset
(F frozen at 11') writes ``eta none``.
"""

import numpy as np

from .adaptive import ClosedForm, Dense, Factor, Partition
from .data import Scaler
from .errors import DataError, ParameterError
from .solver import SolverConfig, _check_epsilon
from .svm import SvmModel
from .svr import SvrModel

FORMAT_NAME = "adakern-model"
FORMAT_VERSION = 4
# Versions load_model reads; format 1 has no factor lines.
_READABLE = ("1", "2", "3", "4")


def _fmt(x: float) -> str:
    return f"{float(x):.17e}"


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v, dtype=float).ravel())


def save_model(model, path: str) -> None:
    task = "svr" if isinstance(model, SvrModel) else "svm"
    cfg = model.config
    assignment = getattr(model, "assignment", None)
    labels = np.zeros(model.X.shape[0], dtype=int) if assignment is None else assignment
    partition = Partition(labels, int(np.max(labels)) + 1)
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"task {task}",
        f"mode {getattr(model, 'mode', 'exact')}",
        f"variant {cfg.variant}",
        f"sigma {_fmt(model.sigma)}",
        f"bias {_fmt(model.bias)}",
        f"C {_fmt(cfg.C)}",
        f"tau {_fmt(cfg.tau)}",
        f"eta {'none' if cfg.eta is None else _fmt(cfg.eta)}",
        f"t_max {cfg.t_max}",
        f"tol {_fmt(cfg.tol)}",
        f"clusters {partition.n_clusters}",
        f"seed {int(model.meta.get('seed', 0))}",
        f"n {model.X.shape[0]}",
        f"d {model.X.shape[1]}",
        f"scaler_min {_fmt_vec(model.scaler.mins)}",
        f"scaler_max {_fmt_vec(model.scaler.maxs)}",
    ]
    if task == "svr":
        lines.append(f"epsilon {_fmt(model.epsilon)}")
        lines.append(f"y_scaler_min {_fmt_vec(model.y_scaler.mins)}")
        lines.append(f"y_scaler_max {_fmt_vec(model.y_scaler.maxs)}")
    lines.append(f"y {_fmt_vec(model.y)}")
    if task == "svm":
        lines.append(f"alpha {_fmt_vec(model.alpha)}")
    else:
        lines.append(f"alpha_hat {_fmt_vec(model.alpha_hat)}")
        lines.append(f"alpha_check {_fmt_vec(model.alpha_check)}")
    for row in model.X:
        lines.append(f"X {_fmt_vec(row)}")

    form = model.adaptive
    if assignment is not None:
        lines.append("assignment " + " ".join(str(int(c)) for c in assignment))
    if isinstance(form, Factor):
        lines.append(f"rank {form.W.shape[1]}")
        if form.W.shape[1]:
            lines.extend(f"W {_fmt_vec(row)}" for row in form.W)
    elif isinstance(form, Dense) and assignment is not None:
        for c, idx in enumerate(partition.clusters()):
            lines.append(f"block {c} {idx.size}")
            lines.extend(f"B {_fmt_vec(row)}" for row in form.F[np.ix_(idx, idx)])
    elif isinstance(form, Dense):
        lines.extend(f"F {_fmt_vec(row)}" for row in form.F)

    lines.append(f"meta_iterations {int(model.meta.get('iterations', 0))}")
    lines.append(f"meta_objective {_fmt(model.meta.get('objective', float('nan')))}")
    lines.append("end")
    try:
        with open(path, "w") as stream:
            stream.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DataError(f"cannot write model {path}: {exc}") from exc


# Lines every model file has besides its X and F rows (or F blocks), and
# the lines that only one task has.
_COMMON_KEYS = ("task", "mode", "variant", "sigma", "bias", "C", "tau", "eta", "t_max",
                "tol", "clusters", "seed", "n", "d", "scaler_min", "scaler_max", "y",
                "meta_iterations", "meta_objective")
_TASK_KEYS = {"svm": ("alpha",),
              "svr": ("epsilon", "y_scaler_min", "y_scaler_max", "alpha_hat", "alpha_check")}
# The line that formats 1 and 2 have and format 3 does not.
_RETIRED_KEYS = ("projection_rounds",)
_KNOWN_KEYS = set(_COMMON_KEYS + _RETIRED_KEYS).union(*_TASK_KEYS.values())
# Vector lines and the length each must have.
_VECTOR_LENGTHS = {"y": "n", "alpha": "n", "alpha_hat": "n", "alpha_check": "n",
                   "assignment": "n", "scaler_min": "d", "scaler_max": "d",
                   "y_scaler_min": 1, "y_scaler_max": 1}


def _matrix(rows, count: int, width: int, what: str) -> np.ndarray:
    """Parse the text rows of a count x width matrix of finite values in one pass."""
    # loadtxt skips blank rows, so they are counted as missing here.
    if len(rows) != count or not all(row.strip() for row in rows):
        raise DataError(f"stored {what} does not have {count} rows")
    try:
        matrix = np.loadtxt(rows, ndmin=2, comments=None) if rows else np.empty((0, 0))
    except ValueError as exc:
        raise DataError(f"stored {what} does not parse: {exc}") from exc
    if matrix.shape != (count, width):
        raise DataError(f"stored {what} is not {count} x {width}")
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"stored {what} contains non-finite values")
    return matrix


def _parse(lines):
    """Split the body lines into fields, the text of X, F and W rows, and F blocks."""
    fields: dict = {}
    rows: dict[str, list[str]] = {"X": [], "F": [], "W": []}
    blocks: dict[int, tuple[int, list[str]]] = {}
    current = None
    for line in lines:
        key, _, rest = line.partition(" ")
        try:
            if key in rows:
                rows[key].append(rest)
            elif key == "B":
                blocks[current][1].append(rest)
            elif key == "block":
                current, size = (int(t) for t in rest.split())
                if current in blocks:
                    raise ValueError("repeated block")
                blocks[current] = (size, [])
            elif key in fields:
                raise ValueError("repeated key")
            elif key in ("assignment", "rank"):
                fields[key] = np.array(rest.split(), dtype=int)
            elif key in _VECTOR_LENGTHS:
                fields[key] = np.array(rest.split(), dtype=float)
            elif key in _KNOWN_KEYS:
                fields[key] = rest
            else:
                raise ValueError("unknown key")
        except (ValueError, KeyError) as exc:
            raise DataError(f"malformed line {line[:60]!r}: {exc}") from exc
    return fields, rows, blocks


def load_model(path: str):
    """Read a model written by ``save_model``.

    Any defect in the file (wrong header or version, a missing, repeated or
    unknown key, a value that does not parse or that no solve accepts, as
    a negative epsilon, an array of the wrong length, a non-finite array
    entry, a cluster assignment that does not fit the ``clusters`` line, an
    exact-mode ``clusters`` line other than 1, no closing ``end`` line)
    raises ``DataError``.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            lines = [line for line in stream.read().splitlines() if line]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty model file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        raise DataError(f"{path}: not a model file")
    if header[1] not in _READABLE:
        raise DataError(
            f"{path}: unsupported model format version {header[1]} "
            f"(expected one of {', '.join(_READABLE)})"
        )
    if lines[-1] != "end":
        raise DataError(f"{path}: truncated model file (no closing 'end' line)")
    try:
        fields, rows, blocks = _parse(lines[1:-1])
        if header[1] == "1" and ("rank" in fields or rows["W"]):
            raise DataError("format 1 has no factor lines")
        return _build(fields, rows, blocks, header[1])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _build(fields, rows, blocks, version: str):
    """Check the parsed fields against each other and make the model."""
    task = fields.get("task")
    if task not in _TASK_KEYS:
        raise DataError(f"unknown task {task!r}")
    keys = _COMMON_KEYS + _TASK_KEYS[task] + (_RETIRED_KEYS if version in ("1", "2") else ())
    missing = [k for k in keys if k not in fields]
    if missing:
        raise DataError(f"incomplete model file, missing {', '.join(missing)}")
    extra = set(fields) - set(keys) - {"assignment", "rank"}
    if extra:
        raise DataError(f"keys {sorted(extra)} do not belong in a {task} model")
    try:
        n, d = int(fields["n"]), int(fields["d"])
        sigma, bias = float(fields["sigma"]), float(fields["bias"])
        config = SolverConfig(
            C=float(fields["C"]),
            tau=float(fields["tau"]),
            eta=None if fields["eta"] == "none" else float(fields["eta"]),
            t_max=int(fields["t_max"]),
            tol=float(fields["tol"]),
            variant=fields["variant"],
        )
        if "projection_rounds" in keys and int(fields["projection_rounds"]) < 1:
            raise ValueError(f"projection_rounds must be at least 1, got "
                             f"{fields['projection_rounds']}")
        meta = {
            "iterations": int(fields["meta_iterations"]),
            "objective": float(fields["meta_objective"]),
            "clusters": int(fields["clusters"]),
            "seed": int(fields["seed"]),
        }
        epsilon = float(fields.get("epsilon", 0.0))
        _check_epsilon(epsilon)
    except (ValueError, ParameterError) as exc:
        raise DataError(f"bad scalar value: {exc}") from exc
    if n < 1 or d < 1:
        raise DataError(f"bad sizes n = {n}, d = {d}")
    if not (sigma > 0 and np.all(np.isfinite([sigma, bias]))):
        raise DataError("sigma and bias must be finite, sigma positive")
    sizes = {"n": n, "d": d}
    for key, value in fields.items():
        if key in _VECTOR_LENGTHS:
            expected = sizes.get(_VECTOR_LENGTHS[key], _VECTOR_LENGTHS[key])
            if value.shape != (expected,):
                raise DataError(f"{key} has length {value.size}, expected {expected}")

    X = _matrix(rows["X"], n, d, "X")
    if not all(np.all(np.isfinite(v)) for k, v in fields.items() if k in _VECTOR_LENGTHS):
        raise DataError("stored arrays contain non-finite values")
    assignment = fields.get("assignment")
    mode = fields["mode"]
    if mode not in ("exact", "scalable") or (assignment is not None) != (mode == "scalable"):
        raise DataError(f"mode {mode!r} does not match the stored F")
    if assignment is not None:
        if task != "svm" or rows["F"] or rows["W"] or "rank" in fields:
            raise DataError("a cluster assignment needs an SVM model with F blocks or none")
        partition = Partition(assignment, meta["clusters"])
    elif blocks:
        raise DataError("F blocks without a cluster assignment")
    elif meta["clusters"] != 1:
        raise DataError(f"an exact-mode model has 1 cluster, the file says {meta['clusters']}")
    else:
        partition = Partition(np.zeros(n, dtype=int), 1)
    # From format 4 on, a file leaves out an F that the tau = 0 closed form gives.
    closed = int(version) >= 4 and not (rows["F"] or rows["W"] or blocks or "rank" in fields)
    if closed and (assignment is not None or config.tau == 0):
        if config.eta is None:
            raise DataError("eta none, but F is the closed form, which needs eta")
        w = (fields["y"] * fields["alpha"] if task == "svm"
             else fields["alpha_hat"] - fields["alpha_check"])
        adaptive = ClosedForm(X, w, sigma, config.eta, partition)
    elif assignment is not None:
        adaptive = Dense(partition.block_diagonal(_stored_blocks(blocks, partition)))
    else:
        W = _factor(fields.get("rank"), rows, n)
        adaptive = Dense(_matrix(rows["F"], n, n, "F")) if W is None else Factor(W)

    common = dict(X=X, y=fields["y"], adaptive=adaptive, bias=bias, sigma=sigma, config=config,
                  scaler=Scaler(mins=fields["scaler_min"], maxs=fields["scaler_max"]),
                  meta=meta)
    if task == "svm":
        return SvmModel(alpha=fields["alpha"], assignment=assignment, **common)
    return SvrModel(alpha_hat=fields["alpha_hat"], alpha_check=fields["alpha_check"],
                    epsilon=epsilon,
                    y_scaler=Scaler(mins=fields["y_scaler_min"], maxs=fields["y_scaler_max"]),
                    **common)


def _stored_blocks(blocks, partition: Partition):
    """The F blocks of a format 1 to 3 file in cluster order, checked against the partition."""
    if sorted(blocks) != list(range(partition.n_clusters)):
        raise DataError("F blocks do not match the cluster assignment")
    for c, idx in enumerate(partition.clusters()):
        size, rows = blocks[c]
        if size != idx.size:
            raise DataError(f"block {c} declares {size} rows, assignment has {idx.size}")
        yield _matrix(rows, size, size, f"block {c}")


def _factor(rank, rows, n: int):
    """The stored factor W (n x rank), or None when the file holds F rows."""
    if rank is None:
        if rows["W"]:
            raise DataError("W rows without a rank line")
        return None
    if rows["F"] or rank.shape != (1,) or rank[0] < 0:
        raise DataError("a factor needs one non-negative rank and no F rows")
    if rank[0] == 0 and not rows["W"]:
        return np.zeros((n, 0))
    return _matrix(rows["W"], n, int(rank[0]), "W")
