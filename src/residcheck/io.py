"""CSV ingestion and run configuration for the command-line workflows."""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

import numpy as np

from .errors import (
    ConfigError,
    EmptyFile,
    InputDataError,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    WrongFieldCount,
)
from .rct import RctDataset


@contextlib.contextmanager
def named_file(path: str, verb: str) -> Iterator[None]:
    """Report an OS or decoding failure on the file the user named as InputDataError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) and err.strerror else str(err)
        raise InputDataError(f"cannot {verb} {path!r}: {reason}") from None


@dataclass(frozen=True)
class AnalyzeConfig:
    """Input file, column roles and covariance mode for the analyze workflow.

    Row indices in error messages are 1-based over data rows (the header is
    row 0).
    """

    input_path: str
    outcome: str
    treatment: str
    covariates: tuple[str, ...]
    cluster: str | None = None
    strata: str | None = None
    covariance_mode: str = "iid"

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.covariates:
            raise ConfigError("at least one covariate column is required")
        roles = [self.outcome, self.treatment, *self.covariates]
        if self.cluster is not None:
            roles.append(self.cluster)
        if self.strata is not None:
            roles.append(self.strata)
        if len(set(roles)) != len(roles):
            raise ConfigError(f"column roles must be disjoint, got {roles}")
        if self.covariance_mode not in ("iid", "cluster"):
            raise ConfigError(f"covariance mode must be iid or cluster, got {self.covariance_mode!r}")
        if self.covariance_mode == "cluster" and self.cluster is None:
            raise ConfigError("cluster covariance mode requires a cluster column")


@dataclass(frozen=True)
class LoadedDataset:
    """A loaded CSV; stratum and cluster labels are integer codes in sorted label order."""

    data: RctDataset
    covariate_names: tuple[str, ...]
    cluster_ids: np.ndarray | None = None


def _parse_numeric(token: str, row: int, column: str) -> float:
    """A numeric cell as numpy's parser reads it, or NonFiniteValue.

    The grammar is that of ``float`` on the stripped token, restricted to
    ASCII and without digit-separating underscores, which numpy rejects.
    """
    text = token.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError:
        raise NonFiniteValue(row, column, token) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, token)
    return value


def _read_header(path: str) -> tuple[list[str], int]:
    """Stripped header cells and the number of lines up to and including them."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next((row for row in reader if row), None)
        if header is None:
            raise EmptyFile(f"{path!r} has no header row")
        header_lines = reader.line_num
        if next((row for row in reader if row), None) is None:
            raise EmptyFile(f"{path!r} has a header but no data rows")
    return [cell.strip() for cell in header], header_lines


def _raise_first_error(
    config: AnalyzeConfig, width: int, index: dict[str, int], reason: str
) -> NoReturn:
    """Raise the error of the first bad cell, scanning rows as ``csv`` splits them.

    Runs only after the one-pass parse or its checks failed, and returns no
    data. Rows are numbered over non-empty data rows; within a row the
    outcome is checked first, then the treatment, then the covariates in
    config order. Should the scan find nothing (``csv`` and numpy split the
    file differently), ``reason`` is reported instead.
    """
    with open(config.input_path, newline="", encoding="utf-8-sig") as handle:
        records = (row for row in csv.reader(handle) if row)
        next(records)  # the header
        for i, record in enumerate(records, start=1):
            if len(record) != width:
                raise WrongFieldCount(i, width, len(record))
            _parse_numeric(record[index[config.outcome]], i, config.outcome)
            t_tok = record[index[config.treatment]].strip()
            if _parse_numeric(t_tok, i, config.treatment) not in (0.0, 1.0):
                raise NonBinaryTreatment(i, t_tok)
            for cov in config.covariates:
                _parse_numeric(record[index[cov]], i, cov)
    raise InputDataError(f"{config.input_path!r} could not be parsed: {reason}")


def load_dataset(config: AnalyzeConfig) -> LoadedDataset:
    """Read the CSV named in the config into a validated RctDataset.

    One ``np.loadtxt`` pass parses the file: RFC-4180 quoting, no comment
    lines, float columns for the outcome, treatment and covariates, and
    strings for the rest. Stratum and cluster labels come back as integer
    codes in sorted label order. Any parse or value error is located by
    :func:`_raise_first_error`.
    """
    with named_file(config.input_path, "read"):
        return _load_dataset(config)


def _load_dataset(config: AnalyzeConfig) -> LoadedDataset:
    header, header_lines = _read_header(config.input_path)

    index: dict[str, int] = {}
    roles = (config.outcome, config.treatment, *config.covariates, config.cluster, config.strata)
    for name in roles:
        if name is not None:
            if name not in header:
                raise MissingColumn(name)
            index[name] = header.index(name)

    numeric = [index[name] for name in (config.outcome, config.treatment, *config.covariates)]
    dtype = np.dtype(
        [(f"c{j}", "f8" if j in numeric else "O") for j in range(len(header))]
    )
    try:
        table = np.loadtxt(
            config.input_path,
            dtype=dtype,
            delimiter=",",
            quotechar='"',
            comments=None,
            skiprows=header_lines,
            encoding="utf-8-sig",
            ndmin=1,
        )
    except ValueError as err:
        _raise_first_error(config, len(header), index, str(err))
    # Label codes in sorted label order, as np.unique numbers them.
    codes = {
        name: np.unique(table[f"c{index[name]}"].astype(str), return_inverse=True)[1]
        for name in (config.strata, config.cluster)
        if name is not None
    }
    for j in set(range(len(header))) - set(numeric):
        table[f"c{j}"] = None  # free the label strings before the numbers are copied
    # Rows y, t, x_1..x_p: the covariates are a view of one contiguous block.
    columns = np.empty((len(numeric), table.shape[0]))
    for row, j in zip(columns, numeric):
        row[:] = table[f"c{j}"]
    del table
    t = columns[1]
    if not (np.isfinite(columns).all() and ((t == 0.0) | (t == 1.0)).all()):
        _raise_first_error(config, len(header), index, "a non-finite or non-binary value")

    data = RctDataset(
        outcome=columns[0],
        treatment=t,
        covariates=columns[2:].T,
        strata=codes.get(config.strata),
    )
    return LoadedDataset(
        data=data,
        covariate_names=config.covariates,
        cluster_ids=codes.get(config.cluster),
    )


@dataclass(frozen=True)
class GaussianDgpSpec:
    rho: float = 0.5


@dataclass(frozen=True)
class RctDgpSpec:
    tau: float = 1.0
    beta: tuple[float, ...] = (1.0,)
    interaction: tuple[float, ...] = (0.0,)
    pi: float = 0.5
    noise_sd: float = 1.0


@dataclass(frozen=True)
class RuleSpec:
    kind: str = "two_sided_t"
    threshold: float = 1.96
    coord: int = 0


@dataclass(frozen=True)
class ScoreSpec:
    """Worst-case score at a coefficient choice: optimal, zero, or a number."""

    lam: str | float = "optimal"
    mu: float = 1.0


@dataclass(frozen=True)
class SimulateConfig:
    """Seeded lab run; reproducibility is mandatory, so the seed is required."""

    lab: str
    n: int
    reps: int
    seed: int
    dgp: GaussianDgpSpec | RctDgpSpec = field(default_factory=GaussianDgpSpec)
    rule: RuleSpec = field(default_factory=RuleSpec)
    score: ScoreSpec = field(default_factory=ScoreSpec)

    def __post_init__(self):
        if self.lab not in ("selection", "misspec"):
            from .errors import UnknownLab

            raise UnknownLab(f"lab must be selection or misspec, got {self.lab!r}")
        if self.n < 50:
            raise ConfigError(f"n must be at least 50, got {self.n}")
        if self.reps < 1000:
            raise ConfigError(f"reps must be at least 1000, got {self.reps}")
        if self.seed is None:
            raise ConfigError("a seed is required for reproducibility")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        mu, lam = float(self.score.mu), self.score.lam
        if not 0.0 <= mu < math.inf:
            raise ConfigError(f"mu must be finite and at least 0, got {mu}")
        if lam not in ("optimal", "zero") and not (
            isinstance(lam, (int, float)) and math.isfinite(lam)
        ):
            raise ConfigError(f"lambda must be 'optimal', 'zero' or a finite number, got {lam!r}")
        threshold = float(self.rule.threshold)
        if self.lab == "selection" and not (math.isfinite(threshold) and threshold > 0.0):
            # A built-in rule with such a threshold passes always or never.
            raise ConfigError(f"rule threshold must be positive and finite, got {threshold}")
        if self.lab == "misspec" and not isinstance(self.dgp, GaussianDgpSpec):
            raise ConfigError("the misspec lab runs on the gaussian DGP only")
