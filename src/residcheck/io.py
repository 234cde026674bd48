"""CSV ingestion and run configuration for the command-line workflows."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptyFile,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    WrongFieldCount,
)
from .rct import RctDataset


@dataclass(frozen=True)
class AnalyzeConfig:
    """Column roles and output options for the analyze workflow.

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
    output_path: str | None = None
    report_format: str = "json"

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
        if self.report_format not in ("json", "csv", "text"):
            raise ConfigError(f"unknown report format {self.report_format!r}")


@dataclass(frozen=True)
class LoadedDataset:
    data: RctDataset
    covariate_names: tuple[str, ...]
    cluster_ids: np.ndarray | None = None


def _parse_numeric(token: str, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise NonFiniteValue(row, column, token) from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, column, token)
    return value


def load_dataset(config: AnalyzeConfig) -> LoadedDataset:
    """Read the CSV named in the config into a validated RctDataset."""
    if not os.path.exists(config.input_path):
        raise EmptyFile(f"input file {config.input_path!r} does not exist")
    with open(config.input_path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    rows = [r for r in rows if r]
    if not rows:
        raise EmptyFile(f"{config.input_path!r} has no header row")
    header = [cell.strip() for cell in rows[0]]
    records = rows[1:]
    if not records:
        raise EmptyFile(f"{config.input_path!r} has a header but no data rows")

    index: dict[str, int] = {}
    for name in (config.outcome, config.treatment, *config.covariates):
        if name not in header:
            raise MissingColumn(name)
        index[name] = header.index(name)
    for name in (config.cluster, config.strata):
        if name is not None:
            if name not in header:
                raise MissingColumn(name)
            index[name] = header.index(name)

    n = len(records)
    outcome = np.empty(n)
    treatment = np.empty(n)
    covariates = np.empty((n, len(config.covariates)))
    cluster = [] if config.cluster is not None else None
    strata = [] if config.strata is not None else None
    for i, record in enumerate(records, start=1):
        if len(record) != len(header):
            raise WrongFieldCount(i, len(header), len(record))
        outcome[i - 1] = _parse_numeric(record[index[config.outcome]], i, config.outcome)
        t_tok = record[index[config.treatment]].strip()
        t_val = _parse_numeric(t_tok, i, config.treatment)
        if t_val not in (0.0, 1.0):
            raise NonBinaryTreatment(i, t_tok)
        treatment[i - 1] = t_val
        for k, cov in enumerate(config.covariates):
            covariates[i - 1, k] = _parse_numeric(record[index[cov]], i, cov)
        if cluster is not None:
            cluster.append(record[index[config.cluster]])
        if strata is not None:
            strata.append(record[index[config.strata]])

    data = RctDataset(
        outcome=outcome,
        treatment=treatment,
        covariates=covariates,
        strata=np.asarray(strata) if strata is not None else None,
    )
    return LoadedDataset(
        data=data,
        covariate_names=config.covariates,
        cluster_ids=np.asarray(cluster) if cluster is not None else None,
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
    oversample: int = 20
    output_path: str | None = None
    report_format: str = "json"

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
        if self.lab == "misspec" and not isinstance(self.dgp, GaussianDgpSpec):
            raise ConfigError("the misspec lab runs on the gaussian DGP only")
        if self.oversample < 1:
            raise ConfigError(f"oversample must be at least 1, got {self.oversample}")
        if self.report_format not in ("json", "csv"):
            raise ConfigError(f"simulate output format must be json or csv, got {self.report_format!r}")
