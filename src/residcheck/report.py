"""Report construction and serialization for the analyze/simulate workflows.

JSON output keeps full double precision and a fixed key order so identical
inputs produce byte-identical files; text output rounds to 6 significant
digits for reading. p-values and confidence intervals use the normal
reference distribution throughout.
"""

from __future__ import annotations

import dataclasses
import io as _io
import json
import math
from typing import Any

import numpy as np

from . import core
from ._distributions import Z975, two_sided_p
from .dgps import GaussianPairDGP, RctLinearDGP
from .errors import ConfigError
from .io import AnalyzeConfig, GaussianDgpSpec, RctDgpSpec, SimulateConfig, load_dataset
from .misspec import measure_gaussian_bias
from .rct import residualized_estimator
from .selection import (
    ReportingRule,
    SelectionConfig,
    run_conditional_experiment,
    truncated_oracle,
)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses and numpy values to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(to_jsonable(payload), indent=2) + "\n").encode("utf-8")


def _estimate_block(estimate: float, se: float) -> dict:
    t_stat = estimate / se
    return {
        "estimate": estimate,
        "std_error": se,
        "t_stat": t_stat,
        "p_value": two_sided_p(t_stat),
        "ci_lower": estimate - Z975 * se,
        "ci_upper": estimate + Z975 * se,
    }


def build_analyze_report(config: AnalyzeConfig) -> dict:
    """Point estimates, diagnostics, and the covariate decomposition table."""
    loaded = load_dataset(config)
    cluster_ids = loaded.cluster_ids if config.covariance_mode == "cluster" else None
    # Values that overflow surface as the validation errors, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        point, sigma = residualized_estimator(loaded.data, cluster_ids=cluster_ids)
        ortho = core.orthogonality_stat(sigma, point.c_hat, point.gamma_hat)

    decomposition = [
        {
            "covariate": name,
            "lambda_k": float(point.lam[k]),
            "gamma_k": float(point.gamma_hat[k]),
            "contribution": float(point.decomposition[k]),
        }
        for k, name in enumerate(loaded.covariate_names)
    ]
    return {
        "n": loaded.data.n,
        "p_gamma": loaded.data.p_gamma,
        "columns": {
            "outcome": config.outcome,
            "treatment": config.treatment,
            "covariates": list(config.covariates),
            "cluster": config.cluster,
            "strata": config.strata,
        },
        "covariance_mode": config.covariance_mode,
        "estimates": {
            "baseline": _estimate_block(point.c_hat, sigma.se_c),
            "residualized": _estimate_block(point.c_r, sigma.se_r),
        },
        "diagnostics": {
            "informativeness": sigma.informativeness,
            "bias_reduction_factor": sigma.bias_reduction_factor,
            "variance_reduction_pct": sigma.variance_reduction_pct,
            "correction": point.correction,
            "equiv_sample_increase_pct": 100.0 * sigma.equiv_sample_increase,
            "orthogonality": to_jsonable(ortho),
        },
        "decomposition": decomposition,
    }


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def analyze_report_text(report: dict) -> str:
    out = _io.StringIO()
    out.write("Original vs. residualized estimates\n")
    out.write(f"n = {report['n']}, checks = {report['p_gamma']}, "
              f"covariance = {report['covariance_mode']}\n\n")
    out.write("Panel A. Estimates\n")
    header = f"  {'':<12}{'estimate':>12}{'std.err':>12}{'t':>10}{'p':>10}{'95% CI':>26}\n"
    out.write(header)
    for name in ("baseline", "residualized"):
        b = report["estimates"][name]
        ci = f"[{_fmt(b['ci_lower'])}, {_fmt(b['ci_upper'])}]"
        out.write(
            f"  {name:<12}{_fmt(b['estimate']):>12}{_fmt(b['std_error']):>12}"
            f"{_fmt(b['t_stat']):>10}{_fmt(b['p_value']):>10}{ci:>26}\n"
        )
    d = report["diagnostics"]
    out.write("\nPanel B. Diagnostics\n")
    out.write(f"  informativeness              {_fmt(d['informativeness'])}\n")
    out.write(f"  bias reduction factor        {_fmt(d['bias_reduction_factor'])}\n")
    out.write(f"  variance reduction (%)       {_fmt(d['variance_reduction_pct'])}\n")
    out.write(f"  correction                   {_fmt(d['correction'])}\n")
    out.write(f"  equiv. sample increase (%)   {_fmt(d['equiv_sample_increase_pct'])}\n")
    out.write(f"  orthogonality wald ({d['orthogonality']['dof']} dof)   "
              f"{_fmt(d['orthogonality']['wald_stat'])}"
              f" (p = {_fmt(d['orthogonality']['p_value'])})\n")
    if d["orthogonality"]["flagged"]:
        out.write(f"  note: {d['orthogonality']['note']}\n")
    out.write("\nCovariate contributions to the correction\n")
    out.write(f"  {'covariate':<24}{'lambda_k':>14}{'gamma_k':>14}{'lambda_k*gamma_k':>18}\n")
    for row in report["decomposition"]:
        out.write(
            f"  {row['covariate']:<24}{_fmt(row['lambda_k']):>14}"
            f"{_fmt(row['gamma_k']):>14}{_fmt(row['contribution']):>18}\n"
        )
    out.write(f"  {'total':<24}{'':>14}{'':>14}{_fmt(d['correction']):>18}\n")
    return out.getvalue()


def decomposition_csv(report: dict) -> str:
    lines = ["covariate,lambda_k,gamma_k,contribution"]
    for row in report["decomposition"]:
        lines.append(
            f"{row['covariate']},{row['lambda_k']!r},{row['gamma_k']!r},{row['contribution']!r}"
        )
    lines.append(f"total,,,{report['diagnostics']['correction']!r}")
    return "\n".join(lines) + "\n"


def analyze_report_csv(report: dict) -> str:
    """Flat section,key,value rows followed by the decomposition table."""
    lines = ["section,key,value"]
    for name in ("baseline", "residualized"):
        for key, value in report["estimates"][name].items():
            lines.append(f"estimates.{name},{key},{value!r}")
    for key in (
        "informativeness",
        "bias_reduction_factor",
        "variance_reduction_pct",
        "correction",
        "equiv_sample_increase_pct",
    ):
        lines.append(f"diagnostics,{key},{report['diagnostics'][key]!r}")
    body = "\n".join(lines) + "\n"
    return body + decomposition_csv(report)


def _dgp_from_spec(spec):
    if isinstance(spec, GaussianDgpSpec):
        return GaussianPairDGP.from_rho(spec.rho)
    if isinstance(spec, RctDgpSpec):
        return RctLinearDGP(
            tau=spec.tau,
            beta=np.asarray(spec.beta, dtype=float),
            interaction=np.asarray(spec.interaction, dtype=float),
            pi=spec.pi,
            noise_sd=spec.noise_sd,
        )
    raise ConfigError(f"unknown DGP spec {spec!r}")


def run_simulate(config: SimulateConfig, threads: int | None = None) -> dict:
    """Dispatch to the requested lab; output embeds the full config and seed.

    ``threads``, else RESID_THREADS, fixes the labs' draw pool, and a bad
    RESID_THREADS fails before any draw; with neither set, the misspec lab
    sizes it (:func:`_threads.default_workers`) and the selection lab draws
    on one worker. The output bytes do not depend on it.
    """
    dgp = _dgp_from_spec(config.dgp)
    payload: dict = {"config": to_jsonable(config)}
    if config.lab == "selection":
        rule = ReportingRule(
            kind=config.rule.kind, threshold=config.rule.threshold, coord=config.rule.coord
        )
        stats = run_conditional_experiment(
            SelectionConfig(
                dgp=dgp, rule=rule, n=config.n, reps=config.reps, seed=config.seed
            ),
            threads=threads,
        )
        payload["results"] = to_jsonable(stats)
        if isinstance(config.dgp, GaussianDgpSpec) and rule.kind == "two_sided_t":
            payload["oracle"] = to_jsonable(truncated_oracle(config.dgp.rho, rule.threshold))
    else:
        measurement = measure_gaussian_bias(
            dgp,
            config.score.lam,
            config.score.mu,
            n=config.n,
            reps=config.reps,
            seed=config.seed,
            threads=threads,
        )
        payload["results"] = to_jsonable(measurement)
    return payload


def simulate_csv(payload: dict) -> str:
    """Flatten nested simulate results into path,value rows."""
    lines = ["key,value"]

    def walk(prefix: str, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), value)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(f"{prefix}[{i}]", value)
        else:
            lines.append(f"{prefix},{node!r}")

    walk("", to_jsonable(payload))
    return "\n".join(lines) + "\n"
