"""The four benchmark workloads: inputs from a seed, one operation, its check.

Each workload is a closed loop in which one client runs the same operation
back to back. ``prepare`` runs in the orchestrating process and writes
everything an operation needs (including the expected values its output is
checked against) into a JSON-able spec; ``operation`` and ``check`` run in
the worker process that is timed. Input generation is never timed.

Why these four (BENCHMARK.json repeats the reasons for the three it declares):

* ``analyze_large``: the big-data path. CSV loading, within-stratum
  demeaning, cluster sums and the unreported long regression grow with n*p.
* ``selection_rct``: the same rct/covariance/core code at small n and many
  calls, where per-call overhead rather than O(n) passes dominates.
* ``selection_gaussian``: the Gaussian replicate_batch einsum path and
  selection.summarize (acceptance criterion 3's configuration). Not in
  BENCHMARK.json: at 5-6 s per operation a run holds too few operations to
  be steady within the run length the declared set can afford, and its
  layers are also measured on selection_rct. It stays runnable by name.
* ``misspec_gaussian``: the sampling-importance-resampling sampler, which
  draws 20*n rows per n rows kept.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from residcheck import report
from residcheck.dgps import RctLinearDGP
from residcheck.io import (
    AnalyzeConfig,
    GaussianDgpSpec,
    RctDgpSpec,
    RuleSpec,
    ScoreSpec,
    SimulateConfig,
)
from residcheck.selection import ReportingRule, truncated_oracle

NAMES = ("analyze_large", "selection_rct", "selection_gaussian", "misspec_gaussian")

# Coefficients of the interacted RCT that draws the analyze CSV. The first
# three match scripts/make_analyze_fixture.py; pi != 1/2 with a nonzero
# interaction makes the long and residualized coefficients differ.
_BETA = (0.5, -0.25, 0.1, 0.3, -0.2, 0.15, 0.05, -0.1, 0.25, -0.05)
_INTERACTION = (0.4, 0.0, -0.2, 0.1, 0.0, 0.3, -0.1, 0.0, 0.2, 0.0)

# Sizes per scale. "full" is the benchmark; "tiny" is for the self-test.
SIZES = {
    "full": {
        "analyze_large": {"n": 200_000, "p": 10, "strata": 40, "clusters": 2_000},
        "selection_rct": {"n": 2_000, "reps": 2_000},
        "selection_gaussian": {"n": 400, "reps": 100_000},
        "misspec_gaussian": {"n": 2_000, "reps": 1_000},
    },
    "tiny": {
        "analyze_large": {"n": 3_000, "p": 3, "strata": 4, "clusters": 60},
        "selection_rct": {"n": 200, "reps": 1_000},
        "selection_gaussian": {"n": 100, "reps": 2_000},
        "misspec_gaussian": {"n": 200, "reps": 1_000},
    },
}

# A lab result passes when it lies within this many Monte Carlo standard
# errors of its closed form.
MC_SE_TOL = 4.0
# Relative tolerance of analyze outputs against the independent recomputation.
ANALYZE_RTOL = 1e-9

_RCT_LAB = {"beta": (0.5, -0.25, 0.1), "interaction": (0.4, 0.0, -0.2), "pi": 0.4}
_WALD_95_3DOF = 7.815
_T_95 = 1.96
_RHO = 0.5


def _stream(seed: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, purpose])


def lab_seed(seed: int) -> int:
    """The seed the package receives, derived from the workload seed."""
    return int(_stream(seed, 1).generate_state(1)[0])


def prepare(name: str, seed: int, scale: str, workdir: Path) -> dict:
    """Generate the inputs of one workload and the values its output must match."""
    sizes = SIZES[scale][name]
    if name == "analyze_large":
        return _prepare_analyze(seed, sizes, workdir)
    spec = {"workload": name, "sizes": sizes, "lab_seed": lab_seed(seed)}
    if name == "selection_rct":
        rule = ReportingRule(kind="wald", threshold=_WALD_95_3DOF)
        spec["expected"] = {"pass_rate": rule.pass_probability(len(_RCT_LAB["beta"]))}
    elif name == "selection_gaussian":
        rule = ReportingRule(kind="two_sided_t", threshold=_T_95)
        spec["expected"] = {
            "pass_rate": rule.pass_probability(1),
            "cond_var_zs": truncated_oracle(_RHO, _T_95).cond_var_zs,
        }
    spec["work_units"] = sizes["reps"]
    spec["work_unit"] = "reps"
    return spec


def _prepare_analyze(seed: int, sizes: dict, workdir: Path) -> dict:
    n, p = sizes["n"], sizes["p"]
    dgp = RctLinearDGP(
        tau=1.0,
        beta=np.array(_BETA[:p]),
        interaction=np.array(_INTERACTION[:p]),
        pi=0.4,
        noise_sd=1.0,
    )
    rng = np.random.default_rng(_stream(seed, 0))
    matrix = dgp.draw_matrix(rng, n)
    cluster = rng.integers(0, sizes["clusters"], size=n)
    stratum = cluster % sizes["strata"]

    # Floats are written with repr, as scripts/make_analyze_fixture.py does,
    # so the CSV holds exactly the values the reference is computed from.
    covariates = [f"x{k + 1}" for k in range(p)]
    path = workdir / "analyze.csv"
    with open(path, "w") as handle:
        handle.write(",".join(["y", "t", *covariates, "stratum", "cluster"]) + "\n")
        handle.writelines(
            f"{row[0]!r},{int(row[1])},{','.join(map(repr, row[2:]))},s{s:02d},c{c:04d}\n"
            for row, s, c in zip(matrix.tolist(), stratum.tolist(), cluster.tolist())
        )
    return {
        "workload": "analyze_large",
        "sizes": sizes,
        "csv": str(path),
        "csv_bytes": path.stat().st_size,
        "rows": n,
        "columns": p + 4,
        "covariates": covariates,
        "expected": reference_analyze(matrix, stratum, cluster),
        "work_units": n,
        "work_unit": "rows",
    }


def _group_demean(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    counts = np.bincount(codes)
    means = np.stack(
        [np.bincount(codes, weights=values[:, j]) / counts for j in range(values.shape[1])],
        axis=1,
    )
    return values - means[codes]


def reference_analyze(matrix: np.ndarray, stratum: np.ndarray, cluster: np.ndarray) -> dict:
    """Residualized estimate recomputed with plain numpy, independent of the package.

    Within-stratum demeaning; slope and influence of each column on the
    demeaned treatment; cluster sums of the demeaned influence rows.
    """
    n = matrix.shape[0]
    centered = _group_demean(matrix, stratum)
    t_c = centered[:, 1]
    others = np.column_stack([centered[:, 0], centered[:, 2:]])
    tt = float(np.dot(t_c, t_c))
    slopes = others.T.dot(t_c) / tt
    psi = t_c[:, None] * (others - t_c[:, None] * slopes[None, :]) / (tt / n)
    psi = psi - psi.mean(axis=0)
    sums = np.stack(
        [np.bincount(cluster, weights=psi[:, j]) for j in range(psi.shape[1])], axis=1
    )
    sigma = sums.T.dot(sums) / n
    lam = np.linalg.solve(sigma[1:, 1:], sigma[0, 1:])
    c_short, gamma = float(slopes[0]), slopes[1:]
    return {
        "baseline": float(c_short),
        "baseline_se": math.sqrt(sigma[0, 0] / n),
        "residualized": c_short - float(lam @ gamma),
        "residualized_se": math.sqrt((sigma[0, 0] - float(sigma[0, 1:] @ lam)) / n),
        "gamma": gamma.tolist(),
        "lambda": lam.tolist(),
    }


def _simulate_config(spec: dict) -> SimulateConfig:
    name, sizes = spec["workload"], spec["sizes"]
    common = {"n": sizes["n"], "reps": sizes["reps"], "seed": spec["lab_seed"]}
    if name == "selection_rct":
        return SimulateConfig(
            lab="selection",
            dgp=RctDgpSpec(**_RCT_LAB),
            rule=RuleSpec(kind="wald", threshold=_WALD_95_3DOF),
            **common,
        )
    if name == "selection_gaussian":
        return SimulateConfig(
            lab="selection",
            dgp=GaussianDgpSpec(rho=_RHO),
            rule=RuleSpec(kind="two_sided_t", threshold=_T_95),
            **common,
        )
    return SimulateConfig(
        lab="misspec", dgp=GaussianDgpSpec(rho=_RHO), score=ScoreSpec(lam="optimal", mu=1.0), **common
    )


def analyze_config(spec: dict) -> AnalyzeConfig:
    return AnalyzeConfig(
        input_path=spec["csv"],
        outcome="y",
        treatment="t",
        covariates=tuple(spec["covariates"]),
        cluster="cluster",
        strata="stratum",
        covariance_mode="cluster",
    )


def operation(spec: dict):
    """The timed call: returns a function producing (payload, json bytes)."""
    if spec["workload"] == "analyze_large":
        config = analyze_config(spec)

        def op():
            payload = report.build_analyze_report(config)
            return payload, report.json_bytes(payload)

        return op
    config = _simulate_config(spec)

    def op():
        payload = report.run_simulate(config)
        return payload, report.json_bytes(payload)

    return op


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _within_se(label: str, got: float, want: float, se: float) -> list[str]:
    if abs(got - want) <= MC_SE_TOL * se:
        return []
    return [f"{label} {got!r} is {abs(got - want) / se:.2f} MC SEs from {want!r}"]


def check(spec: dict, payload: dict) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    want = spec.get("expected", {})
    name = spec["workload"]
    if name == "analyze_large":
        est = payload["estimates"]
        got = {
            "baseline": est["baseline"]["estimate"],
            "baseline_se": est["baseline"]["std_error"],
            "residualized": est["residualized"]["estimate"],
            "residualized_se": est["residualized"]["std_error"],
            "gamma": [row["gamma_k"] for row in payload["decomposition"]],
            "lambda": [row["lambda_k"] for row in payload["decomposition"]],
        }
        return [
            f"{key} {got[key]!r} differs from the recomputed {want[key]!r}"
            for key in got
            if not _rel_err(got[key], want[key]) <= ANALYZE_RTOL
        ]
    results = payload["results"]
    if name == "misspec_gaussian":
        se = math.hypot(results["mc_se"], results["predicted_se"])
        return _within_se("sqrt_n_bias", results["sqrt_n_bias"], results["predicted"], se)
    problems = _within_se(
        "pass_rate", results["pass_rate"], want["pass_rate"], results["pass_rate_se"]
    )
    if name == "selection_gaussian":
        n = spec["sizes"]["n"]
        variance = results["estimators"]["short"]["pass"]["variance"]
        problems += _within_se(
            "n * Var(c_short | pass)",
            n * variance["value"],
            want["cond_var_zs"],
            n * variance["mc_se"],
        )
    return problems


def corrupt(spec: dict, payload: dict) -> None:
    """Damage the output in place so that ``check`` must reject it (self-test)."""
    if spec["workload"] == "analyze_large":
        block = payload["estimates"]["residualized"]
        block["estimate"] += 1e-6 * abs(block["estimate"]) + 1e-12
    elif spec["workload"] == "misspec_gaussian":
        payload["results"]["sqrt_n_bias"] += 1.0
    else:
        payload["results"]["pass_rate"] += 0.5


def facts(spec: dict, payload: dict) -> dict:
    """Output values the trace reports next to its timings."""
    if spec["workload"].startswith("selection"):
        return {"pass_rate": payload["results"]["pass_rate"]}
    if spec["workload"] == "misspec_gaussian":
        return {"rows_used": spec["sizes"]["n"] * spec["sizes"]["reps"]}
    return {}
