"""Command-line interface.

Subcommands: ``analyze`` (CSV in, report out), ``simulate`` (selection or
misspecification lab), ``oracle`` (direct truncated-normal queries), and
``decompose`` (decomposition table from a saved analyze report).

Exit codes: 0 success, 2 input error, 3 numerical or statistical validation
error. Errors are emitted as one-line JSON on stderr. The labs' draw pool is
sized from the cores in the process's affinity mask and the bytes of one
worker's scratch set; no option sets it, and a narrower mask (``taskset``)
gives fewer workers. Any worker count yields byte-identical output for a
fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import ConfigError, InputDataError, ResidcheckError
from .io import (
    AnalyzeConfig,
    GaussianDgpSpec,
    RctDgpSpec,
    RuleSpec,
    ScoreSpec,
    SimulateConfig,
    named_file,
)
from .report import (
    analyze_report_csv,
    analyze_report_text,
    build_analyze_report,
    decomposition_csv,
    json_bytes,
    run_simulate,
    simulate_csv,
    to_jsonable,
)
from .selection import truncated_oracle


def _csv_floats(text: str) -> tuple[float, ...]:
    """Every comma-separated token as a float, so an empty one is refused; blank text is ()."""
    return tuple(float(tok) for tok in text.split(",")) if text.strip() else ()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors end as one-line JSON with exit 2
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="residcheck",
        description="Residualize an estimator on its diagnostic checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a CSV dataset")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--outcome", default="y")
    analyze.add_argument("--treatment", default="t")
    analyze.add_argument("--covariates", required=True, help="comma-separated column names")
    analyze.add_argument("--cluster-col", default=None)
    analyze.add_argument("--strata-col", default=None)
    analyze.add_argument("--covariance", choices=("iid", "cluster"), default=None)
    analyze.add_argument("--output", default=None)
    analyze.add_argument("--format", choices=("json", "csv", "text"), default="json")

    simulate = sub.add_parser("simulate", help="run a simulation lab")
    simulate.add_argument("--lab", required=True)
    simulate.add_argument("--dgp", choices=("gaussian", "rct"), default="gaussian")
    simulate.add_argument("--rho", type=float, default=0.5)
    simulate.add_argument("--tau", type=float, default=1.0)
    simulate.add_argument("--beta", type=_csv_floats, default=(1.0,))
    simulate.add_argument("--interaction", type=_csv_floats, default=(0.0,))
    simulate.add_argument("--pi", type=float, default=0.5)
    simulate.add_argument("--noise-sd", type=float, default=1.0)
    simulate.add_argument("--rule", choices=("two_sided_t", "wald", "max_abs"),
                          default="two_sided_t")
    simulate.add_argument("--threshold", type=float, default=1.96)
    simulate.add_argument("--coord", type=int, default=0)
    simulate.add_argument("--mu", type=float, default=1.0)
    simulate.add_argument("--lambda", dest="lam", default="optimal",
                          help="'optimal', 'zero', or a number")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--output", default=None)
    simulate.add_argument("--format", choices=("json", "csv"), default="json")

    oracle = sub.add_parser("oracle", help="truncated-normal conditional moments")
    oracle.add_argument("--rho", type=float, required=True)
    oracle.add_argument("--threshold", type=float, required=True)
    oracle.add_argument("--output", default=None)

    decompose = sub.add_parser("decompose", help="decomposition table from a saved report")
    decompose.add_argument("--input", required=True)
    decompose.add_argument("--output", default=None)
    decompose.add_argument("--format", choices=("csv", "text"), default="csv")
    return parser


def _write(payload: bytes, output: str | None) -> None:
    if output is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with named_file(output, "write"), open(output, "wb") as handle:
            handle.write(payload)


def _cmd_analyze(args) -> None:
    mode = args.covariance
    if mode is None:
        mode = "cluster" if args.cluster_col else "iid"
    config = AnalyzeConfig(
        input_path=args.input,
        outcome=args.outcome,
        treatment=args.treatment,
        covariates=tuple(tok.strip() for tok in args.covariates.split(",") if tok.strip()),
        cluster=args.cluster_col,
        strata=args.strata_col,
        covariance_mode=mode,
    )
    report = build_analyze_report(config)
    if args.format == "json":
        _write(json_bytes(report), args.output)
    elif args.format == "csv":
        _write(analyze_report_csv(report).encode("utf-8"), args.output)
    else:
        _write(analyze_report_text(report).encode("utf-8"), args.output)


def _cmd_simulate(args) -> None:
    if args.dgp == "gaussian":
        dgp = GaussianDgpSpec(rho=args.rho)
    else:
        dgp = RctDgpSpec(
            tau=args.tau,
            beta=args.beta,
            interaction=args.interaction,
            pi=args.pi,
            noise_sd=args.noise_sd,
        )
    lam = args.lam
    if lam not in ("optimal", "zero"):
        try:
            lam = float(lam)
        except ValueError:
            pass  # SimulateConfig rejects the string
    config = SimulateConfig(
        lab=args.lab,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        dgp=dgp,
        rule=RuleSpec(kind=args.rule, threshold=args.threshold, coord=args.coord),
        score=ScoreSpec(lam=lam, mu=args.mu),
    )
    payload = run_simulate(config)
    if args.format == "json":
        _write(json_bytes(payload), args.output)
    else:
        _write(simulate_csv(payload).encode("utf-8"), args.output)


def _cmd_oracle(args) -> None:
    # truncated_oracle raises DomainError (exit 3) for library callers; on the
    # command line these are input errors, as for simulate.
    if not -1.0 < args.rho < 1.0:
        raise ConfigError(f"rho must lie strictly inside (-1, 1), got {args.rho}")
    if not (math.isfinite(args.threshold) and args.threshold > 0.0):
        raise ConfigError(f"threshold must be positive and finite, got {args.threshold}")
    oracle = truncated_oracle(args.rho, args.threshold)
    payload = {"rho": args.rho, "threshold": args.threshold, **to_jsonable(oracle)}
    _write(json_bytes(payload), args.output)


_DECOMPOSITION_NUMBERS = ("lambda_k", "gamma_k", "contribution")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_decomposition(path: str) -> dict:
    """A saved analyze report, checked to hold the decomposition table and its total."""
    try:
        with named_file(path, "read"), open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except json.JSONDecodeError as err:
        raise InputDataError(f"report file is not valid JSON: {err}") from None
    rows = report.get("decomposition") if isinstance(report, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, dict)
        and isinstance(row.get("covariate"), str)
        and all(_is_number(row.get(key)) for key in _DECOMPOSITION_NUMBERS)
        for row in rows
    ):
        raise InputDataError(
            "report has no decomposition list of rows with covariate, lambda_k, "
            "gamma_k and contribution"
        )
    diagnostics = report.get("diagnostics")
    if not (isinstance(diagnostics, dict) and _is_number(diagnostics.get("correction"))):
        raise InputDataError("report has no diagnostics.correction total")
    return report


def _cmd_decompose(args) -> None:
    report = _read_decomposition(args.input)
    if args.format == "csv":
        _write(decomposition_csv(report).encode("utf-8"), args.output)
    else:
        lines = [f"{'covariate':<24}{'lambda_k':>14}{'gamma_k':>14}{'contribution':>16}"]
        for row in report["decomposition"]:
            lines.append(
                f"{row['covariate']:<24}{row['lambda_k']:>14.6g}"
                f"{row['gamma_k']:>14.6g}{row['contribution']:>16.6g}"
            )
        total = report["diagnostics"]["correction"]
        lines.append(f"{'total':<24}{'':>14}{'':>14}{total:>16.6g}")
        _write(("\n".join(lines) + "\n").encode("utf-8"), args.output)


def main(argv=None) -> int:
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "oracle": _cmd_oracle,
        "decompose": _cmd_decompose,
    }
    try:
        args = build_parser().parse_args(argv)
        handlers[args.command](args)
    except ResidcheckError as err:
        error = {"error": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps(error) + "\n")
        return 2 if isinstance(err, InputDataError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
