"""Command-line interface: run, compare, validate, demo.

Exit codes: 0 success, 1 validation error, 2 runtime invariant violation,
3 I/O error. The only filesystem writes go to the --out directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .engine import SchedulingError
from .jsonl import _ENCODE_INDENTED
from .ledger import LedgerError
from .metrics import ComparisonError, KpiReport, compare_runs
from .scenario import (
    Scenario,
    ScenarioError,
    _read_text,
    case_study_scenario,
    load_scenario,
    save_scenario,
)
from .simulation import run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _apply_overrides(
    scenario: Scenario,
    seed: int | None,
    horizon: float | None,
    mode: str | None,
) -> Scenario:
    changes: dict = {}
    if seed is not None:
        changes["seed"] = seed
    if horizon is not None:
        changes["horizon_hours"] = horizon
    if mode is not None:
        changes.update(mode=mode, processes=None)  # rederive the toggles from the mode
    return replace(scenario, **changes) if changes else scenario


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    scenario = _apply_overrides(scenario, args.seed, args.horizon, args.mode)
    out_dir = Path(args.out) if args.out else Path(f"{scenario.name}-out")
    artifacts = run_scenario(scenario, out_dir=out_dir)
    report = artifacts.report
    print(f"run {scenario.name}: mode={scenario.mode} seed={scenario.seed} "
          f"horizon={scenario.horizon_hours}h digest={report.scenario_digest}")
    print(f"  events={len(artifacts.trace)} orders={report.total_orders} "
          f"census={ {k: v for k, v in report.census.items() if v} }")
    for name, kpis in sorted(report.actors.items()):
        if kpis.delivered_count:
            mean = kpis.mean_delivery_time
            print(f"  {name}: delivered={kpis.delivered_count} "
                  f"mean_delivery_time={mean:.3f}h")
    print(f"  artifacts written to {out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    print(f"valid: {scenario.name} digest={scenario.digests()[0]} mode={scenario.mode}")
    return EXIT_OK


def _number(text: str) -> int | float:
    """A JSON number or constant; vcsim writes none that is NaN, infinite or
    past the float range, of which ``float`` gives an infinity."""
    if not math.isfinite(float(text)):
        raise ValueError(f"number not finite or past the float range: {text}")
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _load_report(run_dir: Path) -> KpiReport:
    path = run_dir / "kpi.json"
    try:
        text = _read_text(path, "KPI report")
        data = json.loads(text, parse_float=_number, parse_int=_number, parse_constant=_number)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ScenarioError("parse", f"{path}: {exc}") from exc
    try:
        return KpiReport.from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError("parse", f"{path}: not a KPI report: {exc!r}") from exc


def cmd_compare(args: argparse.Namespace) -> int:
    scor = _load_report(Path(args.scor_dir))
    vcor = _load_report(Path(args.vcor_dir))
    comparison = compare_runs(scor, vcor)
    out_dir = Path(args.out) if args.out else Path("compare-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "comparison.json").write_text(
        _ENCODE_INDENTED(comparison) + "\n", encoding="utf-8"
    )
    csv_lines = [
        f"# topology={comparison['topology_digest']} seed={comparison['seed']}",
        "actor,metric,scor,vcor,delta,ratio",
    ]
    for actor, rows in sorted(comparison["actors"].items()):
        for metric, row in sorted(rows.items()):
            cells = [
                "" if row[k] is None else repr(row[k])
                for k in ("scor", "vcor", "delta", "ratio")
            ]
            csv_lines.append(f"{actor},{metric}," + ",".join(cells))
    (out_dir / "comparison.csv").write_text(
        "\n".join(csv_lines) + "\n", encoding="utf-8"
    )
    print(f"comparison written to {out_dir}")
    for flag, value in sorted(comparison["flags"].items()):
        print(f"  {flag}: {value}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else Path("demo")
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 42
    horizon = args.horizon if args.horizon is not None else 48.0
    for mode in ("scor", "vcor"):
        scenario = case_study_scenario(mode=mode, seed=seed, horizon_hours=horizon)
        save_scenario(scenario, out_dir / f"{mode}.yaml", demand_file="demand.csv")
    print(f"case-study scenario pair written to {out_dir}")
    print(f"  run them with: vcsim run {out_dir}/scor.yaml --out scor-run")
    print(f"                 vcsim run {out_dir}/vcor.yaml --out vcor-run")
    print(f"  then:          vcsim compare scor-run vcor-run")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcsim",
        description="Deterministic SCOR / value-chain supply chain simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--horizon", type=float, default=None, help="hours")
    run_p.add_argument("--mode", choices=("scor", "vcor"), default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=cmd_validate)

    cmp_p = sub.add_parser("compare", help="compare two finished runs")
    cmp_p.add_argument("scor_dir")
    cmp_p.add_argument("vcor_dir")
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=cmd_compare)

    demo_p = sub.add_parser("demo", help="emit the built-in case-study scenario pair")
    demo_p.add_argument("--out", default=None)
    demo_p.add_argument("--seed", type=int, default=None)
    demo_p.add_argument("--horizon", type=float, default=None)
    demo_p.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_IO if exc.code == "io" else EXIT_VALIDATION
    except ComparisonError as exc:
        print(f"error[comparison]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LedgerError, SchedulingError) as exc:
        print(f"error[invariant]: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
