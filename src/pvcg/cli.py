"""Command-line interface: simulate, train, verify, surface, check-assumptions, run."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .adjustment import AnalyticAdjustment, PriorSupport
from .allocation import waterfill_applies
from .experiment import (
    ExperimentConfig,
    payment_surface,
    run_experiment,
    run_probes,
    write_report,
    write_surface,
    write_training,
)
from .learner import load_model, train
from .model import check_assumptions, load_economy, make_cost, make_valuation, bids_from_dict
from .payments import ZeroAdjustment, total_payment


def _map_method(name: str | None) -> str | None:
    if name is None:
        return None
    return {"analytic": "analytic", "gradient": "projected_gradient"}[name]


def _build_adjustment(spec: str, support, valuation, cost, method):
    if spec == "zero":
        return ZeroAdjustment()
    if spec == "analytic":
        return AnalyticAdjustment(support, valuation, cost, method=method)
    if spec.startswith("learned:"):
        model = load_model(spec.split(":", 1)[1])
        layout, want = ((s.n, s.m, s.dim) for s in (model.support, support))
        if layout != want:
            raise ValueError(f"learned model has (n, m, dim) = {layout}, expected {want}")
        return model
    raise ValueError(f"unknown adjustment {spec!r}; expected zero, analytic, or learned:PATH")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "punishment", None) is not None:
        config = replace(config, punishment=args.punishment)
    if getattr(args, "method", None) is not None:
        config = replace(config, method=_map_method(args.method))
    return config


@contextmanager
def _loading(args):
    """Report a ValueError or OSError raised while loading the inputs as one ``pvcg CMD: error:`` line, exit code 2."""
    try:
        yield
    except (ValueError, OSError) as err:
        print(f"pvcg {args.command}: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_common(p, seed: bool = True, punishment: bool = True):
    """The config flags; ``--seed`` and ``--punishment`` only on the commands that read them."""
    p.add_argument("--config", type=Path, help="experiment config JSON")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    if punishment:
        p.add_argument("--punishment", type=float, default=None, help="punishment constant P")
    p.add_argument("--method", choices=["analytic", "gradient"], default=None, help="surplus solver")


def cmd_simulate(args) -> int:
    with _loading(args):
        economy = load_economy(args.economy)
        bids = None
        if args.bids:
            with open(args.bids, "r", encoding="utf-8") as fh:
                bids = bids_from_dict(json.load(fh))
        config = _load_config(args)
        if bids is not None:
            economy.view(bids)  # the bids must have the economy's layout
        waterfill_applies(economy.valuation, economy.cost, config.method)
        support = PriorSupport.uniform_box(
            economy.n, economy.m, config.cap_bounds, config.gamma_bounds, config.theta_bounds, dim=economy.dim
        )
        adjustment = _build_adjustment(args.adjustment, support, economy.valuation, economy.cost, config.method)
    payments = total_payment(
        economy, bids=bids, adjustment=adjustment,
        punishment=config.punishment, method=config.method,
    )
    record = {
        "tau": payments.tau.tolist(),
        "adjustment": payments.adjustment.tolist(),
        "total": payments.total.tolist(),
        "utilities": payments.utilities.tolist(),
        "coalition_income": payments.coalition_income,
        "budget_slack": payments.budget_slack,
        "punished": payments.punished.tolist(),
        "surplus": payments.surplus,
        "counterfactual_surpluses": payments.counterfactual_surpluses.tolist(),
        "accepted": payments.accepted[:, 0].tolist() if economy.dim == 1 else payments.accepted.tolist(),
    }
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        write_report(args.out / "payments.json", record)
    else:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def cmd_train(args) -> int:
    with _loading(args):
        config = _load_config(args)
    valuation, cost = config.families()
    model, trace = train(valuation, cost, config.support(), config.training, method=config.method)
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    trace_path, model_path = write_training(out, model, trace)
    print(f"trained {config.n} networks: epochs={trace.epochs_run} final_loss={trace.final_loss:.6g}")
    print(f"wrote {model_path} and {trace_path}")
    return 0 if trace.final_loss <= config.training.loss_tol else 1


def cmd_verify(args) -> int:
    with _loading(args):
        config = _load_config(args)
        valuation, cost = config.families()
        adjustment = _build_adjustment(args.adjustment, config.support(), valuation, cost, config.method)
    # the kind, not the spec: a checkpoint's path must not change the report's bytes
    kind = args.adjustment.split(":", 1)[0]
    probes = run_probes(config, {kind: adjustment})
    report = {
        "adjustment": kind,
        **probes,
        "dsic": probes["dsic"][kind],
        "ir_wbb": probes["ir_wbb"][kind],
    }
    passed = all(section["passed"] for key, section in report.items() if key != "adjustment")
    report["passed"] = passed
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        write_report(args.out / "verification.json", report)
    for key, section in report.items():
        if isinstance(section, dict):
            print(f"{key}: {'pass' if section['passed'] else 'FAIL'}")
    return 0 if passed else 1


def cmd_surface(args) -> int:
    with _loading(args):
        config = _load_config(args)
        valuation, cost = config.families()
        adjustment = _build_adjustment(args.adjustment, config.support(), valuation, cost, config.method)
    record = payment_surface(
        valuation, cost, config.n, config.m, adjustment=adjustment,
        grid=config.surface, method=config.method,
    )
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    path, verdicts = write_surface(out, record)
    print(
        f"wrote {path}  monotone_x={verdicts['monotone_in_capacity']} "
        f"monotone_gamma={verdicts['monotone_in_gamma']} plateau_gap={verdicts['plateau_gap']:.3g}"
    )
    return 0


def _count(text: str) -> int:
    """An argparse type for a count: an integer of at least 1, so the error names the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_check_assumptions(args) -> int:
    with _loading(args):
        valuation = make_valuation(args.family, scale=args.scale if args.scale is not None else float(args.producers))
        cost = make_cost(args.cost_family)
        report = check_assumptions(valuation, cost, n=args.producers, samples=args.samples, seed=args.seed)
    print(json.dumps(report.summary(), indent=2))
    if not report.passed:
        witnesses = report.to_dict()["witnesses"]
        print(json.dumps({"witnesses": witnesses}, indent=2))
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    with _loading(args):
        config = _load_config(args)
    out = args.out or Path("pvcg-run")
    result = run_experiment(config, out)
    print(f"report: {out / 'report.json'}  passed={result.passed}")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pvcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="price one auction from an economy file")
    p.add_argument("--economy", type=Path, required=True, help="economy JSON")
    p.add_argument("--bids", type=Path, default=None, help="bid profile JSON (truthful when omitted)")
    p.add_argument("--adjustment", default="zero", help="zero | analytic | learned:PATH")
    _add_common(p, seed=False)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train the adjustment networks")
    _add_common(p, punishment=False)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("verify", help="run all probes; nonzero exit on any failure")
    p.add_argument("--adjustment", default="analytic", help="zero | analytic | learned:PATH")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("surface", help="payment surface over producer 0's reports")
    p.add_argument("--adjustment", default="zero", help="zero | analytic | learned:PATH")
    _add_common(p, seed=False, punishment=False)
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("check-assumptions", help="sampled structural checks of a family")
    p.add_argument("--family", default="sqrt_sum", help="sqrt_sum | sqrt_sum_squares")
    p.add_argument("--cost-family", default="linear")
    p.add_argument("--producers", type=_count, default=10)
    p.add_argument("--scale", type=float, default=None, help="synergy multiplier (default: producers)")
    p.add_argument("--samples", type=_count, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_assumptions)

    p = sub.add_parser("run", help="full pipeline: train, verify, surface, report")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
