"""Operator surface: seeded, file-based subcommands over the library.

Every run writes its resolved configuration as JSON next to its outputs;
re-feeding that file through ``--config`` reproduces the run bit for bit.
Exit codes: 0 success, 1 domain error (bad inputs, failed run), 2 usage
error.  The GAPCRAFT_LOG environment variable (quiet|info|debug) controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import bound, lipschitz, models, pipeline, synthtasks
from .lipschitz import LipschitzConfig
from .numgrad import GapcraftError
from .pipeline import PipelineConfig, RunLog
from .synthtasks import TaskSpec
from .transport import SinkhornConfig

log = logging.getLogger("gapcraft")

# the task bundle's splits, one CSV file each
SPLITS = ("source", "proxy", "target", "target_test")
# the bound report's stacked segments, one bars.csv column each
BARS = ("err_s", "fa", "e_fld", "e_tf", "rhs", "err_tau", "gap", "relative_gap")
# the most omega values one sweep-omega grid may hold
MAX_GRID_POINTS = 10_000


class DomainError(GapcraftError, RuntimeError):
    """Invalid inputs or a failed run; maps to exit code 1."""


def _setup_logging() -> None:
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("GAPCRAFT_LOG", "info").lower()
    logging.basicConfig(
        level=levels.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV writer for reports: a header line, then one line per row."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> str:
    """Write ``payload`` as strict JSON and return the text; NaN or inf raises ValueError."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    path.write_text(text)
    return text


def _write_resolved_config(args, out: Path) -> None:
    resolved = {
        k: v for k, v in vars(args).items() if k not in ("func", "config")
    }
    resolved["subcommand"] = args.subcommand
    _write_json(out / "resolved_config.json", resolved)


def _require(path, what: str) -> Path:
    if path is None:
        raise DomainError(f"{what} is required (flag or --config entry missing)")
    p = Path(path)
    if not p.exists():
        raise DomainError(f"{what} not found: {p}")
    return p


def _target_dim(family: str, source_dim: int, target_dim: int) -> int:
    # gap_dial keeps the input space; ignore a conflicting target size
    return source_dim if family == "gap_dial" else target_dim


def _task_spec(args) -> TaskSpec:
    return TaskSpec(
        family=args.family,
        source_dim=args.source_dim,
        target_dim=_target_dim(args.family, args.source_dim, args.target_dim),
        n_classes=args.classes,
        n_target_classes=args.target_classes or args.classes,
        n_source=args.n_source,
        n_proxy=args.n_proxy,
        n_target=args.n_target,
        n_target_test=args.n_target_test,
        gap_knob=args.gap_knob,
        label_noise=args.label_noise,
        seed=args.seed,
    )


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        n0=args.n0,
        n1=args.n1,
        n2=args.n2,
        lr_fa=args.lr_fa,
        lr_fld=args.lr_fld,
        lr_predictor=args.lr_predictor,
        sinkhorn=SinkhornConfig(args.epsilon, args.sinkhorn_iters, args.sinkhorn_tol),
        lipschitz=LipschitzConfig(omega=args.omega),
        seed=args.seed,
        baseline=args.baseline,
        scale=args.scale,
    )


def _lipschitz_config(args) -> LipschitzConfig:
    return LipschitzConfig(
        omega=args.omega,
        penalty_weight=args.penalty_weight,
        epochs=args.epochs,
        lr=args.lr,
        enforcement_margin=args.enforcement_margin,
    )


def _load_bundle(data_dir: Path) -> synthtasks.TaskBundle:
    parts = []
    meta = {}
    for name in SPLITS:
        ds, m = synthtasks.load_dataset(_require(data_dir / f"{name}.csv", name))
        parts.append(ds)
        meta = m or meta
    return synthtasks.TaskBundle(*parts, meta)


def _load_models(args) -> tuple[synthtasks.TaskBundle, models.MlpParams, models.MlpParams]:
    """The task bundle of ``--data`` and the theta and source head of ``--models``."""
    bundle = _load_bundle(_require(args.data, "data directory"))
    mdir = _require(args.models, "models directory")
    theta, _ = models.load_params(_require(mdir / "theta.json", "theta checkpoint"))
    head, _ = models.load_params(_require(mdir / "source_head.json", "head checkpoint"))
    return bundle, theta, head


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args, out: Path) -> int:
    bundle = synthtasks.generate(_task_spec(args))
    for name in SPLITS:
        synthtasks.save_dataset(getattr(bundle, name), out / f"{name}.csv", bundle.meta)
    log.info("wrote task bundle to %s", out)
    return 0


def cmd_pretrain(args, out: Path) -> int:
    bundle = _load_bundle(_require(args.data, "data directory"))
    cfg = _pipeline_config(args)
    theta, head, proxy_error = pipeline.pretrain_source(bundle, cfg)
    models.save_params(theta, out / "theta.json", role="source_embedder")
    models.save_params(head, out / "source_head.json", role="source_head")
    _write_json(out / "pretrain_summary.json", {"proxy_error": proxy_error})
    log.info("pretrained source model: proxy error %.4f", proxy_error)
    return 0


def cmd_recalibrate(args, out: Path) -> int:
    bundle, theta, head = _load_models(args)
    result = lipschitz.recalibrate_head(
        head, theta, bundle.proxy.x, bundle.proxy.y, _lipschitz_config(args)
    )
    models.save_params(result.head, out / "source_head.json", role="source_head_recalibrated")
    models.save_params(theta, out / "theta.json", role="source_embedder")
    _write_json(
        out / "recalibrate_summary.json",
        {
            "initial_penalty": result.initial_penalty,
            "final_penalty": result.final_penalty,
            "penalty_history": list(result.penalty_history),
        },
    )
    return 0


def cmd_stage1(args, out: Path) -> int:
    bundle, theta, head = _load_models(args)
    cfg = _pipeline_config(args)
    phi = pipeline.init_target_embedder(bundle, theta, cfg.seed)
    phi, log1 = pipeline.stage1(
        phi, theta, head, bundle.proxy, bundle.target, cfg, bundle.target_test,
        pipeline.target_class_count(bundle),
    )
    models.save_params(phi, out / "phi.json", role="target_embedder")
    log1.to_jsonl(out / "runlog.jsonl")
    return 0


def cmd_stage2(args, out: Path) -> int:
    bundle, theta, head = _load_models(args)
    phi, _ = models.load_params(_require(args.phi, "phi checkpoint"))
    cfg = _pipeline_config(args)
    kernel = models.init_transport_head(
        phi.output_dim, head.output_dim, pipeline.target_class_count(bundle)
    )
    kernel, log2, holdout = pipeline.stage2(
        phi, head, kernel, bundle.target, cfg, bundle.target_test,
        pipeline.frozen_gap(phi, theta, head, bundle, cfg),
    )
    one_layer = models.MlpParams((models.Layer(kernel.w, kernel.b, "linear"),))
    models.save_params(one_layer, out / "kernel.json", role="transport_head")
    log2.to_jsonl(out / "runlog.jsonl")
    _write_json(out / "stage2_summary.json", {"holdout_error": holdout})
    return 0


def cmd_verify_theorem(args, out: Path) -> int:
    if args.instances < 1:
        raise DomainError(f"--instances must be at least 1, got {args.instances}")
    violations = []
    proof_violations = []
    worst_gap = float("inf")
    for seed in range(args.seed, args.seed + args.instances):
        inst = synthtasks.random_discrete_instance(seed)
        report = bound.evaluate_bound(inst)
        worst_gap = min(worst_gap, report.gap)
        if report.gap < -1e-9:
            violations.append(seed)
        terms = bound.proof_terms(inst, report)
        if (
            terms.term_a_lhs > terms.term_a_rhs + 1e-9
            or terms.term_b_lhs > terms.term_b_rhs + 1e-9
        ):
            proof_violations.append(seed)
    summary = {
        "instances": args.instances,
        "violations": len(violations),
        "violating_seeds": violations,
        "proof_term_violations": len(proof_violations),
        "worst_gap": worst_gap,
    }
    print(_write_json(out / "verify_theorem.json", summary))
    return 0 if not violations and not proof_violations else 1


def cmd_bound_report(args, out: Path) -> int:
    if args.tasks < 1:
        raise DomainError(f"--tasks must be at least 1, got {args.tasks}")
    payload = {
        f"task_{seed}": asdict(bound.evaluate_bound(synthtasks.random_discrete_instance(seed)))
        for seed in range(args.seed, args.seed + args.tasks)
    }
    text = _write_json(out / "bound_report.json", payload)
    if args.bars:
        bars = ([name, *(r[c] for c in BARS)] for name, r in payload.items())
        _write_csv(out / "bars.csv", ("task", *BARS), bars)
    print(text)
    return 0


def _parse_grid(grid: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in grid.split(":"))
    except ValueError as exc:
        raise DomainError(f"grid must be lo:hi:step, got {grid!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError(f"grid bounds and step must be finite, got {grid!r}")
    if step <= 0 or hi < lo:
        raise DomainError(f"grid must be increasing, got {grid!r}")
    # the points lo + i * step up to hi (1e-12 slack for rounding), counted first
    span = (hi - lo + 1e-12) / step
    if not span < MAX_GRID_POINTS:
        raise DomainError(f"grid {grid!r} holds more than {MAX_GRID_POINTS} points")
    return [round(lo + i * step, 12) for i in range(int(span) + 1)]


def cmd_sweep_omega(args, out: Path) -> int:
    grid = _parse_grid(args.grid)
    bundle = _load_bundle(_require(args.data, "data directory"))
    cfg = _pipeline_config(args)
    theta, head, _ = pipeline.pretrain_source(bundle, cfg)
    rows = lipschitz.sweep_omega(
        grid,
        theta,
        head,
        bundle.proxy.x,
        bundle.proxy.y,
        _lipschitz_config(args),
        seed=args.seed,
    )
    columns = ("omega", "proxy_error", "penalty_residual")
    _write_csv(out / "sweep.csv", columns, ([r[c] for c in columns] for r in rows))
    return 0


def cmd_baseline(args, out: Path) -> int:
    default = TaskSpec()
    specs = {}
    for family in args.families.split(","):
        family = family.strip()
        specs[family] = TaskSpec(
            family=family,
            target_dim=_target_dim(family, default.source_dim, default.target_dim),
        )
    cfg = _pipeline_config(args)
    rows = pipeline.run_baseline(specs, cfg, seeds=range(args.seeds))
    # wide table: one line per variant, (median, IQR) columns per task
    tasks = sorted({r["task"] for r in rows})
    cell = {(r["task"], r["variant"]): r for r in rows}
    header = ["variant", *(f"{t}_{c}" for t in tasks for c in ("median", "iqr_low", "iqr_high"))]
    stats = ("median_error", "iqr_low", "iqr_high")
    table = ([v, *(cell[t, v][c] for t in tasks for c in stats)] for v in pipeline.VARIANTS)
    _write_csv(out / "baseline.csv", header, table)
    print(_write_json(out / "baseline.json", rows))
    return 0


def cmd_correlate(args, out: Path) -> int:
    runlog = RunLog.from_jsonl(_require(args.runlog, "run log"))
    r, series = pipeline.correlate_gap_error(runlog)
    columns = ("epoch", "phase", "semantic_gap", "holdout_error")
    _write_csv(out / "gap_error_series.csv", columns, ([s[c] for c in columns] for s in series))
    print(_write_json(out / "correlation.json", {"pearson_r": r}))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# every default below is the library's: TaskSpec, PipelineConfig,
# SinkhornConfig and LipschitzConfig are the one home of each setting


def _add_task_args(p: argparse.ArgumentParser) -> None:
    spec = TaskSpec()
    p.add_argument("--family", default=spec.family, choices=synthtasks.FAMILIES)
    p.add_argument("--source-dim", type=int, default=spec.source_dim)
    p.add_argument("--target-dim", type=int, default=spec.target_dim)
    p.add_argument("--classes", type=int, default=spec.n_classes)
    # 0: as many target classes as source classes
    p.add_argument("--target-classes", type=int, default=0)
    p.add_argument("--n-source", type=int, default=spec.n_source)
    p.add_argument("--n-proxy", type=int, default=spec.n_proxy)
    p.add_argument("--n-target", type=int, default=spec.n_target)
    p.add_argument("--n-target-test", type=int, default=spec.n_target_test)
    p.add_argument("--gap-knob", type=float, default=spec.gap_knob)
    p.add_argument("--label-noise", type=float, default=spec.label_noise)


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    cfg = PipelineConfig()
    p.add_argument("--n0", type=int, default=cfg.n0)
    p.add_argument("--n1", type=int, default=cfg.n1)
    p.add_argument("--n2", type=int, default=cfg.n2)
    p.add_argument("--lr-fa", type=float, default=cfg.lr_fa)
    p.add_argument("--lr-fld", type=float, default=cfg.lr_fld)
    p.add_argument("--lr-predictor", type=float, default=cfg.lr_predictor)
    # the one omega: recalibration's bound and the alignment loss's weight
    p.add_argument("--omega", type=float, default=cfg.lipschitz.omega)
    p.add_argument("--epsilon", type=float, default=cfg.sinkhorn.epsilon)
    p.add_argument("--sinkhorn-iters", type=int, default=cfg.sinkhorn.max_iter)
    p.add_argument("--sinkhorn-tol", type=float, default=cfg.sinkhorn.tol)
    p.add_argument("--baseline", default=cfg.baseline, choices=pipeline.VARIANTS)
    p.add_argument("--scale", type=float, default=cfg.scale)


def _add_recalibrate_args(p: argparse.ArgumentParser, with_omega: bool = True) -> None:
    lip = LipschitzConfig()
    if with_omega:
        p.add_argument("--omega", type=float, default=lip.omega)
    p.add_argument("--penalty-weight", type=float, default=lip.penalty_weight)
    p.add_argument("--epochs", type=int, default=lip.epochs)
    p.add_argument("--lr", type=float, default=lip.lr)
    p.add_argument("--enforcement-margin", type=float, default=lip.enforcement_margin)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcraft",
        description="Cross-modal transfer calculus: solvers, bound checks, pipeline.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="resolved-config JSON to re-run")

    p = sub.add_parser("gen", help="generate a synthetic task bundle")
    common(p)
    _add_task_args(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pretrain", help="train the source embedder and head")
    common(p)
    p.add_argument("--data", default=None)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("recalibrate", help="Lipschitz-recalibrate the source head")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--models", default=None)
    _add_recalibrate_args(p)
    p.set_defaults(func=cmd_recalibrate)

    p = sub.add_parser("stage1", help="learn the target embedder (alignment + distortion)")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--models", default=None)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_stage1)

    p = sub.add_parser("stage2", help="fit the transport-head target predictor")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--models", default=None)
    p.add_argument("--phi", default=None)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_stage2)

    p = sub.add_parser("bound-report", help="decomposition reports on exact tasks")
    common(p)
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument("--bars", action="store_true")
    p.set_defaults(func=cmd_bound_report)

    p = sub.add_parser("verify-theorem", help="brute-force the bound on random instances")
    common(p)
    p.add_argument("--instances", type=int, default=1000)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("sweep-omega", help="recalibration sweep over omega candidates")
    common(p)
    p.add_argument("--data", default=None)
    p.add_argument("--grid", default="0.1:1.0:0.1")
    _add_pipeline_args(p)
    _add_recalibrate_args(p, with_omega=False)
    p.set_defaults(func=cmd_sweep_omega)

    p = sub.add_parser("baseline", help="compare recraft, fa_only, and nft")
    common(p)
    p.add_argument("--families", default="rotated,permuted_labels")
    p.add_argument("--seeds", type=int, default=5)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("correlate", help="gap-versus-error correlation from a run log")
    common(p)
    p.add_argument("--runlog", default=None)
    p.set_defaults(func=cmd_correlate)

    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser):
    """Parse argv, letting a --config JSON provide defaults for its subcommand.

    The stored values are parsed as flags ahead of argv, so argparse checks
    each against its flag's type and choices, and a flag given in argv,
    abbreviated or not, comes later and wins.  A null (or a false switch)
    leaves its flag at the default.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    path = _require(args.config, "config file")
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"config file {path} is not readable JSON: {exc}") from exc
    if not isinstance(stored, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    stored.pop("subcommand", None)
    flags = []
    for key, value in stored.items():
        flag = "--" + key.replace("_", "-")
        if value is None or value is False:
            continue
        if value is True:
            flags.append(flag)
        elif isinstance(value, (str, int, float)):
            flags.append(f"{flag}={value}")
        else:
            raise DomainError(f"config file {path}: {key} holds {value!r}, not a flag value")
    return parser.parse_args([argv[0], *flags, *argv[1:]])


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    # the one subcommand boundary: each cmd_* gets its created output
    # directory; the resolved config follows every return, and a raised
    # error leaves none
    try:
        args = _apply_config_file(argv, parser)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code = args.func(args, out)
        _write_resolved_config(args, out)
    except SystemExit as exc:  # argparse reports usage errors on stderr
        return 2 if exc.code not in (0, None) else 0
    except (GapcraftError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
