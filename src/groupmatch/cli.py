"""Command-line interface.

Subcommands:
  match     — run matching algorithms on a CSV dataset per a JSON config
  simulate  — generate a synthetic dataset (CSV + intruder-truth sidecar)
  estimate  — project exhaustive-search cost from a heuristic removal bound
  evaluate  — run an experiment grid over synthetic specs and algorithms

Exit codes: 0 success, 1 usage/data error, 2 no match found.  stdout is
human-oriented; files written to the output directory are machine-oriented.
Every run writes a manifest sufficient to reproduce its outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from dataclasses import fields, replace
from functools import cmp_to_key, partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_grid_config, load_run_config, load_synthetic_spec
from .criteria import compare_solutions
from .dataset import load_dataset
from .errors import ConfigError, GroupMatchError
from .harness import (
    EvalMetrics,
    GridRow,
    build_default_criteria,
    evaluate_run,
    run_algorithm,
    run_experiment_grid,
)
from .search import MatchResult, estimate_exhaustive, format_duration
# commands look the registry up under this module name on each call, so a
# caller may replace cli._registry (for instance with a timed registry)
from .search import _default_registry as _registry
from .synthgen import generate_dataset, write_generated

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_MATCH = 2


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["versions"] = {
        "groupmatch": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _solutions_lines(result: MatchResult, dataset) -> list[str]:
    return sorted(",".join(sorted(s.kept_ids(dataset))) for s in result.solutions)


def cmd_match(args) -> int:
    run_cfg: RunConfig = load_run_config(args.config)
    match_cfg = run_cfg.match_config
    flags = {"seed": args.seed, "threads": args.threads, "eval_budget": args.budget}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if overrides:
        match_cfg = match_cfg.with_(**overrides)
    dataset = load_dataset(
        run_cfg.dataset_path, run_cfg.schema, delimiter=run_cfg.delimiter
    )
    match_cfg.validate_for(dataset, _registry())
    algorithms = run_cfg.algorithms
    if args.algorithms:
        wanted = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        algorithms = tuple(a for a in algorithms if a.name in wanted)
        if not algorithms:
            raise GroupMatchError(
                f"--algorithms {args.algorithms!r} matches none of the "
                f"configured algorithms"
            )
    out_dir = Path(args.output_dir or run_cfg.output_dir or "groupmatch-out")
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    records = []
    for alg in algorithms:
        result = run_algorithm(dataset, match_cfg, alg, _registry())
        metrics = evaluate_run(dataset, result, None, match_cfg)
        results.append((alg, result))
        records.append(
            GridRow(0, 0, alg.display(), result.seed, None, metrics).as_record()
        )
        status = "matched" if result.success else "no match"
        print(
            f"{alg.display()}: {status}, kept {result.rank.preserved}/"
            f"{dataset.n_subjects}, r={result.r:.4f}, "
            f"{len(result.solutions)} solution(s), "
            f"{result.wall_time:.2f}s"
        )

    # the best match by solution rank, else the highest r; the first wins ties
    successes = [(alg, result) for alg, result in results if result.success]
    by_rank = cmp_to_key(compare_solutions)
    if successes:
        winner_alg, winner = max(successes, key=lambda pair: by_rank(pair[1].rank))
    else:
        winner_alg, winner = max(results, key=lambda pair: pair[1].r)

    (out_dir / "solutions.txt").write_text(
        "\n".join(_solutions_lines(winner, dataset)) + "\n", encoding="utf-8"
    )
    with (out_dir / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
        # a grid row's record, less the columns that place it in a grid
        writer = csv.DictWriter(
            fh,
            ["algorithm", "seed", *(f.name for f in fields(EvalMetrics))],
            extrasaction="ignore",
            lineterminator="\n",
        )
        writer.writeheader()
        writer.writerows(records)
    (out_dir / "trace.jsonl").write_text(
        "".join(step.to_json() + "\n" for step in winner.trace), encoding="utf-8"
    )
    _write_manifest(
        out_dir,
        {
            "command": "match",
            "config_path": str(args.config),
            "config_sha256": _sha256_file(Path(args.config)),
            "dataset_sha256": _sha256_file(run_cfg.dataset_path),
            "overrides": overrides,
            "algorithms": [a.display() for a in algorithms],
            "winner": winner_alg.display(),
            "seed": match_cfg.seed,
            "success": winner.success,
        },
    )
    print(
        f"best: {winner_alg.display()} "
        f"({'matched' if winner.success else 'no match found'}); "
        f"artifacts in {out_dir}"
    )
    return EXIT_OK if winner.success else EXIT_NO_MATCH


def cmd_simulate(args) -> int:
    spec = load_synthetic_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    generated = generate_dataset(spec)
    write_generated(
        generated,
        out_dir / "dataset.csv",
        out_dir / "truth.csv",
        out_dir / "generation.json",
    )
    _write_manifest(
        out_dir,
        {
            "command": "simulate",
            "spec_path": str(args.spec),
            "spec": spec.to_json_dict(),
            "attempts": generated.info.attempts,
        },
    )
    d = generated.dataset
    print(
        f"wrote {d.n_subjects} rows ({int(generated.intruder_flags.sum())} "
        f"intruders), {d.n_covariates} covariates, groups "
        f"{ {g: len(d.group_index[g]) for g in d.group_labels} } to {out_dir}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    run_cfg = load_run_config(args.config)
    dataset = load_dataset(
        run_cfg.dataset_path, run_cfg.schema, delimiter=run_cfg.delimiter
    )
    match_cfg = run_cfg.match_config
    registry = _registry()
    match_cfg.validate_for(dataset, registry)
    estimate = estimate_exhaustive(
        dataset,
        match_cfg,
        heuristic_removals=args.removals,
        calibrated_rate=args.rate,
        registry=registry,
    )
    plural = "s" if estimate.configurations != 1 else ""
    print(f"{estimate.configurations} configuration{plural}")
    print(
        f"projected time at {estimate.rate:.0f} evaluations/second: "
        f"{format_duration(estimate.seconds)}"
    )
    print(
        f"verdict: {estimate.verdict} "
        f"({estimate.criterion_evaluations} criterion evaluations vs "
        f"budget {estimate.budget})"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    grid = load_grid_config(args.grid)
    registry = _registry()
    for name in grid.tests:
        if name not in registry:
            raise ConfigError(
                f"{args.grid}: 'tests' names unknown test {name!r}; "
                f"registered: {registry.names()}"
            )
    report = run_experiment_grid(
        grid.specs,
        grid.algorithms,
        grid.replications,
        grid.master_seed,
        criteria_builder=lambda d: build_default_criteria(
            d, alpha=grid.alpha, tests=grid.tests, registry=registry
        ),
        workers=args.workers if args.workers is not None else grid.workers,
        time_limit=grid.time_limit,
        registry=registry,
    )
    out_dir = Path(args.output_dir or grid.output_dir or "groupmatch-grid")
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_rows_csv(out_dir / "rows.csv")
    table = report.summary_table()
    (out_dir / "summary.txt").write_text(table, encoding="utf-8")
    _write_manifest(
        out_dir,
        {
            "command": "evaluate",
            "grid_path": str(args.grid),
            "grid_sha256": _sha256_file(Path(args.grid)),
            "master_seed": grid.master_seed,
            "replications": grid.replications,
        },
    )
    print(table, end="")
    print(f"raw rows in {out_dir / 'rows.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmatch",
        description=(
            "Select maximal subsets of grouped subjects or items so the "
            "groups become statistically indistinguishable on chosen "
            "covariates."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="run matching on a dataset")
    p_match.add_argument("--config", required=True, help="JSON run configuration")
    p_match.add_argument("--seed", type=int, default=None)
    p_match.add_argument("--threads", type=int, default=None,
                         help="accepted for compatibility; searches run "
                         "single-threaded")
    p_match.add_argument("--budget", type=int, default=None,
                         help="criterion-evaluation ceiling")
    p_match.add_argument("--output-dir", default=None)
    p_match.add_argument("--algorithms", default=None,
                         help="comma-separated subset of configured algorithms")
    p_match.set_defaults(func=cmd_match)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--spec", required=True, help="JSON synthetic spec")
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="project exhaustive-search cost")
    p_est.add_argument("--config", required=True, help="JSON run configuration")
    p_est.add_argument("--removals", type=int, required=True,
                       help="removal bound discovered by a heuristic")
    p_est.add_argument("--rate", type=float, default=None,
                       help="evaluations/second (measured on the dataset when omitted)")
    p_est.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", help="run an experiment grid")
    p_eval.add_argument("--grid", required=True, help="JSON grid configuration")
    p_eval.add_argument("--output-dir", default=None)
    p_eval.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; grid cells run "
                        "one after another")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GroupMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
