"""Experiment harness: run search algorithms over dataset grids and report
the evaluation metrics (exclusion percentages, balanced divergence,
post-match p, wall time).
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .criteria import CriteriaSet, CriterionSpec, MatchConfig, kl_divergence
from .dataset import Dataset
from .errors import GroupMatchError
from .search import (
    MatchResult,
    exhaustive_search,
    greedy_search,
    lookahead_search,
    random_search,
)
from .stats import TestRegistry
from .synthgen import SyntheticSpec, generate_dataset

__all__ = [
    "EvalMetrics",
    "AlgorithmSpec",
    "GridRow",
    "GridReport",
    "build_default_criteria",
    "run_algorithm",
    "evaluate_run",
    "run_experiment_grid",
]


@dataclass(frozen=True)
class EvalMetrics:
    """Quality metrics for one search run.

    ``pct_excluded_intruders`` is the share of *excluded items* that were
    intruders; ``intruder_recall`` is the share of *all intruders* that got
    excluded.  Both are None when ground truth is unavailable (and the
    former also when nothing was excluded).
    """

    success: bool
    timed_out: bool
    preserved: int
    pct_excluded_items: float
    pct_excluded_intruders: float | None
    intruder_recall: float | None
    balanced_divergence: float
    post_match_p: float
    r: float
    n_solutions: int
    evaluations: int
    wall_time: float


def evaluate_run(
    dataset: Dataset,
    result: MatchResult,
    truth=None,
    config: MatchConfig | None = None,
) -> EvalMetrics:
    """Metrics for a result's best solution; intruder metrics only when
    ground-truth flags are supplied (bool array by row, or id -> bool map)."""
    keep = result.best.keep
    n = dataset.n_subjects
    excluded = n - int(keep.sum())
    pct_excluded = 100.0 * excluded / n

    pct_excl_intruders = None
    recall = None
    if truth is not None:
        if isinstance(truth, Mapping):
            flags = np.array(
                [bool(truth.get(s, False)) for s in dataset.subject_ids], dtype=bool
            )
        else:
            flags = np.asarray(truth, dtype=bool)
        excluded_mask = ~keep
        n_intruders = int(flags.sum())
        excl_intruders = int((flags & excluded_mask).sum())
        if excluded > 0:
            pct_excl_intruders = 100.0 * excl_intruders / excluded
        if n_intruders > 0:
            recall = 100.0 * excl_intruders / n_intruders

    counts = np.bincount(dataset.group_codes[keep], minlength=dataset.n_groups)
    if config is not None and counts.min() > 0:
        observed = counts / counts.sum()
        bd = kl_divergence(observed, config.target_vector(dataset))
    else:
        bd = 0.0 if counts.min() == 0 else _bd_against_original(dataset, counts)

    post_p = min(result.p_values) if result.p_values else float("nan")
    return EvalMetrics(
        success=result.success,
        timed_out=result.timed_out,
        preserved=int(keep.sum()),
        pct_excluded_items=pct_excluded,
        pct_excluded_intruders=pct_excl_intruders,
        intruder_recall=recall,
        balanced_divergence=bd,
        post_match_p=post_p,
        r=result.r,
        n_solutions=len(result.solutions),
        evaluations=result.evaluations,
        wall_time=result.wall_time,
    )


def _bd_against_original(dataset: Dataset, counts: np.ndarray) -> float:
    sizes = dataset.group_sizes().astype(float)
    return kl_divergence(counts / counts.sum(), sizes / sizes.sum())


def build_default_criteria(
    dataset: Dataset,
    alpha: float = 0.2,
    tests: Sequence[str] = ("welch_t", "anderson_darling"),
) -> CriteriaSet:
    """One criterion per (test, covariate).  Two-sample tests are expanded
    to every group pair; k-sample tests span all groups at once."""
    two_sample = {"welch_t"}
    specs = []
    labels = dataset.group_labels
    for name in tests:
        for cov in dataset.covariate_names:
            if name in two_sample and len(labels) > 2:
                for i in range(len(labels)):
                    for j in range(i + 1, len(labels)):
                        specs.append(
                            CriterionSpec(name, cov, (labels[i], labels[j]), alpha)
                        )
            else:
                specs.append(CriterionSpec(name, cov, labels, alpha))
    return CriteriaSet(tuple(specs))


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named search strategy plus config overrides for grid runs.

    ``name`` is one of random, greedy, h3, h4, exhaustive.  ``params`` may
    override any MatchConfig field (iterations, lookahead, batch_size, ...)
    plus ``max_removed`` for exhaustive search.
    """

    name: str
    params: dict = field(default_factory=dict)
    label: str | None = None

    def display(self) -> str:
        if self.label:
            return self.label
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


def run_algorithm(
    dataset: Dataset,
    config: MatchConfig,
    algorithm: AlgorithmSpec,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Dispatch one algorithm with its overrides applied to the config."""
    params = dict(algorithm.params)
    max_removed = params.pop("max_removed", None)
    if params:
        config = config.with_(**params)
    name = algorithm.name
    if name == "random":
        return random_search(dataset, config, registry=registry)
    if name == "greedy":
        return greedy_search(dataset, config, registry=registry)
    if name in ("h3", "h4"):
        return lookahead_search(dataset, config, variant=name, registry=registry)
    if name == "exhaustive":
        return exhaustive_search(
            dataset, config, max_removed=max_removed, registry=registry
        )
    raise GroupMatchError(f"unknown algorithm {name!r}")


@dataclass(frozen=True)
class GridRow:
    spec_index: int
    replicate: int
    algorithm: str
    seed: int
    error: str | None
    metrics: EvalMetrics | None

    def as_record(self) -> dict:
        """The row as CSV cells, one per column of ``rows.csv``; a row
        without metrics reads 0 for its flags and empty for the rest."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        metrics = record.pop("metrics")
        for f in fields(EvalMetrics):
            default = False if f.type == "bool" else None
            record[f.name] = getattr(metrics, f.name, default)
        return {name: _csv_cell(value) for name, value in record.items()}


_COLUMNS = [f.name for f in fields(GridRow) if f.name != "metrics"] + [
    f.name for f in fields(EvalMetrics)
]


def _csv_cell(value):
    """Flags as 0/1, floats by ``repr``, None as empty; counts and text as
    they are."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


@dataclass
class GridReport:
    rows: list[GridRow]
    replications: int
    master_seed: int

    def write_rows_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row.as_record())

    def aggregate(self, center: str = "median") -> list[dict]:
        """Per-algorithm aggregates; exclusion/balance/p statistics are
        taken over successful runs (failed runs have no solution to grade)."""
        if center == "median":
            middle = statistics.median
        elif center == "mean":
            middle = statistics.fmean
        else:
            raise ValueError(f"unknown center {center!r}")
        by_alg: dict[str, list[GridRow]] = {}
        order: list[str] = []
        for row in self.rows:
            if row.algorithm not in by_alg:
                order.append(row.algorithm)
            by_alg.setdefault(row.algorithm, []).append(row)
        out = []
        for alg in order:
            rows = by_alg[alg]
            ok = [r.metrics for r in rows if r.metrics and r.metrics.success]
            entry = {
                "algorithm": alg,
                "runs": len(rows),
                "success_rate": 100.0 * len(ok) / len(rows),
            }
            for name in (
                "n_solutions",
                "pct_excluded_items",
                "pct_excluded_intruders",
                "intruder_recall",
                "balanced_divergence",
                "post_match_p",
                "wall_time",
            ):
                present = [getattr(m, name) for m in ok]
                present = [v for v in present if v is not None]
                entry[name] = middle(present) if present else None
            out.append(entry)
        return out

    def summary_table(self, center: str = "median") -> str:
        headers = [
            "algorithm",
            "runs",
            "succ%",
            "#sol",
            "%E.items",
            "%E.intr",
            "recall%",
            "BD",
            "p",
            "time(s)",
        ]
        lines = []
        for entry in self.aggregate(center):
            lines.append(
                [
                    entry["algorithm"],
                    str(entry["runs"]),
                    f"{entry['success_rate']:.0f}",
                    _cell(entry["n_solutions"], "{:.0f}"),
                    _cell(entry["pct_excluded_items"], "{:.1f}"),
                    _cell(entry["pct_excluded_intruders"], "{:.0f}"),
                    _cell(entry["intruder_recall"], "{:.0f}"),
                    _cell(entry["balanced_divergence"], "{:.3f}"),
                    _cell(entry["post_match_p"], "{:.3f}"),
                    _cell(entry["wall_time"], "{:.2f}"),
                ]
            )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in lines)) if lines else len(headers[i])
            for i in range(len(headers))
        ]
        def fmt_row(cells):
            return "  ".join(c.rjust(widths[i]) for i, c in enumerate(cells))
        out = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
        out.extend(fmt_row(row) for row in lines)
        return "\n".join(out) + "\n"


def _cell(value, fmt: str) -> str:
    return "-" if value is None else fmt.format(value)


def _derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def run_experiment_grid(
    specs: Sequence[SyntheticSpec],
    algorithms: Sequence[AlgorithmSpec],
    replications: int,
    master_seed: int,
    *,
    criteria_builder: Callable[[Dataset], CriteriaSet] | None = None,
    base_config: MatchConfig | None = None,
    registry: TestRegistry | None = None,
    workers: int = 1,
    time_limit: float | None = None,
) -> GridReport:
    """Run every algorithm on every (spec, replicate) dataset.

    Each replicate regenerates its dataset under a seed derived from the
    master seed, so the whole grid is reproducible.  Individual run
    failures become unsuccessful rows; they never abort the grid.  Cells
    run one after another: ``workers`` is accepted and does not change a
    result, as a thread pool over cells ran slower than one thread.
    """
    if not specs or not algorithms:
        raise GroupMatchError("specs and algorithms must be nonempty")
    if replications < 1:
        raise GroupMatchError("replications must be >= 1")
    builder = criteria_builder or build_default_criteria

    cells = [
        (si, rep)
        for si in range(len(specs))
        for rep in range(replications)
    ]

    def run_cell(cell):
        si, rep = cell
        spec = replace(specs[si], seed=_derived_seed(master_seed, si, rep))
        rows: list[GridRow] = []
        try:
            generated = generate_dataset(spec)
        except GroupMatchError as exc:
            for alg in algorithms:
                rows.append(GridRow(si, rep, alg.display(), 0, str(exc), None))
            return rows
        dataset = generated.dataset
        criteria = builder(dataset)
        template = base_config or MatchConfig(criteria=criteria)
        template = template.with_(criteria=criteria, time_limit=time_limit)
        for ai, alg in enumerate(algorithms):
            seed = _derived_seed(master_seed, si, rep, 1000 + ai)
            config = template.with_(seed=seed)
            try:
                result = run_algorithm(dataset, config, alg, registry)
                metrics = evaluate_run(
                    dataset, result, generated.intruder_flags, config
                )
                error = None
                if result.timed_out:
                    metrics = replace(metrics, success=False)
            except GroupMatchError as exc:
                metrics = None
                error = f"{type(exc).__name__}: {exc}"
            rows.append(GridRow(si, rep, alg.display(), seed, error, metrics))
        return rows

    rows = [row for cell in cells for row in run_cell(cell)]
    return GridReport(rows=rows, replications=replications, master_seed=master_seed)
