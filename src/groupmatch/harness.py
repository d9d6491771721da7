"""Experiment harness: run search algorithms over dataset grids and report
the evaluation metrics (exclusion percentages, balanced divergence,
post-match p, wall time).  ``ALGORITHMS`` is the one table of algorithms
and ``_SUMMARY_COLUMNS`` the one table of summary columns.
"""

from __future__ import annotations

import csv
import itertools
import statistics
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .criteria import CriteriaSet, CriterionSpec, MatchConfig, kl_divergence
from .dataset import Dataset
from .errors import GroupMatchError
from .search import MatchResult, _default_registry
from .search import exhaustive_search, greedy_search, lookahead_search, random_search
from .stats import TestRegistry
from .synthgen import SyntheticSpec, generate_dataset

__all__ = [
    "EvalMetrics",
    "ALGORITHMS",
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
    excluded = dataset.n_subjects - int(keep.sum())
    pct_excl_intruders = recall = None
    if truth is not None:
        if isinstance(truth, Mapping):
            flags = np.array(
                [bool(truth.get(s, False)) for s in dataset.subject_ids], dtype=bool
            )
        else:
            flags = np.asarray(truth, dtype=bool)
        n_intruders = int(flags.sum())
        excl_intruders = int((flags & ~keep).sum())
        if excluded > 0:
            pct_excl_intruders = 100.0 * excl_intruders / excluded
        if n_intruders > 0:
            recall = 100.0 * excl_intruders / n_intruders

    # against the config's target, or the original group sizes without one
    counts = np.bincount(dataset.group_codes[keep], minlength=dataset.n_groups)
    sizes = dataset.group_sizes()
    bd = 0.0 if counts.min() == 0 else kl_divergence(
        counts / counts.sum(),
        sizes / sizes.sum() if config is None else config.target_vector(dataset),
    )

    post_p = min(result.p_values) if result.p_values else float("nan")
    return EvalMetrics(
        success=result.success,
        timed_out=result.timed_out,
        preserved=int(keep.sum()),
        pct_excluded_items=100.0 * excluded / dataset.n_subjects,
        pct_excluded_intruders=pct_excl_intruders,
        intruder_recall=recall,
        balanced_divergence=bd,
        post_match_p=post_p,
        r=result.r,
        n_solutions=len(result.solutions),
        evaluations=result.evaluations,
        wall_time=result.wall_time,
    )


def build_default_criteria(
    dataset: Dataset,
    alpha: float = 0.2,
    tests: Sequence[str] = ("welch_t", "anderson_darling"),
    registry: TestRegistry | None = None,
) -> CriteriaSet:
    """One criterion per (test, covariate).  A test whose arity in
    ``registry`` (the default registry if None) is two_sample is expanded to
    every group pair; a k-sample test spans all groups at once, and so does a
    name the registry lacks, which ``MatchConfig.validate_for`` then rejects."""
    registry = registry or _default_registry()
    labels = dataset.group_labels
    pairs = list(itertools.combinations(labels, 2))
    specs = []
    for name in tests:
        two_sample = name in registry and registry.get(name).arity == "two_sample"
        subsets = pairs if two_sample else [labels]
        specs += [CriterionSpec(name, cov, subset, alpha)
                  for cov in dataset.covariate_names for subset in subsets]
    return CriteriaSet(tuple(specs))


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named search strategy plus config overrides for grid runs.

    ``name`` is a key of ``ALGORITHMS``: random, greedy, h3, h4 or
    exhaustive.  ``params`` may override any MatchConfig field (iterations,
    lookahead, batch_size, ...); exhaustive search also takes
    ``max_removed``, and ``run_algorithm`` refuses it on the others.
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


# Each algorithm's search, called as (dataset, config, registry, **own
# params), and the annotations of the params it takes besides MatchConfig's
# fields.  The lambdas look each search up in this module when called, so a
# caller may replace harness.greedy_search and the others (to time them).
ALGORITHMS: dict[str, tuple[Callable[..., MatchResult], dict[str, str]]] = {
    "random": (lambda d, cfg, reg: random_search(d, cfg, registry=reg), {}),
    "greedy": (lambda d, cfg, reg: greedy_search(d, cfg, registry=reg), {}),
    "h3": (lambda d, cfg, reg: lookahead_search(d, cfg, variant="h3", registry=reg), {}),
    "h4": (lambda d, cfg, reg: lookahead_search(d, cfg, variant="h4", registry=reg), {}),
    "exhaustive": (
        lambda d, cfg, reg, max_removed=None: exhaustive_search(
            d, cfg, max_removed=max_removed, registry=reg
        ),
        {"max_removed": "int | None"},
    ),
}
_CONFIG_FIELDS = frozenset(f.name for f in fields(MatchConfig))


def run_algorithm(
    dataset: Dataset,
    config: MatchConfig,
    algorithm: AlgorithmSpec,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Dispatch one algorithm with its overrides applied to the config; a
    param that is neither a MatchConfig field nor the algorithm's own
    (``max_removed`` on any but exhaustive search) raises GroupMatchError."""
    if algorithm.name not in ALGORITHMS:
        raise GroupMatchError(f"unknown algorithm {algorithm.name!r}")
    search, takes = ALGORITHMS[algorithm.name]
    params = dict(algorithm.params)
    own = {k: params.pop(k) for k in takes if k in params}
    stray = sorted(params.keys() - _CONFIG_FIELDS)
    if stray:
        raise GroupMatchError(
            f"algorithm {algorithm.name!r} does not take {', '.join(map(repr, stray))}"
        )
    if params:
        config = config.with_(**params)
    return search(dataset, config, registry, **own)


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


# The summary's columns after algorithm, runs and succ%: header, the
# EvalMetrics field whose median over successful runs it shows, and format.
_SUMMARY_COLUMNS = (
    ("#sol", "n_solutions", "{:.0f}"),
    ("%E.items", "pct_excluded_items", "{:.1f}"),
    ("%E.intr", "pct_excluded_intruders", "{:.0f}"),
    ("recall%", "intruder_recall", "{:.0f}"),
    ("BD", "balanced_divergence", "{:.3f}"),
    ("p", "post_match_p", "{:.3f}"),
    ("time(s)", "wall_time", "{:.2f}"),
)


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

    def aggregate(self) -> list[dict]:
        """Per-algorithm aggregates, in order of first appearance: runs,
        success rate, and the median of each summary column over successful
        runs (failed runs have no solution to grade), None where no
        successful run has a value."""
        by_alg: dict[str, list[GridRow]] = {}
        for row in self.rows:
            by_alg.setdefault(row.algorithm, []).append(row)
        out = []
        for alg, rows in by_alg.items():
            ok = [r.metrics for r in rows if r.metrics and r.metrics.success]
            entry = {
                "algorithm": alg,
                "runs": len(rows),
                "success_rate": 100.0 * len(ok) / len(rows),
            }
            for _, name, _ in _SUMMARY_COLUMNS:
                present = [getattr(m, name) for m in ok if getattr(m, name) is not None]
                entry[name] = statistics.median(present) if present else None
            out.append(entry)
        return out

    def summary_table(self) -> str:
        """The aggregates as right-aligned text columns, "-" for None."""
        headers = ["algorithm", "runs", "succ%", *(h for h, _, _ in _SUMMARY_COLUMNS)]
        lines = [
            [
                entry["algorithm"],
                str(entry["runs"]),
                f"{entry['success_rate']:.0f}",
                *("-" if entry[name] is None else fmt.format(entry[name])
                  for _, name, fmt in _SUMMARY_COLUMNS),
            ]
            for entry in self.aggregate()
        ]
        # a report without rows still gets its header's widths
        widths = [max(map(len, column)) for column in zip(headers, *lines)]
        out = [headers, ["-" * w for w in widths], *lines]
        return "".join(
            "  ".join(c.rjust(w) for c, w in zip(cells, widths)) + "\n" for cells in out
        )


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
    builder = criteria_builder or (
        lambda d: build_default_criteria(d, registry=registry)
    )

    def run_cell(si, rep):
        spec = replace(specs[si], seed=_derived_seed(master_seed, si, rep))
        try:
            generated = generate_dataset(spec)
        except GroupMatchError as exc:
            return [GridRow(si, rep, alg.display(), 0, str(exc), None) for alg in algorithms]
        dataset = generated.dataset
        criteria = builder(dataset)
        template = base_config or MatchConfig(criteria=criteria)
        template = template.with_(criteria=criteria, time_limit=time_limit)
        rows: list[GridRow] = []
        for ai, alg in enumerate(algorithms):
            seed = _derived_seed(master_seed, si, rep, 1000 + ai)
            config = template.with_(seed=seed)
            try:
                result = run_algorithm(dataset, config, alg, registry)
                metrics = evaluate_run(dataset, result, generated.intruder_flags, config)
                error = None
                if result.timed_out:
                    metrics = replace(metrics, success=False)
            except GroupMatchError as exc:
                metrics = None
                error = f"{type(exc).__name__}: {exc}"
            rows.append(GridRow(si, rep, alg.display(), seed, error, metrics))
        return rows

    rows = [
        row
        for si in range(len(specs))
        for rep in range(replications)
        for row in run_cell(si, rep)
    ]
    return GridReport(rows=rows, replications=replications, master_seed=master_seed)
