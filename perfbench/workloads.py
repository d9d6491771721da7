"""The four benchmark workloads.

Each workload has three parts:

* ``make_inputs(seed, workdir)`` writes the input files a user would hand
  to groupmatch and keeps, apart from the program, the description the
  checks need (``checks.Problem`` per operation, oracle answers);
* ``setup(files)`` is what ``setup_s`` measures: reading those files
  through ``load_dataset``/the config loaders and building and validating
  configs.  ``probe.py`` runs it in a fresh interpreter;
* ``Session.run_round`` runs every operation once and times it; the same
  operations on the same inputs run in every round.

An operation is one matching run: one algorithm on one dataset.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from groupmatch import cli, config as gm_config, dataset as gm_dataset, harness
from groupmatch.criteria import CriteriaSet, CriterionSpec, MatchConfig
from groupmatch.dataset import ColumnSchema
from groupmatch.stats import default_registry
from groupmatch.synthgen import SyntheticSpec

ALPHA = 0.2


@dataclass
class Outcome:
    """What one operation reported, reduced to comparable values."""

    key: str
    error: str | None
    success: bool
    solutions: tuple[tuple[str, ...], ...]   # kept ids of each reported solution
    trace: tuple[str, ...]                   # removal trace, one JSON line per removal
    excluded: int                            # rows excluded by the reported best state
    raw: dict = field(default_factory=dict)  # bytes a run wrote, compared verbatim

    def fingerprint(self) -> tuple:
        return (self.key, self.error, self.success, self.solutions, self.trace,
                self.excluded, tuple(sorted(self.raw.items())))


@dataclass
class Inputs:
    files: dict            # JSON-serialisable; all that setup() reads
    problems: dict         # operation key -> checks.Problem
    expected: dict = field(default_factory=dict)   # operation key -> oracle answer


def _write_csv(path: Path, ids, groups, values, names) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", *names])
        for s, g, row in zip(ids, groups, values):
            writer.writerow([s, g, *(repr(float(v)) for v in row)])


def _problem(ids, groups, values, criteria, **constraints):
    from checks import Criterion, Problem

    return Problem(
        ids=tuple(ids), groups=tuple(groups), values=np.asarray(values, dtype=float),
        criteria=tuple(Criterion(*c) for c in criteria), **constraints,
    )


def _outcome_from_result(key: str, dataset, result) -> Outcome:
    return Outcome(
        key=key,
        error=None,
        success=bool(result.success),
        solutions=tuple(sorted(tuple(sorted(s.kept_ids(dataset))) for s in result.solutions)),
        trace=tuple(step.to_json() for step in result.trace),
        excluded=dataset.n_subjects - result.rank.preserved,
    )


def _timed(op, span):
    with span:
        started = time.perf_counter()
        try:
            value = op()
        except Exception as exc:  # an operation that raises is a failed operation
            value = exc
        return time.perf_counter() - started, value


# ---------------------------------------------------------------------------
# subjects_pairs: clinical-shaped subjects, h3 and h4 at L=2 through the CLI
# ---------------------------------------------------------------------------

# The frozen clinical fixture of the test suite (four groups shaped like a
# 113-subject developmental-disorders corpus), rebuilt from the same recipe.
CLINICAL_SEED = 124
CLINICAL_SIZES = {"TD": 43, "ALN": 25, "ALI": 26, "SLI": 19}
CLINICAL_PROFILE = {
    "TD": ((10.0, 2.2), (105.0, 12.0), (104.0, 13.0), (2.0, 1.5)),
    "ALN": ((10.2, 2.4), (104.0, 13.0), (101.0, 14.0), (12.3, 3.5)),
    "ALI": ((10.6, 2.3), (99.0, 14.0), (90.0, 14.0), (14.0, 3.5)),
    "SLI": ((10.4, 2.1), (100.0, 12.0), (93.0, 12.0), (3.0, 1.5)),
}
CLINICAL_COLUMNS = ("age", "piq", "viq", "ados")
# One L=2 run on all 113 subjects takes ~29 s, so the workload matches the
# first ~40 % of each group (45 subjects): one run then takes about a second.
SUBJECTS_KEPT = {"TD": 17, "ALN": 10, "ALI": 10, "SLI": 8}


def clinical_subjects():
    rng = np.random.default_rng(CLINICAL_SEED)
    ids, groups, rows = [], [], []
    for g in ("TD", "ALN", "ALI", "SLI"):
        n = CLINICAL_SIZES[g]
        cols = [rng.normal(mu, sd, n) for mu, sd in CLINICAL_PROFILE[g]]
        for i in range(SUBJECTS_KEPT[g]):
            ids.append(f"{g.lower()}{i + 1:03d}")
            groups.append(g)
            rows.append([c[i] for c in cols])
    return ids, groups, np.array(rows)


def clinical_criteria():
    """All groups pairwise on age; IQ pairs (SLI,ALI) and (ALN,TD); severity
    pair (ALI,ALN) - the criteria of the test suite's clinical fixture."""
    labels = ["ALI", "ALN", "SLI", "TD"]
    out = [("welch_t", "age", (a, b)) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for cov in ("piq", "viq"):
        out += [("welch_t", cov, ("SLI", "ALI")), ("welch_t", cov, ("ALN", "TD"))]
    out.append(("welch_t", "ados", ("ALI", "ALN")))
    return out


class SubjectsPairs:
    name = "subjects_pairs"
    algorithms = ("h3", "h4")

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        ids, groups, values = clinical_subjects()
        order = np.random.default_rng(seed).permutation(len(ids))
        ids = [ids[i] for i in order]
        groups = [groups[i] for i in order]
        values = values[order]
        csv_path = workdir / "subjects.csv"
        _write_csv(csv_path, ids, groups, values, CLINICAL_COLUMNS)
        crit = clinical_criteria()
        config = {
            "dataset": {"path": str(csv_path), "id_column": "id", "group_column": "group",
                        "covariate_columns": list(CLINICAL_COLUMNS)},
            "criteria": [{"test": t, "covariate": c, "groups": list(g), "alpha": ALPHA}
                         for t, c, g in crit],
            "balance": {"mode": "precedence", "precedence": ["SLI", "ALI", "ALN", "TD"]},
            "locked_groups": ["SLI"],
            "algorithms": [{"name": a, "lookahead": 2} for a in self.algorithms],
            "search": {"threads": 1},
            "seed": seed,
        }
        config_path = workdir / "run.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        problem = _problem(
            ids, groups, values,
            [(t, CLINICAL_COLUMNS.index(c), g, ALPHA) for t, c, g in crit],
            locked=frozenset({"SLI"}),
        )
        return Inputs(
            files={"config": str(config_path), "out": str(workdir / "out")},
            problems={a: problem for a in self.algorithms},
        )

    def setup(self, files: dict) -> "SubjectsSession":
        run_cfg = gm_config.load_run_config(files["config"])
        data = gm_dataset.load_dataset(run_cfg.dataset_path, run_cfg.schema,
                                       delimiter=run_cfg.delimiter)
        run_cfg.match_config.validate_for(data, default_registry)
        return SubjectsSession(files, data.n_subjects, self.algorithms)


class SubjectsSession:
    def __init__(self, files: dict, n_subjects: int, algorithms):
        self.files = files
        self.n = n_subjects
        self.algorithms = algorithms

    def run_round(self, registry=None, span=contextlib.nullcontext) -> tuple[float, list]:
        total = 0.0
        outcomes = []
        for alg in self.algorithms:
            out_dir = Path(self.files["out"]) / alg
            args = ["match", "--config", self.files["config"], "--algorithms", alg,
                    "--output-dir", str(out_dir)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                elapsed, code = _timed(lambda: cli.main(args), span(f"op:{alg}"))
            total += elapsed
            outcomes.append(self._outcome(alg, code, out_dir, err.getvalue()))
        return total, outcomes

    def _outcome(self, alg, code, out_dir: Path, stderr: str) -> Outcome:
        if code not in (0, 2):
            error = repr(code) if isinstance(code, Exception) else f"exit {code}: {stderr.strip()}"
            return Outcome(alg, error, False, (), (), 0)
        solutions_bytes = (out_dir / "solutions.txt").read_bytes()
        trace_bytes = (out_dir / "trace.jsonl").read_bytes()
        solutions = tuple(
            tuple(line.split(",")) for line in solutions_bytes.decode().splitlines() if line
        )
        return Outcome(
            key=alg,
            error=None,
            success=code == 0,
            solutions=solutions,
            trace=tuple(trace_bytes.decode().splitlines()),
            excluded=self.n - len(solutions[0]) if solutions else 0,
            raw={"solutions.txt": solutions_bytes, "trace.jsonl": trace_bytes},
        )


# ---------------------------------------------------------------------------
# items_lazy: a few thousand items, h3 L=1 with lazy batching
# ---------------------------------------------------------------------------

# The covariates come from one fixed synthgen draw: how many batched and
# single steps a run needs varies 2-4x between draws, and a benchmark whose
# work changed with the seed could not be steady.  The seed orders the rows
# and seeds the search.
ITEMS_SPEC = dict(n_items=2000, n_intruders=400, n_covariates=2, n_shifted_covariates=2,
                  shift_range=(1.0, 1.0), basic_p_range=None, full_p_max=None, seed=5)
ITEMS_BATCH = 100


class ItemsLazy:
    name = "items_lazy"

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        from groupmatch.synthgen import generate_dataset

        generated = generate_dataset(SyntheticSpec(**ITEMS_SPEC))
        d = generated.dataset
        # plant the shifted block in one group: group A holds basic items
        # only, group B the remaining basic items and every intruder
        # (generated rows are basic items first, intruders last)
        half = d.n_subjects // 2
        groups = ["A"] * half + ["B"] * (d.n_subjects - half)
        order = np.random.default_rng(seed).permutation(d.n_subjects)
        ids = [d.subject_ids[i] for i in order]
        groups = [groups[i] for i in order]
        values = d.covariates[order]
        csv_path = workdir / "items.csv"
        _write_csv(csv_path, ids, groups, values, d.covariate_names)
        problem = _problem(
            ids, groups, values,
            [("welch_t", j, ("A", "B"), ALPHA) for j in range(d.n_covariates)],
        )
        return Inputs(
            files={"csv": str(csv_path), "covariates": list(d.covariate_names), "seed": seed},
            problems={"h3": problem},
        )

    def setup(self, files: dict) -> "DirectSession":
        schema = ColumnSchema("id", "group", tuple(files["covariates"]))
        data = gm_dataset.load_dataset(files["csv"], schema)
        criteria = CriteriaSet(tuple(
            CriterionSpec("welch_t", c, ("A", "B"), ALPHA) for c in files["covariates"]
        ))
        cfg = MatchConfig(criteria=criteria, batch_size=ITEMS_BATCH, seed=files["seed"],
                          threads=1)
        cfg.validate_for(data, default_registry)
        return DirectSession([("h3", data, cfg, harness.AlgorithmSpec("h3", {"lookahead": 1}))])


class DirectSession:
    """Operations that call ``harness.run_algorithm`` on loaded datasets."""

    def __init__(self, ops):
        self.ops = ops   # (key, dataset, config, AlgorithmSpec)

    def run_round(self, registry=None, span=contextlib.nullcontext) -> tuple[float, list]:
        total = 0.0
        outcomes = []
        for key, data, cfg, alg in self.ops:
            elapsed, result = _timed(
                lambda: harness.run_algorithm(data, cfg, alg, registry), span(f"op:{key}")
            )
            total += elapsed
            if isinstance(result, Exception):
                outcomes.append(Outcome(key, repr(result), False, (), (), 0))
            else:
                outcomes.append(_outcome_from_result(key, data, result))
        return total, outcomes


# ---------------------------------------------------------------------------
# intruder_grid: the paper's synthetic evaluation through run_experiment_grid
# ---------------------------------------------------------------------------

# The acceptance suite's master seed.  Every dataset and search seed of the
# grid derives from it; with the few cells a run affords, both the work and
# the exclusions of a grid move by 10-30 % between master seeds, so the
# master seed is fixed and the workload seed does not reach this grid.
GRID_MASTER_SEED = 2026
GRID_SPECS = [
    {"n_items": 100, "n_intruders": 10, "n_covariates": k, "n_shifted_covariates": s,
     "variance_factor_range": list(vf)}
    for k, s, vf in ((2, 2, (1.0, 10.0)), (4, 3, (1.0, 4.0)))
]
GRID_ALGORITHMS = [
    {"name": "random", "iterations": 1000, "label": "r1000"},
    {"name": "greedy", "label": "greedy"},
    {"name": "h3", "lookahead": 1, "label": "h3_L1"},
]


def default_check_criteria(n_covariates: int, labels) -> list:
    """Welch on every group pair and Anderson-Darling over all groups, for
    each covariate: the grid's default criteria, written out independently."""
    labels = sorted(labels)
    out = []
    for j in range(n_covariates):
        out += [("welch_t", j, (a, b), ALPHA) for i, a in enumerate(labels) for b in labels[i + 1:]]
    for j in range(n_covariates):
        out.append(("anderson_darling", j, tuple(labels), ALPHA))
    return out


class IntruderGrid:
    name = "intruder_grid"

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        grid = {
            "specs": GRID_SPECS,
            "algorithms": GRID_ALGORITHMS,
            "replications": 1,
            "master_seed": GRID_MASTER_SEED,
            "alpha": ALPHA,
            "tests": ["welch_t", "anderson_darling"],
            "workers": 1,
        }
        path = workdir / "grid.json"
        path.write_text(json.dumps(grid, indent=1), encoding="utf-8")
        # the datasets are generated inside the grid; problems are built
        # from the recorded datasets after each round
        return Inputs(files={"grid": str(path)}, problems={})

    def setup(self, files: dict) -> "GridSession":
        return GridSession(gm_config.load_grid_config(files["grid"]))


class GridSession:
    def __init__(self, grid):
        self.grid = grid
        self.problems: dict = {}

    def run_round(self, registry=None, span=contextlib.nullcontext) -> tuple[float, list]:
        grid = self.grid
        recorded = {}
        run_algorithm = harness.run_algorithm

        def recording(data, cfg, alg, reg=None):
            result = None
            try:
                result = run_algorithm(data, cfg, alg, reg)
                return result
            finally:
                recorded[cfg.seed] = (data, result)

        harness.run_algorithm = recording
        try:
            elapsed, report = _timed(
                lambda: harness.run_experiment_grid(
                    grid.specs, grid.algorithms, grid.replications, grid.master_seed,
                    criteria_builder=lambda d: harness.build_default_criteria(
                        d, alpha=grid.alpha, tests=grid.tests),
                    registry=registry, workers=grid.workers, time_limit=grid.time_limit,
                ),
                span("op:grid"),
            )
        finally:
            harness.run_algorithm = run_algorithm
        if isinstance(report, Exception):
            keys = [f"{si}/{rep}/{a.display()}" for si in range(len(grid.specs))
                    for rep in range(grid.replications) for a in grid.algorithms]
            return elapsed, [Outcome(k, repr(report), False, (), (), 0) for k in keys]
        outcomes = []
        for row in report.rows:
            key = f"{row.spec_index}/{row.replicate}/{row.algorithm}"
            data, result = recorded.get(row.seed, (None, None))
            if row.error or result is None:
                outcomes.append(Outcome(key, row.error or "no result", False, (), (), 0))
                continue
            outcome = _outcome_from_result(key, data, result)
            outcome.success = bool(row.metrics.success)   # a timed-out run is not a match
            outcomes.append(outcome)
            if key not in self.problems:
                self.problems[key] = _problem(
                    data.subject_ids, data.groups, data.covariates,
                    default_check_criteria(data.n_covariates, data.group_labels),
                )
        return elapsed, outcomes


# ---------------------------------------------------------------------------
# exhaustive_caps: exhaustive search under locks and caps
# ---------------------------------------------------------------------------

EXH_INSTANCES = 4
EXH_SIZES = {"A": 8, "B": 10, "C": 10}       # A is locked
EXH_GROUP_CAP = 2
EXH_TOTAL_CAP = 3
EXH_OUTLIER = 2.5
# A fixed 14-row, two-group instance whose best match removes 3 rows.  Its
# operation passes max_removed=4 over max_removed_total=1: exhaustive_search
# lets the explicit bound replace the cap and reports a match that removes
# 3 rows, against a cap of 1.  It fails on every run until the cap holds.
CAP_BUG_SEED = 3
CAP_BUG_SHIFT = 1.2
CAP_BUG_MAX_REMOVED = 4
CAP_BUG_TOTAL_CAP = 1


def _exhaustive_candidate(rng) -> tuple:
    """Three groups on two covariates; three rows of the unlocked groups
    are planted outliers, each moved by EXH_OUTLIER sd on one covariate."""
    ids, groups, rows = [], [], []
    for g, n in EXH_SIZES.items():
        block = rng.normal(0.0, 1.0, (n, 2))
        ids += [f"{g.lower()}{i:02d}" for i in range(n)]
        groups += [g] * n
        rows.append(block)
    values = np.vstack(rows)
    unlocked = [i for i, g in enumerate(groups) if g != "A"]
    for i in rng.choice(unlocked, size=EXH_TOTAL_CAP, replace=False):
        values[i, rng.integers(2)] += rng.choice([-1.0, 1.0]) * EXH_OUTLIER
    return ids, groups, values


def cap_bug_instance():
    rng = np.random.default_rng(CAP_BUG_SEED)
    values = np.concatenate([rng.normal(0, 1, 7), rng.normal(CAP_BUG_SHIFT, 1, 7)])
    ids = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
    return ids, ["A"] * 7 + ["B"] * 7, values[:, None]


class ExhaustiveCaps:
    name = "exhaustive_caps"

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        from checks import oracle_min_removals

        rng = np.random.default_rng(seed)
        labels = sorted(EXH_SIZES)
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        criteria = [("welch_t", j, p, ALPHA) for j in range(2) for p in pairs]
        caps = {"B": EXH_GROUP_CAP, "C": EXH_GROUP_CAP}
        instances, problems, expected = [], {}, {}
        while len(instances) < EXH_INSTANCES:
            ids, groups, values = _exhaustive_candidate(rng)
            problem = _problem(ids, groups, values, criteria, locked=frozenset({"A"}),
                               max_removed_per_group=caps, max_removed_total=EXH_TOTAL_CAP)
            # keep instances whose fewest matching removals reach the total
            # cap, so every instance enumerates the same removal sets
            if oracle_min_removals(problem, EXH_TOTAL_CAP) != EXH_TOTAL_CAP:
                continue
            key = f"inst{len(instances)}"
            path = workdir / f"{key}.csv"
            _write_csv(path, ids, groups, values, ("x", "y"))
            instances.append({"key": key, "csv": str(path), "covariates": ["x", "y"],
                              "criteria": [[c[1], list(c[2])] for c in criteria],
                              "locked": ["A"], "per_group": caps,
                              "total": EXH_TOTAL_CAP, "max_removed": None})
            problems[key] = problem
            expected[key] = EXH_TOTAL_CAP

        ids, groups, values = cap_bug_instance()
        path = workdir / "cap_bug.csv"
        _write_csv(path, ids, groups, values, ("x",))
        instances.append({"key": "cap_bug", "csv": str(path), "covariates": ["x"],
                          "criteria": [[0, ["A", "B"]]], "locked": [], "per_group": {},
                          "total": CAP_BUG_TOTAL_CAP, "max_removed": CAP_BUG_MAX_REMOVED})
        problems["cap_bug"] = _problem(ids, groups, values, [("welch_t", 0, ("A", "B"), ALPHA)],
                                       max_removed_total=CAP_BUG_TOTAL_CAP)
        # the cap that must hold is the smaller of the two bounds
        expected["cap_bug"] = oracle_min_removals(
            problems["cap_bug"], min(CAP_BUG_MAX_REMOVED, CAP_BUG_TOTAL_CAP))
        return Inputs(files={"instances": instances}, problems=problems, expected=expected)

    def setup(self, files: dict) -> DirectSession:
        ops = []
        for inst in files["instances"]:
            names = inst["covariates"]
            data = gm_dataset.load_dataset(inst["csv"], ColumnSchema("id", "group", tuple(names)))
            criteria = CriteriaSet(tuple(
                CriterionSpec("welch_t", names[j], tuple(g), ALPHA) for j, g in inst["criteria"]
            ))
            cfg = MatchConfig(criteria=criteria, locked_groups=frozenset(inst["locked"]),
                              max_removed_per_group=inst["per_group"],
                              max_removed_total=inst["total"], threads=1)
            cfg.validate_for(data, default_registry)
            params = {} if inst["max_removed"] is None else {"max_removed": inst["max_removed"]}
            ops.append((inst["key"], data, cfg, harness.AlgorithmSpec("exhaustive", params)))
        return DirectSession(ops)


WORKLOADS = {w.name: w for w in (SubjectsPairs(), ItemsLazy(), IntruderGrid(), ExhaustiveCaps())}
