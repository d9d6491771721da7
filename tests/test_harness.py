import csv

import numpy as np
import pytest

from groupmatch.criteria import CriteriaSet, CriterionSpec, MatchConfig, SolutionRank
from groupmatch.dataset import Dataset, SubsetState
from groupmatch.errors import GroupMatchError
from groupmatch.harness import (
    AlgorithmSpec,
    EvalMetrics,
    GridReport,
    GridRow,
    build_default_criteria,
    evaluate_run,
    run_algorithm,
    run_experiment_grid,
)
from groupmatch.search import MatchResult
from groupmatch.stats import TestRegistry, register_test, welch_t_p
from groupmatch.synthgen import SyntheticSpec

from conftest import build_two_group_dataset, welch_only_criteria


def fifty_fifty_dataset(n=100):
    rng = np.random.default_rng(1)
    return Dataset(
        [f"s{i}" for i in range(n)],
        ["A"] * (n // 2) + ["B"] * (n // 2),
        rng.normal(size=(n, 1)),
        ["x"],
    )


def manual_result(dataset, keep, r=1.5, success=True):
    state = SubsetState(keep)
    counts = state.kept_per_group(dataset)
    observed = counts / counts.sum()
    sizes = dataset.group_sizes()
    from groupmatch.criteria import kl_divergence

    balance = kl_divergence(observed, sizes / sizes.sum())
    return MatchResult(
        algorithm="manual",
        solutions=(state,),
        rank=SolutionRank(int(keep.sum()), balance, r),
        p_values=(0.3,),
        success=success,
        wall_time=0.0,
        seed=0,
        evaluations=1,
    )


class TestEvaluateRun:
    def test_nothing_excluded(self):
        d = fifty_fifty_dataset()
        cfg = MatchConfig(criteria=welch_only_criteria())
        result = manual_result(d, np.ones(100, dtype=bool))
        m = evaluate_run(d, result, None, cfg)
        assert m.pct_excluded_items == 0.0
        assert m.balanced_divergence == 0.0
        assert m.pct_excluded_intruders is None
        assert m.post_match_p == 0.3

    def test_exclusion_arithmetic(self):
        d = fifty_fifty_dataset()
        keep = np.ones(100, dtype=bool)
        keep[[3, 60]] = False
        truth = np.zeros(100, dtype=bool)
        truth[[3, 40]] = True  # one excluded intruder, one kept
        m = evaluate_run(d, manual_result(d, keep), truth, None)
        assert m.pct_excluded_items == pytest.approx(2.0)
        assert m.pct_excluded_intruders == pytest.approx(50.0)
        assert m.intruder_recall == pytest.approx(50.0)

    def test_truth_by_id_mapping(self):
        d = fifty_fifty_dataset()
        keep = np.ones(100, dtype=bool)
        keep[0] = False
        truth = {"s0": True}
        m = evaluate_run(d, manual_result(d, keep), truth, None)
        assert m.pct_excluded_intruders == pytest.approx(100.0)


class TestRunAlgorithm:
    def test_dispatch_each_name(self):
        d = build_two_group_dataset(10, 1.2, seed=3)
        cfg = MatchConfig(criteria=welch_only_criteria(), seed=2)
        for name, params in [
            ("random", {"iterations": 20}),
            ("greedy", {}),
            ("h3", {"lookahead": 1}),
            ("h4", {"lookahead": 1}),
            ("exhaustive", {"max_removed": 2}),
        ]:
            result = run_algorithm(d, cfg, AlgorithmSpec(name, params))
            assert result.algorithm
            assert result.evaluations > 0

    def test_unknown_algorithm(self):
        d = build_two_group_dataset(6, 0.5, seed=4)
        cfg = MatchConfig(criteria=welch_only_criteria())
        with pytest.raises(GroupMatchError, match="unknown algorithm"):
            run_algorithm(d, cfg, AlgorithmSpec("annealing"))

    @pytest.mark.parametrize("name", ["random", "greedy", "h3", "h4"])
    def test_max_removed_only_on_exhaustive(self, name):
        # a bound the search would not read is refused, not dropped
        d = build_two_group_dataset(20, 1.2, seed=3)
        cfg = MatchConfig(criteria=welch_only_criteria(), seed=2)
        with pytest.raises(GroupMatchError, match="'max_removed'"):
            run_algorithm(d, cfg, AlgorithmSpec(name, {"max_removed": 1}))


def grouped_dataset(n_groups, per_group=3, n_covariates=2):
    rng = np.random.default_rng(6)
    n = n_groups * per_group
    return Dataset(
        [f"s{i}" for i in range(n)],
        [g for g in "ABCD"[:n_groups] for _ in range(per_group)],
        rng.normal(size=(n, n_covariates)),
        ["x", "y"][:n_covariates],
    )


class TestDefaultCriteria:
    @pytest.mark.parametrize("n_groups", [2, 3, 4])
    def test_default_tests(self, n_groups):
        labels = tuple("ABCD"[:n_groups])
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
        want = [CriterionSpec("welch_t", cov, pair, 0.2)
                for cov in ("x", "y") for pair in pairs]
        want += [CriterionSpec("anderson_darling", cov, labels, 0.2) for cov in ("x", "y")]
        crit = build_default_criteria(grouped_dataset(n_groups))
        assert crit == CriteriaSet(tuple(want))

    def test_registered_two_sample_test_expands_to_pairs(self):
        registry = TestRegistry()
        register_test("my_t", lambda s: welch_t_p(s[0], s[1]), arity="two_sample",
                      registry=registry)
        d = grouped_dataset(3, per_group=4, n_covariates=1)
        crit = build_default_criteria(d, tests=("my_t",), registry=registry)
        assert [c.group_subset for c in crit] == [("A", "B"), ("A", "C"), ("B", "C")]
        MatchConfig(criteria=crit).validate_for(d, registry)

    def test_grid_expands_pairs_by_its_registry(self):
        registry = TestRegistry()
        register_test("my_t", lambda s: welch_t_p(s[0], s[1]), arity="two_sample",
                      registry=registry)
        report = run_experiment_grid(
            [SyntheticSpec(n_items=30, n_intruders=3, n_covariates=1,
                           n_shifted_covariates=1, group_split=(0.4, 0.3, 0.3))],
            [AlgorithmSpec("greedy")],
            replications=1,
            master_seed=3,
            criteria_builder=lambda d: build_default_criteria(
                d, tests=("my_t",), registry=registry),
            registry=registry,
        )
        assert report.rows[0].error is None

    def test_two_groups(self):
        d = build_two_group_dataset(6, 0.5, seed=5)
        crit = build_default_criteria(d, alpha=0.3)
        names = {(c.test_name, c.covariate) for c in crit}
        assert names == {("welch_t", "x"), ("anderson_darling", "x")}
        assert all(c.alpha == 0.3 for c in crit)

    def test_multi_group_expands_pairs(self):
        rng = np.random.default_rng(6)
        d = Dataset(
            [f"s{i}" for i in range(9)],
            ["A"] * 3 + ["B"] * 3 + ["C"] * 3,
            rng.normal(size=(9, 1)),
            ["x"],
        )
        crit = build_default_criteria(d)
        welch = [c for c in crit if c.test_name == "welch_t"]
        ad = [c for c in crit if c.test_name == "anderson_darling"]
        assert len(welch) == 3  # one per group pair
        assert len(ad) == 1  # k-sample across all groups
        assert ad[0].group_subset == ("A", "B", "C")


def tiny_grid_specs():
    return [
        SyntheticSpec(
            n_items=40,
            n_intruders=4,
            n_covariates=2,
            n_shifted_covariates=2,
            seed=0,
        )
    ]


class TestGrid:
    def test_single_cell_grid(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("greedy", label="h2")],
            replications=1,
            master_seed=11,
        )
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.algorithm == "h2"
        assert row.error is None
        assert row.metrics.success

    def test_replication_counts(self):
        algs = [AlgorithmSpec("greedy"), AlgorithmSpec("random", {"iterations": 10})]
        report = run_experiment_grid(
            tiny_grid_specs(), algs, replications=3, master_seed=12
        )
        assert len(report.rows) == len(algs) * 3
        for entry in report.aggregate():
            assert entry["runs"] == 3

    def test_median_aggregation_matches_rows(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("greedy")],
            replications=5,
            master_seed=13,
        )
        raw = sorted(
            row.metrics.pct_excluded_items
            for row in report.rows
            if row.metrics and row.metrics.success
        )
        entry = report.aggregate()[0]
        assert entry["pct_excluded_items"] == pytest.approx(raw[len(raw) // 2])

    def test_rows_reproducible_except_wall_time(self, tmp_path):
        def run_once(path):
            report = run_experiment_grid(
                tiny_grid_specs(),
                [AlgorithmSpec("greedy"), AlgorithmSpec("random", {"iterations": 25})],
                replications=2,
                master_seed=14,
            )
            report.write_rows_csv(path)
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        rows_a = run_once(tmp_path / "a.csv")
        rows_b = run_once(tmp_path / "b.csv")
        assert len(rows_a) == len(rows_b)
        for a, b in zip(rows_a, rows_b):
            for key in a:
                if key == "wall_time":
                    continue
                assert a[key] == b[key], key

    def test_worker_pool_preserves_order_and_values(self):
        specs = tiny_grid_specs() * 2
        algs = [AlgorithmSpec("greedy")]
        serial = run_experiment_grid(specs, algs, 2, master_seed=15, workers=1)
        parallel = run_experiment_grid(specs, algs, 2, master_seed=15, workers=4)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.algorithm == b.algorithm
            assert a.seed == b.seed
            assert a.metrics.preserved == b.metrics.preserved

    def test_failures_recorded_not_raised(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("exhaustive", {"eval_budget": 5})],
            replications=1,
            master_seed=16,
        )
        row = report.rows[0]
        assert row.error is not None
        assert "Budget" in row.error
        assert row.metrics is None

    def test_unregistered_test_fails_each_run_not_the_grid(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("greedy")],
            replications=1,
            master_seed=16,
            criteria_builder=lambda d: build_default_criteria(d, tests=("nope",)),
        )
        assert "unregistered test 'nope'" in report.rows[0].error

    def test_timeout_counts_as_failure(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("random", {"iterations": 10_000_000})],
            replications=1,
            master_seed=17,
            time_limit=0.05,
        )
        row = report.rows[0]
        assert row.metrics is not None
        assert row.metrics.timed_out
        assert not row.metrics.success

    def test_summary_table_renders(self):
        report = run_experiment_grid(
            tiny_grid_specs(),
            [AlgorithmSpec("greedy", label="h2")],
            replications=2,
            master_seed=18,
        )
        table = report.summary_table()
        assert "h2" in table
        assert "%E.items" in table


def graded(**overrides):
    base = dict(
        success=True, timed_out=False, preserved=36, pct_excluded_items=10.0,
        pct_excluded_intruders=75.0, intruder_recall=50.0,
        balanced_divergence=0.0125, post_match_p=0.25, r=1.5,
        n_solutions=2, evaluations=120, wall_time=0.5,
    )
    base.update(overrides)
    return EvalMetrics(**base)


def hand_made_report():
    """A report built without running a search: two graded runs, a timed-out
    run, an error row and an algorithm whose only row is an error."""
    rows = [
        GridRow(0, 0, "greedy", 11, None, graded()),
        GridRow(0, 1, "greedy", 12, None, graded(
            preserved=34, pct_excluded_items=15.0, pct_excluded_intruders=None,
            intruder_recall=25.0, balanced_divergence=0.03125, post_match_p=0.375,
            n_solutions=3, wall_time=1.25,
        )),
        GridRow(0, 2, "greedy", 13, None, graded(
            success=False, timed_out=True, pct_excluded_items=50.0, wall_time=9.0,
        )),
        GridRow(0, 3, "greedy", 14, "BudgetExceededError: budget of 5 spent", None),
        GridRow(1, 0, "exhaustive(max_removed=2)", 21, "GroupMatchError: no data", None),
        GridRow(1, 0, "h3_L1", 31, None, graded(
            pct_excluded_intruders=None, intruder_recall=None, n_solutions=1,
            wall_time=0.125,
        )),
    ]
    return GridReport(rows, replications=4, master_seed=7)


class TestReportLayout:
    """The exact text of the summary table, the aggregates and rows.csv."""

    def test_summary_table(self):
        assert hand_made_report().summary_table().splitlines() == [
            "                algorithm  runs  succ%  #sol  %E.items  %E.intr  recall%     BD      p  time(s)",
            "-------------------------  ----  -----  ----  --------  -------  -------  -----  -----  -------",
            "                   greedy     4     50     2      12.5       75       38  0.022  0.312     0.88",
            "exhaustive(max_removed=2)     1      0     -         -        -        -      -      -        -",
            "                    h3_L1     1    100     1      10.0        -        -  0.013  0.250     0.12",
        ]
        assert hand_made_report().summary_table().endswith("0.12\n")

    def test_aggregate(self):
        missing = dict.fromkeys((
            "n_solutions", "pct_excluded_items", "pct_excluded_intruders",
            "intruder_recall", "balanced_divergence", "post_match_p", "wall_time",
        ))
        assert hand_made_report().aggregate() == [
            {"algorithm": "greedy", "runs": 4, "success_rate": 50.0,
             "n_solutions": 2.5, "pct_excluded_items": 12.5,
             "pct_excluded_intruders": 75.0, "intruder_recall": 37.5,
             "balanced_divergence": 0.021875, "post_match_p": 0.3125,
             "wall_time": 0.875},
            {"algorithm": "exhaustive(max_removed=2)", "runs": 1,
             "success_rate": 0.0, **missing},
            {"algorithm": "h3_L1", "runs": 1, "success_rate": 100.0,
             "n_solutions": 1, "pct_excluded_items": 10.0,
             "pct_excluded_intruders": None, "intruder_recall": None,
             "balanced_divergence": 0.0125, "post_match_p": 0.25,
             "wall_time": 0.125},
        ]
        assert [list(e) for e in hand_made_report().aggregate()] == [
            ["algorithm", "runs", "success_rate", *missing]
        ] * 3

    def test_rows_csv(self, tmp_path):
        hand_made_report().write_rows_csv(tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes().decode().split("\r\n") == [
            "spec_index,replicate,algorithm,seed,error,success,timed_out,preserved,"
            "pct_excluded_items,pct_excluded_intruders,intruder_recall,"
            "balanced_divergence,post_match_p,r,n_solutions,evaluations,wall_time",
            "0,0,greedy,11,,1,0,36,10.0,75.0,50.0,0.0125,0.25,1.5,2,120,0.5",
            "0,1,greedy,12,,1,0,34,15.0,,25.0,0.03125,0.375,1.5,3,120,1.25",
            "0,2,greedy,13,,0,1,36,50.0,75.0,50.0,0.0125,0.25,1.5,2,120,9.0",
            "0,3,greedy,14,BudgetExceededError: budget of 5 spent,0,0,,,,,,,,,,",
            "1,0,exhaustive(max_removed=2),21,GroupMatchError: no data,0,0,,,,,,,,,,",
            "1,0,h3_L1,31,,1,0,36,10.0,,,0.0125,0.25,1.5,1,120,0.125",
            "",
        ]

    def test_empty_report(self):
        empty = GridReport([], replications=1, master_seed=0)
        assert empty.aggregate() == []
        assert empty.summary_table() == (
            "algorithm  runs  succ%  #sol  %E.items  %E.intr  recall%  BD  p  time(s)\n"
            "---------  ----  -----  ----  --------  -------  -------  --  -  -------\n"
        )
