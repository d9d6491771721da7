import math

import numpy as np
import pytest

from groupmatch.criteria import (
    CriteriaEvaluator,
    CriteriaSet,
    CriterionSpec,
    MatchConfig,
    SolutionRank,
    balances_from_counts,
    compare_solutions,
    compute_r,
    kl_divergence,
    solution_rank,
)
from groupmatch.dataset import Dataset
from groupmatch.errors import ValidationError
from groupmatch.stats import TestRegistry, register_test

from conftest import welch_only_criteria


def tiny_dataset():
    return Dataset(
        ["a1", "a2", "b1", "b2"],
        ["A", "A", "B", "B"],
        [[1.0], [2.0], [3.0], [4.0]],
        ["x"],
    )


def constant_registry(values):
    """Registry with tests returning fixed p-values."""
    reg = TestRegistry()
    for name, p in values.items():
        register_test(name, (lambda p: lambda s: p)(p), registry=reg)
    return reg


class TestComputeR:
    def test_single_criterion_ratio(self):
        reg = constant_registry({"c1": 0.4})
        d = tiny_dataset()
        crit = CriteriaSet((CriterionSpec("c1", "x", ("A", "B"), 0.2),))
        assert compute_r(d, d.full_subset(), crit, reg) == pytest.approx(2.0)

    def test_min_rule(self):
        reg = constant_registry({"c1": 0.3, "c2": 0.1})
        d = tiny_dataset()
        crit = CriteriaSet(
            (
                CriterionSpec("c1", "x", ("A", "B"), 0.2),
                CriterionSpec("c2", "x", ("A", "B"), 0.2),
            )
        )
        assert compute_r(d, d.full_subset(), crit, reg) == pytest.approx(0.5)

    def test_full_set_reproduces_p_over_alpha(self):
        rng = np.random.default_rng(0)
        d = Dataset(
            [f"s{i}" for i in range(40)],
            ["A"] * 20 + ["B"] * 20,
            rng.normal(size=(40, 1)),
            ["x"],
        )
        crit = welch_only_criteria(alpha=0.25)
        ev = CriteriaEvaluator(d, crit)
        r, ps = ev.evaluate(np.ones(40, dtype=bool))
        assert r == ps[0] / 0.25

    def test_alpha_scaling_by_powers_of_two(self):
        rng = np.random.default_rng(1)
        d = Dataset(
            [f"s{i}" for i in range(30)],
            ["A"] * 15 + ["B"] * 15,
            rng.normal(size=(30, 1)),
            ["x"],
        )
        for k in (2.0, 4.0, 0.5):
            base = compute_r(d, d.full_subset(), welch_only_criteria(alpha=0.2))
            scaled = compute_r(d, d.full_subset(), welch_only_criteria(alpha=0.2 * k))
            assert scaled == base / k

    def test_null_data_match_probability(self):
        # identically distributed groups: p uniform under the null, so
        # r >= 1 with probability 1 - alpha = 0.8
        rng = np.random.default_rng(42)
        crit = welch_only_criteria(alpha=0.2)
        hits = 0
        reps = 2000
        for _ in range(reps):
            values = rng.normal(size=(40, 1))
            d = Dataset(
                [f"s{i}" for i in range(40)],
                ["A"] * 20 + ["B"] * 20,
                values,
                ["x"],
            )
            if compute_r(d, d.full_subset(), crit) >= 1.0:
                hits += 1
        assert hits / reps == pytest.approx(0.8, abs=0.035)


class TestKL:
    def test_zero_at_equality(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_known_values(self):
        expected = 0.6 * math.log(0.6 / 0.5) + 0.4 * math.log(0.4 / 0.5)
        assert kl_divergence([0.6, 0.4], [0.5, 0.5]) == pytest.approx(
            expected, rel=1e-12
        )
        assert kl_divergence([0.6, 0.4], [0.5, 0.5]) == pytest.approx(
            0.020135513550688863, abs=1e-12
        )
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            k = int(rng.integers(2, 6))
            obs = rng.dirichlet(np.ones(k))
            tgt = rng.dirichlet(np.ones(k)) + 1e-6
            tgt /= tgt.sum()
            value = kl_divergence(obs, tgt)
            assert value >= 0.0
            if not np.allclose(obs, tgt, atol=1e-9):
                assert value > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_target_must_be_positive(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])


class TestCompareSolutions:
    def test_preserved_dominates(self):
        a = SolutionRank(96, 0.5, 0.1)
        b = SolutionRank(95, 0.0, 9.9)
        assert compare_solutions(a, b) == 1

    def test_balance_breaks_preserved_ties(self):
        a = SolutionRank(96, 0.02, 1.0)
        b = SolutionRank(96, 0.12, 2.0)
        assert compare_solutions(a, b) == 1

    def test_r_breaks_remaining_ties(self):
        a = SolutionRank(96, 0.02, 1.3)
        b = SolutionRank(96, 0.02, 1.1)
        assert compare_solutions(a, b) == 1

    def test_equivalence_within_tolerance(self):
        a = SolutionRank(96, 0.02, 1.3)
        b = SolutionRank(96, 0.02 + 1e-14, 1.3 * (1 + 1e-13))
        assert compare_solutions(a, b) == 0

    def test_total_preorder_on_random_triples(self):
        rng = np.random.default_rng(3)
        def random_rank():
            return SolutionRank(
                int(rng.integers(90, 94)),
                float(rng.choice([0.0, 0.02, 0.5])),
                float(rng.choice([0.3, 1.0, 1.7])),
            )
        for _ in range(2000):
            a, b, c = random_rank(), random_rank(), random_rank()
            assert compare_solutions(a, b) == -compare_solutions(b, a)
            if compare_solutions(a, b) >= 0 and compare_solutions(b, c) >= 0:
                assert compare_solutions(a, c) >= 0

    def test_precedence_mode_ordering(self):
        # removing from a higher-precedence group is strictly worse
        better = SolutionRank(100, (0, 1), 1.0)
        worse = SolutionRank(100, (1, 0), 1.0)
        assert compare_solutions(better, worse) == 1

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValidationError):
            compare_solutions(SolutionRank(5, 0.1, 1.0), SolutionRank(5, (1,), 1.0))


class TestSolutionRankComputation:
    def test_proportions_balance_is_kl(self):
        d = tiny_dataset()
        cfg = MatchConfig(criteria=welch_only_criteria())
        keep = np.array([True, True, True, False])
        rank = solution_rank(d, keep, cfg, r=1.5)
        expected = kl_divergence([2 / 3, 1 / 3], [0.5, 0.5])
        assert rank.preserved == 3
        assert rank.balance == pytest.approx(expected, rel=1e-12)
        assert rank.r == 1.5

    def test_precedence_balance_counts(self):
        d = tiny_dataset()
        cfg = MatchConfig(
            criteria=welch_only_criteria(),
            balance_mode="precedence",
            precedence=("B", "A"),
        )
        keep = np.array([True, False, True, True])
        rank = solution_rank(d, keep, cfg, r=0.9)
        assert rank.balance == (0, 1)

    @pytest.mark.parametrize("groups", [3, 9])
    def test_balances_of_many_count_patterns_keep_the_bits_of_each(self, groups):
        # one call for many patterns gives each the bits of kl_divergence on
        # its own proportions, also past 8 groups, where numpy sums in pairs
        rng = np.random.default_rng(groups)
        labels = [f"g{i}" for i in range(groups)]
        sizes = rng.integers(5, 60, groups)
        d = Dataset([f"s{i}" for i in range(sizes.sum())], np.repeat(labels, sizes).tolist(),
                    np.zeros((sizes.sum(), 1)), ["x"])
        target = rng.uniform(0.5, 1.5, groups)
        cfg = MatchConfig(criteria=welch_only_criteria(), target_proportions=dict(
            zip(labels, (target / target.sum()).tolist())))
        counts = sizes - rng.integers(0, 5, (200, groups))
        want = [kl_divergence(row / row.sum(), cfg.target_vector(d)) for row in counts]
        got = balances_from_counts(d, cfg, counts)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        with pytest.raises(ValidationError, match="empty group"):
            balances_from_counts(d, cfg, np.vstack([counts, np.zeros(groups, dtype=int)]))


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(ValidationError, match="alpha"):
            CriterionSpec("welch_t", "x", ("A", "B"), 1.5)

    def test_groups_minimum(self):
        with pytest.raises(ValidationError):
            CriterionSpec("welch_t", "x", ("A",), 0.2)

    def test_duplicate_criteria_rejected(self):
        spec = CriterionSpec("welch_t", "x", ("A", "B"), 0.2)
        dup = CriterionSpec("welch_t", "x", ("B", "A"), 0.3)
        with pytest.raises(ValidationError, match="duplicate"):
            CriteriaSet((spec, dup))

    def test_unknown_group_caught_at_bind(self):
        d = tiny_dataset()
        crit = CriteriaSet((CriterionSpec("welch_t", "x", ("A", "C"), 0.2),))
        with pytest.raises(ValidationError, match="unknown groups"):
            CriteriaEvaluator(d, crit)

    def test_unknown_covariate_caught_at_bind(self):
        d = tiny_dataset()
        crit = CriteriaSet((CriterionSpec("welch_t", "y", ("A", "B"), 0.2),))
        with pytest.raises(ValidationError, match="unknown covariate"):
            CriteriaEvaluator(d, crit)

    def test_two_sample_test_needs_two_groups(self):
        d = Dataset(
            ["a", "b", "c", "d", "e", "f"],
            ["A", "A", "B", "B", "C", "C"],
            [[float(i)] for i in range(6)],
            ["x"],
        )
        crit = CriteriaSet((CriterionSpec("welch_t", "x", ("A", "B", "C"), 0.2),))
        with pytest.raises(ValidationError, match="two-sample"):
            CriteriaEvaluator(d, crit)

    @pytest.mark.parametrize("field, value", [
        ("max_removed_total", 2.0),
        ("seed", 1.5),
        ("min_group_size", True),
        ("time_limit", "5"),
        ("schedule_jitter", 1),
    ])
    def test_scalar_of_wrong_type_names_its_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            MatchConfig(criteria=welch_only_criteria(), **{field: value})

    def test_numpy_scalars_are_numbers(self):
        cfg = MatchConfig(
            criteria=welch_only_criteria(),
            max_removed_total=np.int64(2),
            seed=np.int32(3),
            time_limit=np.float64(1.5),
            reversion_threshold=np.float32(0.5),
        )
        assert cfg.max_removed_total == 2 and cfg.seed == 3

    def test_locked_group_with_removal_bound_rejected(self):
        d = tiny_dataset()
        cfg = MatchConfig(
            criteria=welch_only_criteria(),
            locked_groups=frozenset({"A"}),
            max_removed_per_group={"A": 1},
            min_group_size=1,
        )
        with pytest.raises(ValidationError, match="locked"):
            cfg.validate_for(d, TestRegistry())

    def test_precedence_must_cover_all_groups(self):
        d = tiny_dataset()
        cfg = MatchConfig(
            criteria=welch_only_criteria(),
            balance_mode="precedence",
            precedence=("A", "B", "C"),
            min_group_size=1,
        )
        with pytest.raises(ValidationError, match="precedence"):
            cfg.validate_for(d, TestRegistry())

    def test_target_proportions_sum(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            MatchConfig(
                criteria=welch_only_criteria(),
                target_proportions={"A": 0.4, "B": 0.4},
            )

    def test_batching_requires_unit_lookahead(self):
        with pytest.raises(ValidationError, match="lookahead"):
            MatchConfig(criteria=welch_only_criteria(), lookahead=2, batch_size=10)

    def test_precedence_mode_needs_order(self):
        with pytest.raises(ValidationError):
            MatchConfig(criteria=welch_only_criteria(), balance_mode="precedence")
