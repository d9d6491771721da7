import itertools
import math
import time

import numpy as np
import pytest

from groupmatch import search
from groupmatch.criteria import (
    CriteriaEvaluator,
    CriteriaSet,
    CriterionSpec,
    MatchConfig,
    compute_r,
)
from groupmatch.dataset import Dataset
from groupmatch.errors import BudgetExceededError, ValidationError
from groupmatch.search import (
    count_configurations,
    estimate_exhaustive,
    exhaustive_search,
    format_duration,
    greedy_search,
    lookahead_search,
    random_search,
)

from conftest import (
    build_clinical_dataset,
    build_two_group_dataset,
    clinical_config,
    clinical_criteria,
    welch_only_criteria,
)


def base_config(**overrides):
    kwargs = dict(criteria=welch_only_criteria(), seed=7)
    kwargs.update(overrides)
    return MatchConfig(**kwargs)


def assert_solution_recomputes(dataset, result, config):
    """Every successful solution must stand up to a fresh evaluation."""
    for state in result.solutions:
        assert compute_r(dataset, state, config.criteria) >= 1.0


class TestKeywordTypes:
    """Search keyword arguments keep the type rule of the config fields."""

    SEARCHES = {
        "exhaustive": exhaustive_search,
        "random": random_search,
        "lookahead": lambda d, cfg, **kw: lookahead_search(d, cfg, "h3", **kw),
    }

    @pytest.mark.parametrize("search, name, value", [
        ("exhaustive", "max_removed", 2.0),
        ("random", "iterations", 5.5),
        ("lookahead", "lookahead", 1.5),
        ("lookahead", "batch_size", 2.5),
        ("random", "iterations", True),
    ])
    def test_non_int_is_refused_by_name(self, search, name, value):
        d = build_two_group_dataset(6, 1.0, seed=1)
        with pytest.raises(ValidationError, match=repr(name)):
            self.SEARCHES[search](d, base_config(), **{name: value})

    @pytest.mark.parametrize("name, call", [
        ("heuristic_removals", lambda d, v: estimate_exhaustive(
            d, base_config(), heuristic_removals=v, calibrated_rate=1.0)),
        ("n_subjects", lambda d, v: count_configurations(v, 2)),
        ("max_removed", lambda d, v: count_configurations(6, v)),
    ])
    @pytest.mark.parametrize("value", [2.5, True, None])
    def test_counting_arguments_refuse_non_ints_by_name(self, name, call, value):
        d = build_two_group_dataset(6, 1.0, seed=1)
        with pytest.raises(ValidationError, match=repr(name)):
            call(d, value)

    def test_numpy_ints_are_ints(self):
        d = build_two_group_dataset(6, 1.0, seed=1)
        cfg = base_config()
        assert (exhaustive_search(d, cfg, max_removed=np.int64(2)).best
                == exhaustive_search(d, cfg, max_removed=2).best)
        assert (lookahead_search(d, cfg, "h3", lookahead=np.int32(2)).best
                == lookahead_search(d, cfg, "h3", lookahead=2).best)


class TestAlreadyMatched:
    @pytest.mark.parametrize(
        "runner",
        [
            greedy_search,
            lambda d, c: lookahead_search(d, c, "h3", lookahead=1),
            lambda d, c: lookahead_search(d, c, "h4", lookahead=2),
            exhaustive_search,
            lambda d, c: random_search(d, c, iterations=3),
        ],
        ids=["greedy", "h3", "h4_L2", "exhaustive", "random"],
    )
    def test_full_set_returned(self, toy_matched_dataset, runner):
        cfg = base_config()
        result = runner(toy_matched_dataset, cfg)
        assert result.success
        assert result.rank.preserved == toy_matched_dataset.n_subjects
        assert result.best.n_kept == toy_matched_dataset.n_subjects


class TestGreedy:
    def test_removes_unique_outlier(self):
        # group A carries one gross high outlier on top of a small baseline
        # offset; brute force over single removals confirms dropping the
        # outlier is the only way to match in one step
        rng = np.random.default_rng(30)
        a = np.concatenate([rng.normal(0.25, 0.3, 4), [2.8]])
        b = rng.normal(0.0, 0.3, 5)
        d = Dataset(
            [f"s{i}" for i in range(10)],
            ["A"] * 5 + ["B"] * 5,
            np.concatenate([a, b])[:, None],
            ["x"],
        )
        cfg = base_config(criteria=welch_only_criteria(alpha=0.4))
        ev = CriteriaEvaluator(d, cfg.criteria)
        assert ev.evaluate(np.ones(10, bool))[0] < 1.0
        singles = {}
        for i in range(10):
            keep = np.ones(10, bool)
            keep[i] = False
            singles[i] = ev.evaluate(keep)[0]
        winners = [i for i, r in singles.items() if r >= 1.0]
        assert winners == [4]
        result = greedy_search(d, cfg)
        assert result.success
        assert result.best.removed_ids(d) == ["s4"]

    def test_per_step_dominance_replayed(self):
        d = build_two_group_dataset(12, 1.2, seed=21)
        cfg = base_config()
        result = greedy_search(d, cfg)
        assert result.success
        ev = CriteriaEvaluator(d, cfg.criteria)
        keep = np.ones(d.n_subjects, dtype=bool)
        for step in result.trace:
            chosen = d.row_of(step.removed_id)
            tentative = keep.copy()
            tentative[chosen] = False
            chosen_r = ev.evaluate(tentative)[0]
            for row in np.flatnonzero(keep):
                alt = keep.copy()
                alt[row] = False
                counts = np.bincount(d.group_codes[alt], minlength=2)
                if counts.min() < cfg.min_group_size:
                    continue
                alt_r = ev.evaluate(alt)[0]
                assert alt_r <= chosen_r * (1 + 1e-9)
            keep[chosen] = False

    def test_trace_records_removals(self):
        d = build_two_group_dataset(10, 1.5, seed=3)
        result = greedy_search(d, base_config())
        assert result.success
        assert len(result.trace) == result.excluded_count(d)
        assert result.trace[-1].r_after is not None
        assert result.trace[-1].r_after >= 1.0
        steps = [t.step for t in result.trace]
        assert steps == list(range(1, len(steps) + 1))

    def test_determinism(self):
        d = build_two_group_dataset(12, 1.0, seed=5)
        cfg = base_config(seed=123)
        r1 = greedy_search(d, cfg)
        r2 = greedy_search(d, cfg)
        assert r1.best == r2.best
        assert [t.removed_id for t in r1.trace] == [t.removed_id for t in r2.trace]
        assert r1.evaluations == r2.evaluations

    def test_thread_count_does_not_change_result(self):
        d = build_two_group_dataset(30, 0.9, seed=17)
        serial = greedy_search(d, base_config(seed=9, threads=1))
        parallel = greedy_search(d, base_config(seed=9, threads=4))
        assert serial.best == parallel.best
        assert [t.removed_id for t in serial.trace] == [
            t.removed_id for t in parallel.trace
        ]
        assert serial.rank == parallel.rank

    def test_respects_locked_groups(self):
        d = build_two_group_dataset(8, 2.0, seed=30)
        cfg = base_config(locked_groups=frozenset({"B"}))
        result = greedy_search(d, cfg)
        kept = result.best.kept_per_group(d)
        assert kept[list(d.group_labels).index("B")] == 8

    def test_respects_total_bound(self):
        d = build_two_group_dataset(10, 3.0, seed=31)
        cfg = base_config(max_removed_total=2)
        result = greedy_search(d, cfg)
        assert d.n_subjects - result.rank.preserved <= 2

    def test_respects_group_floor(self):
        d = build_two_group_dataset(4, 5.0, seed=32)
        result = greedy_search(d, base_config())
        assert result.best.kept_per_group(d).min() >= 2


class TestLookahead:
    def test_l1_variants_match_greedy(self):
        for seed in (1, 2, 3):
            d = build_two_group_dataset(12, 1.1, seed=seed)
            cfg = base_config(seed=seed)
            g = greedy_search(d, cfg)
            h3 = lookahead_search(d, cfg, "h3", lookahead=1)
            h4 = lookahead_search(d, cfg, "h4", lookahead=1)
            assert [t.removed_id for t in g.trace] == [t.removed_id for t in h3.trace]
            assert [t.removed_id for t in g.trace] == [t.removed_id for t in h4.trace]

    def test_variants_validate(self):
        d = build_two_group_dataset(6, 0.5, seed=1)
        with pytest.raises(ValidationError):
            lookahead_search(d, base_config(), "h5")

    def test_lookahead_two_succeeds(self):
        d = build_two_group_dataset(10, 1.4, seed=8)
        result = lookahead_search(d, base_config(), "h3", lookahead=2)
        assert result.success
        assert_solution_recomputes(d, result, base_config())

    def test_batching_reduces_recomputations(self):
        cfg = base_config()
        d2 = build_two_group_dataset(120, 1.1, seed=40, n_shifted=45)
        plain = lookahead_search(d2, cfg, "h3", lookahead=1, batch_size=1)
        batched = lookahead_search(d2, cfg, "h3", lookahead=1, batch_size=5)
        assert plain.success and batched.success
        assert batched.evaluations < plain.evaluations
        # batched removals carry stale r markers except at recompute points
        stale = [t for t in batched.trace if t.r_after is None]
        assert stale
        assert d2.n_subjects - batched.rank.preserved >= (
            d2.n_subjects - plain.rank.preserved
        )

    def test_time_limit_checked_between_chunks(self):
        # the first L=3 step on the clinical fixture scores 65,403 of the
        # triples of its 94 unlocked subjects (the patterns its bound rules
        # out skipped), 27,950 of them in its first pass: far longer than
        # the limit, so the search stops after a chunk of that pass instead
        # of finishing the pass or the step
        d = build_clinical_dataset()
        cfg = clinical_config(lookahead=3, time_limit=0.01)
        started = time.perf_counter()
        result = lookahead_search(d, cfg, "h3")
        elapsed = time.perf_counter() - started
        first_pass = 27_950
        assert result.timed_out and not result.success
        assert result.trace == ()
        assert result.evaluations < len(cfg.criteria) * (1 + first_pass)
        assert elapsed < 1.0

    def test_low_reversion_threshold_disables_batching(self):
        d = build_two_group_dataset(60, 1.0, seed=41, n_shifted=20)
        cfg = base_config(reversion_threshold=1e-12)
        batched = lookahead_search(d, cfg, "h3", lookahead=1, batch_size=50)
        plain = lookahead_search(d, cfg, "h3", lookahead=1, batch_size=1)
        assert [t.removed_id for t in batched.trace] == [
            t.removed_id for t in plain.trace
        ]


class TestRandom:
    def test_deterministic_under_seed(self):
        d = build_two_group_dataset(20, 1.0, seed=2)
        cfg = base_config(seed=99)
        r1 = random_search(d, cfg, iterations=50)
        r2 = random_search(d, cfg, iterations=50)
        assert r1.best == r2.best
        assert r1.rank == r2.rank

    def test_solutions_are_feasible_and_equivalent(self):
        d = build_two_group_dataset(20, 0.8, seed=4)
        cfg = base_config(seed=5)
        result = random_search(d, cfg, iterations=300)
        for state in result.solutions:
            assert state.kept_per_group(d).min() >= cfg.min_group_size
        if result.success:
            assert_solution_recomputes(d, result, cfg)

    def test_locked_groups_survive_draws(self):
        d = build_two_group_dataset(10, 0.5, seed=6)
        cfg = base_config(locked_groups=frozenset({"A"}), seed=3)
        result = random_search(d, cfg, iterations=100)
        for state in result.solutions:
            assert state.kept_per_group(d)[0] == 10

    def test_failure_reports_best_r(self):
        # no draw can match two wildly separated groups
        d = build_two_group_dataset(6, 60.0, seed=7)
        result = random_search(d, base_config(), iterations=20)
        assert not result.success
        assert result.rank.r < 1.0

    def test_budget_charged_one_draw_at_a_time(self):
        d = build_two_group_dataset(20, 1.0, seed=2)
        criteria = CriteriaSet((
            CriterionSpec("welch_t", "x", ("A", "B"), 0.2),
            CriterionSpec("anderson_darling", "x", ("A", "B"), 0.2),
        ))
        cfg = base_config(criteria=criteria, eval_budget=10, seed=99)
        with pytest.raises(BudgetExceededError) as raised:
            random_search(d, cfg, iterations=50)
        # two evaluations per state: the full set and the first four draws
        # fit in 10, and the fifth draw is the first charge past the ceiling
        assert raised.value.evaluations == 12

    def test_time_limit_flags(self):
        d = build_two_group_dataset(50, 0.5, seed=8)
        cfg = base_config(time_limit=1e-6)
        result = random_search(d, cfg, iterations=100000)
        assert result.timed_out


class TestReportedState:
    SEARCHES = {
        "random": lambda d, c: random_search(d, c, iterations=300),
        "greedy": greedy_search,
        "h3_L2": lambda d, c: lookahead_search(d, c, "h3", lookahead=2),
        "h4_L2": lambda d, c: lookahead_search(d, c, "h4", lookahead=2),
        "exhaustive": exhaustive_search,
        # under the fake clock below: cut before depth 2, and cut after the
        # last chunk of depth 5 with matches in the pool (first config)
        "exhaustive_cut_early": lambda d, c: exhaustive_search(
            d, c.with_(time_limit=4.5)
        ),
        "exhaustive_cut_with_matches": lambda d, c: exhaustive_search(
            d, c.with_(time_limit=21.5)
        ),
    }

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_reported_p_values_are_per_subset(self, search, monkeypatch):
        # states are scored in batches; the reported state is evaluated
        # again on its own, so its p-values and r are exactly those of
        # evaluate
        exhaustive = search.startswith("exhaustive")
        d = build_two_group_dataset(*((9, 1.6) if exhaustive else (25, 1.2)), seed=12)
        criteria = CriteriaSet((
            CriterionSpec("welch_t", "x", ("A", "B"), 0.2),
            CriterionSpec("anderson_darling", "x", ("A", "B"), 0.2),
        ))
        timed_out = []
        for cfg in (base_config(criteria=criteria, seed=4),
                    base_config(criteria=criteria, seed=4,
                                locked_groups=frozenset({"A"}))):
            if exhaustive:
                # one tick per clock read: the search starts at 0 and reads
                # the clock before each scoring chunk
                ticks = itertools.count()
                monkeypatch.setattr("groupmatch.search.time.perf_counter",
                                    lambda ticks=ticks: float(next(ticks)))
            result = self.SEARCHES[search](d, cfg)
            timed_out.append(result.timed_out)
            r, ps = CriteriaEvaluator(d, cfg.criteria).evaluate(result.best.keep)
            assert result.p_values == ps
            assert result.rank.r == r
        assert timed_out[0] == search.startswith("exhaustive_cut")

    @staticmethod
    def alpha_at(dataset, covariate, pair, removed, batch):
        """The Welch p of ``pair`` on ``covariate`` with the row ``removed``
        taken out: as the batch downdate gives it, or as evaluate does."""
        evaluator = CriteriaEvaluator(dataset, CriteriaSet((
            CriterionSpec("welch_t", covariate, pair, 0.5),)))
        keep = np.ones(dataset.n_subjects, dtype=bool)
        row = dataset.subject_ids.index(removed)
        if batch:
            return float(evaluator.score_removals(keep, np.array([[row]]))[0][0, 0])
        keep[row] = False
        return evaluator.evaluate(keep)[1][0]

    @staticmethod
    def removed_ids(dataset, result):
        return [[dataset.subject_ids[i] for i in np.flatnonzero(~s.keep)]
                for s in result.solutions]

    def test_batch_match_that_evaluate_fails_is_not_reported(self):
        # alpha at the downdated p of the set less td013: the batch r of
        # that removal is 1, while evaluate puts it a few ulps below 1.  It
        # ranks best by balance, and used to be reported as a success with
        # r < 1; the best match by evaluate's arithmetic removes ali001
        d = build_clinical_dataset()
        pair = ("ALI", "TD")
        alpha = self.alpha_at(d, "age", pair, "td013", batch=True)
        assert self.alpha_at(d, "age", pair, "td013", batch=False) < alpha
        config = MatchConfig(criteria=CriteriaSet((CriterionSpec("welch_t", "age", pair, alpha),)))
        result = exhaustive_search(d, config, max_removed=1)
        assert result.success and result.r >= 1.0
        assert self.removed_ids(d, result) == [["ali001"]]

    def test_match_that_only_evaluate_finds_is_the_optimum(self):
        # alpha at evaluate's p of the set less ali009: that removal is the
        # only one-row match by evaluate, while its batch r sits below 1.
        # It used to be missed, and a two-row match reported as optimal
        d = build_clinical_dataset()
        pair = ("ALI", "ALN")
        alpha = self.alpha_at(d, "piq", pair, "ali009", batch=False)
        config = MatchConfig(criteria=CriteriaSet((CriterionSpec("welch_t", "piq", pair, alpha),)))
        result = exhaustive_search(d, config, max_removed=2)
        assert result.success and result.r >= 1.0
        assert self.removed_ids(d, result) == [["ali009"]]


class TestExhaustive:
    def test_matches_brute_force_small(self):
        d = build_two_group_dataset(6, 1.3, seed=9)
        cfg = base_config()
        result = exhaustive_search(d, cfg)
        ev = CriteriaEvaluator(d, cfg.criteria)
        best_kept = -1
        n = d.n_subjects
        for bits in range(2**n):
            keep = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            counts = np.bincount(d.group_codes[keep], minlength=2)
            if counts.min() < cfg.min_group_size:
                continue
            if int(keep.sum()) <= best_kept:
                continue
            if ev.evaluate(keep)[0] >= 1.0:
                best_kept = int(keep.sum())
        assert result.success
        assert result.rank.preserved == best_kept

    def test_minimal_kl_among_equal_size(self):
        # at the matching depth, the returned solutions carry the smallest
        # divergence among all successful states of that size
        d = build_two_group_dataset(7, 1.2, seed=10)
        cfg = base_config()
        result = exhaustive_search(d, cfg)
        assert result.success
        depth = d.n_subjects - result.rank.preserved
        ev = CriteriaEvaluator(d, cfg.criteria)
        best_balance = None
        target = cfg.target_vector(d)
        for combo in itertools.combinations(range(d.n_subjects), depth):
            keep = np.ones(d.n_subjects, dtype=bool)
            keep[list(combo)] = False
            counts = np.bincount(d.group_codes[keep], minlength=2)
            if counts.min() < cfg.min_group_size:
                continue
            if ev.evaluate(keep)[0] < 1.0:
                continue
            observed = counts / counts.sum()
            mask = observed > 0
            bal = float(np.sum(observed[mask] * np.log(observed[mask] / target[mask])))
            if best_balance is None or bal < best_balance:
                best_balance = bal
        assert result.rank.balance == pytest.approx(best_balance, abs=1e-12)

    def test_heuristics_bracket_optimum(self):
        # heuristics can never preserve more than the exhaustive optimum,
        # and on small instances they stay within 3 subjects of it
        for seed in range(10):
            d = build_two_group_dataset(6, 1.2, seed=100 + seed)
            cfg = base_config(seed=seed)
            optimum = exhaustive_search(d, cfg)
            assert optimum.success
            for runner in (
                greedy_search,
                lambda dd, cc: lookahead_search(dd, cc, "h3", lookahead=1),
            ):
                heuristic = runner(d, cfg)
                assert heuristic.success
                assert heuristic.rank.preserved <= optimum.rank.preserved
                assert heuristic.rank.preserved >= optimum.rank.preserved - 3

    def test_budget_guard_raises(self):
        d = build_two_group_dataset(10, 5.0, seed=11)
        cfg = base_config(eval_budget=10)
        with pytest.raises(BudgetExceededError):
            exhaustive_search(d, cfg)

    def test_depth_bound_failure(self):
        d = build_two_group_dataset(8, 8.0, seed=12)
        result = exhaustive_search(d, base_config(), max_removed=1)
        assert not result.success

    def test_explicit_bound_is_clamped_by_total_cap(self):
        # this instance needs 3 removals; an explicit max_removed of 4 must
        # not lift the configured total cap of 1
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0, 1, 7), rng.normal(1.2, 1, 7)])
        d = Dataset(
            [f"s{i}" for i in range(14)], ["A"] * 7 + ["B"] * 7,
            values[:, None], ["x"],
        )
        cfg = base_config(max_removed_total=1)
        result = exhaustive_search(d, cfg, max_removed=4)
        assert not result.success
        assert result.parameters["max_removed"] == 1
        assert all(d.n_subjects - s.n_kept <= 1 for s in result.solutions)
        assert exhaustive_search(d, base_config(), max_removed=4).excluded_count(d) == 3


def unpruned_exhaustive(dataset, config, max_removed=None):
    """Exhaustive search without balance classes or pruning: each depth's
    removal sets in the order of ``itertools.combinations``, kept where
    ``_Feasibility.allows`` accepts them, scored in chunks and offered with
    the rank computed from each keep-mask."""
    engine = search._Engine(dataset, config, None)
    n = dataset.n_subjects
    bound = n if max_removed is None else max_removed
    if config.max_removed_total is not None:
        bound = min(bound, config.max_removed_total)
    feasible = engine.feasible
    full = np.ones(n, dtype=bool)
    rows = feasible.open_rows(full, np.zeros(dataset.n_groups, dtype=np.intp))
    bound = min(bound, int(feasible.room.sum()), rows.size)
    keeper = search._Keeper(engine, "exhaustive", {"max_removed": bound})
    for depth in range(bound + 1):
        sets = np.array(list(itertools.combinations(rows.tolist(), depth)),
                        dtype=np.intp).reshape(math.comb(rows.size, depth), depth)
        per_group = (dataset.group_codes[sets][:, :, None]
                     == np.arange(dataset.n_groups)).sum(axis=1)
        sets = sets[feasible.allows(per_group)]
        for start in range(0, len(sets), 1024):
            chunk = sets[start:start + 1024]
            masks = np.ones((len(chunk), n), dtype=bool)
            masks[np.arange(len(chunk))[:, None], chunk] = False
            keeper.offer_chunk(engine.score(full, chunk), masks.sum(axis=1),
                               masks.__getitem__)
        if keeper.matches:
            break
    return keeper.report()


def assert_same_report(pruned, reference):
    assert ([s.keep.tobytes() for s in pruned.solutions]
            == [s.keep.tobytes() for s in reference.solutions])
    assert repr(pruned.rank) == repr(reference.rank)
    assert repr(pruned.p_values) == repr(reference.p_values)
    assert pruned.success == reference.success
    assert pruned.evaluations <= reference.evaluations


class TestBalancePruning:
    """Pruned exhaustive search stores and reports what an unpruned scan of
    every depth in canonical order does; only ``evaluations`` may fall."""

    @pytest.mark.parametrize("chunk", [search._SCORE_CHUNK, 16])
    def test_oracle_instances(self, chunk, monkeypatch):
        # each depth of these instances fits in one chunk of 1,024 sets, so
        # pruning skips classes only with smaller chunks
        from golden_corpus import oracle_instances

        monkeypatch.setattr(search, "_SCORE_CHUNK", chunk)
        fewer = 0
        for _, d, cfg in oracle_instances():
            pruned = exhaustive_search(d, cfg)
            reference = unpruned_exhaustive(d, cfg)
            assert_same_report(pruned, reference)
            fewer += pruned.evaluations < reference.evaluations
        assert (fewer > 0) == (chunk < 1024)

    def test_clinical_fixture_in_precedence_mode(self):
        # 3 removals over the three unlocked groups: 10 count patterns, each
        # its own class in precedence mode; the match lies in the 8th class
        d = build_clinical_dataset()
        cfg = clinical_config(criteria=clinical_criteria(alpha=0.05))
        pruned = exhaustive_search(d, cfg, max_removed=3)
        reference = unpruned_exhaustive(d, cfg, max_removed=3)
        assert_same_report(pruned, reference)
        assert pruned.success and pruned.rank.preserved == d.n_subjects - 3
        assert pruned.evaluations < reference.evaluations


def unbounded(touches, patterns, ceiling):
    """``search._pattern_bounds`` that rules out no pattern."""
    return np.full(len(patterns), np.inf)


def run_outcome(result):
    return ([s.keep.tobytes() for s in result.solutions],
            [t.to_json() for t in result.trace],
            repr(result.rank), repr(result.p_values), result.success)


class TestCriterionLocality:
    """Constructive steps skip the count patterns whose bound B, the lowest
    r_j over the criteria a pattern leaves untouched, rules them out of
    the step's top chain; only ``evaluations`` falls."""

    def test_clinical_h3_at_two(self, monkeypatch):
        d = build_clinical_dataset()
        cfg = clinical_config(seed=0)
        result = lookahead_search(d, cfg, "h3", lookahead=2)
        assert result.success and result.excluded_count(d) == 11
        assert result.evaluations == 115_280
        monkeypatch.setattr(search, "_pattern_bounds", unbounded)
        every = lookahead_search(d, cfg, "h3", lookahead=2)
        assert every.evaluations == 476_025
        assert run_outcome(result) == run_outcome(every)

    def test_bound_r_close_below_the_floor_is_scored(self, monkeypatch):
        # one row removed per step from groups A, B, C, each set's r and
        # its pattern's bound alike by group: A's pattern goes first (bound
        # +inf), B's bound is r_close below A's r, so B's sets may join the
        # top chain and are scored; C's is further below, and is skipped
        rng = np.random.default_rng(3)
        d = Dataset([f"s{i}" for i in range(9)], list("ABCABCABC"),
                    rng.normal(size=(9, 1)), ["x"])
        engine = search._Engine(d, MatchConfig(
            criteria=CriteriaSet((CriterionSpec("welch_t", "x", ("A", "B"), 0.2),)),
            min_group_size=1), None)
        by_group = np.array([1.0, 1.0 - 0.5e-12, 1.0 - 2e-12])
        monkeypatch.setattr(engine, "score", lambda keep, combos, *floor: by_group[
            d.group_codes[np.asarray(combos)[:, 0]]])
        monkeypatch.setattr(search, "_pattern_bounds", lambda touches, patterns, ceiling:
                            np.where(patterns[:, 0] > 0, np.inf, patterns @ by_group))
        walk = search._Walk(engine)
        step = search._evaluate_step(engine, walk, 1, np.zeros(1))
        every = search._evaluate_step(engine, walk, 1, None)
        assert sorted(set(d.group_codes[step.combos[:, 0]].tolist())) == [0, 1]
        assert len(every.combos) == 9
        assert (step.combos[search._argmax_pool(engine, step)].tolist()
                == every.combos[search._argmax_pool(engine, every)].tolist())

    def test_anderson_darling_criteria_give_a_bound(self, monkeypatch):
        # the clinical criteria, each on Anderson-Darling instead: every one
        # reads two of the four groups, so patterns that leave one of them
        # untouched are bounded by its p on the current state
        d = build_clinical_dataset()
        criteria = CriteriaSet(tuple(
            CriterionSpec("anderson_darling", c.covariate, c.group_subset, c.alpha)
            for c in clinical_criteria()))
        cfg = clinical_config(seed=0, criteria=criteria)
        engine = search._Engine(d, cfg, None)
        assert engine.touches.tolist() == [
            [g in c.group_subset for c in criteria] for g in d.group_labels]
        result = lookahead_search(d, cfg, "h3", lookahead=1)
        assert result.success and result.excluded_count(d) == 11
        assert result.evaluations == 3_938
        monkeypatch.setattr(search, "_pattern_bounds", unbounded)
        every = lookahead_search(d, cfg, "h3", lookahead=1)
        assert every.evaluations == 10_901
        assert run_outcome(result) == run_outcome(every)

    def test_batched_steps_skip_nothing(self):
        # a reversion threshold above 1 keeps the walk batching to the end,
        # and a batch is planned from the ranking of every candidate
        d = build_clinical_dataset()
        cfg = clinical_config(seed=0, batch_size=3, reversion_threshold=2.0)
        result = lookahead_search(d, cfg, "h3", lookahead=1)
        assert result.success and result.excluded_count(d) == 15
        assert result.evaluations == 4_906


class TestFeasibilityArithmetic:
    def test_pattern_counts_sum_to_the_generating_function(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sizes = rng.integers(1, 40, size=int(rng.integers(2, 6))).tolist()
            rooms = [int(rng.integers(0, s + 1)) for s in sizes]
            bound = int(rng.integers(0, 12))
            counted = 0
            for depth in range(bound + 1):
                patterns = search._patterns(rooms, depth)
                assert patterns == sorted(set(patterns))
                assert all(sum(p) == depth and all(0 <= c <= r for c, r in zip(p, rooms))
                           for p in patterns)
                counted += sum(math.prod(map(math.comb, sizes, p)) for p in patterns)
            assert counted == search._count_removal_sets(sizes, rooms, bound)

    def test_known_counts(self):
        assert count_configurations(40, 3) == 10_701
        assert count_configurations(40, 5) == 760_099
        assert count_configurations(123, 0) == 1
        assert count_configurations(5, 5) == 32

    def test_exact_big_integers(self):
        # float arithmetic overflows near N ~ 1030; exact integers must not
        value = count_configurations(1100, 550)
        assert isinstance(value, int)
        assert value > 10**300

    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            count_configurations(10, 11)
        with pytest.raises(ValidationError):
            count_configurations(10, -1)

    def test_estimate_formatting(self):
        assert format_duration(10.701) == "≈ 11 seconds"
        assert format_duration(760.099) == "≈ 13 minutes"
        assert format_duration(0.01) == "instantaneous"
        assert format_duration(3600 * 34 * 24 * 365) == "≈ 34 years"

    def test_estimate_with_forced_rate(self):
        d = build_two_group_dataset(20, 0.5, seed=13)
        cfg = base_config()
        est = estimate_exhaustive(d, cfg, heuristic_removals=5, calibrated_rate=1000.0)
        assert est.configurations == count_configurations(40, 5)
        assert est.seconds == pytest.approx(760.099, abs=1e-9)
        assert "13 minutes" in est.describe()
        assert est.feasible

    def test_estimate_counts_what_exhaustive_enumerates(self):
        # brute force over every removal set under locks, per-group caps,
        # min_group_size and the total cap; groups this far apart never
        # match, so exhaustive search scores every state to the bound
        rng = np.random.default_rng(31)
        for trial in range(30):
            sizes = rng.integers(2, 6, size=int(rng.integers(2, 4)))
            labels = [f"g{i}" for i in range(sizes.size)]
            groups = [g for g, n in zip(labels, sizes) for _ in range(n)]
            values = np.array([100.0 * labels.index(g) for g in groups])
            values += rng.normal(size=values.size)
            d = Dataset([f"s{i}" for i in range(len(groups))], groups,
                        values[:, None], ["x"])
            floor = int(rng.integers(1, 3))
            locked = {g for g in labels if rng.random() < 0.3}
            caps = {g: int(rng.integers(0, 4)) for g in labels
                    if g not in locked and rng.random() < 0.5}
            total = int(rng.integers(0, 5)) if rng.random() < 0.5 else None
            specs = tuple(CriterionSpec("welch_t", "x", (a, b), 0.2)
                          for a, b in itertools.combinations(labels, 2))
            cfg = MatchConfig(criteria=CriteriaSet(specs), min_group_size=floor,
                              locked_groups=frozenset(locked),
                              max_removed_per_group=caps, max_removed_total=total)
            bound = int(rng.integers(0, d.n_subjects + 1))
            limit = {g: 0 if g in locked else min(n - floor, caps.get(g, n))
                     for g, n in zip(labels, sizes.tolist())}
            brute = 0
            for depth in range(bound + 1):
                if total is not None and depth > total:
                    break
                for rows in itertools.combinations(range(d.n_subjects), depth):
                    taken = [groups[i] for i in rows]
                    if all(taken.count(g) <= limit[g] for g in labels):
                        brute += 1
            est = estimate_exhaustive(d, cfg, bound, calibrated_rate=1.0)
            assert est.configurations == brute
            result = exhaustive_search(d, cfg, max_removed=bound)
            assert not result.success
            assert result.evaluations == brute * len(specs)

    def test_estimate_under_locks_and_caps(self):
        # three groups of 8 (locked), 10 and 10 rows, two of each unlocked
        # group and three in all removable: 1 + 20 + 190 + 900 states
        groups = ["A"] * 8 + ["B"] * 10 + ["C"] * 10
        d = Dataset([f"s{i}" for i in range(28)], groups,
                    np.arange(28.0)[:, None], ["x"])
        cfg = MatchConfig(
            criteria=CriteriaSet((CriterionSpec("welch_t", "x", ("B", "C"), 0.2),)),
            locked_groups=frozenset({"A"}),
            max_removed_per_group={"B": 2, "C": 2},
            max_removed_total=3,
        )
        est = estimate_exhaustive(d, cfg, 3, calibrated_rate=1000.0)
        assert est.configurations == 1111
        assert count_configurations(28, 3) == 3683
        # the clinical fixture with SLI locked
        est = estimate_exhaustive(build_clinical_dataset(), clinical_config(), 5,
                                  calibrated_rate=1000.0)
        assert est.configurations == 58_079_029

    def test_estimate_zero_bound(self):
        d = build_two_group_dataset(20, 0.5, seed=13)
        est = estimate_exhaustive(d, base_config(), 0, calibrated_rate=1000.0)
        assert est.configurations == 1
        assert "instantaneous" in est.describe()

    def test_estimate_measures_rate_when_omitted(self):
        d = build_two_group_dataset(15, 0.5, seed=14)
        est = estimate_exhaustive(
            d, base_config(), 2, calibration_seconds=0.05
        )
        assert est.rate > 0
        assert est.seconds > 0

    def test_estimate_calibrates_on_removal_scoring(self, monkeypatch):
        """The rate is measured on the path exhaustive search takes: batch
        scoring of the removal sets of the deepest depth counted, from the
        full set and against a fresh depth's floor, never a full-mask
        evaluation, and it counts removal sets, not calls."""
        d = build_two_group_dataset(15, 0.5, seed=14)
        calls = []
        score = CriteriaEvaluator.score_removals

        def counting(self, keep, combos, floor=None):
            calls.append((keep.copy(), np.array(combos), floor))
            return score(self, keep, combos, floor)

        def forbidden(self, keep):
            raise AssertionError("calibration evaluated a full mask")

        monkeypatch.setattr(CriteriaEvaluator, "score_removals", counting)
        monkeypatch.setattr(CriteriaEvaluator, "evaluate", forbidden)
        clock = iter(range(100))
        monkeypatch.setattr(
            "groupmatch.search.time.perf_counter", lambda: float(next(clock))
        )
        est = estimate_exhaustive(d, base_config(), 2, calibration_seconds=3.5)
        # clock reads: begin 0, checks 1, 2, 3 pass and 4 stops, end 5:
        # three calls in five seconds
        assert len(calls) == 3
        pairs = list(itertools.combinations(range(d.n_subjects), 2))   # one chunk of 435
        for keep, combos, floor in calls:
            assert keep.all()
            assert [tuple(c) for c in combos.tolist()] == pairs
            # a fresh depth's floor: none before any set is scored, then
            # the chain floor of the r values scored, and 1 once one matches
            assert floor(np.empty(0)) == -math.inf
            assert floor(np.array([0.25, np.nan, 0.5])) == 0.5
            assert floor(np.array([0.25, 3.0])) == 1.0
        assert est.rate == pytest.approx(3 * len(pairs) / 5.0)
        assert est.seconds == pytest.approx(est.configurations / est.rate)

    def test_estimate_calibrates_on_the_rows_search_may_remove(self, monkeypatch):
        # a locked group's rows are never removed, so they are not timed
        d = build_two_group_dataset(15, 0.5, seed=14)
        seen = []
        score = CriteriaEvaluator.score_removals

        def recording(self, keep, combos, *floor):
            seen.extend(np.asarray(combos).ravel().tolist())
            return score(self, keep, combos, *floor)

        monkeypatch.setattr(CriteriaEvaluator, "score_removals", recording)
        cfg = base_config(locked_groups=frozenset({"A"}))
        estimate_exhaustive(d, cfg, 2, calibration_seconds=0.01)
        assert set(seen) == set(d.group_index["B"].tolist())
        # nothing to remove: the full set alone is timed
        seen.clear()
        estimate_exhaustive(d, base_config(max_removed_total=0), 2,
                            calibration_seconds=0.01)
        assert seen == []

    @pytest.mark.parametrize("n_groups, per_group, removals", [(8, 20, 40), (4, 100, 100)])
    def test_estimate_calibrates_promptly_on_many_groups_and_deep_bounds(
            self, monkeypatch, n_groups, per_group, removals):
        """The patterns of a depth grow as depth**(groups - 1), so the
        default calibration takes its one chunk of the deepest depth
        without listing them, and answers in about its calibration time."""
        rng = np.random.default_rng(3)
        labels = [f"g{g}" for g in range(n_groups)]
        groups = [g for g in labels for _ in range(per_group)]
        d = Dataset([f"s{i}" for i in range(len(groups))], groups,
                    rng.normal(size=(len(groups), 1)), ["x"])
        cfg = MatchConfig(criteria=CriteriaSet(tuple(
            CriterionSpec("welch_t", "x", pair, 0.2)
            for pair in itertools.combinations(labels, 2))), seed=7)
        seen = []
        score = CriteriaEvaluator.score_removals

        def recording(self, keep, combos, *floor):
            seen.append(np.array(combos))
            return score(self, keep, combos, *floor)

        def listing(room, depth):
            raise AssertionError("calibration listed every pattern")

        monkeypatch.setattr(CriteriaEvaluator, "score_removals", recording)
        monkeypatch.setattr(search, "_patterns", listing)
        begin = time.perf_counter()
        est = estimate_exhaustive(d, cfg, removals)
        assert time.perf_counter() - begin < 10.0
        assert est.rate > 0 and not est.feasible
        room = per_group - cfg.min_group_size
        for combos in seen:
            # distinct sets of the deepest depth, in lexicographic order,
            # each within every group's room
            assert combos.shape == (search._SCORE_CHUNK, removals)
            assert np.array_equal(np.unique(combos, axis=0), combos)
            assert (np.diff(combos, axis=1) > 0).all()
            counts = np.stack([np.bincount(d.group_codes[c], minlength=n_groups)
                               for c in combos])
            assert (counts <= room).all()
