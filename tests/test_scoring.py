"""Batch scoring of removal sets and keep-masks
(``CriteriaEvaluator.score_removals`` and ``score_masks``).

Every removal set or mask scored in one pass must agree with evaluating its
subset on its own: the same sets undefined, r within 1e-11 relative, and the
Student t tail bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import groupmatch.stats as stats
from groupmatch.criteria import CriteriaEvaluator, CriteriaSet, CriterionSpec, MatchConfig
from groupmatch.dataset import Dataset
from groupmatch.errors import UndefinedTestError
from groupmatch.search import exhaustive_search, greedy_search, lookahead_search
from groupmatch.stats import (
    BUILTIN_AD,
    TestFunction,
    TestRegistry,
    anderson_darling_p,
    anderson_darling_p_masks,
    student_t_sf,
    student_t_sf_array,
    welch_t_p,
)

R_REL_TOL = 1e-11


def per_subset(evaluator, keep, combos):
    """Reference: each removal set evaluated on its own subset; None where
    a test is undefined."""
    out = []
    for combo in combos:
        mask = keep.copy()
        mask[list(combo)] = False
        try:
            out.append(evaluator.evaluate(mask))
        except UndefinedTestError:
            out.append(None)
    return out


def assert_agrees(evaluator, keep, combos):
    combos = np.array(combos, dtype=np.intp).reshape(len(combos), -1)
    ps, defined = evaluator.score_removals(keep, combos)
    alphas = np.array([c.alpha for c in evaluator.criteria])
    reference = per_subset(evaluator, keep, combos)
    assert defined.tolist() == [ref is not None for ref in reference]
    for row, ref in zip(ps, reference):
        if ref is None:
            continue
        r = float(np.min(row / alphas))
        assert abs(r - ref[0]) <= R_REL_TOL * abs(ref[0])
    return ps, defined, reference


def make_dataset(rng, sizes, integer):
    groups = [f"g{i}" for i, n in enumerate(sizes) for _ in range(n)]
    n = len(groups)
    if integer:
        values = rng.integers(0, 5, size=(n, 2)).astype(float)
    else:
        values = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0, size=2)
    return Dataset([f"s{i}" for i in range(n)], groups, values, ["a", "b"])


def pairwise_welch(labels):
    specs = []
    for x, y in itertools.combinations(labels, 2):
        specs.append(CriterionSpec("welch_t", "a", (x, y), 0.2))
        specs.append(CriterionSpec("welch_t", "b", (x, y), 0.3))
    return CriteriaSet(tuple(specs))


def removable_combos(dataset, keep, locked, size):
    rows = [
        int(i)
        for i in np.flatnonzero(keep)
        if dataset.group_labels[dataset.group_codes[i]] not in locked
    ]
    return list(itertools.combinations(rows, size))


class TestAgainstPerSubset:
    @pytest.mark.parametrize("n_groups", [2, 4])
    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "ties"])
    def test_random_instances(self, n_groups, integer):
        rng = np.random.default_rng(100 * n_groups + integer)
        scored = 0
        for _ in range(6):
            sizes = rng.integers(3, 9, size=n_groups)
            d = make_dataset(rng, sizes, integer)
            ev = CriteriaEvaluator(d, pairwise_welch(d.group_labels))
            # a walk already under way: a few rows gone, with four groups one
            # of them locked, and removals may take a group down to one row
            keep = np.ones(d.n_subjects, dtype=bool)
            keep[rng.choice(d.n_subjects, 2, replace=False)] = False
            locked = {d.group_labels[0]} if n_groups == 4 else set()
            for g in locked:
                keep[d.group_index[g]] = True
            for size in (1, 2, 3):
                combos = removable_combos(d, keep, locked, size)
                assert_agrees(ev, keep, combos)
                scored += len(combos)
        assert scored > 300

    def test_integer_ties_undefined_sets(self):
        # small integer groups: many removal sets leave a constant group or a
        # single row, and those must be undefined exactly when evaluate says
        rng = np.random.default_rng(7)
        undefined = 0
        for _ in range(20):
            d = make_dataset(rng, (3, 4), integer=True)
            ev = CriteriaEvaluator(d, pairwise_welch(d.group_labels))
            keep = np.ones(d.n_subjects, dtype=bool)
            for size in (1, 2):
                combos = removable_combos(d, keep, set(), size)
                _, defined, _ = assert_agrees(ev, keep, combos)
                undefined += int((~defined).sum())
        assert undefined > 0

    def test_empty_removal_set_is_the_base(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng, (6, 7), integer=False)
        ev = CriteriaEvaluator(d, pairwise_welch(d.group_labels))
        keep = np.ones(d.n_subjects, dtype=bool)
        ps, defined = ev.score_removals(keep, np.zeros((1, 0), dtype=np.intp))
        assert defined.tolist() == [True]
        assert tuple(ps[0]) == ev.p_values(keep)


def one_column(groups, values):
    return Dataset(
        [f"s{i}" for i in range(len(values))], groups,
        np.asarray(values, dtype=float)[:, None], ["a"],
    )


class TestDegenerateGroups:
    def welch(self, d):
        return CriteriaEvaluator(
            d, CriteriaSet((CriterionSpec("welch_t", "a", ("A", "B"), 0.2),))
        )

    def test_constant_groups_equal_means_give_p_one(self):
        d = one_column(["A"] * 4 + ["B"] * 5, [5, 5, 5, 5, 5, 5, 5, 5, 9])
        ev = self.welch(d)
        keep = np.ones(d.n_subjects, dtype=bool)
        ps, defined, _ = assert_agrees(ev, keep, [(8,)])
        assert defined.tolist() == [True] and ps[0, 0] == 1.0

    def test_constant_groups_unequal_means_undefined(self):
        d = one_column(["A"] * 4 + ["B"] * 5, [3, 3, 3, 3, 5, 5, 5, 5, 9])
        ev = self.welch(d)
        keep = np.ones(d.n_subjects, dtype=bool)
        _, defined, _ = assert_agrees(ev, keep, [(8,), (7,), (0,)])
        assert defined.tolist() == [False, True, True]

    def test_group_down_to_one_row_undefined(self):
        d = one_column(["A"] * 3 + ["B"] * 4, [1.0, 2.5, 4.0, 0.5, 1.5, 2.0, 3.0])
        ev = self.welch(d)
        keep = np.ones(d.n_subjects, dtype=bool)
        combos = list(itertools.combinations(range(d.n_subjects), 2))
        _, defined, _ = assert_agrees(ev, keep, combos)
        assert not defined[combos.index((0, 1))]
        assert defined[combos.index((3, 4))]

    def test_nearly_constant_group_after_removal(self):
        # removing the outlier leaves a spread 1e-6 of the original: too
        # little left to downdate, so the set is scored on its own subset
        d = one_column(
            ["A"] * 5 + ["B"] * 5,
            [0.0, 1e-6, 2e-6, 0.0, 1e3, 0.1, 0.4, 0.2, 0.3, 0.5],
        )
        assert_agrees(self.welch(d), np.ones(d.n_subjects, dtype=bool), [(4,)])


class TestMixedAndCustomTests:
    def test_welch_with_anderson_darling(self):
        rng = np.random.default_rng(21)
        d = make_dataset(rng, (7, 8, 6), integer=False)
        specs = [
            CriterionSpec("anderson_darling", "a", ("g0", "g1", "g2"), 0.2),
            CriterionSpec("welch_t", "a", ("g0", "g1"), 0.2),
            CriterionSpec("anderson_darling", "b", ("g1", "g2"), 0.25),
            CriterionSpec("welch_t", "b", ("g0", "g2"), 0.3),
        ]
        ev = CriteriaEvaluator(d, CriteriaSet(tuple(specs)))
        keep = np.ones(d.n_subjects, dtype=bool)
        for size in (1, 2):
            combos = removable_combos(d, keep, set(), size)
            ps, defined, reference = assert_agrees(ev, keep, combos)
            # Anderson-Darling is scored in blocks from one pooled sort, with
            # the per-subset sums in the same order: the same bits
            for row, ref in zip(ps[defined], [r for r in reference if r]):
                for j in (0, 2):
                    assert row[j] == ref[1][j]

    def test_registry_override_of_welch_is_honoured(self):
        calls = []

        def fake_welch(samples):
            calls.append(len(samples[0]) + len(samples[1]))
            return 0.5 if len(samples[0]) % 2 else 0.05

        registry = TestRegistry(include_builtin=False)
        registry.register(TestFunction("welch_t", "two_sample", fake_welch))
        rng = np.random.default_rng(5)
        d = make_dataset(rng, (6, 6), integer=False)
        crit = CriteriaSet((CriterionSpec("welch_t", "a", ("g0", "g1"), 0.2),))
        ev = CriteriaEvaluator(d, crit, registry)
        keep = np.ones(d.n_subjects, dtype=bool)
        combos = np.arange(d.n_subjects)[:, None]
        ps, defined = ev.score_removals(keep, combos)
        assert defined.all() and len(calls) == d.n_subjects
        expected = [0.5 if row < 6 else 0.05 for row in range(d.n_subjects)]
        assert ps[:, 0].tolist() == expected

    def test_same_kernel_under_another_instance_is_per_subset(self):
        registry = TestRegistry(include_builtin=False)
        registry.register(
            TestFunction("welch_t", "two_sample", lambda s: welch_t_p(s[0], s[1]))
        )
        rng = np.random.default_rng(6)
        d = make_dataset(rng, (6, 7), integer=False)
        crit = CriteriaSet((CriterionSpec("welch_t", "a", ("g0", "g1"), 0.2),))
        ev = CriteriaEvaluator(d, crit, registry)
        keep = np.ones(d.n_subjects, dtype=bool)
        combos = removable_combos(d, keep, set(), 2)
        ps, defined, reference = assert_agrees(ev, keep, combos)
        assert [row[0] for row in ps[defined]] == [r[1][0] for r in reference if r]

    def test_registry_override_of_anderson_darling_is_honoured(self):
        calls = []

        def fake_ad(samples):
            calls.append(sum(len(s) for s in samples))
            return 0.5 if len(samples[0]) % 2 else 0.05

        registry = TestRegistry(include_builtin=False)
        registry.register(TestFunction("anderson_darling", "k_sample", fake_ad))
        rng = np.random.default_rng(8)
        d = make_dataset(rng, (6, 6, 5), integer=False)
        crit = CriteriaSet(
            (CriterionSpec("anderson_darling", "a", ("g0", "g1", "g2"), 0.2),)
        )
        ev = CriteriaEvaluator(d, crit, registry)
        keep = np.ones(d.n_subjects, dtype=bool)
        ps, defined = ev.score_removals(keep, np.arange(d.n_subjects)[:, None])
        assert defined.all() and len(calls) == d.n_subjects
        assert ps[:, 0].tolist() == [
            0.5 if row < 6 else 0.05 for row in range(d.n_subjects)
        ]
        keeps = random_masks(rng, d.n_subjects, 12)
        ps, defined = ev.score_masks(keeps)
        assert defined.all() and len(calls) == d.n_subjects + 12
        assert ps[:, 0].tolist() == [
            0.5 if keep[:6].sum() % 2 else 0.05 for keep in keeps
        ]

    def test_user_test_receives_the_samples_of_p_values(self):
        # whichever path scores a subset, a user-registered test receives
        # the samples p_values passes for it: same values, order and dtype
        received = []

        def recording(samples):
            received.append(list(samples))
            return 0.5

        registry = TestRegistry()
        registry.register(TestFunction("recording", "k_sample", recording))
        rng = np.random.default_rng(10)
        d = make_dataset(rng, (6, 7, 5), integer=False)
        crit = CriteriaSet(
            (CriterionSpec("recording", "b", ("g2", "g0", "g1"), 0.2),)
        )
        ev = CriteriaEvaluator(d, crit, registry)

        def batch_samples(score, *args):
            received.clear()
            score(*args)
            return list(received)

        def subset_samples(keep):
            received.clear()
            ev.p_values(keep)
            return received[0]

        keep = np.ones(d.n_subjects, dtype=bool)
        keep[[1, 9]] = False
        combos = removable_combos(d, keep, set(), 2)
        masks = []
        for combo in combos:
            mask = keep.copy()
            mask[list(combo)] = False
            masks.append(mask)
        masks += list(random_masks(rng, d.n_subjects, 20))
        got = batch_samples(ev.score_removals, keep, np.array(combos))
        got += batch_samples(ev.score_masks, np.array(masks[len(combos):]))
        assert len(got) == len(masks)
        for samples, mask in zip(got, masks):
            want = subset_samples(mask)
            assert len(samples) == len(want) == 3
            for a, b in zip(samples, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_builtin_anderson_darling_is_the_registered_instance(self):
        assert TestRegistry().get("anderson_darling") is BUILTIN_AD
        assert stats.default_registry.get("anderson_darling") is BUILTIN_AD

    def test_anderson_darling_under_another_instance_is_per_subset(self):
        registry = TestRegistry(include_builtin=False)
        registry.register(
            TestFunction("anderson_darling", "k_sample", anderson_darling_p)
        )
        rng = np.random.default_rng(9)
        d = make_dataset(rng, (6, 7, 5), integer=True)
        crit = CriteriaSet(
            (CriterionSpec("anderson_darling", "a", ("g0", "g1", "g2"), 0.2),)
        )
        ev = CriteriaEvaluator(d, crit, registry)
        keeps = random_masks(rng, d.n_subjects, 40)
        ps, defined = ev.score_masks(keeps)
        for keep, row, ok in zip(keeps, ps, defined):
            try:
                ref = ev.p_values(keep)
            except UndefinedTestError:
                assert not ok
                continue
            assert ok and row[0] == ref[0]


def mixed_criteria(labels):
    """Pairwise Welch on both covariates, Anderson-Darling over every group
    on one and over the first two groups on the other."""
    specs = list(pairwise_welch(labels))
    specs.append(CriterionSpec("anderson_darling", "a", tuple(labels), 0.2))
    specs.append(CriterionSpec("anderson_darling", "b", tuple(labels[:2]), 0.25))
    return CriteriaSet(tuple(specs))


def assert_masks_agree(evaluator, keeps):
    """score_masks against evaluate on each mask: the same masks undefined,
    every Anderson-Darling p-value bit for bit, and every p-value (so r too)
    within R_REL_TOL."""
    ps, defined = evaluator.score_masks(keeps)
    alphas = np.array([c.alpha for c in evaluator.criteria])
    ad = [j for j, c in enumerate(evaluator.criteria) if c.test_name == "anderson_darling"]
    for keep, row, ok in zip(keeps, ps, defined):
        try:
            r, ref = evaluator.evaluate(keep)
        except UndefinedTestError:
            assert not ok
            continue
        assert ok
        assert row[ad].tobytes() == np.array(ref)[ad].tobytes()
        assert np.all(np.abs(row - ref) <= R_REL_TOL * np.array(ref))
        assert abs(float(np.min(row / alphas)) - r) <= R_REL_TOL * abs(r)
    return ps, defined


def random_masks(rng, n, m):
    """Masks from nearly full down to a few rows, so groups drop below two."""
    rates = rng.uniform(0.15, 1.0, size=(m, 1))
    return rng.random((m, n)) < rates


class TestMasksAgainstPerSubset:
    @pytest.mark.parametrize("n_groups", [2, 4])
    @pytest.mark.parametrize("integer", [False, True], ids=["normal", "ties"])
    def test_random_masks(self, n_groups, integer):
        rng = np.random.default_rng(300 + 10 * n_groups + integer)
        undefined = 0
        for _ in range(5):
            d = make_dataset(rng, rng.integers(3, 10, size=n_groups), integer)
            ev = CriteriaEvaluator(d, mixed_criteria(list(d.group_labels)))
            _, defined = assert_masks_agree(ev, random_masks(rng, d.n_subjects, 60))
            undefined += int((~defined).sum())
        assert undefined > 0

    def test_identical_pooled_values(self):
        # every value of covariate b is equal: Anderson-Darling on b is
        # undefined on every mask, Welch on b gives p = 1
        rng = np.random.default_rng(12)
        n = 14
        values = np.column_stack([rng.normal(size=n), np.full(n, 2.5)])
        d = Dataset([f"s{i}" for i in range(n)], ["A"] * 7 + ["B"] * 7,
                    values, ["a", "b"])
        crit = CriteriaSet((
            CriterionSpec("welch_t", "b", ("A", "B"), 0.2),
            CriterionSpec("anderson_darling", "a", ("A", "B"), 0.2),
        ))
        _, defined = assert_masks_agree(
            CriteriaEvaluator(d, crit), random_masks(rng, n, 40)
        )
        ad_b = CriteriaSet((CriterionSpec("anderson_darling", "b", ("A", "B"), 0.2),))
        _, defined = assert_masks_agree(
            CriteriaEvaluator(d, ad_b), np.ones((3, n), dtype=bool)
        )
        assert not defined.any()

    def test_clamped_and_extrapolated_tails(self):
        # groups 40 sd apart extrapolate past the table's smallest level,
        # near-copies clamp p at 1
        rng = np.random.default_rng(13)
        far = np.concatenate([rng.normal(0, 1, 30), rng.normal(40, 1, 30)])
        near = np.concatenate([np.arange(30.0), np.arange(30.0) + 1e-3])
        d = Dataset([f"s{i}" for i in range(60)], ["A"] * 30 + ["B"] * 30,
                    np.column_stack([far, near]), ["a", "b"])
        crit = CriteriaSet((
            CriterionSpec("anderson_darling", "a", ("A", "B"), 0.2),
            CriterionSpec("anderson_darling", "b", ("A", "B"), 0.2),
        ))
        ps, defined = assert_masks_agree(
            CriteriaEvaluator(d, crit), random_masks(rng, 60, 50)
        )
        assert (ps[defined, 0] < 1e-3).any()
        assert (ps[defined, 1] == 1.0).any()

    def test_removal_sets_agree_with_their_masks(self):
        rng = np.random.default_rng(14)
        d = make_dataset(rng, (6, 7, 5), integer=True)
        ev = CriteriaEvaluator(d, mixed_criteria(list(d.group_labels)))
        keep = np.ones(d.n_subjects, dtype=bool)
        keep[[0, 9]] = False
        combos = np.array(removable_combos(d, keep, set(), 2), dtype=np.intp)
        masks = np.repeat(keep[None], len(combos), axis=0)
        masks[np.arange(len(combos))[:, None], combos] = False
        by_removal, defined = ev.score_removals(keep, combos)
        by_mask, defined_mask = ev.score_masks(masks)
        assert defined.tolist() == defined_mask.tolist()
        ad = [2 * 3, 2 * 3 + 1]        # the Anderson-Darling columns
        assert by_removal[defined][:, ad].tobytes() == by_mask[defined][:, ad].tobytes()

    def test_blocks_split_by_cell_count(self, monkeypatch):
        import groupmatch.criteria as criteria

        rng = np.random.default_rng(15)
        d = make_dataset(rng, (8, 9), integer=False)
        ev = CriteriaEvaluator(d, mixed_criteria(list(d.group_labels)))
        keeps = random_masks(rng, d.n_subjects, 30)
        whole = ev.score_masks(keeps)
        monkeypatch.setattr(criteria, "MASK_BLOCK_CELLS", 3 * d.n_subjects)
        split = ev.score_masks(keeps)
        assert whole[1].tolist() == split[1].tolist()
        assert whole[0].tobytes() == split[0].tobytes()


class TestAndersonDarlingMasks:
    def reference(self, values, codes, k, masks):
        out = []
        for keep in masks:
            try:
                out.append(anderson_darling_p(
                    [values[keep & (codes == g)] for g in range(k)]
                ))
            except UndefinedTestError:
                out.append(np.nan)
        return np.array(out)

    def test_agrees_with_per_subset(self):
        # 2-9 samples, ties, and each mask also scored in a block of its own:
        # the batch p has the bits of the per-subset p
        rng = np.random.default_rng(16)
        defined = 0
        for trial in range(80):
            k = int(rng.integers(2, 10))
            codes = np.repeat(np.arange(k), rng.integers(2, 12, size=k))
            if trial % 3 == 0:
                values = rng.integers(0, 4, size=codes.size).astype(float)
            else:
                values = rng.normal(size=codes.size) + codes * rng.uniform(0, 2)
            masks = random_masks(rng, codes.size, 30)
            got = anderson_darling_p_masks(values, codes, k, masks)
            want = self.reference(values, codes, k, masks)
            assert got.tobytes() == want.tobytes()
            alone = [anderson_darling_p_masks(values, codes, k, mask[None]) for mask in masks]
            assert np.concatenate(alone).tobytes() == want.tobytes()
            defined += int((~np.isnan(want)).sum())
        assert defined > 1000

    def test_null_variance_not_positive_gives_nan(self, monkeypatch):
        # a null variance that is NaN gives p = NaN per subset, and one that
        # is not positive raises there: NaN in the batch either way, in the
        # same masks
        real = stats._ad_variance_from

        def odd_nan_even_negative(k, N, H, h, g):
            out = real(k, N, H, h, g)
            N = np.asarray(N)
            return np.where(N % 2 == 1, np.nan, np.where(N % 4 == 2, -out, out))

        monkeypatch.setattr(stats, "_ad_variance_from", odd_nan_even_negative)
        rng = np.random.default_rng(17)
        codes = np.repeat(np.arange(3), [6, 7, 5])
        values = rng.normal(size=codes.size)
        masks = random_masks(rng, codes.size, 40)
        got = anderson_darling_p_masks(values, codes, 3, masks)
        want = self.reference(values, codes, 3, masks)
        assert got.tobytes() == want.tobytes()
        totals = masks.sum(axis=1)
        assert np.isnan(got[totals % 2 == 1]).all()
        assert np.isnan(got[totals % 4 == 2]).all()
        assert not np.isnan(got).all()


def per_subset_registry():
    """The built-in tests under new instances, so batch scoring takes the
    per-subset path for every criterion."""
    registry = TestRegistry(include_builtin=False)
    registry.register(
        TestFunction("welch_t", "two_sample", lambda s: welch_t_p(s[0], s[1]))
    )
    registry.register(
        TestFunction("anderson_darling", "k_sample", stats.anderson_darling_p)
    )
    return registry


class TestSearchesAgreeWithPerSubsetScoring:
    def outcome(self, result):
        return (
            [s.key() for s in result.solutions],
            [t.to_json() for t in result.trace],
            result.rank,
            result.p_values,
            result.evaluations,
        )

    def test_lookahead_with_lock_and_unit_floor(self):
        rng = np.random.default_rng(44)
        d = make_dataset(rng, (6, 9, 8), integer=True)
        config = MatchConfig(
            criteria=pairwise_welch(d.group_labels),
            locked_groups=frozenset({"g0"}),
            min_group_size=1,
            seed=2,
        )
        for run in (
            lambda reg: greedy_search(d, config, registry=reg),
            lambda reg: lookahead_search(d, config, "h3", lookahead=2, registry=reg),
            lambda reg: lookahead_search(d, config, "h4", lookahead=3, registry=reg),
            lambda reg: exhaustive_search(d, config, max_removed=3, registry=reg),
        ):
            batch = run(None)
            reference = run(per_subset_registry())
            assert self.outcome(batch) == self.outcome(reference)


class TestStudentTailArray:
    def test_bit_identical_to_scalar(self):
        t = np.array([0.0, 1e-9, 0.01, 0.3, 1.0, 1.96, 2.5, 4.0, 8.0, 15.0, 30.0])
        df = np.array([1.0, 1.7, 2.0, 3.0, 4.5, 9.0, 25.0, 120.0, 1e3, 1e4,
                       1e5, 1e6, 1e7, 1e8])
        tt, dd = (g.ravel() for g in np.meshgrid(np.concatenate([t, -t]), df))
        got = student_t_sf_array(tt, dd)
        want = np.array([student_t_sf(a, b) for a, b in zip(tt, dd)])
        assert got.tobytes() == want.tobytes()

    def test_non_convergence_is_reported(self, monkeypatch):
        monkeypatch.setattr(stats, "_INCBETA_MAX_ITER", 1)
        with pytest.raises(UndefinedTestError):
            student_t_sf(2.0, 10.0)
        assert np.isnan(student_t_sf_array(np.array([2.0]), np.array([10.0]))).all()
        rng = np.random.default_rng(9)
        d = make_dataset(rng, (6, 6), integer=False)
        ev = CriteriaEvaluator(d, pairwise_welch(d.group_labels))
        keep = np.ones(d.n_subjects, dtype=bool)
        combos = removable_combos(d, keep, set(), 1)
        _, defined, _ = assert_agrees(ev, keep, combos)
        assert not defined.any()

    @pytest.mark.parametrize("offset", [-24, -2, -1, 0, 1, 2, 16, 200])
    def test_scalar_bits_on_both_sides_of_the_crossover(self, offset, monkeypatch):
        # at most _SCALAR_TAILS elements run in the scalar function; more run
        # in the array kernel, which hands its last _SCALAR_TAILS open
        # fractions to the scalar one.  t from 0.1 to 30 and df from 1 to 1e8
        # spread the iteration counts (2 to 40), so fractions are still open
        # at the handover.  Each must give the scalar bits, with a NaN t,
        # t = 0, and under a low iteration limit fractions that fail to
        # converge (NaN)
        size = stats._SCALAR_TAILS + offset
        rng = np.random.default_rng(size)
        t = np.exp(rng.uniform(math.log(0.1), math.log(30.0), size))
        t *= rng.choice([-1.0, 1.0], size)
        df = np.exp(rng.uniform(0.0, math.log(1e8), size))
        t[:2] = np.nan, 0.0
        for limit in (stats._INCBETA_MAX_ITER, 6):
            monkeypatch.setattr(stats, "_INCBETA_MAX_ITER", limit)
            want = []
            for a, b in zip(t.tolist(), df.tolist()):
                try:
                    want.append(student_t_sf(a, b))
                except (UndefinedTestError, ValueError):   # NaN t; no convergence
                    want.append(np.nan)
            got = student_t_sf_array(t, df)
            assert got.tobytes() == np.array(want).tobytes()
            assert np.isnan(got[0]) and got[1] == 1.0
        assert np.isnan(got[2:]).any() and np.isfinite(got[2:]).any()

    def test_fraction_open_past_the_limit_in_the_scalar_finish_is_nan(self, monkeypatch):
        # 100 fractions at t = 0.1 converge in 3 iterations of the array
        # loop, which hands the 3 at t = 2, df = 1000 (40 iterations) to the
        # scalar finish; there they run out of iterations
        resumed = []
        cf = stats._incbeta_cf

        def spy(a, b, x, state=None):
            if state is not None:
                resumed.append(state[0])
            return cf(a, b, x, state)

        monkeypatch.setattr(stats, "_incbeta_cf", spy)
        monkeypatch.setattr(stats, "_INCBETA_MAX_ITER", 20)
        t = np.r_[np.full(100, 0.1), np.full(3, 2.0)]
        df = np.r_[np.full(100, 10.0), np.full(3, 1e3)]
        got = student_t_sf_array(t, df)
        assert resumed == [4, 4, 4]
        assert np.isfinite(got[:100]).all() and np.isnan(got[100:]).all()
        monkeypatch.setattr(stats, "_INCBETA_MAX_ITER", 40)
        assert np.isfinite(student_t_sf_array(t, df)).all()
