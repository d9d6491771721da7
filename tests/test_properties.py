"""Property tests over small random problems.

* Every search returns only solutions, and walks only through states, that
  keep every constraint: locks, per-group caps, the total cap and the
  minimum group size, under every setting of the batching and random-draw
  options.
* A run replays identically under the same seed.
* The removal sets of a search step, built from its count patterns, are
  exactly the sets ``itertools.combinations`` gives, in its order, that a
  per-set check of the constraints accepts.
* A step that skips the count patterns its criterion-locality bound rules
  out gives the run of a step that scores every set, and no scored set
  has an r above its bound.
* Exhaustive search's class enumerator gives the sets of each depth that
  ``itertools.combinations`` gives and ``_Feasibility.allows`` accepts:
  balance classes best first, each in canonical order.
* A step's best-candidate pool and its lazy-batch ranking equal a
  sequential scan and a Python sort over every candidate; the r-only tie
  scan equals a sequential scan that skips undefined (NaN) r.
* The keeper stores the states that offering every state, one at a time,
  to the pool rules stores.
* The scalar and the array Student t tails give the same bits, for int,
  float and numpy float inputs alike.
* ``welch_t`` gives the bits of the same test written with ``.mean()`` and
  ``.var(ddof=1)``.
* ``score_removals``, which downdates every (covariate, group) of the Welch
  criteria in one array pass, gives the bytes of (p, defined) that a
  downdate of one (covariate, group) at a time gives.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmatch import search, stats
from groupmatch.criteria import (
    _DOWNDATE_REL_FLOOR,
    RANK_REL_TOL,
    CriteriaEvaluator,
    CriteriaSet,
    CriterionSpec,
    MatchConfig,
    SolutionRank,
    _compare_balance,
    balance_close,
    balance_from_counts,
    compare_solutions,
    r_close,
)
from groupmatch.dataset import Dataset
from groupmatch.errors import UndefinedTestError
from groupmatch.stats import (
    BUILTIN_WELCH,
    WelchResult,
    _mean_ss,
    student_t_sf,
    student_t_sf_array,
    welch_t,
)

# fixed examples, and no example database written next to the tests
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
RANKING = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """A dataset of 2-4 groups and 6-14 rows with random constraints."""
    k = draw(st.integers(2, 4))
    labels = [f"g{i}" for i in range(k)]
    n_rows = draw(st.integers(max(6, 2 * k), 14))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n_rows - 2 * k,
                          max_size=n_rows - 2 * k))
    sizes = [2 + extra.count(g) for g in range(k)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids, groups, values = [], [], []
    for g, size in zip(labels, sizes):
        x = rng.normal(rng.normal(0.0, 1.5), 1.0, size=(size, 2))
        if draw(st.booleans()):
            x = np.round(x)   # ties and constant groups
        for i in range(size):
            ids.append(f"{g}_{i}")
            groups.append(g)
            values.append(x[i])
    dataset = Dataset(ids, groups, np.array(values), ["x", "y"])

    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    alpha = draw(st.sampled_from([0.2, 0.5]))
    specs = [CriterionSpec("welch_t", "x", pair, alpha) for pair in chosen]
    if draw(st.booleans()):
        specs.append(CriterionSpec("anderson_darling", "y", tuple(labels), alpha))

    locked = frozenset(g for g in labels if draw(st.integers(0, 3)) == 0)
    min_size = draw(st.integers(1, min(2, *sizes)))
    caps = {
        g: draw(st.integers(0, 4))
        for g in labels
        if g not in locked and draw(st.booleans())
    }
    total = draw(st.none() | st.integers(0, 6))
    precedence = draw(st.none() | st.permutations(labels))
    config = MatchConfig(
        criteria=CriteriaSet(tuple(specs)),
        balance_mode="proportions" if precedence is None else "precedence",
        precedence=precedence,
        locked_groups=locked,
        max_removed_per_group=caps,
        max_removed_total=total,
        min_group_size=min_size,
        seed=draw(st.integers(0, 1000)),
        pool_cap=draw(st.integers(1, 4)),
    )
    return dataset, config


def room_of(dataset, config) -> np.ndarray:
    """Rows each group may lose, worked out from the config on its own."""
    room = []
    for g in dataset.group_labels:
        size = len(dataset.group_index[g])
        if g in config.locked_groups:
            room.append(0)
        else:
            room.append(min(size - config.min_group_size,
                            config.max_removed_per_group.get(g, size)))
    return np.array(room)


def assert_within_limits(dataset, config, keep) -> None:
    kept = np.bincount(dataset.group_codes[keep], minlength=dataset.n_groups)
    removed = dataset.group_sizes() - kept
    for i, g in enumerate(dataset.group_labels):
        if g in config.locked_groups:
            assert removed[i] == 0, f"locked group {g} lost rows"
        else:
            assert kept[i] >= config.min_group_size, f"group {g} below minimum"
        assert removed[i] <= config.max_removed_per_group.get(g, removed[i])
    if config.max_removed_total is not None:
        assert removed.sum() <= config.max_removed_total


def unbatched(config):
    """Batched removal needs lookahead 1; searches of larger sets run without it."""
    return config.with_(batch_fraction=None)


RUNNERS = {
    "random": lambda d, c: search.random_search(d, c, iterations=50),
    "greedy": search.greedy_search,
    "h3_L1": lambda d, c: search.lookahead_search(d, c, "h3", lookahead=1),
    "h4_L1": lambda d, c: search.lookahead_search(d, c, "h4", lookahead=1),
    "h3_L2": lambda d, c: search.lookahead_search(d, unbatched(c), "h3", lookahead=2),
    "h4_L2": lambda d, c: search.lookahead_search(d, unbatched(c), "h4", lookahead=2),
    "exhaustive": lambda d, c: search.exhaustive_search(d, c, max_removed=3),
}

# search options that no fixed example or benchmark input sets; a reversion
# threshold of 2 keeps a batched walk batching until it matches
OPTIONS = st.fixed_dictionaries({
    "batch_fraction": st.none() | st.sampled_from([0.2, 0.5, 1.0]),
    "reversion_threshold": st.sampled_from([0.5, 2.0]),
    "schedule_jitter": st.booleans(),
    "random_schedule": st.sampled_from(["geometric", "linear"]),
    "ensure_feasible_draws": st.booleans(),
    "max_solutions": st.integers(1, 3),
})


def outcome(result):
    """Everything a run reports that does not depend on the clock."""
    return (
        [state.keep.tobytes() for state in result.solutions],
        [step.to_json() for step in result.trace],
        repr(result.rank),
        repr(result.p_values),
        result.evaluations,
        result.success,
    )


@SETTINGS
@given(problems(), OPTIONS)
def test_solutions_keep_every_constraint(problem, options):
    dataset, config = problem
    config = config.with_(**options)
    for runner in RUNNERS.values():
        try:
            result = runner(dataset, config)
        except UndefinedTestError:
            continue
        for state in result.solutions:
            assert_within_limits(dataset, config, state.keep)
        # every state a constructive walk passed through, batches included
        row_of = {s: i for i, s in enumerate(dataset.subject_ids)}
        keep = np.ones(dataset.n_subjects, dtype=bool)
        for step in result.trace:
            keep[row_of[step.removed_id]] = False
            assert_within_limits(dataset, config, keep)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(problems(), OPTIONS)
def test_same_seed_replays_identically(problem, options):
    dataset, config = problem
    config = config.with_(**options)
    for name, runner in RUNNERS.items():
        try:
            first = outcome(runner(dataset, config))
        except UndefinedTestError:
            continue
        assert outcome(runner(dataset, config)) == first, name


def reference_sets(dataset, room, cap, keep, removed, size):
    """The removal sets of one step by the per-set rule: kept rows of the
    groups with room left, every combination of them, each checked on its
    own against the total cap and the room of every group it touches."""
    if cap is not None and removed.sum() >= cap:
        return []
    open_rows = [
        row for row in range(dataset.n_subjects)
        if keep[row] and removed[dataset.group_codes[row]] < room[dataset.group_codes[row]]
    ]
    out = []
    for combo in itertools.combinations(open_rows, size):
        if cap is not None and removed.sum() + size > cap:
            continue
        per_group = np.bincount(dataset.group_codes[list(combo)],
                                minlength=dataset.n_groups)
        if np.all(removed + per_group <= room):
            out.append(combo)
    return out


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_removal_sets_match_per_set_rule(problem, seed, chunk):
    dataset, config = problem
    engine = search._Engine(dataset, config, None)
    room = room_of(dataset, config)
    assert engine.feasible.room.tolist() == room.tolist()
    # walk a few random feasible removals, then enumerate every step size
    rng = np.random.default_rng(seed)
    walk = search._Walk(engine)
    for _ in range(int(rng.integers(0, 4))):
        rows = engine.feasible.open_rows(walk.keep, walk.removed_counts)
        if not rows.size:
            break
        walk.remove(int(rng.choice(rows)))
    sizes: list[int] = []   # of the chunks scored

    def score(keep, combos):
        sizes.append(len(combos))
        return np.zeros(len(combos))

    with mock.patch.object(search, "_SCORE_CHUNK", chunk), \
            mock.patch.object(engine, "score", score):
        for size in range(1, 4):
            sizes.clear()
            # no bound: the step scores every set, in one pass
            step = search._evaluate_step(engine, walk, size, None)
            got = [] if step is None else [tuple(c) for c in step.combos.tolist()]
            assert got == reference_sets(dataset, room, config.max_removed_total,
                                         walk.keep, walk.removed_counts, size)
            assert all(n == chunk for n in sizes[:-1])
            assert all(0 < n <= chunk for n in sizes)


@st.composite
def enumerations(draw):
    """Groups of 1-7 rows, interleaved in row order, with random locks,
    per-group and total caps, ``min_group_size`` and balance mode."""
    k = draw(st.integers(2, 4))
    labels = [f"g{i}" for i in range(k)]
    locked = frozenset(g for g in labels if draw(st.integers(0, 3)) == 0)
    min_size = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1 if g in locked else min_size, 7)) for g in labels]
    groups = draw(st.permutations([g for g, n in zip(labels, sizes) for _ in range(n)]))
    dataset = Dataset([f"s{i}" for i in range(len(groups))], groups,
                      np.zeros((len(groups), 1)), ["x"])
    precedence = draw(st.none() | st.permutations(labels))
    config = MatchConfig(
        criteria=CriteriaSet((CriterionSpec("welch_t", "x", tuple(labels[:2]), 0.2),)),
        balance_mode="proportions" if precedence is None else "precedence",
        precedence=precedence,
        locked_groups=locked,
        max_removed_per_group={g: draw(st.integers(0, 4)) for g in labels
                               if g not in locked and draw(st.booleans())},
        max_removed_total=draw(st.none() | st.integers(0, 5)),
        min_group_size=min_size,
    )
    return dataset, config


@SETTINGS
@given(enumerations(), st.integers(1, 9), st.integers(1, 12))
def test_class_enumerator_matches_filtered_combinations(problem, chunk, block):
    dataset, config = problem
    codes = dataset.group_codes
    sizes = dataset.group_sizes()
    feasible = search._Feasibility(dataset, config)
    rows = feasible.open_rows(np.ones(dataset.n_subjects, dtype=bool),
                              np.zeros(dataset.n_groups, dtype=np.intp))
    cap = rows.size if config.max_removed_total is None else config.max_removed_total

    def pattern(combo) -> tuple[int, ...]:
        return tuple(np.bincount(codes[list(combo)], minlength=dataset.n_groups).tolist())

    for depth in range(min(4, rows.size, cap) + 1):
        balances = {
            p: balance_from_counts(dataset, config, sizes - p)
            for p in search._patterns(feasible.room, depth)
        }
        classes = search._balance_classes(balances)
        with mock.patch.object(search, "_SCORE_CHUNK", chunk), \
                mock.patch.object(search, "_CLASS_BLOCK", block):
            chunks = list(search._class_chunks(rows, codes[rows], classes, lambda k: False))
        assert all(len(sets) == chunk for sets, _ in chunks[:-1])
        got = [tuple(c) for sets, _ in chunks for c in sets.tolist()]
        # a tag indexes the patterns of every class in turn
        tagged = [p for patterns in classes for p in patterns]
        assert [tagged[t] for _, tags in chunks for t in tags.tolist()] == [
            pattern(c) for c in got]
        want = [c for c in itertools.combinations(rows.tolist(), depth)
                if feasible.allows(np.array(pattern(c)))]
        assert sorted(got) == want and len(set(got)) == len(got)
        # classes in turn, each in the order of itertools.combinations
        class_of = {p: k for k, patterns in enumerate(classes) for p in patterns}
        assert [class_of[pattern(c)] for c in got] == sorted(
            class_of[pattern(c)] for c in got)
        for patterns in classes:
            assert ([c for c in got if pattern(c) in patterns]
                    == [c for c in want if pattern(c) in patterns])
        # best first: a class's balances chain by balance_close, and each is
        # better than, and not close to, every balance of a later class
        for patterns in classes:
            for a, b in itertools.pairwise(patterns):
                assert _compare_balance(balances[a], balances[b]) == 0
                assert not balances[b] < balances[a]
        for k, patterns in enumerate(classes):
            for later in classes[k + 1:]:
                assert all(_compare_balance(balances[a], balances[b]) < 0
                           for a in patterns for b in later)


@st.composite
def local_problems(draw):
    """3-4 groups of 3-6 rows, interleaved, with two covariates shifted by
    group, random locks, caps, ``min_group_size`` and balance mode, under
    2-6 criteria, each on x or y: Welch or Anderson-Darling on a pair of
    groups, or Anderson-Darling on all of them, so that many removal sets
    leave some criterion untouched."""
    k = draw(st.integers(3, 4))
    labels = [f"g{i}" for i in range(k)]
    sizes = [draw(st.integers(3, 6)) for _ in labels]
    groups = draw(st.permutations([g for g, n in zip(labels, sizes) for _ in range(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = {g: rng.normal(0.0, 1.5, 2) for g in labels}
    values = np.array([rng.normal(shift[g], 1.0) for g in groups])
    if draw(st.booleans()):
        values = np.round(values)   # ties and constant groups
    dataset = Dataset([f"s{i}" for i in range(len(groups))], groups, values, ["x", "y"])
    options = [(test, c, pair) for test in ("welch_t", "anderson_darling")
               for c in ("x", "y") for pair in itertools.combinations(labels, 2)]
    options += [("anderson_darling", c, tuple(labels)) for c in ("x", "y")]
    chosen = draw(st.lists(st.sampled_from(options), min_size=2, max_size=6, unique=True))
    alpha = draw(st.sampled_from([0.2, 0.5]))
    locked = frozenset(g for g in labels if draw(st.integers(0, 4)) == 0)
    precedence = draw(st.none() | st.permutations(labels))
    config = MatchConfig(
        criteria=CriteriaSet(tuple(CriterionSpec(*c, alpha) for c in chosen)),
        balance_mode="proportions" if precedence is None else "precedence",
        precedence=precedence,
        locked_groups=locked,
        max_removed_per_group={g: draw(st.integers(1, 4)) for g in labels
                               if g not in locked and draw(st.integers(0, 3)) == 0},
        max_removed_total=draw(st.none() | st.integers(2, 8)),
        min_group_size=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 1000)),
        pool_cap=draw(st.integers(1, 4)),
    )
    return dataset, config


def no_bound(touches, patterns, ceiling):
    return np.full(len(patterns), np.inf)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(local_problems(), st.sampled_from(["greedy", "h3", "h4"]), st.integers(1, 3),
       st.sampled_from([1, 3]))
def test_skipped_patterns_change_nothing(problem, variant, size, batch):
    dataset, config = problem
    size = 1 if variant == "greedy" else size
    config = unbatched(config).with_(lookahead=size, batch_size=batch if size == 1 else 1)

    def run():
        try:
            if variant == "greedy":
                return outcome(search.greedy_search(dataset, config))
            return outcome(search.lookahead_search(dataset, config, variant))
        except UndefinedTestError:
            return None

    # on a criterion that a scored set leaves untouched (``_Engine.touches``:
    # it takes no row of the criterion's groups), the batch p has the bits
    # of the p that evaluate gives the state the set is scored from; so the
    # set's r is no higher than its bound, the lowest of those p_j / alpha_j
    alphas = [spec.alpha for spec in config.criteria]
    score = search._Engine.score

    def checked(engine, keep, combos):
        combos = np.asarray(combos, dtype=np.intp)
        rs = score(engine, keep, combos)
        evaluator = engine.evaluator
        try:
            _, ps = evaluator.evaluate(keep)
        except UndefinedTestError:
            return rs
        p, _ = evaluator.score_removals(keep, combos)
        for combo, r, row in zip(combos.tolist(), rs.tolist(), p.tolist()):
            untouched = np.flatnonzero(
                engine.touches[dataset.group_codes[combo]].sum(axis=0) == 0).tolist()
            assert all(math.isnan(row[j]) or row[j] == ps[j] for j in untouched)
            assert not r > min((ps[j] / alphas[j] for j in untouched), default=math.inf)
        return rs

    with mock.patch.object(search._Engine, "score", checked):
        skipping = run()
    with mock.patch.object(search, "_pattern_bounds", no_bound):
        scoring_all = run()
    if skipping is None:
        assert scoring_all is None
        return
    # the same solutions, trace, rank, p-values and success; fewer evaluations at most
    assert skipping[:4] + skipping[5:] == scoring_all[:4] + scoring_all[5:]
    assert skipping[4] <= scoring_all[4]


# ---------------------------------------------------------------------------
# the step pool and the lazy-batch ranking against sequential references
# ---------------------------------------------------------------------------


def reference_better(r_a, bal_a, r_b, bal_b) -> int:
    """r desc (``r_close`` ties), then balance asc (``balance_close`` ties
    for floats); +1 when a is better."""
    if not r_close(r_a, r_b):
        return 1 if r_a > r_b else -1

    def strictly(a, b):
        return a < b if isinstance(a, tuple) else a < b and not balance_close(a, b)

    if strictly(bal_a, bal_b):
        return 1
    if strictly(bal_b, bal_a):
        return -1
    return 0


def reference_pool(rs, balances, cap, rng) -> list[int]:
    best, pool = 0, [0]
    for j in range(1, len(rs)):
        cmp = reference_better(rs[j], balances[j], rs[best], balances[best])
        if cmp > 0:
            best, pool = j, [j]
        elif cmp == 0:
            pool.append(j)
    if len(pool) > cap:
        picked = rng.choice(len(pool), size=cap, replace=False)
        pool = [pool[int(i)] for i in sorted(picked)]
    return pool


@st.composite
def r_values(draw):
    """Match scores with exact ties, chains of ``r_close`` neighbours,
    near misses just outside the tolerance and plain gaps, in any order."""
    value = draw(st.floats(0.05, 3.0))
    out = [value]
    for _ in range(draw(st.integers(0, 24))):
        move = draw(st.sampled_from(["same", "chain", "miss", "gap"]))
        if move == "chain":
            value *= 1.0 - 0.9 * RANK_REL_TOL
        elif move == "miss":
            value *= 1.0 - 1.5 * RANK_REL_TOL
        elif move == "gap":
            value *= draw(st.floats(0.5, 0.99))
        out.append(value)
    order = draw(st.sampled_from(["descending", "ascending", "shuffled"]))
    if order == "ascending":
        out.reverse()
    elif order == "shuffled":
        out = draw(st.permutations(out))
    return np.array(out)


@st.composite
def steps(draw):
    rs = draw(r_values())
    m = rs.size
    if draw(st.booleans()):
        # precedence mode: removals per group, as tuples
        table = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              min_size=1, max_size=4, unique=True))
    else:
        # proportions mode: KL values, some within balance_close of another
        base = draw(st.floats(0.0, 0.05))
        table = [base + draw(st.sampled_from([0.0, 0.0, 4e-13, 9e-13, 3e-12, 1e-3]))
                 for _ in range(draw(st.integers(1, 4)))]
    index = np.array(draw(st.lists(st.integers(0, len(table) - 1),
                                   min_size=m, max_size=m)))
    rows = np.array(draw(st.permutations(range(m))))[:, None]
    return search._StepCandidates(rows, rs, index, table)


@RANKING
@given(steps(), st.integers(1, 5), st.integers(0, 1000))
def test_argmax_pool_matches_sequential_scan(step, cap, seed):
    engine = SimpleNamespace(config=SimpleNamespace(pool_cap=cap),
                             rng=np.random.default_rng(seed))
    balances = [step.balances[b] for b in step.balance_index.tolist()]
    expected = reference_pool(step.rs.tolist(), balances, cap,
                              np.random.default_rng(seed))
    assert search._argmax_pool(engine, step) == expected


@RANKING
@given(steps())
def test_batch_order_matches_python_sort(step):
    balances = [step.balances[b] for b in step.balance_index.tolist()]
    combos = [tuple(c) for c in step.combos.tolist()]
    rs = step.rs.tolist()
    expected = sorted(range(len(rs)), key=lambda j: (-rs[j], balances[j], combos[j]))
    assert search._batch_order(step).tolist() == expected


def reference_best_by_r(items, rs: list[float]) -> list:
    """The items whose r ties (``r_close``) with the highest r, in order,
    skipping NaN (undefined); empty when every r is NaN.  A sequential scan
    over every r."""
    best_r: float | None = None
    best: list = []
    for item, r in zip(items, rs):
        if math.isnan(r):
            continue
        if best_r is None or (r > best_r and not r_close(r, best_r)):
            best_r = r
            best = [item]
        elif r_close(r, best_r):
            best.append(item)
    return best


@st.composite
def r_values_with_nan(draw):
    """``r_values`` with NaN (undefined) entries mixed in, or all NaN."""
    rs = draw(r_values())
    mode = draw(st.sampled_from(["none", "some", "some", "all"]))
    if mode == "some":
        rs[np.array(draw(st.lists(st.booleans(), min_size=rs.size, max_size=rs.size)))] = np.nan
    elif mode == "all":
        rs[:] = np.nan
    return rs


@RANKING
@given(r_values_with_nan())
def test_tied_best_matches_sequential_scan(rs):
    assert search._tied_best(rs) == reference_best_by_r(range(rs.size), rs.tolist())
    assert search._tied_best(np.full(rs.size, np.nan)) == []


def test_narrowing_falls_back_to_subjects_when_every_subset_is_undefined():
    engine = SimpleNamespace(config=SimpleNamespace(pool_cap=4),
                             rng=np.random.default_rng(0),
                             score=lambda keep, sets: np.full(len(sets), np.nan))
    walk = SimpleNamespace(keep=np.ones(6, dtype=bool))
    step = search._StepCandidates(np.array([[1, 4], [2, 4]]), np.array([0.5, 0.5]),
                                  np.array([0, 0]), [0.0])
    assert search._narrow_by_r(engine, walk, step, [0, 1]) in (1, 2, 4)


# ---------------------------------------------------------------------------
# the keeper against the sequential pool rules
# ---------------------------------------------------------------------------


def reference_keeper(offers, cap, rank_of):
    """The stored matches and best failing state when every defined state is
    offered on its own: matches of the best rank, once each, in encounter
    order, up to ``cap``; the failing state of highest r, an ``r_close`` tie
    going to the better rank."""
    best, matches = None, []
    failing = failing_rank = None
    for keep, r in offers:
        if math.isnan(r):
            continue
        rank = rank_of(keep, r)
        if r >= 1.0:
            if best is None or compare_solutions(rank, best) > 0:
                best, matches = rank, [keep]
            elif (compare_solutions(rank, best) == 0 and len(matches) < cap
                    and all(keep.tobytes() != m.tobytes() for m in matches)):
                matches.append(keep)
        elif failing_rank is None or (
            compare_solutions(rank, failing_rank) > 0
            if r_close(r, failing_rank.r) else r > failing_rank.r
        ):
            failing, failing_rank = keep, rank
    return best, matches, failing_rank, failing


@st.composite
def offer_sequences(draw):
    """Offers of masks over 6 rows (so differing ``preserved``, and repeated
    masks) with match scores on both sides of 1, ``r_close`` chains and
    near misses, and NaN; a balance fixed per mask, with near ties."""
    masks = draw(st.lists(st.lists(st.booleans(), min_size=6, max_size=6),
                          min_size=1, max_size=6))
    bases = [0.4, 0.8, 1.0, 1.3]
    offers = []
    for _ in range(draw(st.integers(1, 30))):
        mask = np.array(draw(st.sampled_from(masks)))
        if draw(st.integers(0, 7)) == 0:
            r = math.nan
        else:
            step = draw(st.sampled_from([0.0, 0.9, 1.5, 1.8, 2.7]))
            r = draw(st.sampled_from(bases)) * (1.0 - step * RANK_REL_TOL)
        offers.append((mask, r))
    if draw(st.booleans()):
        table = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              min_size=1, max_size=4))
    else:
        table = [0.01 + draw(st.sampled_from([0.0, 4e-13, 9e-13, 3e-12, 1e-3]))
                 for _ in range(draw(st.integers(1, 4)))]
    cuts = sorted(draw(st.lists(st.integers(1, len(offers)), max_size=4)))
    return offers, table, cuts


@RANKING
@given(offer_sequences(), st.integers(1, 3))
def test_keeper_stores_what_sequential_offers_store(sequence, cap):
    offers, table, cuts = sequence

    def rank_of(keep, r):
        code = int(keep @ (1 << np.arange(keep.size)))
        return SolutionRank(int(keep.sum()), table[code % len(table)], r)

    engine = SimpleNamespace(config=SimpleNamespace(max_solutions=cap),
                             rank=rank_of, start_clock=lambda started: None)
    keeper = search._Keeper(engine, "test", {})
    # offered in chunks, as the searches offer scored chunks
    for lo, hi in itertools.pairwise([0, *cuts, len(offers)]):
        if lo < hi:
            masks = np.array([keep for keep, _ in offers[lo:hi]])
            rs = np.array([r for _, r in offers[lo:hi]])
            keeper.offer_chunk(rs, masks.sum(axis=1).tolist(), masks.__getitem__)
    best, matches, failing_rank, failing = reference_keeper(offers, cap, rank_of)
    assert keeper.rank == best
    assert [m.tobytes() for m in keeper.matches] == [m.tobytes() for m in matches]
    assert keeper.failing_rank == failing_rank
    assert [f.tobytes() for f in keeper.failing] == (
        [] if failing is None else [failing.tobytes()]
    )


# |t| <= 50 and df in [0.5, 1e8], as Python ints and floats and numpy floats;
# df is also drawn log-uniformly, so every order of magnitude is reached
TAIL_T = st.one_of(
    st.floats(-50.0, 50.0),
    st.integers(-50, 50),
    st.floats(-50.0, 50.0).map(np.float64),
)
TAIL_DF = st.one_of(
    st.floats(0.5, 1e8),
    st.floats(math.log(0.5), math.log(1e8)).map(math.exp).filter(lambda v: 0.5 <= v <= 1e8),
    st.integers(1, 10**8),
    st.floats(0.5, 1e8).map(np.float64),
)


def scalar_tail(t, df) -> float:
    try:
        return student_t_sf(t, df)
    except UndefinedTestError:
        return math.nan


@RANKING
@given(st.lists(st.tuples(TAIL_T, TAIL_DF), min_size=1, max_size=30))
def test_student_tail_scalar_and_array_bits_agree(pairs):
    # at most _SCALAR_TAILS (32) tails go to the scalar function as a
    # whole, so the array kernel runs here only with the threshold lowered:
    # to 0 it runs every fraction to the end, to 4 it hands the last four
    # open ones to the scalar loop
    t = np.array([float(v) for v, _ in pairs])
    df = np.array([float(v) for _, v in pairs])
    want = np.array([scalar_tail(a, b) for a, b in pairs])
    for scalar_tails in (0, 4, stats._SCALAR_TAILS):
        with mock.patch.object(stats, "_SCALAR_TAILS", scalar_tails):
            assert student_t_sf_array(t, df).tobytes() == want.tobytes()


def reference_welch(x, y) -> WelchResult:
    """``welch_t`` with its moments from ``.mean()`` and ``.var(ddof=1)``."""
    nx, ny = x.size, y.size
    mx, my = float(x.mean()), float(y.mean())
    vx, vy = float(x.var(ddof=1)), float(y.var(ddof=1))
    if vx == 0.0 and vy == 0.0:
        if mx == my:
            return WelchResult(0.0, float(nx + ny - 2), 1.0)
        raise UndefinedTestError("constant samples with different means")
    sx, sy = vx / nx, vy / ny
    spread = sx * sx / (nx - 1) + sy * sy / (ny - 1)
    if spread == 0.0:
        raise UndefinedTestError("var / n squared underflows; df is undefined")
    se2 = sx + sy
    t = (mx - my) / math.sqrt(se2)
    df = se2 * se2 / spread
    if not math.isfinite(df):
        raise UndefinedTestError("var / n squared overflows; df is undefined")
    return WelchResult(t, df, student_t_sf(t, df))


@st.composite
def welch_samples(draw):
    """A sample of 2-3,000 values: normal with a mean up to +-1e3 and a
    standard deviation from 1e-3 to 1e3, or constant, or drawn as floats."""
    n = draw(st.sampled_from([2, 2, 3]) | st.integers(2, 3000))
    kind = draw(st.sampled_from(["normal", "normal", "constant", "floats"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e3, 1e3)))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return rng.normal(draw(st.floats(-1e3, 1e3)), scale, n)


def welch_outcome(test, x, y):
    """The bits of (t, df, p), or the type of the exception raised.  Where
    var / n squared underflows to 0 (values near 1e-115, say), df is
    undefined, and both versions raise UndefinedTestError."""
    try:
        res = test(x, y)
    except UndefinedTestError as exc:
        return type(exc)
    return np.array([res.statistic, res.df, res.p_value]).tobytes()


@RANKING
@given(welch_samples(), welch_samples())
def test_welch_moments_match_numpy_methods(x, y):
    assert welch_outcome(welch_t, x, y) == welch_outcome(reference_welch, x, y)


def reference_group_downdate(evaluator, keep, combos, column, idx):
    """(n', mean', var' / n', degenerate) of the group of rows ``idx`` on
    ``keep`` less each removal set: one (covariate, group) downdated on its
    own, in an (m, L) array."""
    values = column[idx[keep[idx]]]
    n = values.size
    mean, ss = _mean_ss(values) if n else (0.0, 0.0)
    codes = evaluator.dataset.group_codes
    in_group = codes[combos] == codes[idx[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(in_group, column[combos] - mean, 0.0)
        n_left = n - in_group.sum(axis=1)
        delta = -d.sum(axis=1) / n_left
        ss_left = ss - (d * d).sum(axis=1) - n_left * (delta * delta)
        degenerate = (n_left < 2) | (ss == 0.0) | (ss_left <= _DOWNDATE_REL_FLOOR * ss)
        var = ss_left / (n_left - 1)
        return n_left, mean + delta, var / n_left, degenerate


def reference_welch_removals(evaluator, keep, combos):
    """(t, df, slow) of the Welch criteria, one criterion at a time, with
    each (covariate, group) downdated once by ``reference_group_downdate``."""
    downdates = {}
    rows = []
    for spec, (test, _, column, groups) in zip(evaluator.criteria, evaluator._bound):
        if test is not BUILTIN_WELCH:
            continue
        for group, idx in zip(spec.group_subset, groups):
            key = (spec.covariate, group)
            if key not in downdates:
                downdates[key] = reference_group_downdate(evaluator, keep, combos, column, idx)
        # t and df with welch_t's arithmetic; a set is slow where either
        # group is degenerate (fewer than two rows left included, where
        # welch_t raises) or t and df are not finite with df > 0
        (nx, mx, sx, dx), (ny, my, sy, dy) = (
            downdates[(spec.covariate, group)] for group in spec.group_subset)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            se2 = sx + sy
            t = (mx - my) / np.sqrt(se2)
            df = se2 * se2 / (sx * sx / (nx - 1) + sy * sy / (ny - 1))
        rows.append((t, df, dx | dy | ~(np.isfinite(t) & np.isfinite(df) & (df > 0.0))))
    return tuple(np.array([row[i] for row in rows]) for i in range(3))


@st.composite
def downdate_problems(draw):
    """2-5 groups of 2-9 rows on 1-3 covariates, each (group, covariate)
    normal, tied, constant, or constant but for one row; Welch criteria on
    pairs of groups that share (covariate, group) keys, in random order,
    with Anderson-Darling criteria mixed in; a locked group, a few rows
    already removed, and removal sets of 0-4 rows, or of 8-9 rows, where
    numpy's sum over a contiguous axis starts to add in pairs."""
    k = draw(st.integers(2, 5))
    n_cov = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 9), min_size=k, max_size=k))
    kinds = draw(st.lists(st.sampled_from(["normal", "ties", "constant", "near"]),
                          min_size=k * n_cov, max_size=k * n_cov))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = [f"g{i}" for i in range(k)]
    covariates = [f"c{i}" for i in range(n_cov)]
    values = []
    for g, size in enumerate(sizes):
        block = np.empty((size, n_cov))
        for c in range(n_cov):
            kind = kinds[g * n_cov + c]
            centre = rng.normal(0.0, 3.0)
            if kind == "normal":
                block[:, c] = rng.normal(centre, rng.uniform(0.1, 3.0), size)
            elif kind == "ties":
                block[:, c] = np.round(rng.normal(centre, 1.0, size))
            else:
                block[:, c] = centre
                if kind == "near":
                    block[rng.integers(size), c] += abs(centre) * 1e-6 + 1e-9
        values.append(block)
    groups = [g for g, size in zip(labels, sizes) for _ in range(size)]
    dataset = Dataset([f"s{i}" for i in range(len(groups))], groups,
                      np.concatenate(values), covariates)

    pairs = list(itertools.combinations(labels, 2))
    keys = st.tuples(st.sampled_from(covariates), st.sampled_from(pairs))
    welch = draw(st.lists(keys, min_size=1, max_size=8, unique=True))
    specs = [CriterionSpec("welch_t", c, pair, 0.2) for c, pair in welch]
    for c in draw(st.lists(st.sampled_from(covariates), max_size=2, unique=True)):
        subset = draw(st.permutations(labels))[:draw(st.integers(2, k))]
        specs.append(CriterionSpec("anderson_darling", c, tuple(subset), 0.3))
    specs = draw(st.permutations(specs))
    evaluator = CriteriaEvaluator(dataset, CriteriaSet(tuple(specs)))

    locked = {g for g in labels[1:] if draw(st.integers(0, 3)) == 0}
    open_rows = [i for i, g in enumerate(groups) if g not in locked]
    keep = np.ones(dataset.n_subjects, dtype=bool)
    keep[rng.choice(open_rows, draw(st.integers(0, 2)), replace=False)] = False
    rows = [i for i in open_rows if keep[i]]
    size = draw(st.sampled_from([3, 2, 4, 8, 1, 9, 0]))
    if math.comb(len(rows), size) <= 300:
        combos = list(itertools.combinations(rows, size))
    else:
        combos = sorted({tuple(sorted(rng.choice(rows, size, replace=False).tolist()))
                         for _ in range(300)})
    return evaluator, keep, np.array(combos, dtype=np.intp).reshape(len(combos), size)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(downdate_problems())
def test_fused_downdate_matches_downdate_per_key(problem):
    evaluator, keep, combos = problem
    p, defined = evaluator.score_removals(keep, combos)
    with mock.patch.object(CriteriaEvaluator, "_welch_removals", reference_welch_removals):
        want_p, want_defined = evaluator.score_removals(keep, combos)
    assert p.tobytes() == want_p.tobytes()
    assert defined.tobytes() == want_defined.tobytes()
