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
* Scoring against floors (sets whose Welch t already rules them out get no
  tail and no mask block, and a mask-scored criterion skips the sets that
  the criteria scored before it put below the floor) gives the run of
  scoring every set, in every search, also where Anderson-Darling or a
  user test binds.  A step's floor, deflated by the most its chain can
  still fall, is never above the floor of every value the step scores.
* Exhaustive search that scores runs of small depths in one call and
  replays their chunks reports and charges what scoring depth by depth
  does, and runs out of budget at the same chunk.
* Random search that scores only the draws that could still be stored
  gives the run of scoring every draw.
* A reported success has r >= 1 by ``evaluate``'s arithmetic, in random
  and exhaustive search, also where the alphas put some state's r at 1 to
  the last bit; exhaustive search then finds the fewest removals that a
  brute-force scan with ``evaluate`` finds.
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
  downdate of one (covariate, group) at a time gives; a call of sets of
  several sizes gives each set the bytes of a call of its size alone.
* The Anderson-Darling tables for single removals give each set the block
  kernel's bytes, NaN where the kernel gives NaN, and bounds that hold the
  kernel's p, inside and outside each criterion's pool.
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
from groupmatch.errors import BudgetExceededError, UndefinedTestError
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

    def score(keep, combos, *floor):
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

    def checked(engine, keep, combos, *floor):
        combos = np.asarray(combos, dtype=np.intp)
        rs = score(engine, keep, combos, *floor)
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


def spread_ratio_p(samples) -> float:
    """A k-sample test of equal spread: (least sd / greatest sd) squared."""
    sds = [float(np.std(s, ddof=1)) if len(s) >= 2 else 0.0 for s in samples]
    if min(sds) == 0.0:
        raise UndefinedTestError("a sample has fewer than two distinct values")
    return (min(sds) / max(sds)) ** 2


# the built-in tests, and one user test that is scored one mask at a time
FLOOR_REGISTRY = stats.TestRegistry()
FLOOR_REGISTRY.register(stats.TestFunction("spread_ratio", "k_sample", spread_ratio_p))


@st.composite
def floor_problems(draw):
    """2-4 groups of 3-7 rows, interleaved, random locks, caps,
    ``min_group_size`` and balance mode.  Either two covariates shifted by
    group, under 1-3 Welch criteria on pairs of groups and, when drawn, 1-2
    Anderson-Darling criteria; or equal means and one group's spread
    scaled by 2 or 4, so that the mask-scored criteria bind while the Welch
    ones pass: 0-2 Welch criteria, 1-2 Anderson-Darling criteria and, when
    drawn, the user test ``spread_ratio`` of ``FLOOR_REGISTRY``, in any
    order."""
    masked = draw(st.booleans())
    k = draw(st.integers(2, 4))
    labels = [f"g{i}" for i in range(k)]
    sizes = [draw(st.integers(3, 7)) for _ in labels]
    groups = draw(st.permutations([g for g, n in zip(labels, sizes) for _ in range(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if masked:
        wide, scale = draw(st.sampled_from(labels)), draw(st.sampled_from([2.0, 4.0]))
        values = np.array([rng.normal(0.0, scale if g == wide else 1.0, 2) for g in groups])
    else:
        shift = {g: rng.normal(0.0, 1.0, 2) for g in labels}
        values = np.array([rng.normal(shift[g], 1.0) for g in groups])
    if draw(st.booleans()):
        values = np.round(values, 1)   # ties, and sets that tie exactly
    dataset = Dataset([f"s{i}" for i in range(len(groups))], groups, values, ["x", "y"])
    pairs = list(itertools.combinations(labels, 2))
    welch = [("welch_t", c, pair) for c in ("x", "y") for pair in pairs]
    chosen = draw(st.lists(st.sampled_from(welch), min_size=1 - masked, max_size=3 - masked,
                           unique=True))
    if masked or draw(st.booleans()):
        ad = [("anderson_darling", c, sub) for c in ("x", "y") for sub in [tuple(labels)] + pairs]
        chosen += draw(st.lists(st.sampled_from(ad), min_size=1, max_size=2, unique=True))
    if masked and draw(st.booleans()):
        chosen.append(("spread_ratio", draw(st.sampled_from(["x", "y"])),
                       draw(st.sampled_from([tuple(labels)] + pairs))))
        chosen = draw(st.permutations(chosen))
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    locked = frozenset(g for g in labels[1:] if draw(st.integers(0, 4)) == 0)
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
        reversion_threshold=draw(st.sampled_from([0.5, 2.0])),
        batch_fraction=draw(st.none() | st.sampled_from([0.3, 1.0])),
    )
    return dataset, config


def no_floor(rs, limit=1):
    return -math.inf


def floor_run(dataset, config, variant, size, batch):
    """The outcome of one search: greedy, h3 or h4 with lookahead ``size``
    (batched by ``batch``, or by the config's batch fraction, at size 1),
    random search or exhaustive search; None when its criteria are
    undefined on every state it visits."""
    if variant == "greedy" or size == 1:
        config = config.with_(lookahead=1, batch_size=batch)
    else:
        config = unbatched(config).with_(lookahead=size, batch_size=1)
    try:
        if variant == "random":
            return outcome(search.random_search(dataset, config, iterations=60,
                                                registry=FLOOR_REGISTRY))
        if variant == "exhaustive":
            return outcome(search.exhaustive_search(dataset, config, max_removed=3,
                                                    registry=FLOOR_REGISTRY))
        if variant == "greedy":
            return outcome(search.greedy_search(dataset, config, registry=FLOOR_REGISTRY))
        return outcome(search.lookahead_search(dataset, config, variant,
                                               registry=FLOOR_REGISTRY))
    except UndefinedTestError:
        return None


FLOOR_VARIANTS = st.sampled_from(["greedy", "h3", "h4", "random", "exhaustive"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(floor_problems(), FLOOR_VARIANTS, st.integers(1, 3), st.sampled_from([1, 3]),
       st.sampled_from([5, 1024]))
def test_floors_change_nothing(problem, variant, size, batch, chunk):
    # scoring against floors, in chunks of ``chunk`` sets (random search:
    # draws of ``chunk`` cells), gives the run of scoring every set in full
    dataset, config = problem
    with mock.patch.object(search, "_SCORE_CHUNK", chunk), \
            mock.patch.object(search, "MASK_BLOCK_CELLS", chunk * dataset.n_subjects):
        floored = floor_run(dataset, config, variant, size, batch)
        with mock.patch.object(search, "_floor", no_floor):
            scoring_all = floor_run(dataset, config, variant, size, batch)
    # the same solutions, trace, rank, p-values, evaluations and success
    assert floored == scoring_all


@st.composite
def drifting_sequences(draw):
    """The r values a step scores, in order: an ``r_close`` chain that
    descends from chunk to chunk, each value just within ``RANK_REL_TOL``
    of the one before, among other values above, within and below it."""
    top = draw(st.sampled_from([1e-6, 0.3, 0.97, 2.5]))
    step = draw(st.sampled_from([0.5, 0.9, 0.999])) * RANK_REL_TOL
    chain = top * (1.0 - step) ** np.arange(draw(st.integers(1, 300)))
    others = top * np.array(draw(st.lists(st.floats(0.0, 1.2), max_size=30)))
    # the chain keeps its descending order; the other values go anywhere
    slots = np.sort(np.array(draw(st.lists(st.integers(0, chain.size), min_size=others.size,
                                           max_size=others.size)), dtype=np.intp))
    return np.insert(chain, slots, others)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drifting_sequences(), st.integers(1, 4), st.integers(0, 50))
def test_deflated_step_floors_stay_below_the_final_floor(rs, limit, spare):
    # a step scores its sets against the deflated _floor of the r values
    # scored so far, with n bounding the sets it can score.  That floor is
    # never above the _floor of every value the step scores, however far
    # a chain descends in later chunks; so a set skipped against it, below
    # it by more than FLOOR_MARGIN / 2, lies that far below the final one
    n = rs.size + spare
    final = search._floor(rs, limit)
    for k in range(rs.size + 1):
        deflated = search._deflated(search._floor(rs[:k], limit), n)
        assert deflated <= final
    assert search._deflated(-math.inf, n) == -math.inf
    assert search._deflated(0.3, 10**12) <= 0.0


def fewest_removals(dataset, config, depth):
    """The fewest rows, up to ``depth``, that a state keeping every limit
    removes while ``evaluate`` finds it a match; None when none does."""
    evaluator = CriteriaEvaluator(dataset, config.criteria, FLOOR_REGISTRY)
    feasible = search._Feasibility(dataset, config)
    for size in range(depth + 1):
        for rows in itertools.combinations(range(dataset.n_subjects), size):
            removed = np.bincount(dataset.group_codes[list(rows)], minlength=dataset.n_groups)
            if not feasible.allows(removed):
                continue
            keep = np.ones(dataset.n_subjects, dtype=bool)
            keep[list(rows)] = False
            try:
                r, _ = evaluator.evaluate(keep)
            except UndefinedTestError:
                continue
            if r >= 1.0:
                return size
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(floor_problems(), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([-1, 0, 1]))
def test_a_reported_success_is_a_match_by_evaluate(problem, seed, batch, nudge):
    # every alpha is set to its criterion's p on a state that removes one
    # or two rows, as the batch kernels give it or as evaluate does, or to
    # a neighbouring double: that state's r is 1, give or take an ulp, and
    # the two arithmetics can put it on either side.  A reported success
    # has r >= 1, and exhaustive search finds the fewest removals that
    # evaluate accepts
    dataset, config = problem
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(dataset.n_subjects, size=rng.integers(1, 3), replace=False))
    removed = np.bincount(dataset.group_codes[rows], minlength=dataset.n_groups)
    if not search._Feasibility(dataset, config).allows(removed):
        return
    evaluator = CriteriaEvaluator(dataset, config.criteria, FLOOR_REGISTRY)
    keep = np.ones(dataset.n_subjects, dtype=bool)
    p, defined = evaluator.score_removals(keep, rows[None, :])
    if not defined[0]:
        return
    keep[rows] = False
    alphas = p[0] if batch else np.array(evaluator.evaluate(keep)[1])
    if nudge:
        alphas = np.nextafter(alphas, 2.0 * nudge)
    if not ((alphas > 0.0) & (alphas < 1.0)).all():
        return
    config = config.with_(criteria=CriteriaSet(tuple(
        CriterionSpec(c.test_name, c.covariate, c.group_subset, float(a))
        for c, a in zip(config.criteria, alphas))))
    try:
        drawn = search.random_search(dataset, config, iterations=60, registry=FLOOR_REGISTRY)
        assert not drawn.success or drawn.r >= 1.0
    except UndefinedTestError:
        pass
    fewest = fewest_removals(dataset, config, 2)
    try:
        result = search.exhaustive_search(dataset, config, max_removed=2,
                                          registry=FLOOR_REGISTRY)
    except UndefinedTestError:
        assert fewest is None
        return
    assert not result.success or result.r >= 1.0
    assert result.success == (fewest is not None)
    if result.success:
        assert result.excluded_count(dataset) == fewest


def grouping_run(dataset, config, max_removed):
    """The outcome of exhaustive search, or the evaluations at which its
    budget ran out; None when its criteria are undefined on every state it
    visits."""
    try:
        return outcome(search.exhaustive_search(dataset, config, max_removed=max_removed,
                                                registry=FLOOR_REGISTRY))
    except BudgetExceededError as error:
        return "budget", error.evaluations
    except UndefinedTestError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(floor_problems(), st.integers(1, 3), st.sampled_from([16, 1024]), st.integers(2, 4),
       st.none() | st.integers(1, 2000))
def test_grouped_depths_report_what_depth_by_depth_scoring_reports(
        problem, max_solutions, chunk, max_removed, budget):
    # exhaustive search that scores runs of small depths in one call, then
    # replays their chunks, keeps, reports and charges what scoring each
    # depth on its own does: the same solutions, rank, p-values, success
    # and evaluations, and a budget that runs out at the same chunk.  At
    # chunks of 16 sets, groups of at most 32 sets and chunks cut classes
    # and depths, so pruning and groups meet
    dataset, config = problem
    config = config.with_(max_solutions=max_solutions)
    if budget is not None:
        config = config.with_(eval_budget=budget)
    with mock.patch.object(search, "_SCORE_CHUNK", chunk):
        grouped = grouping_run(dataset, config, max_removed)
        with mock.patch.object(search, "_GROUP_CHUNKS", 0):
            depth_by_depth = grouping_run(dataset, config, max_removed)
    assert grouped == depth_by_depth


def keep_every_draw(self, preserved):
    return np.ones(np.shape(preserved), dtype=bool)


def draw_run(dataset, config, iterations):
    """Random search's outcome and ``timed_out``; None when its criteria are
    undefined on every draw it scores."""
    try:
        result = search.random_search(dataset, config, iterations=iterations,
                                      registry=FLOOR_REGISTRY)
    except UndefinedTestError:
        return None
    return outcome(result) + (result.timed_out,)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(floor_problems(), st.booleans(), st.sampled_from([1, 5]), st.integers(40, 160),
       st.sampled_from([3, 25]))
def test_draw_filter_changes_nothing(problem, feasible_draws, max_solutions, iterations, chunk):
    # random search scores only the draws that could still be stored; that
    # gives the run of scoring every draw, in chunks of ``chunk`` draws
    dataset, config = problem
    config = config.with_(ensure_feasible_draws=feasible_draws, max_solutions=max_solutions)
    with mock.patch.object(search, "MASK_BLOCK_CELLS", chunk * dataset.n_subjects):
        filtered = draw_run(dataset, config, iterations)
        with mock.patch.object(search._Keeper, "storable", keep_every_draw):
            scoring_all = draw_run(dataset, config, iterations)
    assert filtered == scoring_all


def test_draw_filter_skips_draws_below_a_full_match():
    # two groups with the same values match on the full set, so no draw
    # that removes a row can be stored: none is scored, and the run is that
    # of scoring every draw
    values = np.array([[1.0, 4.0], [2.0, 2.0], [3.0, 5.0], [4.0, 1.0], [5.0, 3.0]] * 2)
    dataset = Dataset([f"s{i}" for i in range(10)], ["A"] * 5 + ["B"] * 5, values, ["x", "y"])
    config = MatchConfig(criteria=CriteriaSet((
        CriterionSpec("welch_t", "x", ("A", "B"), 0.2),
        CriterionSpec("anderson_darling", "y", ("A", "B"), 0.2),
    )), seed=3, max_solutions=5)
    score = CriteriaEvaluator.score_masks
    scored = []

    def recording(self, keeps, *floor):
        scored.append(np.array(keeps))
        return score(self, keeps, *floor)

    with mock.patch.object(search, "MASK_BLOCK_CELLS", 20 * dataset.n_subjects), \
            mock.patch.object(CriteriaEvaluator, "score_masks", recording):
        filtered = draw_run(dataset, config, 200)
        kept = [masks.sum(axis=1) for masks in scored]
        scored.clear()
        with mock.patch.object(search._Keeper, "storable", keep_every_draw):
            scoring_all = draw_run(dataset, config, 200)
    assert filtered == scoring_all
    assert filtered[-2] is True and filtered[2].startswith("SolutionRank(preserved=10,")
    assert all((k == 10).all() for k in kept)
    assert sum(map(len, kept)) < sum(map(len, scored)) == 200


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

    # the keeper evaluates states at or near r = 1 again; here evaluate
    # gives each offered state the r it was offered with
    exact = {}
    evaluator = SimpleNamespace(evaluate=lambda keep: (exact[id(keep)], ()))
    engine = SimpleNamespace(config=SimpleNamespace(max_solutions=cap), evaluator=evaluator,
                             rank=rank_of, start_clock=lambda started: None)
    keeper = search._Keeper(engine, "test", {})
    # offered in chunks, as the searches offer scored chunks
    for lo, hi in itertools.pairwise([0, *cuts, len(offers)]):
        if lo < hi:
            states = [np.array(keep) for keep, _ in offers[lo:hi]]
            rs = np.array([r for _, r in offers[lo:hi]])
            exact.update((id(keep), r) for keep, r in zip(states, rs.tolist()))
            keeper.offer_chunk(rs, [int(keep.sum()) for keep in states], states.__getitem__)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(downdate_problems(), st.lists(st.sampled_from([0, 1, 2, 3, 8, 9]), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_a_grouped_call_gives_each_set_the_bits_of_its_size_alone(problem, sizes, seed):
    # removal sets of several sizes scored in one call get the bytes of
    # (p, defined) that a call of each size alone gives them, also at 8
    # and 9 rows, where a sum over a padded row would add in another order
    evaluator, keep, combos = problem
    rng = np.random.default_rng(seed)
    rows = np.flatnonzero(keep)
    parts = [combos]
    for size in sizes:
        if size <= rows.size:
            sets = sorted({tuple(sorted(rng.choice(rows, size, replace=False).tolist()))
                           for _ in range(40)})
            parts.append(np.array(sets, dtype=np.intp).reshape(len(sets), size))
    p, defined = evaluator.score_removals(keep, parts)
    alone = [evaluator.score_removals(keep, part) for part in parts]
    assert p.tobytes() == np.concatenate([want for want, _ in alone]).tobytes()
    assert defined.tobytes() == np.concatenate([want for _, want in alone]).tobytes()


@st.composite
def ad_removal_problems(draw):
    """2-5 groups of 2-12 rows, float or integer values (runs of ties), and
    Anderson-Darling criteria over subsets of 2-4 of the groups: one per
    covariate on a shared subset, or on subsets of their own.  Random keep
    masks, some of which leave a group 2 or 3 rows."""
    k = draw(st.integers(2, 5))
    labels = [f"g{i}" for i in range(k)]
    sizes = [draw(st.integers(2, 12)) for _ in labels]
    groups = [g for g, n in zip(labels, sizes) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cov = draw(st.integers(1, 3))
    codes = np.repeat(np.arange(k), sizes)
    values = rng.normal(size=(codes.size, n_cov)) + codes[:, None] * rng.uniform(0, 1, n_cov)
    if draw(st.booleans()):
        values = rng.integers(0, draw(st.integers(2, 6)), size=values.shape).astype(float)
    dataset = Dataset([f"s{i}" for i in range(len(groups))], groups, values,
                      [f"c{i}" for i in range(n_cov)])
    shared = draw(st.booleans())
    subset = tuple(draw(st.permutations(labels))[:draw(st.integers(2, min(k, 4)))])
    specs = []
    for c in range(n_cov):
        if not shared:
            subset = tuple(draw(st.permutations(labels))[:draw(st.integers(2, min(k, 4)))])
        specs.append(CriterionSpec("anderson_darling", f"c{c}", subset, 0.2))
    evaluator = CriteriaEvaluator(dataset, CriteriaSet(tuple(specs)))
    keep = rng.random(codes.size) < draw(st.sampled_from([0.5, 0.8, 1.0]))
    for g in draw(st.lists(st.integers(0, k - 1), max_size=2, unique=True)):
        rows = np.flatnonzero(codes == g)
        keep[rows] = False
        keep[rows[:draw(st.integers(2, 3))]] = True
    return evaluator, keep, draw(st.integers(1, 1 << 14))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ad_removal_problems())
def test_ad_removal_tables_give_the_kernel_bits(problem):
    # every single removal of a kept row, inside or outside each criterion's
    # pool: the tables' exact p has the bits of the block kernel on the
    # set's keep-mask, NaN where that is NaN, and [lo, hi] contains it
    evaluator, keep, cells = problem
    rows = np.flatnonzero(keep)
    tables = evaluator._ad_tables(keep, rows)
    assert sorted(tables) == list(range(len(evaluator)))
    for removals in {id(r): r for r, _ in tables.values()}.values():
        exact = removals.exact(np.arange(rows.size), cells)
        for j, c in ((j, c) for j, (r, c) in tables.items() if r is removals):
            pooled, _, where = evaluator._pooled[j]
            masks = np.repeat(keep[pooled][None], rows.size, axis=0)
            inside = np.flatnonzero(where[rows] >= 0)
            masks[inside, where[rows][inside]] = False
            want = evaluator._ad_kernels[j](masks)
            assert exact[c].tobytes() == want.tobytes()
            lo, hi = removals.lo[c], removals.hi[c]
            assert (np.isnan(lo) == np.isnan(want)).all()
            assert (np.isnan(hi) == np.isnan(want)).all()
            defined = ~np.isnan(want)
            assert (lo[defined] <= want[defined]).all()
            assert (want[defined] <= hi[defined]).all()
