"""Subset-search strategies for group matching.

Five strategies share one contract: walk the space of keep-vectors, maximize
the match score r (halting when r >= 1), respect group locks, per-group and
total removal bounds, and a minimum group size, and report the best
solution(s) found together with a removal trace.

* random_search      - independent binomial draws with a decreasing keep rate.
* greedy_search      - remove the subject whose removal yields the highest r.
* lookahead_search   - score removal sets of size L, then remove one subject,
                       chosen either by recursive narrowing on r ("h3") or by
                       set-membership counts ("h4"); supports lazy
                       recomputation (batches of removals per r update).
* exhaustive_search  - breadth-first enumeration by removal count, one
                       balance class at a time; optimal within its depth
                       bound.

All randomness flows from one generator seeded by the config, so identical
(dataset, config, seed) triples replay identically.  Searches run on one
thread; the ``threads`` setting is accepted and does not change a result.

The constructive and exhaustive searches build their removal sets from
the per-group count patterns that keep every limit (``_Feasibility``:
locks, per-group and total caps and the minimum group size, one rule set
for every search; ``_patterns``), so no set of an infeasible pattern is
generated.  One enumerator, ``_lex_sets``, gives the sets of any list of
patterns in the order of ``itertools.combinations``, as ``(sets, tags)``
blocks: (m, L) row arrays, and for each set the row of the list that is
its pattern.  A set's balance depends on its pattern alone, so it is read
from the tag.  One chunker, ``_chunked``, cuts any stream of such blocks
into chunks of ``_SCORE_CHUNK`` sets, which may span blocks, and one loop,
``_scored``, scores each chunk with one ``CriteriaEvaluator.score_removals``
call, reading the clock (``time_limit``) before each call and once after
the last.  Random search makes and charges its draws one at a time, in
chunks of ``MASK_BLOCK_CELLS`` cells that are scored with one
``CriteriaEvaluator.score_masks`` call each; it reads the clock between
chunks.

A constructive step enumerates its patterns in passes, one ``_lex_sets``
call per pass, and skips the patterns that a criterion-locality bound
shows cannot change it (``_evaluate_step``).  It holds the sets it scores
in the order of ``itertools.combinations``, as arrays: the sets, their r,
and an index into the balances of their patterns.  One tie scan,
``_tied_best``, finds the sets tied at the top: by r and balance for the
step's pool, by r alone when h3 narrows its sets or h4 breaks a tie.

Exhaustive search puts each depth's patterns in balance classes, best
first (``_balance_classes``), and streams the classes in turn through the
chunker (``_class_chunks``); within a class the sets keep the order of
``itertools.combinations``.  Once a match is stored, the classes after its
own are skipped, since none of their states could be stored.  In every
search ``evaluations`` counts only the states scored.

One keeper (``_Keeper``) serves every search: it stores the matches and
the best failing state, and builds the result.  An array prefilter picks
the states of a scored chunk that can change what is stored, and only
those get a keep-mask and a rank.  Scores from a batch only rank and select
states.  Every r a result reports comes from evaluating that subset on its
own: a constructive search evaluates its current state once per pass, and
that r goes into the trace and the keeper; the reported p-values and rank
come from evaluating the reported state again (``_Keeper.report``,
uncharged).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .criteria import (
    MASK_BLOCK_CELLS,
    RANK_REL_TOL,
    CriteriaEvaluator,
    MatchConfig,
    SolutionRank,
    _compare_balance,
    balance_from_counts,
    compare_solutions,
    r_close,
    solution_rank,
)
from .dataset import Dataset, SubsetState
from .errors import BudgetExceededError, UndefinedTestError, ValidationError, scalar_fits
from .stats import TestRegistry

__all__ = [
    "TraceStep",
    "MatchResult",
    "ExhaustiveEstimate",
    "random_search",
    "greedy_search",
    "lookahead_search",
    "exhaustive_search",
    "count_configurations",
    "estimate_exhaustive",
    "format_duration",
]

# Removal sets scored per call by the constructive and exhaustive searches;
# the clock is read between calls.
_SCORE_CHUNK = 1024

@dataclass(frozen=True)
class TraceStep:
    """One removal, for replay verification.

    ``r_after`` is None for removals made between r recomputations (lazy
    batching); the final removal of each batch carries the fresh value.
    """

    step: int
    removed_id: str
    r_before: float | None
    r_after: float | None
    pool_size: int

    def to_json(self) -> str:
        # interned: a replayed run yields equal lines, so callers that keep
        # the traces of many replays (determinism checks) share one copy
        return sys.intern(json.dumps(vars(self), sort_keys=True))


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one search run.

    ``solutions`` holds every stored best state; they are mutually
    equivalent under compare_solutions.  On success every one of them has
    r >= 1; on failure the single state closest to matching (highest r) is
    reported.
    """

    algorithm: str
    solutions: tuple[SubsetState, ...]
    rank: SolutionRank
    p_values: tuple[float, ...]
    success: bool
    wall_time: float
    seed: int
    evaluations: int
    parameters: dict = field(default_factory=dict)
    trace: tuple[TraceStep, ...] = ()
    timed_out: bool = False

    @property
    def r(self) -> float:
        return self.rank.r

    @property
    def best(self) -> SubsetState:
        return self.solutions[0]

    def excluded_count(self, dataset: Dataset) -> int:
        return dataset.n_subjects - self.rank.preserved


class _Budget:
    """Deterministic criterion-evaluation accounting.

    Every candidate state is charged the full criteria count before it is
    evaluated, whether or not a test turns out to be undefined partway
    through, so the counter does not depend on evaluation order or on how
    a removal set was scored.  Only the states scored are charged: the
    count depends on which count patterns a constructive step's bound
    rules out, and which classes exhaustive search prunes, and both are
    pure functions of (dataset, config, seed), so the count is one too.
    """

    def __init__(self, ceiling: int, per_state: int):
        self.ceiling = ceiling
        self.per_state = per_state
        self.spent = 0

    def charge_states(self, n_states: int) -> None:
        self.spent += n_states * self.per_state
        if self.spent > self.ceiling:
            raise BudgetExceededError(
                f"criterion-evaluation budget exceeded: {self.spent} > "
                f"{self.ceiling}",
                evaluations=self.spent,
            )


class _Feasibility:
    """The removal limits every search obeys, on per-group removal counts.

    Group g may lose at most ``room[g]`` rows: none when it is locked, else
    its size less ``min_group_size``, and no more than its own cap.  ``cap``
    bounds the rows removed in all (None: unbounded).
    """

    def __init__(self, dataset: Dataset, config: MatchConfig):
        self.codes = dataset.group_codes
        room = []
        for size, g in zip(dataset.group_sizes().tolist(), dataset.group_labels):
            if g in config.locked_groups:
                room.append(0)
            else:
                left = size - config.min_group_size
                cap = config.max_removed_per_group.get(g)
                room.append(left if cap is None else min(left, cap))
        self.room = np.array(room, dtype=np.intp)
        self.cap = config.max_removed_total

    def allows(self, removed: np.ndarray) -> np.ndarray:
        """Whether per-group removal counts (the last axis) keep every
        limit; one answer per row of a 2-D array."""
        ok = (removed <= self.room).all(axis=-1)
        if self.cap is not None:
            ok &= removed.sum(axis=-1) <= self.cap
        return ok

    def open_rows(self, keep: np.ndarray, removed: np.ndarray, size: int = 1):
        """Kept rows of the groups with room left, ascending; none when
        ``size`` more removals would pass the total cap."""
        if self.cap is not None and int(removed.sum()) + size > self.cap:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(keep & (removed < self.room)[self.codes])


def _combinations(rows: np.ndarray, size: int) -> np.ndarray:
    """Every ``size``-subset of ``rows`` (size >= 1) as an (m, size) array,
    in the order of ``itertools.combinations``."""
    if size == 1:
        return rows[:, None]
    if size == 2:
        # the upper triangle, row by row: pairs in combinations order
        return rows[np.stack(np.triu_indices(rows.size, 1), axis=1)]
    flat = itertools.chain.from_iterable(itertools.combinations(rows.tolist(), size))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, size)


class _Engine:
    """Shared machinery: bound evaluator, budget, rng, feasibility rules."""

    def __init__(
        self,
        dataset: Dataset,
        config: MatchConfig,
        registry: TestRegistry | None,
    ):
        registry = registry or _default_registry()
        config.validate_for(dataset, registry)
        self.dataset = dataset
        self.config = config
        self.evaluator = CriteriaEvaluator(dataset, config.criteria, registry)
        self.budget = _Budget(config.eval_budget, len(self.evaluator))
        self.rng = np.random.default_rng(config.seed)
        self.sizes = dataset.group_sizes()
        self.locked_mask = np.zeros(dataset.n_subjects, dtype=bool)
        for g in config.locked_groups:
            self.locked_mask[dataset.group_index[g]] = True
        self.feasible = _Feasibility(dataset, config)
        self.alphas = np.array([c.alpha for c in config.criteria])
        # touches[g, j]: taking a row of group g may change criterion j's p
        # as score_removals gives it.  A criterion reads only its own
        # groups, and every batch kernel gives evaluate's bits on a subset,
        # so a set that takes no row of them leaves p_j as it is
        self.touches = np.array([
            [g in c.group_subset for c in config.criteria]
            for g in dataset.group_labels
        ], dtype=np.intp)
        self.deadline: float | None = None

    def start_clock(self, started: float) -> None:
        if self.config.time_limit is not None:
            self.deadline = started + self.config.time_limit

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    def score(self, keep: np.ndarray, combos) -> np.ndarray:
        """r of each removal set in ``combos`` (an (m, L) array of rows kept
        in ``keep``) applied to ``keep``, NaN where a test is undefined.
        Charged like one evaluation per removal set."""
        combos = np.asarray(combos, dtype=np.intp)
        self.budget.charge_states(len(combos))
        return self.r_values(*self.evaluator.score_removals(keep, combos))

    def r_values(self, ps: np.ndarray, defined: np.ndarray) -> np.ndarray:
        """r of each row of a p-value matrix, NaN where it is undefined."""
        rs = np.full(len(defined), np.nan)
        rs[defined] = np.min(ps[defined] / self.alphas, axis=1)
        return rs

    def evaluate_one(self, keep: np.ndarray) -> tuple[float | None, np.ndarray | None]:
        """(r, r_j) of ``keep``, charged as one evaluation: r_j is each
        criterion's p_j / alpha_j; both None when a test is undefined for
        this subset."""
        self.budget.charge_states(1)
        try:
            r, ps = self.evaluator.evaluate(keep)
        except UndefinedTestError:
            return None, None
        return r, np.array(ps) / self.alphas

    def rank(self, keep: np.ndarray, r: float) -> SolutionRank:
        return solution_rank(self.dataset, keep, self.config, r)


def _default_registry() -> TestRegistry:
    from .stats import default_registry

    return default_registry


class _Keeper:
    """The states a search keeps, and the result it reports.

    Matches (r >= 1) of the best rank are stored once each, in encounter
    order, up to ``max_solutions`` (deterministic); of the failing states,
    the one closest to matching: highest r, an ``r_close`` tie going to the
    better rank.  Creating a keeper starts the search clock.
    """

    def __init__(self, engine: _Engine, algorithm: str, parameters: dict):
        self.engine = engine
        self.algorithm = algorithm
        self.parameters = parameters
        self.rank: SolutionRank | None = None            # of the stored matches
        self.matches: list[np.ndarray] = []
        self._keys: set[bytes] = set()
        self.failing_rank: SolutionRank | None = None
        self.failing: list[np.ndarray] = []              # at most one state
        self.started = time.perf_counter()
        engine.start_clock(self.started)

    def offer(self, keep: np.ndarray, r: float,
              rank: SolutionRank | None = None) -> None:
        """Store ``keep``, of match score r, if it ranks among the kept;
        ``rank`` is its rank when the caller knows it."""
        if rank is None:
            rank = self.engine.rank(keep, r)
        if r >= 1.0:
            cmp = 1 if self.rank is None else compare_solutions(rank, self.rank)
            key = keep.tobytes()
            if cmp > 0:
                self.rank, self.matches, self._keys = rank, [keep.copy()], {key}
            elif (cmp == 0 and key not in self._keys
                    and len(self.matches) < self.engine.config.max_solutions):
                self._keys.add(key)
                self.matches.append(keep.copy())
        elif self.failing_rank is None or (
            compare_solutions(rank, self.failing_rank) > 0
            if r_close(r, self.failing_rank.r) else r > self.failing_rank.r
        ):
            self.failing_rank, self.failing = rank, [keep.copy()]

    def offer_chunk(self, rs: np.ndarray, preserved, state, balance=None) -> None:
        """Offer the states of one scored chunk, in order.  State i has
        match score ``rs[i]`` (NaN: undefined, skipped) and keeps
        ``preserved[i]`` rows (or ``preserved`` rows, when it is an int).
        Its keep-mask ``state(i)`` is built, and its balance ``balance(i)``
        read (its rank is computed from the mask when ``balance`` is None),
        only when an array prefilter finds it can change what is stored:

        * a match that keeps no fewer rows than every stored match and
          every match of the chunk;
        * a failing state in the ``r_close`` chain at the top of the
          chunk's failing r and the stored failing r (``_chain_floor``).

        Offering every state in order stores the same: a match that keeps
        fewer rows is turned away or displaced, and so is a failing state
        below that chain, since r values of the chain and below it are
        never ``r_close``."""
        rs = np.asarray(rs, dtype=float)
        kept = np.broadcast_to(preserved, rs.shape)
        chosen = rs >= 1.0
        if chosen.any():
            most = kept[chosen].max()
            if self.rank is not None:
                most = max(most, self.rank.preserved)
            chosen &= kept >= most
        failing = rs < 1.0
        if failing.any():
            values = rs[failing]
            if self.failing_rank is not None:
                values = np.append(values, self.failing_rank.r)
            chosen |= failing & (rs >= _chain_floor(values))
        for i in np.flatnonzero(chosen).tolist():
            r = float(rs[i])
            rank = None if balance is None else SolutionRank(int(kept[i]), balance(i), r)
            self.offer(state(i), r, rank)

    def report(self, trace: Sequence[TraceStep] = (), timed_out: bool = False,
               partial: bool = False) -> MatchResult:
        """Every stored match (a success), else the best failing state.
        ``partial``: the search stopped before it could claim its matches
        are optimal, so the first of them is reported as a failure.  The
        p-values and rank come from evaluating the first reported state on
        its own subset (uncharged), however the search scored it."""
        states = self.matches or self.failing
        if not states:
            raise UndefinedTestError(
                "criteria were undefined on every state the search visited"
            )
        if partial:
            states = states[:1]
        wall = time.perf_counter() - self.started
        engine = self.engine
        r, ps = engine.evaluator.evaluate(states[0])
        return MatchResult(
            algorithm=self.algorithm,
            solutions=tuple(SubsetState(s) for s in states),
            rank=engine.rank(states[0], r),
            p_values=ps,
            success=bool(self.matches) and not partial,
            wall_time=wall,
            seed=engine.config.seed,
            evaluations=engine.budget.spent,
            parameters=self.parameters,
            trace=tuple(trace),
            timed_out=timed_out,
        )


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def _keep_rate(engine: _Engine, i: int, total: int) -> float:
    """Keep probability for draw i of `total`, sweeping from ~all kept down
    to an expected count of one subject per group."""
    cfg = engine.config
    floor = engine.dataset.n_groups / engine.dataset.n_subjects
    if cfg.schedule_jitter:
        u = float(engine.rng.uniform((i - 1) / total, i / total))
    else:
        u = i / total
    if cfg.random_schedule == "linear":
        return 1.0 - u * (1.0 - floor)
    return floor**u


def _int_arg(name: str, value, optional: bool = True):
    """The argument ``name`` when it is an int (or None, when ``optional``);
    raises ValidationError naming it if not (a bool or a float is not an
    int)."""
    if not scalar_fits(value, "int | None" if optional else "int"):
        raise ValidationError(f"{name!r} must be int, got {value!r}")
    return value


def random_search(
    dataset: Dataset,
    config: MatchConfig,
    iterations: int | None = None,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Sample keep-vectors at random, sweeping the expected kept count from
    nearly all subjects down to one per group, and return the best draw(s).

    Always returns: when no draw reaches r >= 1 the closest failing draw is
    reported with success=False.
    """
    iterations = _int_arg("iterations", iterations)
    total = config.iterations if iterations is None else int(iterations)
    if total < 1:
        raise ValidationError(f"iterations must be >= 1, got {total}")
    engine = _Engine(dataset, config, registry)
    keeper = _Keeper(engine, "random", {
        "iterations": total,
        "schedule": config.random_schedule,
        "jitter": config.schedule_jitter,
    })
    n = dataset.n_subjects
    min_size = config.min_group_size
    unlocked_rows = np.flatnonzero(~engine.locked_mask)
    group_rows = [dataset.group_index[g] for g in dataset.group_labels]
    unlocked_groups = [
        i
        for i, g in enumerate(dataset.group_labels)
        if g not in config.locked_groups
    ]
    timed_out = False

    # the full set is always evaluated first: an already-matched dataset
    # needs no removals at all
    full = np.ones(n, dtype=bool)
    r, _ = engine.evaluate_one(full)
    if r is not None:
        keeper.offer(full, r)

    def draw(i: int) -> np.ndarray | None:
        """Draw i, or None when it breaks a removal bound."""
        q = _keep_rate(engine, i, total)
        keep = np.ones(n, dtype=bool)
        keep[unlocked_rows] = engine.rng.random(unlocked_rows.size) < q
        if config.ensure_feasible_draws:
            for gi in unlocked_groups:
                rows = group_rows[gi]
                kept_rows = rows[keep[rows]]
                short = min(min_size, rows.size) - kept_rows.size
                if short > 0:
                    out = rows[~keep[rows]]
                    picked = engine.rng.choice(out.size, size=short, replace=False)
                    keep[out[picked]] = True
        counts = np.bincount(
            dataset.group_codes[keep], minlength=dataset.n_groups
        )
        return keep if engine.feasible.allows(engine.sizes - counts) else None

    # draws are made and charged one at a time, in chunks that are scored
    # in one call each; the clock is read between chunks
    chunk = max(1, MASK_BLOCK_CELLS // n)
    for first in range(1, total + 1, chunk):
        if engine.out_of_time():
            timed_out = True
            break
        drawn = []
        for i in range(first, min(first + chunk, total + 1)):
            keep = draw(i)
            if keep is not None:
                engine.budget.charge_states(1)
                drawn.append(keep)
        if drawn:
            masks = np.array(drawn)
            rs = engine.r_values(*engine.evaluator.score_masks(masks))
            keeper.offer_chunk(rs, masks.sum(axis=1), masks.__getitem__)
    return keeper.report(timed_out=timed_out)


# ---------------------------------------------------------------------------
# constructive searches (greedy + lookahead)
# ---------------------------------------------------------------------------


class _Walk:
    """Mutable state of a constructive search: the kept rows and the rows
    removed from each group."""

    def __init__(self, engine: _Engine):
        self.codes = engine.dataset.group_codes
        self.keep = np.ones(engine.dataset.n_subjects, dtype=bool)
        self.removed_counts = np.zeros(engine.dataset.n_groups, dtype=np.intp)

    def remove(self, row: int) -> None:
        self.keep[row] = False
        self.removed_counts[self.codes[row]] += 1


@dataclass
class _StepCandidates:
    """The defined removal sets of one step, in canonical order."""

    combos: np.ndarray         # (m, L) rows of each set
    rs: np.ndarray             # (m,) match score of each set
    balance_index: np.ndarray  # (m,) position of each set's balance in balances
    balances: list             # balance of each count pattern scored


class _OutOfTime(Exception):
    """The deadline passed while removal sets were being scored."""


def _scored(engine: _Engine, keep: np.ndarray, chunks):
    """``(sets, tags, r)`` for each chunk ``(sets, tags)`` of removal sets
    that the iterator ``chunks`` yields (``_chunked``), applied to
    ``keep``; r is NaN where a test is undefined.  The clock is read before
    each chunk and once after the last; raises _OutOfTime when the deadline
    has passed."""
    while not engine.out_of_time():
        chunk = next(chunks, None)
        if chunk is None:
            return
        yield *chunk, engine.score(keep, chunk[0])
    raise _OutOfTime


def _chunked(blocks):
    """The ``(sets, tags)`` blocks of the iterable ``blocks`` re-cut into
    chunks of ``_SCORE_CHUNK`` sets (the last may hold fewer), since each
    scoring call has a fixed cost: a chunk may span blocks.  A block is
    drawn only when the chunks before it are taken."""
    held: list[tuple[np.ndarray, np.ndarray]] = []
    count = 0
    for block in blocks:
        held.append(block)
        count += len(block[0])
        if count < _SCORE_CHUNK:
            continue
        sets, tags = (np.concatenate(part) for part in zip(*held))
        while len(sets) >= _SCORE_CHUNK:
            yield sets[:_SCORE_CHUNK], tags[:_SCORE_CHUNK]
            sets, tags = sets[_SCORE_CHUNK:], tags[_SCORE_CHUNK:]
        held, count = [(sets, tags)], len(sets)
    if count:
        yield tuple(np.concatenate(part) for part in zip(*held))


def _evaluate_step(
    engine: _Engine, walk: _Walk, size: int, ceiling: np.ndarray | None
) -> _StepCandidates | None:
    """Score the feasible removal sets of ``size`` rows that can win the
    step, whole count patterns at a time; None when no set is feasible and
    defined.  Raises _OutOfTime (see ``_scored``).

    The sets are those of the feasible per-group count patterns over the
    room left (``_patterns``, ``_lex_sets``).  With a ``ceiling``, the r_j
    of the walk's state (``_Engine.evaluate_one``), each pattern's sets
    have r at most its bound B (``_pattern_bounds``).  The patterns of
    highest B go first; then, while some pattern left has a B not below
    the ``r_close`` chain floor of the sets scored so far, or ``r_close``
    to it, those patterns go: one ``_lex_sets`` call per pass, chunked by
    ``_chunked``.  Every set left has r below that floor and not
    ``r_close`` to it, so it could neither join nor break the chain at the
    top of the step, which is all ``_tied_best`` scans.  The sets scored
    come back in the order of ``itertools.combinations``.
    """
    rows = engine.feasible.open_rows(walk.keep, walk.removed_counts, size)
    patterns = _patterns(engine.feasible.room - walk.removed_counts, size)
    if not rows.size or not patterns:
        return None
    patterns = np.array(patterns)
    bounds = (np.full(len(patterns), np.inf) if ceiling is None
              else _pattern_bounds(engine.touches, patterns, ceiling))
    codes = engine.dataset.group_codes[rows]
    done = np.zeros(len(patterns), dtype=bool)
    todo = bounds == bounds.max()
    scored = []   # (sets, tags, r) of each chunk; a tag is a row of patterns
    while todo.any():
        done |= todo
        picked = np.flatnonzero(todo)
        blocks = ((sets, picked[t]) for sets, t in _lex_sets(rows, codes, patterns[todo]))
        scored.extend(_scored(engine, walk.keep, _chunked(blocks)))
        got = np.concatenate([rs for _, _, rs in scored])
        got = got[~np.isnan(got)]
        floor = _chain_floor(got) if got.size else -np.inf
        todo = ~done & ~((bounds < floor) & _apart(bounds, floor))
    combos, tags, rs_all = (np.concatenate(part) for part in zip(*scored))
    defined = ~np.isnan(rs_all)
    if not defined.any():
        return None
    combos = combos[defined]
    order = np.lexsort(combos.T[::-1])
    index = (np.cumsum(done) - 1)[tags[defined]]
    left = engine.sizes - walk.removed_counts   # rows kept per group
    balances = [
        balance_from_counts(engine.dataset, engine.config, left - p) for p in patterns[done]
    ]
    return _StepCandidates(combos[order], rs_all[defined][order], index[order], balances)


def _pattern_bounds(touches: np.ndarray, patterns: np.ndarray, ceiling: np.ndarray):
    """The bound B of each count pattern (a row of ``patterns``): the
    lowest ``ceiling[j]`` over the criteria j it leaves untouched (it takes
    no row of a group g with ``touches[g, j]``); +inf when it touches every
    criterion.  No removal set of the pattern has a higher r."""
    untouched = patterns @ touches == 0
    return np.where(untouched, ceiling, np.inf).min(axis=1)


def _cap_pool(engine: _Engine, pool: list) -> list:
    """``pool`` cut to the configured pool size by seeded subsampling, in
    its own order."""
    cap = engine.config.pool_cap
    if len(pool) <= cap:
        return pool
    picked = engine.rng.choice(len(pool), size=cap, replace=False)
    return [pool[int(i)] for i in sorted(picked)]


def _apart(a, b) -> np.ndarray:
    """Elementwise: a and b are not ``r_close``."""
    return np.abs(a - b) > RANK_REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _chain_floor(rs: np.ndarray) -> float:
    """The lowest r of the ``r_close`` chain at the top of ``rs`` (no NaN):
    the r above the first gap, in descending order, between two values
    that are not ``r_close``.  No r below the gap is ``r_close`` to one
    above it, since r >= 0."""
    ordered = np.sort(rs)[::-1]
    gaps = np.flatnonzero(_apart(ordered[:-1], ordered[1:]))
    return ordered[gaps[0]] if gaps.size else ordered[-1]


def _tied_best(rs: np.ndarray, balance=None) -> list[int]:
    """Indices of the r values ``rs`` tied with the best key, in order: r
    desc, then ``balance(i)`` asc when ``balance`` is given.  NaN
    (undefined) is skipped; empty when every r is NaN.

    The r values are scanned in order, as pairwise ``r_close`` ties chain.
    Only those above the first gap in descending r between two values that
    are not ``r_close`` (``_chain_floor``) are scanned: one below it cannot
    beat, tie with or displace one above it, so the result is that of a
    scan over every r.
    """
    defined = ~np.isnan(rs)
    if not defined.any():
        return []
    scanned = np.flatnonzero(defined & (rs >= _chain_floor(rs[defined]))).tolist()
    values = dict(zip(scanned, rs[scanned].tolist()))
    best, pool = scanned[0], scanned[:1]
    for j in scanned[1:]:
        if not r_close(values[j], values[best]):
            cmp = 1 if values[j] > values[best] else -1
        else:
            cmp = 0 if balance is None else -_compare_balance(balance(j), balance(best))
        if cmp > 0:
            best, pool = j, [j]
        elif cmp == 0:
            pool.append(j)
    return pool


def _argmax_pool(engine: _Engine, step: _StepCandidates) -> list[int]:
    """Indices of step candidates tied with the best (r desc, balance asc)
    key (``_tied_best``), capped at the configured pool size by seeded
    subsampling."""
    return _cap_pool(engine, _tied_best(
        step.rs, lambda i: step.balances[step.balance_index[i]]))


def _batch_order(step: _StepCandidates) -> np.ndarray:
    """Step candidates ranked by r desc, then balance asc, then rows."""
    distinct = sorted(set(step.balances))
    rank_of = {b: i for i, b in enumerate(distinct)}
    ranks = np.array([rank_of[b] for b in step.balances])[step.balance_index]
    return np.lexsort((*step.combos.T[::-1], ranks, -step.rs))


def _choose_index(engine: _Engine, count: int) -> int:
    return 0 if count == 1 else int(engine.rng.integers(count))


def _narrow_by_r(
    engine: _Engine, walk: _Walk, step: _StepCandidates, pool: list[int]
) -> int:
    """Select by recursive narrowing on r alone (greedy, h3): shrink the
    pool's sets one element at a time, keeping the subsets with the highest
    r, until singletons remain, then pick one at random (seeded)."""
    candidates = [tuple(c) for c in step.combos[pool].tolist()]
    size = len(candidates[0])
    while size > 1:
        size -= 1
        universe = sorted(
            {sub for c in candidates for sub in itertools.combinations(c, size)}
        )
        narrowed = [universe[i] for i in _tied_best(engine.score(walk.keep, universe))]
        if not narrowed:
            # every subset hit an undefined test; fall back to the subjects
            # of the current candidate sets
            subjects = sorted({row for c in candidates for row in c})
            return subjects[_choose_index(engine, len(subjects))]
        candidates = _cap_pool(engine, narrowed)
    return candidates[_choose_index(engine, len(candidates))][0]


def _choose_by_membership(
    engine: _Engine,
    walk: _Walk,
    step: _StepCandidates,
    pool: list[int],
) -> int:
    """Select the subject occurring in the most pool sets (h4); ties by
    single-removal r, then seeded-random."""
    counts: dict[int, int] = {}
    for combo in step.combos[pool].tolist():
        for row in combo:
            counts[row] = counts.get(row, 0) + 1
    top = max(counts.values())
    candidates = sorted(row for row, c in counts.items() if c == top)
    if len(candidates) == 1:
        return candidates[0]
    if step.combos.shape[1] == 1:
        # pool members are singletons whose r values are already tied
        return candidates[_choose_index(engine, len(candidates))]
    singles = [(c,) for c in candidates]
    finalists = [candidates[i] for i in _tied_best(engine.score(walk.keep, singles))]
    if not finalists:
        finalists = candidates
    return finalists[_choose_index(engine, len(finalists))]


def _constructive(
    dataset: Dataset,
    config: MatchConfig,
    registry: TestRegistry | None,
    algorithm: str,
    set_size: int,
    select,
) -> MatchResult:
    """Shared driver for greedy and lookahead searches.

    Each pass evaluates the current state, traces the removals that led to
    it and offers it, then scores a step.  ``select(engine, walk, step,
    pool) -> row`` picks the subject removed first in each step; with lazy
    batching active, further removals follow the step's stale ranking until
    the batch fills.
    """
    engine = _Engine(dataset, config, registry)
    keeper = _Keeper(engine, algorithm, _params(config, set_size))
    walk = _Walk(engine)
    trace: list[TraceStep] = []
    careful = False
    r: float | None = None
    removed_now: list[int] = []
    pool: list[int] = []

    while True:
        stale_r = r
        r, ceiling = engine.evaluate_one(walk.keep)
        done = int(walk.removed_counts.sum()) - len(removed_now)
        for idx, row in enumerate(removed_now):
            last = idx == len(removed_now) - 1
            trace.append(
                TraceStep(
                    step=done + idx + 1,
                    removed_id=dataset.subject_ids[row],
                    r_before=stale_r,
                    r_after=r if last else None,
                    pool_size=len(pool),
                )
            )
        # a state where a test is undefined is not offered; candidate
        # scoring steers the walk back among defined states
        if r is not None:
            keeper.offer(walk.keep, r)
            if r >= 1.0:
                return keeper.report(trace)
            careful = careful or r >= config.reversion_threshold

        batch_limit = 1
        if not careful:
            batch_limit = config.batch_size
            if config.batch_fraction is not None:
                remaining = engine.feasible.open_rows(
                    walk.keep, walk.removed_counts
                ).size
                batch_limit = max(1, int(config.batch_fraction * remaining))
        # a batch is planned from the ranking of every candidate, so a step
        # that may remove more than one row skips none
        try:
            step = _evaluate_step(
                engine, walk, set_size, ceiling if batch_limit == 1 else None
            )
        except _OutOfTime:
            return keeper.report(trace, timed_out=True)
        if step is None:
            break
        pool = _argmax_pool(engine, step)
        first = select(engine, walk, step, pool)

        plan = [first]
        if batch_limit > 1:
            for row in step.combos[_batch_order(step), 0].tolist():
                if len(plan) >= batch_limit:
                    break
                if row != first:
                    plan.append(row)

        removed_now = []
        for row in plan:
            after = walk.removed_counts.copy()
            after[dataset.group_codes[row]] += 1
            if walk.keep[row] and engine.feasible.allows(after):
                walk.remove(row)
                removed_now.append(row)
        if not removed_now:
            break
    return keeper.report(trace)


def _params(config: MatchConfig, set_size: int) -> dict:
    return {
        "lookahead": set_size,
        "batch_size": config.batch_size,
        "batch_fraction": config.batch_fraction,
        "reversion_threshold": config.reversion_threshold,
    }


def greedy_search(
    dataset: Dataset,
    config: MatchConfig,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Remove, at every step, the subject whose removal yields the highest r
    (ties by balance, then seeded-random), until r >= 1 or no subject may be
    removed."""
    return _constructive(dataset, config, registry, "greedy", 1, _narrow_by_r)


def lookahead_search(
    dataset: Dataset,
    config: MatchConfig,
    variant: str = "h3",
    lookahead: int | None = None,
    batch_size: int | None = None,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Score removal sets of size L each step, then remove a single subject.

    Variant "h3" narrows the best sets recursively on r; variant "h4"
    removes the subject that appears in the most best sets.  Both reduce to
    greedy_search at L = 1.  ``batch_size`` (or config.batch_fraction)
    enables lazy recomputation: several subjects are removed per r update
    until r reaches config.reversion_threshold, after which removals are
    re-scored one at a time.
    """
    if variant not in ("h3", "h4"):
        raise ValidationError(f"unknown lookahead variant {variant!r}")
    lookahead = _int_arg("lookahead", lookahead)
    batch_size = _int_arg("batch_size", batch_size)
    overrides = {}
    if lookahead is not None:
        overrides["lookahead"] = int(lookahead)
    if batch_size is not None:
        overrides["batch_size"] = int(batch_size)
    if overrides:
        config = config.with_(**overrides)
    select = _narrow_by_r if variant == "h3" else _choose_by_membership
    return _constructive(
        dataset, config, registry, f"lookahead_{variant}", config.lookahead, select
    )


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def exhaustive_search(
    dataset: Dataset,
    config: MatchConfig,
    max_removed: int | None = None,
    registry: TestRegistry | None = None,
) -> MatchResult:
    """Breadth-first enumeration of removal sets by increasing removal count.

    Returns every best state at the first count where some feasible state
    reaches r >= 1 (ranked by balance, then r).  Raises BudgetExceededError
    when the criterion-evaluation ceiling is hit first.

    Each depth is enumerated one balance class of per-group count patterns
    at a time, best first (``_balance_classes``); within a class, sets come
    in the order of ``itertools.combinations``.  Once a match is stored,
    the classes after its own are skipped: their states rank below it, so
    none could be stored.  ``evaluations`` counts the states scored, which
    may be fewer than the depths hold.
    """
    max_removed = _int_arg("max_removed", max_removed)
    engine = _Engine(dataset, config, registry)
    n = dataset.n_subjects
    if max_removed is not None and max_removed < 0:
        raise ValidationError(f"max_removed must be >= 0, got {max_removed}")
    # an explicit bound can only tighten the configured total cap
    bound = n if max_removed is None else max_removed
    if config.max_removed_total is not None:
        bound = min(bound, config.max_removed_total)
    feasible = engine.feasible
    full = np.ones(n, dtype=bool)
    rows = feasible.open_rows(full, np.zeros(dataset.n_groups, dtype=np.intp))
    bound = min(bound, int(feasible.room.sum()), rows.size)
    keeper = _Keeper(engine, "exhaustive", {"max_removed": bound})
    codes = dataset.group_codes

    try:
        for depth in range(bound + 1):
            balances = {
                pattern: balance_from_counts(dataset, config, engine.sizes - pattern)
                for pattern in _patterns(feasible.room, depth)
            }
            classes = _balance_classes(balances)
            best = [balances[patterns[0]] for patterns in classes]
            tagged = [balances[p] for patterns in classes for p in patterns]
            # pruned(k): a stored match ranks above every state of class k
            chunks = _class_chunks(rows, codes[rows], classes, lambda k: bool(
                keeper.matches) and _compare_balance(keeper.rank.balance, best[k]) < 0)
            for sets, tags, rs in _scored(engine, full, chunks):
                # the keep-mask of set i: every row but the rows it removes
                keeper.offer_chunk(
                    rs, n - depth,
                    lambda i: np.bincount(sets[i], minlength=n) == 0,
                    lambda i: tagged[tags[i]],
                )
            if keeper.matches:
                break
    except _OutOfTime:
        # partial depth: optimality within the depth cannot be claimed, so
        # the best state seen is reported as a failure
        return keeper.report(timed_out=True, partial=True)
    return keeper.report()


def _balance_classes(balances: dict) -> list[list[tuple[int, ...]]]:
    """The count patterns of ``balances`` (pattern -> balance) in classes,
    best first: sorted by balance, and cut where two neighbours are not
    ``balance_close``.  A balance of a later class is then worse than, and
    not ``balance_close`` to, every balance of an earlier one."""
    classes: list[list[tuple[int, ...]]] = []
    for pattern in sorted(balances, key=balances.__getitem__):
        if classes and _compare_balance(balances[classes[-1][-1]], balances[pattern]) == 0:
            classes[-1].append(pattern)
        else:
            classes.append([pattern])
    return classes


def _class_chunks(rows: np.ndarray, codes: np.ndarray, classes: list, pruned):
    """The removal sets of each class of count patterns in turn
    (``_lex_sets``), as the ``(sets, tags)`` chunks of ``_chunked``, which
    may span classes; a tag indexes the patterns of every class in turn.
    ``pruned(k)`` is asked before class k is begun and before each chunk,
    with k the class of its first set; once it is true, no further set is
    yielded."""
    class_of = [k for k, patterns in enumerate(classes) for _ in patterns]

    def stream():
        start = 0
        for k, patterns in enumerate(classes):
            if pruned(k):
                return
            for sets, tags in _lex_sets(rows, codes, np.array(patterns)):
                yield sets, tags + start
            start += len(patterns)

    return itertools.takewhile(
        lambda chunk: not pruned(class_of[chunk[1][0]]), _chunked(stream()))


# Removal sets of one balance class built and sorted at once, at most; a
# larger class is split by its first row.
_CLASS_BLOCK = 1 << 16


def _lex_sets(rows: np.ndarray, codes: np.ndarray, patterns: np.ndarray):
    """Every removal set of ``rows`` (ascending; group ``codes``) whose
    per-group counts are a row of ``patterns``, in the order of
    ``itertools.combinations``, as ``(sets, tags)`` blocks: (m, depth)
    arrays of at most ``_CLASS_BLOCK`` sets (or of every set of one row),
    and the row of ``patterns`` that each set has."""
    depth = int(patterns[0].sum())
    available = np.bincount(codes, minlength=patterns.shape[1]).tolist()
    counts = [math.prod(map(math.comb, available, p)) for p in patterns.tolist()]
    if sum(counts) <= _CLASS_BLOCK or depth < 2:
        if any(counts):
            yield _sorted_sets(rows, codes, patterns)
        return
    for i in range(rows.size - depth + 1):
        heads = np.flatnonzero(patterns[:, codes[i]] > 0)
        if heads.size:
            rest = patterns[heads]
            rest[:, codes[i]] -= 1
            for sets, tags in _lex_sets(rows[i + 1:], codes[i + 1:], rest):
                yield np.column_stack((np.full(len(sets), rows[i]), sets)), heads[tags]


def _sorted_sets(rows: np.ndarray, codes: np.ndarray, patterns: np.ndarray):
    """Every ``(sets, tags)`` of ``_lex_sets`` in one block: per pattern,
    the product of per-group combinations, then all of them in
    lexicographic order."""
    if not patterns.any():
        return np.empty((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)   # depth 0
    blocks = []
    for pattern in patterns.tolist():
        parts = [_combinations(rows[codes == g], c) for g, c in enumerate(pattern) if c]
        picks = np.meshgrid(*(np.arange(len(part)) for part in parts), indexing="ij")
        blocks.append(np.sort(np.concatenate(
            [part[pick.ravel()] for part, pick in zip(parts, picks)], axis=1
        ), axis=1))
    sets = np.concatenate(blocks)
    tags = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    order = np.lexsort(sets.T[::-1])
    return sets[order], tags[order]


# ---------------------------------------------------------------------------
# feasibility arithmetic
# ---------------------------------------------------------------------------


def count_configurations(n_subjects: int, max_removed: int) -> int:
    """Exact number of keep-vectors removing at most ``max_removed`` subjects:
    sum of C(N, i) for i = 0..max_removed.  Arbitrary precision."""
    _int_arg("n_subjects", n_subjects, optional=False)
    _int_arg("max_removed", max_removed, optional=False)
    if max_removed < 0:
        raise ValidationError(f"max_removed must be >= 0, got {max_removed}")
    if max_removed > n_subjects:
        raise ValidationError(
            f"max_removed {max_removed} exceeds subject count {n_subjects}"
        )
    return sum(math.comb(n_subjects, i) for i in range(max_removed + 1))


def _count_removal_sets(sizes, rooms, bound: int) -> int:
    """Number of removal sets of at most ``bound`` rows that take at most
    ``rooms[g]`` of the ``sizes[g]`` rows of each group g: the sum of the
    coefficients up to x^bound of the product over groups of
    sum_{k <= rooms[g]} C(sizes[g], k) x^k.  Arbitrary precision.  It sums
    the set counts of the ``_patterns`` of depths 0..bound, in time
    quadratic in ``bound``, where the patterns grow as bound**(groups - 1)."""
    poly = [1]
    for size, room in zip(sizes, rooms):
        term = [math.comb(size, k) for k in range(min(room, bound) + 1)]
        product = [0] * min(len(poly) + len(term) - 1, bound + 1)
        for i, a in enumerate(poly):
            for k, b in enumerate(term[:len(product) - i]):
                product[i + k] += a * b
        poly = product
    return sum(poly)


def _patterns(room, depth: int) -> list[tuple[int, ...]]:
    """Every per-group count pattern c of ``depth`` removals with
    c[g] <= ``room[g]``, in lexicographic order: the patterns of one depth
    of exhaustive search, which holds the product of C(size[g], c[g]) sets
    of each."""
    room = [int(v) for v in room]
    reach = list(itertools.accumulate(room[::-1]))[::-1] + [0]   # room of g and later
    table = []

    def walk(g: int, left: int, head: tuple[int, ...]) -> None:
        if g == len(room):
            table.append(head)
            return
        for c in range(max(0, left - reach[g + 1]), min(room[g], left) + 1):
            walk(g + 1, left - c, head + (c,))

    walk(0, depth, ())
    return table


def format_duration(seconds: float) -> str:
    """Human-oriented duration: '≈ 13 minutes', '≈ 11 seconds', ..."""
    if seconds < 1.0:
        return "instantaneous"
    if seconds < 60.0:
        value, unit = round(seconds), "second"
    elif seconds < 3600.0:
        value, unit = round(seconds / 60.0), "minute"
    elif seconds < 86400.0:
        value, unit = round(seconds / 3600.0), "hour"
    elif seconds < 31_557_600.0:
        value, unit = round(seconds / 86400.0), "day"
    else:
        value, unit = round(seconds / 31_557_600.0), "year"
    value = max(1, int(value))
    plural = "" if value == 1 else "s"
    return f"≈ {value} {unit}{plural}"


@dataclass(frozen=True)
class ExhaustiveEstimate:
    configurations: int
    rate: float               # states (removal sets) scored per second
    seconds: float
    criterion_evaluations: int
    budget: int
    feasible: bool

    @property
    def verdict(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def describe(self) -> str:
        return (
            f"{self.configurations} configurations at {self.rate:.0f} "
            f"evaluations/second: {format_duration(self.seconds)} ({self.verdict})"
        )


def estimate_exhaustive(
    dataset: Dataset,
    config: MatchConfig,
    heuristic_removals: int,
    calibrated_rate: float | None = None,
    registry: TestRegistry | None = None,
    calibration_seconds: float = 0.25,
) -> ExhaustiveEstimate:
    """Project the cost of exhaustive search up to a removal bound discovered
    by a heuristic run.

    The configurations counted are the removal sets ``exhaustive_search``
    walks to that bound, the sum of the set counts of its count patterns
    (``_count_removal_sets``, ``_patterns``): locks, per-group caps,
    ``min_group_size`` and the total cap all apply.  Its balance pruning may
    score fewer sets than this counts, once a depth holds a match.  When no rate is supplied, one
    is measured on the actual dataset the way exhaustive search scores
    states: ``score_removals`` over chunks of single removals of the rows
    it may remove, from the full set, in removal sets per second.  The
    verdict compares the projected number of criterion evaluations against
    the configured budget.
    """
    _int_arg("heuristic_removals", heuristic_removals, optional=False)
    if calibrated_rate is not None and calibrated_rate <= 0:
        raise ValidationError("calibrated_rate must be positive")
    if not 0 <= heuristic_removals <= dataset.n_subjects:
        raise ValidationError(
            f"heuristic_removals must lie in [0, {dataset.n_subjects}], "
            f"got {heuristic_removals}"
        )
    feasible = _Feasibility(dataset, config)
    bound = heuristic_removals
    if feasible.cap is not None:
        bound = min(bound, feasible.cap)
    configurations = _count_removal_sets(
        dataset.group_sizes().tolist(), feasible.room.tolist(), bound
    )
    if calibrated_rate is None:
        evaluator = CriteriaEvaluator(dataset, config.criteria, registry)
        keep = np.ones(dataset.n_subjects, dtype=bool)
        rows = feasible.open_rows(keep, np.zeros(dataset.n_groups, dtype=np.intp))
        chunks = [rows[start:start + _SCORE_CHUNK, None]
                  for start in range(0, rows.size, _SCORE_CHUNK)]
        chunks = chunks or [np.empty((1, 0), dtype=np.intp)]   # the full set
        begin = time.perf_counter()
        calls = done = 0
        while time.perf_counter() - begin < calibration_seconds or done == 0:
            chunk = chunks[calls % len(chunks)]
            evaluator.score_removals(keep, chunk)
            calls += 1
            done += len(chunk)
        calibrated_rate = done / max(time.perf_counter() - begin, 1e-9)
    seconds = configurations / calibrated_rate
    criterion_evals = configurations * len(config.criteria)
    return ExhaustiveEstimate(
        configurations=configurations,
        rate=calibrated_rate,
        seconds=seconds,
        criterion_evaluations=criterion_evals,
        budget=config.eval_budget,
        feasible=criterion_evals <= config.eval_budget,
    )
