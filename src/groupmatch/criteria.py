"""Matching criteria, the match score r, and the solution ordering.

A criterion binds one statistical test to one covariate over a subset of
groups, with a p-value threshold alpha.  The match score of a subset is

    r = min over criteria of p_j / alpha_j

and a subset "matches" when r >= 1 (every test clears its threshold).
Candidate solutions are ordered lexicographically: more subjects preserved
first, then better group balance, then larger r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Union

import numpy as np

from .dataset import Dataset, SubsetState
from .errors import ValidationError, check_scalar_fields
from .stats import (
    BUILTIN_AD,
    BUILTIN_WELCH,
    TestFunction,
    TestRegistry,
    _mean_ss,
    _per_mask_p,
    _ADMasks,
    _ADRemovals,
    _tail_or_nan,
    default_registry,
    student_t_sf_array,
)

__all__ = [
    "CriterionSpec",
    "CriteriaSet",
    "MatchConfig",
    "SolutionRank",
    "CriteriaEvaluator",
    "compute_r",
    "kl_divergence",
    "compare_solutions",
    "solution_rank",
    "balance_from_counts",
    "balances_from_counts",
]

# Relative tolerance for floating-point rank components; differing summation
# orders make exact equality too brittle.
RANK_REL_TOL = 1e-12

# A downdated sum of squared deviations at or below this share of the one it
# was downdated from has lost too many digits to cancellation; such removal
# sets are scored on their own subset instead.
_DOWNDATE_REL_FLOOR = 1e-9

# A set is skipped below a floor (``CriteriaEvaluator.score_removals``) only
# when an upper bound on its r, raised by this relative margin, is still
# below the floor and not ``r_close`` to it.  The margin is far above the
# Student t tail kernel's error against mpmath for df from 1 to
# ``_FLOOR_DF_MAX`` (below 2e-10 over t: a dense scan finds 1.3e-10 at
# df = 9e5 and 7.8e-11 at 1e6, near t = 1.8; the error grows with df, to
# 8.8e-10 at 1e7 and 9.7e-9 at 1e8, so a set of a higher df is never
# skipped by its t), and above the drift that a chain of ``r_close`` values
# can add within one scoring call (2,048 sets of an exhaustive call, at
# most 4,096 draws of a random-search chunk, times 1e-12); a constructive
# step deflates its floor by the drift its whole chain can add instead
# (``search._evaluate_step``).  So a set skipped against floor F has r below
# F * (1 - FLOOR_MARGIN / 2), and apart from every floor at or above that.
FLOOR_MARGIN = 1e-8
_FLOOR_DF_MAX = 1e6

# Keep-masks scored in one block hold at most this many cells (masks times
# rows), and so do the Welch downdates of one block of removal sets (keys
# times sets times rows removed), so the float temporaries of a block stay a
# few MB at any N.
MASK_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class CriterionSpec:
    """One (test, covariate, group subset, alpha) requirement."""

    test_name: str
    covariate: str
    group_subset: tuple[str, ...]
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "group_subset", tuple(self.group_subset))
        if len(self.group_subset) < 2:
            raise ValidationError(
                f"criterion on {self.covariate!r} needs >=2 groups, "
                f"got {self.group_subset}"
            )
        if len(set(self.group_subset)) != len(self.group_subset):
            raise ValidationError(f"duplicate groups in {self.group_subset}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(
                f"alpha must lie in (0, 1), got {self.alpha} "
                f"(criterion {self.test_name!r} on {self.covariate!r})"
            )

    def describe(self) -> str:
        return (
            f"{self.test_name}({self.covariate}; "
            f"{','.join(self.group_subset)}; alpha={self.alpha})"
        )


@dataclass(frozen=True)
class CriteriaSet:
    """Ordered list of criteria; the match score minimizes over all of them."""

    criteria: tuple[CriterionSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "criteria", tuple(self.criteria))
        if not self.criteria:
            raise ValidationError("need at least one criterion")
        triples = [
            (c.test_name, c.covariate, tuple(sorted(c.group_subset)))
            for c in self.criteria
        ]
        if len(set(triples)) != len(triples):
            raise ValidationError("duplicate (test, covariate, groups) criterion")

    def __len__(self) -> int:
        return len(self.criteria)

    def __iter__(self):
        return iter(self.criteria)

    def validate_for(self, dataset: Dataset, registry: TestRegistry) -> None:
        labels = set(dataset.group_labels)
        for c in self.criteria:
            unknown = [g for g in c.group_subset if g not in labels]
            if unknown:
                raise ValidationError(
                    f"criterion {c.describe()} names unknown groups {unknown}"
                )
            if c.covariate not in dataset.covariate_names:
                raise ValidationError(
                    f"criterion {c.describe()} names unknown covariate "
                    f"{c.covariate!r}"
                )
            if c.test_name not in registry:
                raise ValidationError(
                    f"criterion {c.describe()} names unregistered test "
                    f"{c.test_name!r}"
                )
            test = registry.get(c.test_name)
            if test.arity == "two_sample" and len(c.group_subset) != 2:
                raise ValidationError(
                    f"{c.test_name!r} is a two-sample test; criterion on "
                    f"{c.covariate!r} lists {len(c.group_subset)} groups"
                )


@dataclass(frozen=True)
class MatchConfig:
    """Everything a search run needs besides the dataset itself.

    Balance is judged either against target group proportions (KL
    divergence, smaller is better) or by a precedence order over groups
    (fewest removals from the most-preferred group wins).  The two modes
    are mutually exclusive.
    """

    criteria: CriteriaSet
    balance_mode: str = "proportions"          # "proportions" | "precedence"
    target_proportions: Mapping[str, float] | None = None  # None: original ratios
    precedence: tuple[str, ...] | None = None
    locked_groups: frozenset[str] = frozenset()
    max_removed_total: int | None = None
    max_removed_per_group: Mapping[str, int] = field(default_factory=dict)
    min_group_size: int = 2
    seed: int = 0
    iterations: int = 1000          # random search draws
    lookahead: int = 1              # removal-set size scored per step
    batch_size: int = 1             # removals per r recomputation
    batch_fraction: float | None = None  # alternative: share of remaining subjects
    reversion_threshold: float = 0.5     # r at which batching reverts to 1
    random_schedule: str = "geometric"   # "geometric" | "linear"
    schedule_jitter: bool = False
    ensure_feasible_draws: bool = True
    pool_cap: int = 64
    max_solutions: int = 64
    eval_budget: int = 10**8
    threads: int = 1                # accepted; searches run single-threaded
    time_limit: float | None = None  # cooperative; checked between scoring chunks

    def __post_init__(self):
        check_scalar_fields(self)
        object.__setattr__(self, "locked_groups", frozenset(self.locked_groups))
        object.__setattr__(
            self, "max_removed_per_group", dict(self.max_removed_per_group)
        )
        if self.precedence is not None:
            object.__setattr__(self, "precedence", tuple(self.precedence))
        if self.balance_mode not in ("proportions", "precedence"):
            raise ValidationError(f"unknown balance_mode {self.balance_mode!r}")
        if self.balance_mode == "precedence" and self.precedence is None:
            raise ValidationError("precedence mode needs a precedence order")
        if self.random_schedule not in ("linear", "geometric"):
            raise ValidationError(f"unknown random_schedule {self.random_schedule!r}")
        for name, value, floor in (
            ("min_group_size", self.min_group_size, 1),
            ("iterations", self.iterations, 1),
            ("lookahead", self.lookahead, 1),
            ("batch_size", self.batch_size, 1),
            ("pool_cap", self.pool_cap, 1),
            ("max_solutions", self.max_solutions, 1),
            ("eval_budget", self.eval_budget, 1),
            ("threads", self.threads, 1),
        ):
            if value < floor:
                raise ValidationError(f"{name} must be >= {floor}, got {value}")
        if self.batch_fraction is not None and not 0.0 < self.batch_fraction <= 1.0:
            raise ValidationError(
                f"batch_fraction must lie in (0, 1], got {self.batch_fraction}"
            )
        if (self.batch_size > 1 or self.batch_fraction is not None) and (
            self.lookahead != 1
        ):
            raise ValidationError("batched removal requires lookahead = 1")
        if self.reversion_threshold <= 0.0:
            raise ValidationError("reversion_threshold must be positive")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise ValidationError("time_limit must be positive when set")
        if self.max_removed_total is not None and self.max_removed_total < 0:
            raise ValidationError("max_removed_total must be >= 0")
        if self.target_proportions is not None:
            props = dict(self.target_proportions)
            if any(v <= 0 for v in props.values()):
                raise ValidationError("target proportions must be positive")
            total = sum(props.values())
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValidationError(
                    f"target proportions must sum to 1, got {total}"
                )
            object.__setattr__(self, "target_proportions", props)

    def validate_for(self, dataset: Dataset, registry: TestRegistry) -> None:
        self.criteria.validate_for(dataset, registry)
        labels = set(dataset.group_labels)
        for g in self.locked_groups:
            if g not in labels:
                raise ValidationError(f"locked group {g!r} not in dataset")
        for g, bound in self.max_removed_per_group.items():
            if g not in labels:
                raise ValidationError(f"removal bound names unknown group {g!r}")
            if bound < 0:
                raise ValidationError(f"removal bound for {g!r} must be >= 0")
            if g in self.locked_groups and bound != 0:
                raise ValidationError(
                    f"group {g!r} is locked; a nonzero removal bound contradicts it"
                )
        if self.precedence is not None:
            if sorted(self.precedence) != sorted(dataset.group_labels):
                raise ValidationError(
                    "precedence must order every dataset group exactly once"
                )
        if self.target_proportions is not None:
            if set(self.target_proportions) != labels:
                raise ValidationError(
                    "target proportions must cover every dataset group exactly"
                )
        for g in dataset.group_labels:
            if g not in self.locked_groups:
                if len(dataset.group_index[g]) < self.min_group_size:
                    raise ValidationError(
                        f"group {g!r} starts below min_group_size="
                        f"{self.min_group_size}"
                    )

    def target_vector(self, dataset: Dataset) -> np.ndarray:
        """Target proportions in canonical label order (original ratios when
        unspecified)."""
        if self.target_proportions is None:
            sizes = dataset.group_sizes().astype(float)
            return sizes / sizes.sum()
        return np.array(
            [self.target_proportions[g] for g in dataset.group_labels], dtype=float
        )

    def with_(self, **changes) -> "MatchConfig":
        return replace(self, **changes)


def kl_divergence(observed, target) -> float:
    """KL(observed || target) in nats, with 0 * ln 0 = 0.

    Both arguments are proportion vectors of equal length; target entries
    must be strictly positive.
    """
    obs = np.asarray(observed, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if obs.shape != tgt.shape:
        raise ValidationError(
            f"proportion vectors differ in shape: {obs.shape} vs {tgt.shape}"
        )
    _check_proportions(obs, tgt)
    return _kl(obs, tgt)


def _check_proportions(obs: np.ndarray, tgt: np.ndarray) -> None:
    """Refuse proportions ``obs`` (a vector, or vectors as rows) that
    ``kl_divergence`` cannot compare with the target ``tgt``."""
    if (tgt <= 0.0).any():
        raise ValidationError("target proportions must be strictly positive")
    if (obs < 0.0).any():
        raise ValidationError("observed proportions must be nonnegative")


def _kl(obs: np.ndarray, tgt: np.ndarray) -> float:
    """``kl_divergence`` of checked proportion vectors."""
    mask = obs > 0.0
    value = float((obs[mask] * np.log(obs[mask] / tgt[mask])).sum())
    return max(value, 0.0)


Balance = Union[float, tuple[int, ...]]


@dataclass(frozen=True)
class SolutionRank:
    """Lexicographic quality key: preserved count desc, balance asc, r desc.

    ``balance`` is a KL divergence (proportions mode) or a tuple of
    per-group removal counts in precedence order (precedence mode).
    """

    preserved: int
    balance: Balance
    r: float


def r_close(a: float, b: float) -> bool:
    """r values tie at 1e-12 *relative* tolerance: tiny p-values from
    strongly separated groups must still order candidates, so no absolute
    floor is applied."""
    return abs(a - b) <= RANK_REL_TOL * max(abs(a), abs(b))


def _apart(a, b) -> np.ndarray:
    """Elementwise: a and b are not ``r_close``."""
    return np.abs(a - b) > RANK_REL_TOL * np.maximum(np.abs(a), np.abs(b))


def balance_close(a: float, b: float) -> bool:
    """Balance (KL) comparisons keep an absolute floor: a divergence gap
    below 1e-12 is summation noise, never a real imbalance."""
    return abs(a - b) <= RANK_REL_TOL * max(1.0, abs(a), abs(b))


def _compare_balance(a: Balance, b: Balance) -> int:
    """Negative when a is better (smaller)."""
    if isinstance(a, tuple) != isinstance(b, tuple):
        raise ValidationError("cannot compare ranks from different balance modes")
    if isinstance(a, tuple):
        return (a > b) - (a < b)
    if balance_close(a, b):
        return 0
    return 1 if a > b else -1


def compare_solutions(a: SolutionRank, b: SolutionRank) -> int:
    """+1 when a is the better solution, -1 when b is, 0 when equivalent.

    Equivalence means all three components tie (floats within 1e-12
    relative tolerance).
    """
    if a.preserved != b.preserved:
        return 1 if a.preserved > b.preserved else -1
    bal = _compare_balance(a.balance, b.balance)
    if bal != 0:
        return -bal
    if r_close(a.r, b.r):
        return 0
    return 1 if a.r > b.r else -1


class CriteriaEvaluator:
    """Criteria bound to one dataset for repeated evaluation.

    Precomputes per-criterion covariate columns and group row indices so a
    single evaluation is a handful of boolean gathers plus the test itself.
    Instances are immutable after construction, but for the Anderson-Darling
    kernels' tables of N-only sums, which are filled as pooled sizes appear
    and only ever store the same value at one place, and are safe to share
    across threads.
    """

    def __init__(
        self,
        dataset: Dataset,
        criteria: CriteriaSet,
        registry: TestRegistry | None = None,
    ):
        registry = registry or default_registry
        criteria.validate_for(dataset, registry)
        self.dataset = dataset
        self.criteria = criteria
        self._bound: list[tuple[TestFunction, float, np.ndarray, list[np.ndarray]]] = []
        # per criterion: its rows pooled, each row's sample code, and the
        # position in the pool of every dataset row (-1 outside it)
        self._pooled: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # the Anderson-Darling block kernel of each criterion on that test,
        # prepared once for its pooled rows, and those criteria by their groups
        self._ad_kernels: dict[int, _ADMasks] = {}
        stacks: dict[tuple[str, ...], list[int]] = {}
        for j, spec in enumerate(criteria):
            test = registry.get(spec.test_name)
            column = dataset.covariate_column(spec.covariate)
            rows = [dataset.group_index[g] for g in spec.group_subset]
            self._bound.append((test, spec.alpha, column, rows))
            pooled = np.concatenate(rows)
            codes = np.repeat(np.arange(len(rows)), [idx.size for idx in rows])
            # one slot more, -1 too: the pad of a short removal set
            where = np.full(dataset.n_subjects + 1, -1, dtype=np.intp)
            where[pooled] = np.arange(pooled.size)
            self._pooled.append((pooled, codes, where))
            if test is BUILTIN_AD:
                self._ad_kernels[j] = _ADMasks(column[pooled], codes, len(rows))
                stacks.setdefault(spec.group_subset, []).append(j)
        self._ad_stacks = list(stacks.values())
        # the criteria whose batch p-values have the bits ``evaluate`` gives
        self._exact_criteria = tuple(self._ad_kernels)
        # the distinct (covariate, group) keys that Welch criteria read: each
        # key's column and group code, and each Welch criterion's row in the
        # (criteria, sets) arrays of ``_welch_t_df`` and its pair of keys
        keys: dict[tuple[str, str], int] = {}
        self._welch_rows: dict[int, int] = {}
        pairs = []
        for j, spec in enumerate(criteria):
            if self._bound[j][0] is BUILTIN_WELCH:
                self._welch_rows[j] = len(pairs)
                pairs.append([keys.setdefault((spec.covariate, g), len(keys))
                              for g in spec.group_subset])
        self._key_pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        self._key_columns = np.array(
            [dataset.covariate_column(cov) for cov, _ in keys], dtype=float
        ).reshape(len(keys), dataset.n_subjects)
        self._key_groups = np.array(
            [dataset.group_labels.index(g) for _, g in keys], dtype=np.intp)
        self._key_rows = [dataset.group_index[g] for _, g in keys]
        self.alphas = np.array([spec.alpha for spec in criteria])

    def __len__(self) -> int:
        return len(self._bound)

    def p_values(self, keep: np.ndarray) -> tuple[float, ...]:
        """Per-criterion p-values on the kept rows.

        Raises UndefinedTestError when any criterion's test cannot be
        computed for this subset.
        """
        out = []
        for test, _, column, rows in self._bound:
            samples = [column[idx[keep[idx]]] for idx in rows]
            out.append(test(samples))
        return tuple(out)

    def evaluate(self, keep: np.ndarray) -> tuple[float, tuple[float, ...]]:
        """(r, per-criterion p-values) for the kept rows."""
        ps = self.p_values(keep)
        r = min(p / spec.alpha for p, spec in zip(ps, self.criteria))
        return r, ps

    def _evaluate_with(self, keep: np.ndarray, known: Mapping[int, float]):
        """``evaluate``, taking the p-value that ``known`` maps a criterion
        to, with the bits its test gives on these rows, in place of running
        that test."""
        ps = tuple(known[j] if j in known else test([column[idx[keep[idx]]] for idx in rows])
                   for j, (test, _, column, rows) in enumerate(self._bound))
        return min(p / spec.alpha for p, spec in zip(ps, self.criteria)), ps

    def r_values(self, ps: np.ndarray, defined: np.ndarray) -> np.ndarray:
        """r of each row of a p-value matrix, NaN where it is undefined."""
        rs = np.full(len(defined), np.nan)
        rs[defined] = np.min(ps[defined] / self.alphas, axis=1)
        return rs

    def score_removals(
        self, keep: np.ndarray, combos,
        floor: Callable[[np.ndarray], float] | None = None, pilot: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-criterion p-values of many removal sets at once.

        ``combos`` is an (m, L) array of kept rows; row i is scored on
        ``keep`` with the rows ``combos[i]`` also removed.  It may also be
        a list of (m_i, L_i) arrays, sets of several sizes, scored as their
        concatenation in one call.  Returns an (m, n_criteria) p-value
        matrix and an (m,) mask ``defined``.  The sets where ``defined`` is
        False are exactly those on which ``evaluate`` raises
        UndefinedTestError; each of their rows holds a NaN.

        Criteria bound to the built-in Welch test are scored from each
        group's count, mean and sum of squared deviations on ``keep``,
        downdated by the removed rows (``_welch_removals``), with the bits
        each set has in a call of its size alone.  Every other criterion is
        scored as ``score_masks`` scores it, on ``keep`` less each removal
        set, except that under a floor, when every set removes one row,
        the built-in Anderson-Darling criteria take per-value tables
        (``_ad_tables``, ``stats._ADRemovals``): an O(1) bound on every
        set's p, and the exact p, with the block kernel's bits, of the sets
        that are scored.

        ``floor``, when given, is a callable: from the r values (an array,
        NaN where undefined) of the sets this call has scored so far, it
        gives the least r a set must reach to matter to the caller (-inf:
        every set matters).  Sets that the Welch criteria show to lie below
        it, and not ``r_close`` to it, are skipped, and so are sets that
        the criteria scored before a mask-scored one (Anderson-Darling or
        any other test) already put there, before that one is scored
        (``_score``), and, for sets of one row, those whose
        Anderson-Darling bound already puts them there: each of their rows
        is NaN and ``defined`` is False, as for an undefined set.  Every
        other set has the p-values it has without a floor.  ``pilot`` is the
        number of sets scored first when the floor is -inf before any set
        is scored.  With the tables, ``floor`` may be given lower bounds of
        the r of those sets instead of their r (``_score``).
        """
        if not (isinstance(combos, list) and combos
                and all(isinstance(c, np.ndarray) and c.ndim == 2 for c in combos)):
            combos = [combos]
        parts = [np.asarray(c, dtype=np.intp) for c in combos]
        # every set in one array for the keep-masks, a short one padded
        # with the row index n_subjects, where no criterion pools a row
        padded = np.full((sum(map(len, parts)), max(c.shape[1] for c in parts)),
                         self.dataset.n_subjects, dtype=np.intp)
        at = 0
        for c in parts:
            padded[at:at + len(c), :c.shape[1]] = c
            at += len(c)

        def masks(j: int, sets: np.ndarray) -> np.ndarray:
            pooled, _, where = self._pooled[j]
            block = np.repeat(keep[pooled][None, :], sets.size, axis=0)
            positions = where[padded[sets]]
            hit, col = np.nonzero(positions >= 0)
            block[hit, positions[hit, col]] = False
            return block

        single = floor is not None and all(c.shape[1] == 1 for c in parts)
        tables = self._ad_tables(keep, padded[:, 0]) if single else {}
        welch = self._welch_removals(keep, *parts)
        return self._score(len(padded), masks, welch, floor, pilot, tables)

    def _ad_tables(self, keep: np.ndarray, rows: np.ndarray) -> dict:
        """For each Anderson-Darling criterion j, ``(removals, c)``: the
        ``stats._ADRemovals`` of the single removals ``rows`` from ``keep``
        for the criteria that share j's pooled rows, and j's place among
        them."""
        tables = {}
        for js in self._ad_stacks:
            pooled, _, where = self._pooled[js[0]]
            removals = _ADRemovals([self._ad_kernels[j] for j in js], keep[pooled], where[rows])
            tables.update((j, (removals, c)) for c, j in enumerate(js))
        return tables

    def score_masks(
        self, keeps: np.ndarray,
        floor: Callable[[np.ndarray], float] | None = None, pilot: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-criterion p-values of many keep-masks at once.

        ``keeps`` is an (m, n_subjects) boolean array.  Returns an
        (m, n_criteria) p-value matrix and an (m,) mask ``defined``, like
        ``score_removals``: ``defined`` is False exactly where ``evaluate``
        raises UndefinedTestError, and each of those rows holds a NaN.  A
        ``floor`` skips masks as in ``score_removals``.

        Criteria bound to the built-in Welch test are scored from each
        group's two-pass masked moments (``_welch_masks``), those bound to
        the built-in Anderson-Darling test with the block kernel prepared
        for them when the evaluator was built (``stats._ADMasks``); every
        other criterion is scored on its own subset.  Under a floor, a
        mask-scored criterion is scored only on the masks that the criteria
        scored before it leave at or near the floor, as in
        ``score_removals``.
        """
        keeps = np.asarray(keeps, dtype=bool).reshape(-1, self.dataset.n_subjects)
        return self._score(
            keeps.shape[0], lambda j, sets: keeps[sets][:, self._pooled[j][0]],
            self._welch_masks(keeps), floor, pilot,
        )

    def _score(self, m: int, masks, welch, floor=None, pilot: int = 1, tables=None):
        """(p, defined) of m subsets.

        ``masks(j, sets)`` gives the keep-masks of the subsets ``sets`` over
        criterion j's pooled rows, built in blocks of at most
        ``MASK_BLOCK_CELLS`` cells.  ``welch`` holds the (t, df, slow)
        arrays of ``_welch_t_df`` over (Welch criteria, subsets), None when
        there is no Welch criterion.  ``tables`` maps Anderson-Darling
        criteria to their ``_ad_tables`` entries (single removals only).

        With a ``floor`` (see ``score_removals``), the call's floor
        ``least`` is asked once, before any subset is scored.  With a Welch
        criterion, the subsets that Welch's t already rules out are dropped
        before any tail or mask block is computed (``_ruled_out``), and with
        tables, so are those whose least p_hi / alpha over the
        Anderson-Darling criteria, raised by ``FLOOR_MARGIN``, is below
        ``least`` and not ``r_close`` to it.  When ``least`` is -inf, a
        pilot goes first.  If every criterion is Welch or has tables, it
        scores no mask block: the ``pilot`` fast subsets (no Welch criterion
        finds them slow or undefined) of best least p_lo / alpha and the
        ``pilot`` of smallest max_j |t_j| get their Welch tails, kept for
        the result, and their lower bounds of r, the least of those
        p_j / alpha_j and p_lo / alpha, give ``least``.  A lower bound of a
        subset's r is at most its r, which ``search._evaluate_step``'s
        deflation and ``search._keeper_floor`` both allow.  Otherwise the
        ``pilot`` fast subsets of smallest max_j |t_j| are scored in full,
        and their r values give ``least``.
        Every subset left is scored by ``_score_sets``, which skips, on
        each mask-scored criterion, the subsets that the criteria scored
        before it put below ``least``.  That one ``least`` is the only
        floor a call applies, so a skipped subset has r below
        ``least * (1 - FLOOR_MARGIN / 2)``, as ``FLOOR_MARGIN`` states; a
        caller whose floor may fall after the call deflates it first
        (``search._evaluate_step``).
        """
        p = np.full((m, len(self._bound)), np.nan)
        defined = np.ones(m, dtype=bool)
        todo = np.arange(m)
        least = -math.inf if floor is None else floor(np.empty(0))
        tables = tables or {}
        fast = np.ones(m, dtype=bool)   # no Welch criterion finds them slow or undefined
        if welch is not None:
            t, df, slow = welch
            fast = ~(slow | np.isnan(t)).any(axis=0)
        if tables:   # bounds on r from the Anderson-Darling criteria alone
            lo, hi = (np.min([getattr(removals, side)[c] / self.alphas[j]
                              for j, (removals, c) in tables.items()], axis=0)
                      for side in ("lo", "hi"))
            fast &= ~np.isnan(lo)
        if floor is not None and least == -math.inf and (welch is not None or tables):
            order = np.flatnonzero(fast)
            picks = [] if welch is None else [np.abs(t[:, order]).max(axis=0)]
            picks += [-lo[order]] if tables else []
            first = order[np.unique([np.argsort(v, kind="stable")[:pilot] for v in picks])]
            if len(tables) + len(self._welch_rows) == len(self._bound):
                # no mask block: the Welch tails, kept for the result, and
                # each Anderson-Darling p_lo give lower bounds of r
                if welch is not None:
                    _fill_tails([(j, first, t[w, first], df[w, first])
                                 for j, w in self._welch_rows.items()], p, defined)
                lower = p[first]
                for j, (removals, c) in tables.items():
                    lower[:, j] = removals.lo[c, first]
                least = floor(self.r_values(lower, defined[first]))
            else:
                self._score_sets(first, p, defined, masks, welch, tables)
                least = floor(self.r_values(p[first], defined[first]))
                todo = np.delete(todo, first)
        if least > 0.0:
            skip = np.zeros(m, dtype=bool)
            if welch is not None:
                skip = self._ruled_out(welch, least)
            if tables:
                raised = hi * (1.0 + FLOOR_MARGIN)
                skip |= (raised < least) & _apart(raised, least)
            skip = skip[todo]
            defined[todo[skip]] = False
            p[todo[skip]] = np.nan
            todo = todo[~skip]
        self._score_sets(todo, p, defined, masks, welch, tables, least)
        return p, defined

    def _score_sets(self, sets, p, defined, masks, welch, tables,
                    least: float = -math.inf) -> None:
        """Fill ``p`` and ``defined`` for the subsets ``sets`` (ascending),
        criterion by criterion.  The Student t tails of every Welch
        criterion are taken in one call, but for those a pilot has already
        put in ``p``; only its slow subsets are scored on masks.

        Every other criterion is scored after the tails, in turn, each on
        the subsets whose running bound, the least p_j / alpha_j over the
        criteria scored so far raised by ``FLOOR_MARGIN``, is not below
        ``least`` or is ``r_close`` to it (every subset still defined when
        ``least`` is -inf).  The others are skipped: each of their rows is
        NaN and ``defined`` is False, as for a subset that Welch's t rules
        out.  A criterion in ``tables`` takes its p from
        ``_ADRemovals.exact``, which scores every criterion sharing its
        tables at once, on the subsets left when the first of them comes;
        every other one is scored on masks (``_score_on_masks``)."""
        tails: list = []
        later = []
        for j in range(len(self._bound)):
            todo = sets[defined[sets]]
            if j in self._welch_rows:
                # queue the tails of the sets neither slow nor undefined
                # that a pilot has not taken
                t, df, slow = (v[self._welch_rows[j], todo] for v in welch)
                undefined = ~slow & np.isnan(t)
                defined[todo[undefined]] = False
                fast = ~(slow | undefined) & np.isnan(p[todo, j])
                tails.append((j, todo[fast], t[fast], df[fast]))
                todo = todo[slow]
                if todo.size:
                    self._score_on_masks(j, todo, p, defined, masks)
            else:
                later.append(j)
        _fill_tails(tails, p, defined)
        if not later:
            return
        todo = sets[defined[sets]]
        scored = list(self._welch_rows)
        bound = np.min(p[np.ix_(todo, scored)] / self.alphas[scored], axis=1, initial=np.inf)
        exact = {}
        for j in later:
            raised = bound * (1.0 + FLOOR_MARGIN)
            out = (raised < least) & _apart(raised, least)
            defined[todo[out]] = False
            p[todo[out]] = np.nan
            todo, bound = todo[~out], bound[~out]
            if j in tables:
                removals, c = tables[j]
                if removals not in exact:   # every criterion of its stack at once
                    exact[removals] = todo, removals.exact(todo, MASK_BLOCK_CELLS)
                first, got = exact[removals]
                got = got[c, np.searchsorted(first, todo)]
                p[todo, j] = got
                defined[todo] = ~np.isnan(got)
            else:
                self._score_on_masks(j, todo, p, defined, masks)
            kept = defined[todo]
            todo = todo[kept]
            bound = np.minimum(bound[kept], p[todo, j] / self.alphas[j])

    def _score_on_masks(self, j: int, sets, p, defined, masks) -> None:
        """Criterion j's p of the subsets ``sets`` from their keep-masks, a
        block of at most ``MASK_BLOCK_CELLS`` cells at a time: by its
        prepared Anderson-Darling kernel, or by its test one mask at a
        time; a subset where the test is undefined is left undefined."""
        test, _, column, rows = self._bound[j]
        pooled, codes, _ = self._pooled[j]
        kernel = self._ad_kernels.get(j)
        step = max(1, MASK_BLOCK_CELLS // pooled.size)
        for start in range(0, sets.size, step):
            block_sets = sets[start:start + step]
            block = masks(j, block_sets)
            if kernel is not None:
                got = kernel(block)
            else:
                got = _per_mask_p(test, column[pooled], codes, len(rows), block)
            p[block_sets, j] = got
            defined[block_sets] = ~np.isnan(got)

    def _ruled_out(self, welch, least: float) -> np.ndarray:
        """Which subsets have r below ``least`` and not ``r_close`` to it,
        by their Welch t alone (``welch`` as in ``_score``).

        For fixed |t| the two-sided p = P(|T_df| >= |t|) falls as df grows
        (T_df is a normal scale mixture whose mixing law chi2_df / df falls
        in convex order as df grows, and P(|Z| >= c sqrt(s)) is convex in
        s), and it falls as |t| grows.  So for Welch criterion j, with
        df_lo its least df over the subsets and t*_j its ``_t_guess``, every
        subset with |t_j| >= t*_j has p_j <= P(|T_df_lo| >= t*_j), and so
        r <= that / alpha_j.  One kernel call checks that bound, raised by
        ``FLOOR_MARGIN``: when it is below ``least`` and not ``r_close`` to
        it, the criterion rules out those subsets, else none.  A subset is
        ruled out when some criterion rules it out so.  Subsets a criterion
        finds slow or undefined, or whose df exceeds ``_FLOOR_DF_MAX``, are
        not ruled out by it.

        The guess overshoots the exact threshold at small df (2.4 times at
        df 1 for an aim of 0.1, 1.03 times at df 3, within 1 % at df >= 10),
        so there fewer subsets are ruled out, none wrongly.  Criteria take
        their turn by how many subsets not yet ruled out their guess would
        rule out, most first, until no guess rules out another.
        """
        t, df, slow = welch
        skip = np.zeros(t.shape[1], dtype=bool)
        if not (least > 0.0 and skip.size):
            return skip
        size = np.abs(t)
        fast = ~slow & ~np.isnan(t) & (df <= _FLOOR_DF_MAX)
        df_lo = np.where(fast, df, np.inf).min(axis=1).tolist()
        alphas = self.alphas[list(self._welch_rows)].tolist()
        guess = [_t_guess(d, a * least / (1.0 + 2.0 * FLOOR_MARGIN))
                 for d, a in zip(df_lo, alphas)]
        reach = fast & (size >= np.array(guess)[:, None])
        while True:
            gain = (reach & ~skip).sum(axis=1)
            w = int(gain.argmax())
            if not gain[w]:
                return skip
            bound = _tail_or_nan(guess[w], df_lo[w]) * (1.0 + FLOOR_MARGIN) / alphas[w]
            if bound < least and not r_close(bound, least):
                skip |= reach[w]
            reach[w] = False

    def _welch_removals(self, keep: np.ndarray, *parts: np.ndarray):
        """The (t, df, slow) arrays of ``_welch_t_df`` for every Welch
        criterion on every removal set of ``parts``, (m_i, L_i) arrays
        taken in turn, from per-group sufficient statistics; None
        when there is no Welch criterion.

        Each key's n, mean and C = sum((x - mean)^2) are taken once, over
        its group's kept rows with ``welch_t``'s own arithmetic, so a set
        that takes no row of the group leaves the bits of its p as they
        are.  Removing k rows with deviations d = x - mean gives n' = n - k,
        a mean shift delta = -sum(d) / n' and C' = C - sum(d^2) - n' delta^2
        (Welford 1962; Chan, Golub & LeVeque 1983).  A key whose C is 0, or
        whose C' has lost too many digits to cancellation, is degenerate.
        Every key is downdated in one (keys, sets, L) pass per block of
        ``MASK_BLOCK_CELLS`` cells, and each size in passes of its own.  The
        removal axis stays last and contiguous, so each set's sums add in
        the order of a lone (sets, L) array, whatever the number of keys or
        sizes; sets are never padded to one width, since numpy's pairwise
        sum regroups a padded row of 8 or more removals.
        """
        if not self._welch_rows:
            return None
        n_keys = len(self._key_rows)
        shape = (len(self._welch_rows), sum(map(len, parts)))
        t, df, slow = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        n = np.empty(n_keys, dtype=np.intp)
        mean, ss = np.zeros(n_keys), np.zeros(n_keys)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, idx in enumerate(self._key_rows):
                values = self._key_columns[k, idx[keep[idx]]]
                n[k] = values.size
                if values.size:
                    mean[k], ss[k] = _mean_ss(values)
            n, mean, ss = n[:, None], mean[:, None], ss[:, None]
            at = 0
            for combos in parts:
                step = max(1, MASK_BLOCK_CELLS // (n_keys * max(combos.shape[1], 1)))
                for start in range(0, len(combos), step):
                    block = combos[start:start + step]
                    # (keys, sets, L), each key's rows of the set on its own column
                    in_group = self._key_groups[:, None, None] == self.dataset.group_codes[block]
                    x = np.take(self._key_columns, block, axis=1)
                    d = np.where(in_group, x - mean[:, :, None], 0.0)
                    n_left = n - _sum_removals(in_group)
                    delta = -_sum_removals(d) / n_left
                    ss_left = ss - _sum_removals(d * d) - n_left * (delta * delta)
                    cut = slice(at + start, at + start + len(block))
                    t[:, cut], df[:, cut], slow[:, cut] = _welch_t_df(
                        self._key_pairs, n_left, mean + delta, ss_left / (n_left - 1) / n_left,
                        (ss == 0.0) | (ss_left <= _DOWNDATE_REL_FLOOR * ss),
                    )
                at += len(combos)
        return t, df, slow

    def _welch_masks(self, keeps: np.ndarray):
        """The (t, df, slow) arrays of ``_welch_t_df`` for every Welch
        criterion on every keep-mask, from each key's two-pass moments over
        its kept rows, with ``welch_t``'s arithmetic; None when there is no
        Welch criterion.  A key that a mask leaves constant is degenerate,
        since ``welch_t`` decides that case itself."""
        if not self._welch_rows:
            return None
        shape = (len(self._key_rows), keeps.shape[0])
        n, constant = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool)
        mean, var_n = np.empty(shape), np.empty(shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, idx in enumerate(self._key_rows):
                x = self._key_columns[k, idx]
                step = max(1, MASK_BLOCK_CELLS // max(idx.size, 1))
                for start in range(0, keeps.shape[0], step):
                    cut = slice(start, start + step)
                    kept = keeps[cut][:, idx]
                    n[k, cut] = kept.sum(axis=1)
                    mean[k, cut] = np.where(kept, x, 0.0).sum(axis=1) / n[k, cut]
                    dev = np.where(kept, x - mean[k, cut, None], 0.0)
                    var_n[k, cut] = np.sum(dev * dev, axis=1) / (n[k, cut] - 1) / n[k, cut]
                    constant[k, cut] = (np.where(kept, x, np.inf).min(axis=1)
                                        == np.where(kept, x, -np.inf).max(axis=1))
            return _welch_t_df(self._key_pairs, n, mean, var_n, constant)


def _sum_removals(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=2)`` over the removal axis of a (keys, sets, L) array,
    with its bits.  numpy adds fewer than 8 values left to right, starting
    from 0, so for 0 < L < 8 those adds are written out, at a tenth of the
    cost of a reduction over so short an axis; from L = 8 numpy adds in
    pairs, and at L = 0 the sum is of nothing, so the reduction is kept
    there.  Booleans are summed as counts."""
    size = a.shape[2]
    if not 0 < size < 8:
        return a.sum(axis=2)
    total = a[:, :, 0].astype(np.intp) if a.dtype == bool else a[:, :, 0] + 0.0
    for i in range(1, size):
        total = total + a[:, :, i]
    return total


def _welch_t_df(pairs, n, mean, var_n, degenerate):
    """Welch t, Satterthwaite df and a ``slow`` flag for every criterion,
    from (keys, sets) arrays of each key's n, mean, var / n and a degenerate
    flag, with the arithmetic of ``welch_t``; ``pairs`` holds each
    criterion's two keys.  Returns (criteria, sets) arrays.

    t is NaN where a group keeps fewer than two rows (undefined).  The
    other sets are slow where a key is degenerate or t and df are not
    finite with df > 0; the caller scores those per subset.  Called under
    the moment pass's ``np.errstate``."""
    kx, ky = pairs
    nx, ny, sx, sy = n[kx], n[ky], var_n[kx], var_n[ky]
    se2 = sx + sy
    t = (mean[kx] - mean[ky]) / np.sqrt(se2)
    df = se2 * se2 / (sx * sx / (nx - 1) + sy * sy / (ny - 1))
    undefined = (nx < 2) | (ny < 2)
    slow = ~undefined & (degenerate[kx] | degenerate[ky]
                         | ~(np.isfinite(t) & np.isfinite(df) & (df > 0.0)))
    t[undefined] = np.nan
    return t, df, slow


def _t_guess(df: float, aim: float) -> float:
    """About the |t| where P(|T_df| >= |t|) = ``aim``, with no kernel call:
    the tail of z with z^2 = (df - 1/2) log(1 + t^2 / df) taken as normal,
    which puts t a little high.  inf outside 1e-280 < aim < 1 and
    1 <= df <= ``_FLOOR_DF_MAX``, or beyond t = 1e152 sqrt(df)."""
    if not (1e-280 < aim < 1.0 and 1.0 <= df <= _FLOOR_DF_MAX):
        return math.inf
    # z with P(|Z| >= z) = aim, by Newton steps on log erfc
    z = math.sqrt(-2.0 * math.log(aim))
    for _ in range(6):
        q = math.erfc(z / math.sqrt(2.0))
        z += (math.log(q) - math.log(aim)) * q / math.sqrt(2.0 / math.pi) * math.exp(0.5 * z * z)
    if z * z > 700.0 * (df - 0.5):
        return math.inf
    return math.sqrt(df * math.expm1(z * z / (df - 0.5)))


def _fill_tails(tails: list, p: np.ndarray, defined: np.ndarray) -> None:
    """Every queued tail in one ``student_t_sf_array`` call, so the continued
    fraction runs once for all Welch criteria; a p that is NaN or outside
    [0, 1] leaves its set undefined.  Only the sets a call scores are
    queued: a floor's pilot in a call of its own, then the sets the floor
    did not rule out (``CriteriaEvaluator._score``).

    The kernel reads t only through t * t, so each distinct (t * t, df) pair
    is computed once, from the first t that gives it; removal sets that
    downdate a criterion alike (a pair that touches one of its groups like
    the single removal, one that touches neither like no removal) share it.
    """
    if not tails:
        return
    t = np.concatenate([t for _, _, t, _ in tails])
    df = np.concatenate([df for _, _, _, df in tails])
    pairs = np.empty((t.size, 2))
    pairs[:, 0] = t * t
    pairs[:, 1] = df
    _, first, inverse = np.unique(
        pairs.view(np.complex128).ravel(), return_index=True, return_inverse=True
    )
    ps = student_t_sf_array(t[first], df[first])[inverse]
    ps[(ps < 0.0) | (ps > 1.0)] = np.nan   # outside [0, 1] is undefined
    start = 0
    for j, sets, _, _ in tails:
        got = ps[start:start + sets.size]
        start += sets.size
        p[sets, j] = got
        defined[sets] &= ~np.isnan(got)


def compute_r(
    dataset: Dataset,
    state: SubsetState | np.ndarray,
    criteria: CriteriaSet,
    registry: TestRegistry | None = None,
) -> float:
    """Match score r = min over criteria of p_j / alpha_j; success iff r >= 1."""
    keep = state.keep if isinstance(state, SubsetState) else np.asarray(state, bool)
    r, _ = CriteriaEvaluator(dataset, criteria, registry).evaluate(keep)
    return r


def balance_from_counts(
    dataset: Dataset, config: MatchConfig, counts: np.ndarray
) -> Balance:
    """Balance term of a subset that keeps ``counts[g]`` rows of each group
    (canonical label order): the KL divergence of its group proportions from
    the target, or the removals per group in precedence order."""
    return balances_from_counts(dataset, config, np.asarray(counts)[None])[0]


def balances_from_counts(
    dataset: Dataset, config: MatchConfig, counts: np.ndarray
) -> list[Balance]:
    """``balance_from_counts`` of each row of the (subsets, groups) array
    ``counts``.  The target and the checks are taken once for all rows,
    and each row's KL divergence keeps its own arithmetic."""
    if config.balance_mode == "proportions":
        if (counts == 0).any():
            raise ValidationError("cannot rank a subset with an empty group")
        observed = counts / counts.sum(axis=1, keepdims=True)
        target = config.target_vector(dataset)
        _check_proportions(observed, target)
        return [_kl(row, target) for row in observed]
    removed = dataset.group_sizes() - counts
    code_of = {g: i for i, g in enumerate(dataset.group_labels)}
    order = [code_of[g] for g in config.precedence]  # type: ignore[union-attr]
    return [tuple(row) for row in removed[:, order].tolist()]


def solution_rank(
    dataset: Dataset,
    keep: np.ndarray,
    config: MatchConfig,
    r: float,
) -> SolutionRank:
    """Rank a subset given its already-computed match score."""
    counts = np.bincount(dataset.group_codes[keep], minlength=dataset.n_groups)
    return SolutionRank(
        int(keep.sum()), balance_from_counts(dataset, config, counts), r
    )
