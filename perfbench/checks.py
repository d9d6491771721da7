"""Checks made apart from groupmatch: constraints, scipy p-values, an oracle.

Nothing here imports groupmatch.  A matching problem is described by plain
arrays (covariate values, one group label per row) and the criteria and
constraints the benchmark configured, and every verdict is recomputed from
that description:

* ``constraint_violations`` - locked groups kept whole, per-group caps, the
  total cap and ``min_group_size``;
* ``criterion_failures``    - every criterion recomputed with
  ``scipy.stats.ttest_ind(equal_var=False)`` or ``scipy.stats.anderson_ksamp``;
* ``oracle_min_removals``   - brute-force enumeration of every removal set
  the constraints allow, scored with scipy, for the fewest removals that
  match.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np


def _scipy():
    """scipy.stats, imported on first use: input generation and the timed
    rounds of most workloads run before any check, and peak memory is read
    before scipy is loaded."""
    from scipy import stats

    return stats


# Two correct Welch implementations differ in the last digits of p; a
# reported match whose p sits on alpha must not fail on that noise.
WELCH_REL_SLACK = 1e-9
# Anderson-Darling p-values are interpolated from a table; two correct
# implementations agree to 1e-3 inside it.
AD_ABS_SLACK = 1e-3
# scipy clips the Anderson-Darling p-value into [0.001, 0.25].
AD_CLIP_HIGH = 0.25


@dataclass(frozen=True)
class Criterion:
    test: str                  # "welch_t" | "anderson_darling"
    column: int                # covariate column index
    groups: tuple[str, ...]
    alpha: float


@dataclass(frozen=True)
class Problem:
    ids: tuple[str, ...]
    groups: tuple[str, ...]    # group label of each row
    values: np.ndarray         # (rows, covariates)
    criteria: tuple[Criterion, ...]
    locked: frozenset[str] = frozenset()
    max_removed_per_group: Mapping[str, int] = field(default_factory=dict)
    max_removed_total: int | None = None
    min_group_size: int = 2

    @property
    def n(self) -> int:
        return len(self.ids)

    def rows_of(self, group: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.groups) == group)

    def labels(self) -> list[str]:
        return sorted(set(self.groups))

    def keep_mask(self, kept_ids: Iterable[str]) -> np.ndarray:
        position = {s: i for i, s in enumerate(self.ids)}
        keep = np.zeros(self.n, dtype=bool)
        for s in kept_ids:
            if s not in position:
                raise ValueError(f"reported id {s!r} is not in the dataset")
            keep[position[s]] = True
        return keep


def constraint_violations(problem: Problem, keep: np.ndarray) -> list[str]:
    out = []
    total_removed = 0
    for g in problem.labels():
        rows = problem.rows_of(g)
        kept = int(keep[rows].sum())
        removed = rows.size - kept
        total_removed += removed
        if g in problem.locked:
            if removed:
                out.append(f"locked group {g} lost {removed} row(s)")
            continue
        cap = problem.max_removed_per_group.get(g)
        if cap is not None and removed > cap:
            out.append(f"group {g}: {removed} removed, cap {cap}")
        if kept < problem.min_group_size:
            out.append(f"group {g}: {kept} kept, minimum {problem.min_group_size}")
    cap = problem.max_removed_total
    if cap is not None and total_removed > cap:
        out.append(f"{total_removed} removed in total, cap {cap}")
    return out


def welch_p(x: np.ndarray, y: np.ndarray) -> float:
    p = float(_scipy().ttest_ind(x, y, equal_var=False).pvalue)
    if math.isnan(p):
        # both samples constant: equal means are no evidence of a difference
        return 1.0 if x.var() == 0 and y.var() == 0 and x.mean() == y.mean() else 0.0
    return p


def ad_p(samples: list[np.ndarray]) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(_scipy().anderson_ksamp(samples).pvalue)


def criterion_passes(c: Criterion, samples: list[np.ndarray]) -> bool:
    if any(s.size < 2 for s in samples):
        return False
    if c.test == "welch_t":
        return welch_p(samples[0], samples[1]) >= c.alpha * (1.0 - WELCH_REL_SLACK)
    if c.test == "anderson_darling":
        p = ad_p(samples)
        if p >= AD_CLIP_HIGH:
            # clipped: the true p is at least 0.25
            return c.alpha <= AD_CLIP_HIGH + AD_ABS_SLACK
        return p + AD_ABS_SLACK >= c.alpha
    raise ValueError(f"no independent check for test {c.test!r}")


def criterion_failures(problem: Problem, keep: np.ndarray) -> list[str]:
    out = []
    for c in problem.criteria:
        samples = [
            problem.values[problem.rows_of(g), c.column][keep[problem.rows_of(g)]]
            for g in c.groups
        ]
        if not criterion_passes(c, samples):
            out.append(f"{c.test} on column {c.column} of {c.groups}: p/alpha < 1")
    return out


def solution_failures(problem: Problem, solutions: Iterable[Iterable[str]]) -> list[str]:
    """Reasons a reported matched solution set is wrong; empty when none."""
    out = []
    solutions = list(solutions)
    if not solutions:
        return ["no solution reported"]
    for i, kept_ids in enumerate(solutions):
        keep = problem.keep_mask(kept_ids)
        out += [f"solution {i}: {m}" for m in constraint_violations(problem, keep)]
        out += [f"solution {i}: {m}" for m in criterion_failures(problem, keep)]
    return out


# ---------------------------------------------------------------------------
# brute-force oracle (Welch criteria)
# ---------------------------------------------------------------------------


def _room(problem: Problem, group: str) -> int:
    if group in problem.locked:
        return 0
    room = problem.rows_of(group).size - problem.min_group_size
    cap = problem.max_removed_per_group.get(group)
    return max(0, room if cap is None else min(room, cap))


def _kept_index_sets(rows: np.ndarray, removed: int) -> np.ndarray:
    """(ways, kept) row indices for every way of removing ``removed`` rows."""
    sets = [
        [r for r in rows if r not in combo]
        for combo in itertools.combinations(rows.tolist(), removed)
    ]
    return np.array(sets, dtype=np.intp).reshape(len(sets), rows.size - removed)


def _pattern_matches(problem: Problem, labels: list[str], counts: tuple[int, ...]) -> bool:
    """Does any removal set with ``counts[i]`` rows out of group ``labels[i]``
    pass every criterion?  Each criterion depends on two groups only, so its
    pass table is computed over those two groups' removal choices and the
    tables are combined by broadcasting."""
    kept = {
        g: _kept_index_sets(problem.rows_of(g), c) for g, c in zip(labels, counts)
    }
    axis = {g: i for i, g in enumerate(labels)}
    ok = np.ones([kept[g].shape[0] for g in labels], dtype=bool)
    for c in problem.criteria:
        if c.test != "welch_t":
            raise ValueError("the oracle scores Welch criteria only")
        g1, g2 = c.groups
        x = problem.values[kept[g1], c.column]          # (ways1, n1)
        y = problem.values[kept[g2], c.column]          # (ways2, n2)
        with np.errstate(all="ignore"):
            p = _scipy().ttest_ind(
                x[:, None, :], y[None, :, :], axis=-1, equal_var=False
            ).pvalue
        both_flat = (x.var(axis=1)[:, None] == 0) & (y.var(axis=1)[None, :] == 0)
        same_mean = x.mean(axis=1)[:, None] == y.mean(axis=1)[None, :]
        p = np.where(np.isnan(p), np.where(both_flat & same_mean, 1.0, 0.0), p)
        passes = p >= c.alpha * (1.0 - WELCH_REL_SLACK)
        shape = [1] * len(labels)
        shape[axis[g1]], shape[axis[g2]] = passes.shape
        ok &= (passes if axis[g1] < axis[g2] else passes.T).reshape(shape)
        if not ok.any():
            return False
    return bool(ok.any())


def oracle_min_removals(problem: Problem, cap: int) -> int | None:
    """Fewest rows whose removal matches every criterion, over all removal
    sets of at most ``cap`` rows that keep locked groups whole, respect the
    per-group caps and leave ``min_group_size`` rows in every other group;
    None when no such set matches."""
    labels = problem.labels()
    rooms = [_room(problem, g) for g in labels]
    for depth in range(cap + 1):
        for counts in itertools.product(*(range(r + 1) for r in rooms)):
            if sum(counts) == depth and _pattern_matches(problem, labels, counts):
                return depth
    return None


def count_removal_sets(removable: int, max_depth: int) -> int:
    """Removal sets an enumeration over ``removable`` rows generates at
    depths 0..max_depth, feasible or not."""
    return sum(math.comb(removable, d) for d in range(max_depth + 1))
