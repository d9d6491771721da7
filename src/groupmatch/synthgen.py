"""Synthetic evaluation data: multivariate-normal items plus mean-shifted
"intruders".

A generated dataset mixes a large sample of basic items with a small planted
sample drawn from the same covariance but a shifted mean, then assigns group
labels at random under the requested split.  Matching is expected to restore
balance largely by excluding intruders, which the returned ground-truth flags
make checkable.

Generation is fully deterministic from the spec seed.  Two acceptance windows
from the evaluation protocol are enforced by rejection sampling over child
seeds: the basic items alone should look mildly matched (minimum
between-group Welch p inside ``basic_p_range``) while the full set should
look measurably different (minimum p below ``full_p_max``).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dataset import ColumnSchema, Dataset, write_dataset
from .errors import (
    GenerationError,
    UndefinedTestError,
    ValidationError,
    check_scalar_fields,
)
from .stats import welch_t_p

__all__ = [
    "SyntheticSpec",
    "GenerationInfo",
    "GeneratedData",
    "random_pd_matrix",
    "sample_mvn",
    "generate_dataset",
    "write_generated",
    "load_truth",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for one synthetic dataset."""

    n_items: int
    n_intruders: int
    n_covariates: int
    n_shifted_covariates: int
    group_split: tuple[float, ...] = (0.5, 0.5)
    mean_range: tuple[float, float] = (1.0, 2.0)
    variance_factor_range: tuple[float, float] = (1.0, 10.0)
    shift_range: tuple[float, float] = (0.5, 1.0)
    shift_scale: str = "sd"            # "sd" | "variance"
    pd_eigenvalue_range: tuple[float, float] = (0.5, 2.0)
    basic_p_range: tuple[float, float] | None = (0.2, 0.5)
    full_p_max: float | None = 0.1
    max_attempts: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_scalar_fields(self)
        object.__setattr__(self, "group_split", tuple(self.group_split))
        if self.n_items < 4:
            raise ValidationError("n_items must be >= 4")
        if not 0 <= self.n_intruders < self.n_items:
            raise ValidationError(
                f"n_intruders must lie in [0, n_items), got {self.n_intruders}"
            )
        if self.n_covariates < 1:
            raise ValidationError("n_covariates must be >= 1")
        if not 0 <= self.n_shifted_covariates <= self.n_covariates:
            raise ValidationError(
                "n_shifted_covariates must lie in [0, n_covariates]"
            )
        if len(self.group_split) < 2:
            raise ValidationError("need at least two groups in group_split")
        if any(p <= 0 for p in self.group_split):
            raise ValidationError("group_split entries must be positive")
        total = sum(self.group_split)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"group_split must sum to 1, got {total}")
        for name, rng_ in (
            ("mean_range", self.mean_range),
            ("variance_factor_range", self.variance_factor_range),
            ("shift_range", self.shift_range),
            ("pd_eigenvalue_range", self.pd_eigenvalue_range),
        ):
            lo, hi = rng_
            if lo > hi:
                raise ValidationError(f"{name} is inverted: {rng_}")
        if self.mean_range[0] <= 0:
            raise ValidationError("mean_range must be positive (variances scale it)")
        if self.variance_factor_range[0] <= 0:
            raise ValidationError("variance_factor_range must be positive")
        if self.pd_eigenvalue_range[0] <= 0:
            raise ValidationError("pd_eigenvalue_range must be positive")
        if self.shift_range[0] < 0:
            raise ValidationError("shift_range must be nonnegative")
        if self.shift_scale not in ("sd", "variance"):
            raise ValidationError(f"unknown shift_scale {self.shift_scale!r}")
        if self.basic_p_range is not None:
            lo, hi = self.basic_p_range
            if not 0 <= lo < hi <= 1:
                raise ValidationError(f"bad basic_p_range {self.basic_p_range}")
        if self.full_p_max is not None and not 0 < self.full_p_max <= 1:
            raise ValidationError(f"bad full_p_max {self.full_p_max}")
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")

    @property
    def n_groups(self) -> int:
        return len(self.group_split)

    def group_labels(self) -> tuple[str, ...]:
        if self.n_groups <= 26:
            return tuple(chr(ord("A") + i) for i in range(self.n_groups))
        return tuple(f"g{i}" for i in range(self.n_groups))

    def to_json_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class GenerationInfo:
    """Ground truth recorded at generation time."""

    means: np.ndarray
    variances: np.ndarray
    covariance: np.ndarray
    shifted_covariates: tuple[int, ...]
    shifts: np.ndarray            # absolute mean shift per covariate
    attempts: int


@dataclass(frozen=True)
class GeneratedData:
    dataset: Dataset
    intruder_flags: np.ndarray    # bool per row
    info: GenerationInfo

    def truth_by_id(self) -> dict[str, bool]:
        return {
            s: bool(f)
            for s, f in zip(self.dataset.subject_ids, self.intruder_flags)
        }


def random_pd_matrix(
    dim: int,
    eigenvalue_range: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Random symmetric positive-definite matrix with spectrum drawn
    uniformly from ``eigenvalue_range``.

    The eigenbasis is Haar-distributed: QR of a standard Gaussian matrix
    with the R-diagonal sign correction.
    """
    lo, hi = eigenvalue_range
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if lo <= 0 or lo > hi:
        raise ValidationError(f"eigenvalue_range must be positive, got {eigenvalue_range}")
    eigenvalues = rng.uniform(lo, hi, size=dim)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    out = (q * eigenvalues) @ q.T
    return (out + out.T) / 2.0


def sample_mvn(
    mean: np.ndarray,
    cov: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n i.i.d. multivariate-normal draws via the Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise GenerationError(f"covariance is not positive-definite: {exc}") from exc
    z = rng.standard_normal((n, mean.size))
    return mean + z @ chol.T


def _largest_remainder_counts(split: tuple[float, ...], total: int) -> np.ndarray:
    raw = np.array(split) * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def _min_pairwise_welch_p(values: np.ndarray, codes: np.ndarray, n_groups: int):
    """Minimum Welch p over all covariates and group pairs; None when any
    test is undefined."""
    best = None
    for j in range(values.shape[1]):
        col = values[:, j]
        for a, b in itertools.combinations(range(n_groups), 2):
            try:
                p = welch_t_p(col[codes == a], col[codes == b])
            except UndefinedTestError:
                return None
            best = p if best is None else min(best, p)
    return best


def generate_dataset(spec: SyntheticSpec) -> GeneratedData:
    """Generate one dataset per the spec, rejection-sampling child seeds
    until the acceptance windows hold (or raising GenerationError).

    Child seeds are spawned one attempt at a time, and the windows are
    checked on the drawn values and group codes before any ids, labels or
    ``Dataset`` are built."""
    root = np.random.SeedSequence(spec.seed)
    for attempt in range(1, spec.max_attempts + 1):
        rng = np.random.default_rng(root.spawn(1)[0])
        info, values, flags, codes = _draw(spec, rng)
        if _accept(spec, values, codes, flags):
            return _build(spec, replace(info, attempts=attempt), values, flags, codes)
    raise GenerationError(
        f"no dataset satisfied the acceptance windows in {spec.max_attempts} "
        f"attempts (seed {spec.seed}); relax basic_p_range/full_p_max or raise "
        f"max_attempts"
    )


def _draw(spec: SyntheticSpec, rng: np.random.Generator):
    """Every random draw of one attempt: the ground truth (0 attempts), the
    values, the intruder flags and each row's group code."""
    k = spec.n_covariates
    means = rng.uniform(*spec.mean_range, size=k)
    variances = means * rng.uniform(*spec.variance_factor_range, size=k)
    base = random_pd_matrix(k, spec.pd_eigenvalue_range, rng)
    scale = np.sqrt(variances / np.diag(base))
    cov = base * np.outer(scale, scale)

    n_basic = spec.n_items - spec.n_intruders
    shifted = np.sort(
        rng.choice(k, size=spec.n_shifted_covariates, replace=False)
    )
    shifts = np.zeros(k)
    draws = rng.uniform(*spec.shift_range, size=spec.n_shifted_covariates)
    unit = np.sqrt(np.diag(cov)) if spec.shift_scale == "sd" else np.diag(cov)
    shifts[shifted] = draws * unit[shifted]

    basic = sample_mvn(means, cov, n_basic, rng)
    intruders = sample_mvn(means + shifts, cov, spec.n_intruders, rng)
    values = np.vstack([basic, intruders]) if spec.n_intruders else basic
    flags = np.zeros(spec.n_items, dtype=bool)
    flags[n_basic:] = True

    counts = _largest_remainder_counts(spec.group_split, spec.n_items)
    assignment = np.repeat(np.arange(spec.n_groups), counts)
    rng.shuffle(assignment)
    info = GenerationInfo(
        means=means,
        variances=variances,
        covariance=cov,
        shifted_covariates=tuple(int(j) for j in shifted),
        shifts=shifts,
        attempts=0,
    )
    return info, values, flags, assignment


def _build(spec: SyntheticSpec, info: GenerationInfo, values: np.ndarray,
           flags: np.ndarray, codes: np.ndarray) -> GeneratedData:
    """The dataset of one accepted attempt: ids, group labels and names."""
    width = len(str(spec.n_items))
    ids = [f"item{i + 1:0{width}d}" for i in range(spec.n_items)]
    labels = spec.group_labels()
    groups = [labels[c] for c in codes]
    names = [f"cov{j + 1}" for j in range(spec.n_covariates)]
    return GeneratedData(Dataset(ids, groups, values, names), flags, info)


def _accept(spec: SyntheticSpec, values: np.ndarray, codes: np.ndarray,
            flags: np.ndarray) -> bool:
    """Whether the windows hold for ``values`` with group ``codes`` (any
    numbering of the groups gives the same minimum over group pairs) and
    intruder ``flags``."""
    if spec.basic_p_range is not None:
        basics = ~flags
        p = _min_pairwise_welch_p(values[basics], codes[basics], spec.n_groups)
        if p is None or not spec.basic_p_range[0] <= p <= spec.basic_p_range[1]:
            return False
    if spec.full_p_max is not None:
        p = _min_pairwise_welch_p(values, codes, spec.n_groups)
        if p is None or p >= spec.full_p_max:
            return False
    return True


def write_generated(
    generated: GeneratedData,
    dataset_path: str | Path,
    truth_path: str | Path,
    info_path: str | Path | None = None,
) -> ColumnSchema:
    """Write the dataset CSV, the id -> intruder sidecar, and optionally a
    JSON record of the generation ground truth."""
    schema = write_dataset(generated.dataset, dataset_path)
    with Path(truth_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "intruder"])
        for s, f in zip(generated.dataset.subject_ids, generated.intruder_flags):
            writer.writerow([s, int(f)])
    if info_path is not None:
        Path(info_path).write_text(
            json.dumps(_json_fields(generated.info), indent=2, sort_keys=True),
            encoding="utf-8",
        )
    return schema


def _json_fields(record) -> dict:
    """The fields of a dataclass as JSON values: arrays and tuples as lists."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def load_truth(path: str | Path) -> dict[str, bool]:
    """Read an id -> intruder sidecar written by write_generated."""
    out: dict[str, bool] = {}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            out[record["id"]] = record["intruder"].strip() in ("1", "true", "True")
    return out
