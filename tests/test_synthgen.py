import hashlib
from dataclasses import replace

import numpy as np
import pytest

from groupmatch.dataset import load_dataset
from groupmatch.errors import GenerationError, ValidationError
from groupmatch.stats import welch_t_p
from groupmatch.synthgen import (
    SyntheticSpec,
    generate_dataset,
    load_truth,
    random_pd_matrix,
    sample_mvn,
    write_generated,
)


def standard_spec(**overrides):
    kwargs = dict(
        n_items=100,
        n_intruders=10,
        n_covariates=3,
        n_shifted_covariates=2,
        seed=5,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


class TestRandomPDMatrix:
    def test_scalar_case(self):
        rng = np.random.default_rng(0)
        m = random_pd_matrix(1, (0.5, 2.0), rng)
        assert m.shape == (1, 1)
        assert 0.5 <= m[0, 0] <= 2.0

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 6):
            m = random_pd_matrix(dim, (0.1, 3.0), rng)
            assert np.max(np.abs(m - m.T)) <= 1e-12
            assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_spectrum_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_pd_matrix(4, (0.7, 1.9), rng)
            eig = np.linalg.eigvalsh(m)
            assert np.all(eig >= 0.7 - 1e-9)
            assert np.all(eig <= 1.9 + 1e-9)

    def test_bad_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            random_pd_matrix(3, (0.0, 1.0), rng)


class TestSampleMVN:
    def test_mean_within_clt_bound(self):
        rng = np.random.default_rng(4)
        n = 40_000
        draws = sample_mvn(np.zeros(3), np.eye(3), n, rng)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(5)
        cov = np.array([[2.0, 0.6, 0.2], [0.6, 1.5, -0.3], [0.2, -0.3, 1.0]])
        draws = sample_mvn(np.zeros(3), cov, 100_000, rng)
        err = np.linalg.norm(np.cov(draws.T) - cov)
        assert err < 0.1

    def test_deterministic(self):
        a = sample_mvn(np.zeros(2), np.eye(2), 50, np.random.default_rng(9))
        b = sample_mvn(np.zeros(2), np.eye(2), 50, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_non_pd_covariance_rejected(self):
        rng = np.random.default_rng(6)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(GenerationError):
            sample_mvn(np.zeros(2), bad, 10, rng)


class TestGenerateDataset:
    def test_counts_and_flags(self):
        generated = generate_dataset(standard_spec())
        d = generated.dataset
        assert d.n_subjects == 100
        assert int(generated.intruder_flags.sum()) == 10
        assert d.n_covariates == 3
        assert sorted(len(d.group_index[g]) for g in d.group_labels) == [50, 50]

    def test_determinism(self):
        a = generate_dataset(standard_spec())
        b = generate_dataset(standard_spec())
        assert a.dataset.subject_ids == b.dataset.subject_ids
        assert a.dataset.groups == b.dataset.groups
        assert np.array_equal(a.dataset.covariates, b.dataset.covariates)
        assert np.array_equal(a.intruder_flags, b.intruder_flags)

    def test_acceptance_windows_hold(self):
        spec = standard_spec()
        generated = generate_dataset(spec)
        d = generated.dataset
        codes = np.asarray(d.group_codes)
        basics = ~generated.intruder_flags
        p_basic = min(
            welch_t_p(
                d.covariates[basics & (codes == 0), j],
                d.covariates[basics & (codes == 1), j],
            )
            for j in range(d.n_covariates)
        )
        p_full = min(
            welch_t_p(d.covariates[codes == 0, j], d.covariates[codes == 1, j])
            for j in range(d.n_covariates)
        )
        lo, hi = spec.basic_p_range
        assert lo <= p_basic <= hi
        assert p_full < spec.full_p_max

    def test_ground_truth_recorded(self):
        spec = standard_spec()
        generated = generate_dataset(spec)
        info = generated.info
        assert np.all(info.means >= spec.mean_range[0])
        assert np.all(info.means <= spec.mean_range[1])
        factors = info.variances / info.means
        assert np.all(factors >= spec.variance_factor_range[0] - 1e-12)
        assert np.all(factors <= spec.variance_factor_range[1] + 1e-12)
        assert np.allclose(np.diag(info.covariance), info.variances, rtol=1e-10)
        assert len(info.shifted_covariates) == spec.n_shifted_covariates
        lo, hi = spec.shift_range
        sds = np.sqrt(np.diag(info.covariance))
        for j in info.shifted_covariates:
            ratio = info.shifts[j] / sds[j]
            assert lo - 1e-12 <= ratio <= hi + 1e-12

    def test_null_shift_gives_uniform_p(self):
        # without a shift, full-set p-values are uniform; acceptance windows
        # must be disabled for this regime to exist
        reps = 1000
        ps = []
        for k in range(reps):
            spec = SyntheticSpec(
                n_items=40,
                n_intruders=10,
                n_covariates=1,
                n_shifted_covariates=0,
                basic_p_range=None,
                full_p_max=None,
                seed=k,
            )
            g = generate_dataset(spec)
            codes = np.asarray(g.dataset.group_codes)
            ps.append(
                welch_t_p(
                    g.dataset.covariates[codes == 0, 0],
                    g.dataset.covariates[codes == 1, 0],
                )
            )
        ps = np.sort(ps)
        grid = (np.arange(1, reps + 1)) / reps
        ks_distance = np.max(np.abs(ps - grid))
        assert ks_distance < 0.05

    @pytest.mark.parametrize("field, value", [
        ("n_items", 40.0),
        ("seed", 1.5),
        ("n_intruders", True),
        ("max_attempts", "9"),
        ("full_p_max", True),
    ])
    def test_scalar_of_wrong_type_names_its_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            standard_spec(**{field: value})

    def test_numpy_scalars_are_numbers(self):
        spec = standard_spec(n_items=np.int64(100), seed=np.int64(5),
                             full_p_max=np.float64(0.1))
        assert generate_dataset(spec).dataset.n_subjects == 100

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            standard_spec(n_intruders=100)
        with pytest.raises(ValidationError):
            standard_spec(n_shifted_covariates=9)
        with pytest.raises(ValidationError):
            standard_spec(group_split=(0.5, 0.6))

    def test_unattainable_windows_raise(self):
        spec = standard_spec(
            n_intruders=0,
            full_p_max=1e-9,
            max_attempts=5,
        )
        with pytest.raises(GenerationError, match="acceptance windows"):
            generate_dataset(spec)

    def test_variance_scale_mode(self):
        spec = standard_spec(shift_scale="variance")
        generated = generate_dataset(spec)
        info = generated.info
        lo, hi = spec.shift_range
        variances = np.diag(info.covariance)
        for j in info.shifted_covariates:
            ratio = info.shifts[j] / variances[j]
            assert lo - 1e-12 <= ratio <= hi + 1e-12


def evaluation_grid_specs():
    """The full evaluation grid: 3 sizes x 6 covariate combinations x 2
    variance ranges = 36 parameter sets."""
    specs = []
    for n_items in (100, 150, 200):
        for k, shifted in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)):
            for vf in ((1.0, 10.0), (1.0, 4.0)):
                specs.append(
                    SyntheticSpec(
                        n_items=n_items,
                        n_intruders=10,
                        n_covariates=k,
                        n_shifted_covariates=shifted,
                        variance_factor_range=vf,
                    )
                )
    return specs


class TestEvaluationGrid:
    def test_grid_has_36_parameter_sets(self):
        assert len(evaluation_grid_specs()) == 36

    def test_replicates_reproducible_from_master_seed(self):
        specs = evaluation_grid_specs()
        master = np.random.SeedSequence(2027)
        seeds = master.generate_state(len(specs) * 5)
        # spot-check a handful of (spec, replicate) cells for bitwise
        # reproducibility under the derived seeds
        for flat_index in (0, 37, 101):
            spec = specs[flat_index // 5]
            seed = int(seeds[flat_index])
            a = generate_dataset(replace(spec, seed=seed))
            b = generate_dataset(replace(spec, seed=seed))
            assert np.array_equal(a.dataset.covariates, b.dataset.covariates)
            assert a.dataset.groups == b.dataset.groups


def digest(generated) -> str:
    """The first 16 hex digits of a SHA-256 over a generated dataset's
    values, groups, ids and intruder flags."""
    d = generated.dataset
    h = hashlib.sha256(d.covariates.tobytes())
    h.update(",".join(d.groups).encode())
    h.update(",".join(d.subject_ids).encode())
    h.update(generated.intruder_flags.tobytes())
    return h.hexdigest()[:16]


# (spec fields, seed, attempts, digest): the two specs of the benchmark's
# intruder grid, at a few seeds and at the seeds that master seed 2026
# derives for them; a three-group split; and 28 groups, whose labels g0..g27
# sort apart from the order they are numbered in
GRID_2 = dict(n_items=100, n_intruders=10, n_covariates=2, n_shifted_covariates=2,
              variance_factor_range=(1.0, 10.0))
GRID_4 = dict(n_items=100, n_intruders=10, n_covariates=4, n_shifted_covariates=3,
              variance_factor_range=(1.0, 4.0))
THREE = dict(n_items=60, n_intruders=6, n_covariates=2, n_shifted_covariates=1,
             group_split=(0.5, 0.3, 0.2))
MANY = dict(n_items=140, n_intruders=10, n_covariates=1, n_shifted_covariates=1,
            group_split=(1 / 28,) * 27 + (1 - 27 / 28,), basic_p_range=None,
            full_p_max=0.003)
PINNED = [
    (GRID_2, 0, 98, "237c7b51adfdf37c"),
    (GRID_2, 1, 57, "c4555d5b338cbaf9"),
    (GRID_2, 7, 26, "c108cd98f2f8b6d8"),
    (GRID_2, 2727543821, 8, "0917cd581da9ecfa"),
    (GRID_4, 0, 38, "f6ae46d839fe015d"),
    (GRID_4, 1, 21, "43cf4904ed7961fe"),
    (GRID_4, 7, 18, "046d0d685c9847e7"),
    (GRID_4, 2351327623, 50, "025234d025b5fdb6"),
    (THREE, 3, 23, "87b5ab9d396080ae"),
    (THREE, 11, 12, "7df9fc1fc7da5b3a"),
    (MANY, 3, 1, "cdc347e293afbf7b"),
    (MANY, 11, 3, "5753ed05be49b3f7"),
]


@pytest.mark.parametrize("fields, seed, attempts, expected", PINNED)
def test_generated_datasets_are_pinned(fields, seed, attempts, expected):
    generated = generate_dataset(SyntheticSpec(**fields, seed=seed))
    assert generated.info.attempts == attempts
    assert digest(generated) == expected


class TestSidecarFiles:
    def test_write_and_reload(self, tmp_path):
        generated = generate_dataset(standard_spec(n_items=40, n_intruders=5))
        schema = write_generated(
            generated,
            tmp_path / "data.csv",
            tmp_path / "truth.csv",
            tmp_path / "info.json",
        )
        d2 = load_dataset(tmp_path / "data.csv", schema)
        assert d2.subject_ids == generated.dataset.subject_ids
        assert np.array_equal(d2.covariates, generated.dataset.covariates)
        truth = load_truth(tmp_path / "truth.csv")
        assert truth == generated.truth_by_id()
        assert (tmp_path / "info.json").exists()
