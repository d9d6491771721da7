import csv
import json

import numpy as np
import pytest
from groupmatch.cli import main
from groupmatch.dataset import write_dataset
from groupmatch.stats import TestFunction, TestRegistry

from conftest import build_clinical_dataset, build_two_group_dataset


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


def matched_csv(tmp_path):
    path = tmp_path / "matched.csv"
    path.write_text(
        "id,group,x\n"
        + "".join(f"a{i},A,{v}\n" for i, v in enumerate([1.0, 2.0, 3.0, 4.0]))
        + "".join(f"b{i},B,{v}\n" for i, v in enumerate([1.0, 2.0, 3.0, 4.0])),
        encoding="utf-8",
    )
    return path


def run_config(tmp_path, dataset_path, out_dir, **extra):
    payload = {
        "dataset": {
            "path": str(dataset_path),
            "id_column": "id",
            "group_column": "group",
            "covariate_columns": ["x"],
        },
        "criteria": [
            {"test": "welch_t", "covariate": "x", "groups": ["A", "B"], "alpha": 0.2}
        ],
        "algorithms": [{"name": "greedy"}],
        "seed": 3,
        "output_dir": str(out_dir),
    }
    payload.update(extra)
    return write_json(tmp_path / "run.json", payload)


class TestMatch:
    def test_already_matched_lists_all_ids(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = run_config(tmp_path, matched_csv(tmp_path), out)
        assert main(["match", "--config", str(cfg)]) == 0
        lines = (out / "solutions.txt").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == sorted(
            ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"]
        )
        assert (out / "metrics.csv").exists()
        assert (out / "trace.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["success"] is True
        assert "config_sha256" in manifest and "dataset_sha256" in manifest

    def test_metrics_csv_quotes_labels_with_commas(self, tmp_path):
        out = tmp_path / "out"
        cfg = run_config(
            tmp_path, matched_csv(tmp_path), out,
            algorithms=[
                {"name": "h3", "lookahead": 2, "pool_cap": 4},
                {"name": "greedy", "label": "g, plain"},
            ],
        )
        assert main(["match", "--config", str(cfg)]) == 0
        with (out / "metrics.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:3] == ["algorithm", "seed", "success"]
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows[1:]] == ["h3(lookahead=2,pool_cap=4)", "g, plain"]
        record = dict(zip(header, rows[2]))
        assert record["success"] == "1" and record["preserved"] == "8"
        # no ground truth in a match run
        assert record["pct_excluded_intruders"] == record["intruder_recall"] == ""

    def test_invalid_alpha_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = run_config(tmp_path, matched_csv(tmp_path), out)
        payload = json.loads(cfg.read_text())
        payload["criteria"][0]["alpha"] = 1.5
        write_json(cfg, payload)
        assert main(["match", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "alpha" in err and "welch_t" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = run_config(tmp_path, matched_csv(tmp_path), out)
        payload = json.loads(cfg.read_text())
        payload["lokced_groups"] = ["A"]
        write_json(cfg, payload)
        assert main(["match", "--config", str(cfg)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_no_match_exits_two(self, tmp_path):
        d = build_two_group_dataset(5, 80.0, seed=1)
        data_path = tmp_path / "hard.csv"
        write_dataset(d, data_path)
        out = tmp_path / "out"
        cfg = run_config(
            tmp_path, data_path, out, max_removed_total=1
        )
        assert main(["match", "--config", str(cfg)]) == 2
        assert (out / "solutions.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["success"] is False

    def test_unmatched_dataset_solved(self, tmp_path):
        d = build_two_group_dataset(10, 1.5, seed=2)
        data_path = tmp_path / "data.csv"
        write_dataset(d, data_path)
        out = tmp_path / "out"
        cfg = run_config(
            tmp_path,
            data_path,
            out,
            algorithms=[{"name": "greedy"}, {"name": "h3", "lookahead": 1}],
        )
        assert main(["match", "--config", str(cfg)]) == 0
        trace = [
            json.loads(line)
            for line in (out / "trace.jsonl").read_text().splitlines()
        ]
        assert trace
        assert {"step", "removed_id", "r_before", "r_after", "pool_size"} <= set(
            trace[0]
        )

    def test_algorithm_subset_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = run_config(
            tmp_path,
            matched_csv(tmp_path),
            out,
            algorithms=[{"name": "greedy"}, {"name": "random", "iterations": 5}],
        )
        assert main(["match", "--config", str(cfg), "--algorithms", "greedy"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["algorithms"] == ["greedy"]


class TestSimulate:
    def spec_payload(self, **extra):
        payload = {
            "n_items": 60,
            "n_intruders": 6,
            "n_covariates": 2,
            "n_shifted_covariates": 2,
            "seed": 9,
        }
        payload.update(extra)
        return payload

    def test_writes_dataset_and_truth(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out)]) == 0
        data = (out / "dataset.csv").read_text().splitlines()
        assert len(data) == 61  # header + rows
        truth = (out / "truth.csv").read_text().splitlines()
        assert sum(1 for line in truth[1:] if line.endswith(",1")) == 6

    def test_same_seed_identical_files(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out1)]) == 0
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out2)]) == 0
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "truth.csv").read_bytes() == (out2 / "truth.csv").read_bytes()

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json", self.spec_payload(n_intruders=60)
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out)]) == 1
        assert "n_intruders" in capsys.readouterr().err


    @pytest.mark.parametrize("key, value", [
        ("n_items", 40.0), ("seed", 1.5), ("n_intruders", True),
    ])
    def test_spec_value_of_wrong_type_exits_one(self, tmp_path, capsys, key, value):
        spec = write_json(tmp_path / "spec.json", self.spec_payload(**{key: value}))
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec), "--output-dir", str(out)]) == 1
        assert f"'{key}' must be int" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()


class TestEstimate:
    def test_projection_arithmetic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from groupmatch.dataset import Dataset

        d = Dataset(
            [f"s{i}" for i in range(40)],
            ["A"] * 20 + ["B"] * 20,
            rng.normal(size=(40, 1)),
            ["x"],
        )
        data_path = tmp_path / "forty.csv"
        write_dataset(d, data_path)
        cfg = run_config(tmp_path, data_path, tmp_path / "out")

        assert main(
            ["estimate", "--config", str(cfg), "--removals", "5", "--rate", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "760099 configurations" in out
        assert "13 minutes" in out
        assert "feasible" in out

        assert main(
            ["estimate", "--config", str(cfg), "--removals", "3", "--rate", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "10701 configurations" in out
        assert "11 seconds" in out

        assert main(
            ["estimate", "--config", str(cfg), "--removals", "0", "--rate", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 configuration" in out
        assert "instantaneous" in out

    def test_infeasible_verdict_at_scale(self, tmp_path, capsys):
        d = build_clinical_dataset()
        data_path = tmp_path / "clinical.csv"
        write_dataset(d, data_path)
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "dataset": {
                    "path": str(data_path),
                    "id_column": "id",
                    "group_column": "group",
                    "covariate_columns": ["age", "piq", "viq", "ados"],
                },
                "criteria": [
                    {
                        "test": "welch_t",
                        "covariate": "age",
                        "groups": ["TD", "ALN"],
                        "alpha": 0.2,
                    }
                ],
                "algorithms": ["greedy"],
            },
        )
        assert main(
            ["estimate", "--config", str(cfg), "--removals", "17", "--rate", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: infeasible" in out

    def test_calibration_scores_with_the_registry_the_config_is_checked_against(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def always_half(samples):
            calls.append(len(samples))
            return 0.5

        registry = TestRegistry()
        registry.register(TestFunction("always_half", "k_sample", always_half))
        monkeypatch.setattr("groupmatch.cli._registry", lambda: registry)
        cfg = run_config(
            tmp_path, matched_csv(tmp_path), tmp_path / "out",
            criteria=[{"test": "always_half", "covariate": "x", "groups": ["A", "B"],
                       "alpha": 0.2}],
        )
        assert main(["estimate", "--config", str(cfg), "--removals", "1"]) == 0
        assert "configurations" in capsys.readouterr().out
        assert calls


class TestEvaluate:
    def test_tiny_grid(self, tmp_path, capsys):
        grid = write_json(
            tmp_path / "grid.json",
            {
                "specs": [
                    {
                        "n_items": 40,
                        "n_intruders": 4,
                        "n_covariates": 2,
                        "n_shifted_covariates": 2,
                    }
                ],
                "algorithms": [
                    {"name": "greedy", "label": "h2"},
                    {"name": "random", "iterations": 10, "label": "r10"},
                ],
                "replications": 2,
                "master_seed": 5,
                "output_dir": str(tmp_path / "grid-out"),
            },
        )
        assert main(["evaluate", "--grid", str(grid)]) == 0
        out_dir = tmp_path / "grid-out"
        rows = (out_dir / "rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 algorithms x 2 replicates
        stdout = capsys.readouterr().out
        assert "h2" in stdout and "r10" in stdout

    def grid_payload(self, tmp_path, spec=None, **extra):
        payload = {
            "specs": [spec or {"n_items": 40, "n_intruders": 4, "n_covariates": 1,
                               "n_shifted_covariates": 1}],
            "algorithms": [{"name": "greedy"}],
            "output_dir": str(tmp_path / "grid-out"),
        }
        payload.update(extra)
        return write_json(tmp_path / "grid.json", payload)

    def test_unknown_test_name_exits_one_before_any_cell(self, tmp_path, capsys):
        grid = self.grid_payload(tmp_path, tests=["welch_t", "welch"])
        assert main(["evaluate", "--grid", str(grid)]) == 1
        err = capsys.readouterr().err
        assert "'welch'" in err and "welch_t" in err
        assert not (tmp_path / "grid-out").exists()

    def test_cells_score_with_the_registry_the_names_are_checked_against(
        self, tmp_path, monkeypatch
    ):
        registry = TestRegistry()
        registry.register(TestFunction("always_half", "k_sample", lambda s: 0.5))
        monkeypatch.setattr("groupmatch.cli._registry", lambda: registry)
        grid = self.grid_payload(tmp_path, tests=["always_half"])
        assert main(["evaluate", "--grid", str(grid)]) == 0
        with (tmp_path / "grid-out" / "rows.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["error"] for row in rows] == [""]

    @pytest.mark.parametrize("key, value", [
        ("n_items", 40.0), ("seed", 1.5), ("n_intruders", True),
    ])
    def test_spec_value_of_wrong_type_exits_one(self, tmp_path, capsys, key, value):
        spec = {"n_items": 40, "n_intruders": 4, "n_covariates": 1,
                "n_shifted_covariates": 1, key: value}
        grid = self.grid_payload(tmp_path, spec)
        assert main(["evaluate", "--grid", str(grid)]) == 1
        assert f"specs[0]: '{key}' must be int" in capsys.readouterr().err
