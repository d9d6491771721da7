"""The JSON config loaders: derived key sets and value types."""

import json
import re
from dataclasses import fields

import pytest
from groupmatch import config as gm_config
from groupmatch.cli import main
from groupmatch.config import load_grid_config, load_run_config
from groupmatch.criteria import MatchConfig
from groupmatch.errors import ConfigError


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_payload(**extra):
    payload = {
        "dataset": {
            "path": "data.csv",
            "id_column": "id",
            "group_column": "group",
            "covariate_columns": ["x"],
        },
        "criteria": [
            {"test": "welch_t", "covariate": "x", "groups": ["A", "B"], "alpha": 0.2}
        ],
        "algorithms": ["greedy"],
    }
    payload.update(extra)
    return payload


def grid_payload(**extra):
    payload = {
        "specs": [
            {"n_items": 40, "n_intruders": 4, "n_covariates": 2,
             "n_shifted_covariates": 2}
        ],
        "algorithms": [{"name": "greedy"}],
        "master_seed": 5,
    }
    payload.update(extra)
    return payload


def test_every_match_config_field_has_one_place_in_a_run_config():
    search = gm_config._SEARCH_KEYS
    top = gm_config._RUN_KEYS & {f.name for f in fields(MatchConfig)}
    balance = gm_config._BALANCE_FIELDS
    assert not (search & top) and not (search & balance) and not (top & balance)
    assert search | top | balance == {f.name for f in fields(MatchConfig)}
    assert "iterations" in search and "time_limit" in search
    assert "seed" not in search and "balance_mode" not in search


def test_every_search_key_loads(tmp_path):
    search = {
        "iterations": 10, "lookahead": 1, "batch_size": 1, "batch_fraction": 0.5,
        "reversion_threshold": 0.4, "random_schedule": "linear",
        "schedule_jitter": True, "ensure_feasible_draws": False, "pool_cap": 3,
        "max_solutions": 2, "eval_budget": 1000, "threads": 1, "time_limit": 5,
    }
    assert set(search) == gm_config._SEARCH_KEYS
    cfg = load_run_config(write_json(tmp_path / "run.json", run_payload(search=search)))
    for key, value in search.items():
        assert getattr(cfg.match_config, key) == value


RUN_CASES = [
    ({"max_removed_total": 2.0}, "max_removed_total"),
    ({"max_removed_total": "2"}, "max_removed_total"),
    ({"min_group_size": 2.5}, "min_group_size"),
    ({"seed": True}, "seed"),
    ({"max_removed_per_group": {"A": 1.5}}, "max_removed_per_group.A"),
    ({"max_removed_per_group": [1]}, "max_removed_per_group"),
    ({"balance": {"target": {"A": "x", "B": 0.5}}}, "target.A"),
    ({"balance": {"target": [0.5, 0.5]}}, "target"),
    ({"locked_groups": "AB"}, "locked_groups"),
    ({"search": {"batch_size": 2.0}}, "batch_size"),
    ({"search": {"time_limit": "5"}}, "time_limit"),
    ({"search": {"schedule_jitter": 1}}, "schedule_jitter"),
    ({"algorithms": [{"name": "exhaustive", "max_removed": 2.0}]}, "max_removed"),
    ({"algorithms": [{"name": "h3", "lookahead": "2"}]}, "lookahead"),
    ({"balance": {"mode": "precedence", "precedence": "AB"}}, "precedence"),
]


@pytest.mark.parametrize("extra, key", RUN_CASES, ids=[key for _, key in RUN_CASES])
def test_run_config_value_of_wrong_type_names_its_key(tmp_path, extra, key):
    path = write_json(tmp_path / "run.json", run_payload(**extra))
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_run_config(path)


def test_criterion_groups_and_columns_must_be_lists(tmp_path):
    criteria = [{"test": "welch_t", "covariate": "x", "groups": "AB", "alpha": 0.2}]
    path = write_json(tmp_path / "run.json", run_payload(criteria=criteria))
    with pytest.raises(ConfigError, match="'groups' must be a list"):
        load_run_config(path)
    payload = run_payload()
    payload["dataset"]["covariate_columns"] = "x"
    with pytest.raises(ConfigError, match="'covariate_columns' must be a list"):
        load_run_config(write_json(tmp_path / "run.json", payload))


def test_run_config_keeps_values_of_the_right_type(tmp_path):
    path = write_json(tmp_path / "run.json", run_payload(
        max_removed_total=3, min_group_size=3, seed=7, locked_groups=["B"],
        max_removed_per_group={"A": 2},
        algorithms=[{"name": "exhaustive", "max_removed": 2}],
    ))
    cfg = load_run_config(path).match_config
    assert cfg.max_removed_total == 3 and cfg.min_group_size == 3 and cfg.seed == 7
    assert cfg.locked_groups == frozenset({"B"})
    assert cfg.max_removed_per_group == {"A": 2}


GRID_CASES = [
    ({"tests": "welch_t"}, "tests"),
    ({"time_limit": "5"}, "time_limit"),
    ({"replications": 2.0}, "replications"),
    ({"alpha": "0.2"}, "alpha"),
    ({"workers": None}, "workers"),
]


@pytest.mark.parametrize("extra, key", GRID_CASES, ids=[key for _, key in GRID_CASES])
def test_grid_config_value_of_wrong_type_names_its_key(tmp_path, extra, key):
    path = write_json(tmp_path / "grid.json", grid_payload(**extra))
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        load_grid_config(path)


def test_grid_config_defaults_and_keys(tmp_path):
    grid = load_grid_config(write_json(tmp_path / "grid.json", grid_payload()))
    assert grid.tests == ("welch_t", "anderson_darling")
    assert (grid.replications, grid.alpha, grid.workers, grid.time_limit) == (
        1, 0.2, 1, None
    )
    grid = load_grid_config(write_json(
        tmp_path / "grid.json", grid_payload(tests=["welch_t"], time_limit=5)
    ))
    assert grid.tests == ("welch_t",) and grid.time_limit == 5
    with pytest.raises(ConfigError, match="unknown keys"):
        load_grid_config(write_json(tmp_path / "grid.json", grid_payload(seed=1)))


def test_every_tuple_field_of_a_spec_loads_from_a_json_list(tmp_path):
    from groupmatch.synthgen import SyntheticSpec

    base = {"n_items": 40, "n_intruders": 4, "n_covariates": 2, "n_shifted_covariates": 2}
    defaults = SyntheticSpec(**base)
    lists = {f.name: list(getattr(defaults, f.name)) for f in fields(SyntheticSpec)
             if isinstance(getattr(defaults, f.name), tuple)}
    assert "group_split" in lists and "basic_p_range" in lists
    spec = gm_config.load_synthetic_spec(write_json(tmp_path / "spec.json", {**base, **lists}))
    assert spec == defaults
    assert all(isinstance(getattr(spec, name), tuple) for name in lists)


def test_evaluate_refuses_a_bare_test_name(tmp_path, capsys):
    path = write_json(tmp_path / "grid.json", grid_payload(
        tests="welch_t", output_dir=str(tmp_path / "out")
    ))
    assert main(["evaluate", "--grid", str(path)]) == 1
    assert "'tests' must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["random", "greedy", "h3", "h4"])
def test_max_removed_is_refused_where_the_search_would_not_read_it(tmp_path, name):
    algorithms = [{"name": name, "max_removed": 1}]
    path = write_json(tmp_path / "run.json", run_payload(algorithms=algorithms))
    with pytest.raises(ConfigError, match=rf"algorithms\[0\].*'max_removed'"):
        load_run_config(path)
    path = write_json(tmp_path / "grid.json", grid_payload(algorithms=algorithms))
    with pytest.raises(ConfigError, match=rf"algorithms\[0\].*'max_removed'"):
        load_grid_config(path)


def test_grid_config_refuses_an_empty_test_list(tmp_path):
    path = write_json(tmp_path / "grid.json", grid_payload(tests=[]))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: 'tests' must be a nonempty list")):
        load_grid_config(path)
