"""Strict JSON run-configuration parsing.

Unknown keys are rejected at every level so a typo cannot silently change a
threshold or a lookahead.  Scalar fields may be overridden by CLI flags
after parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .criteria import CriteriaSet, CriterionSpec, MatchConfig
from .dataset import ColumnSchema
from .errors import ConfigError, GroupMatchError, scalar_fits
from .harness import ALGORITHMS, DEFAULT_TESTS, AlgorithmSpec
from .synthgen import SyntheticSpec

__all__ = ["RunConfig", "load_run_config", "load_synthetic_spec", "load_grid_config"]

# keys of a run config's top level; "balance" sets three more MatchConfig
# fields, and the "search" object sets the rest
_RUN_KEYS = {
    "dataset",
    "criteria",
    "balance",
    "locked_groups",
    "max_removed_total",
    "max_removed_per_group",
    "min_group_size",
    "seed",
    "algorithms",
    "search",
    "output_dir",
}
_BALANCE_FIELDS = {"balance_mode", "target_proportions", "precedence"}
_MATCH_TYPES = {f.name: f.type for f in fields(MatchConfig)}
_SEARCH_KEYS = set(_MATCH_TYPES) - _RUN_KEYS - _BALANCE_FIELDS

# per algorithm: the MatchConfig fields it may override, and its own params
_ALGORITHM_PARAM_TYPES = {
    name: {**{k: _MATCH_TYPES[k] for k in _SEARCH_KEYS | {"seed"}}, **own}
    for name, (_, own) in ALGORITHMS.items()
}


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _checked(key: str, value, annotation: str, context: str):
    """``value`` when it fits the scalar annotation ``annotation`` ("int",
    "float | None", ...); raises ConfigError naming ``key`` if not."""
    if scalar_fits(value, annotation):
        return value
    raise ConfigError(f"{context}: {key!r} must be {annotation}, got {value!r}")


def _get(mapping: dict, key: str, types: dict, context: str, default=None):
    """``mapping[key]``, or ``default`` when absent, checked against the
    annotation ``types[key]``."""
    return _checked(key, mapping.get(key, default), types[key], context)


def _names(value, key: str, context: str) -> tuple[str, ...]:
    """A JSON list as a tuple of strings; a bare string is refused rather
    than split into its letters."""
    if not isinstance(value, list):
        raise ConfigError(f"{context}: {key!r} must be a list, got {value!r}")
    return tuple(str(v) for v in value)


def _mapping(value, key: str, annotation: str, context: str) -> dict:
    """A JSON object as a dict with string keys, each value checked against
    ``annotation``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: {key!r} must be an object, got {value!r}")
    return {
        str(k): _checked(f"{key}.{k}", v, annotation, context)
        for k, v in value.items()
    }


def _read_json_object(path: Path) -> dict:
    """The JSON object stored at ``path``; raises ConfigError when the file
    is missing, is not JSON, or holds something other than an object."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return raw


@dataclass(frozen=True)
class RunConfig:
    dataset_path: Path
    schema: ColumnSchema
    delimiter: str
    match_config: MatchConfig
    algorithms: tuple[AlgorithmSpec, ...]
    output_dir: Path | None


def _parse_criteria(raw, context: str) -> CriteriaSet:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: 'criteria' must be a nonempty list")
    specs = []
    for i, item in enumerate(raw):
        ctx = f"{context}: criteria[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{ctx}: expected an object")
        _reject_unknown(item, {"test", "covariate", "groups", "alpha"}, ctx)
        specs.append(
            CriterionSpec(
                test_name=str(_require(item, "test", ctx)),
                covariate=str(_require(item, "covariate", ctx)),
                group_subset=_names(_require(item, "groups", ctx), "groups", ctx),
                alpha=float(
                    _checked("alpha", _require(item, "alpha", ctx), "float", ctx)
                ),
            )
        )
    return CriteriaSet(tuple(specs))


def _parse_algorithms(raw, context: str) -> tuple[AlgorithmSpec, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{context}: 'algorithms' must be a nonempty list")
    out = []
    for i, item in enumerate(raw):
        ctx = f"{context}: algorithms[{i}]"
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict):
            raise ConfigError(f"{ctx}: expected an object or a name string")
        name = str(_require(item, "name", ctx))
        if name not in ALGORITHMS:
            raise ConfigError(
                f"{ctx}: unknown algorithm {name!r}; choose from {tuple(ALGORITHMS)}"
            )
        label = item.get("label")
        params = {k: v for k, v in item.items() if k not in ("name", "label")}
        types = _ALGORITHM_PARAM_TYPES[name]
        _reject_unknown(params, set(types), ctx)
        for key, value in params.items():
            _checked(key, value, types[key], ctx)
        out.append(AlgorithmSpec(name=name, params=params, label=label))
    return tuple(out)


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a match run configuration; raises ConfigError on any problem."""
    path = Path(path)
    context = str(path)
    raw = _read_json_object(path)
    _reject_unknown(raw, _RUN_KEYS, context)

    ds = _require(raw, "dataset", context)
    ctx = f"{context}: dataset"
    if not isinstance(ds, dict):
        raise ConfigError(f"{ctx}: expected an object")
    _reject_unknown(
        ds, {"path", "id_column", "group_column", "covariate_columns", "delimiter"}, ctx
    )
    try:
        schema = ColumnSchema(
            id_column=str(_require(ds, "id_column", ctx)),
            group_column=str(_require(ds, "group_column", ctx)),
            covariate_columns=_names(
                _require(ds, "covariate_columns", ctx), "covariate_columns", ctx
            ),
        )
    except GroupMatchError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None

    criteria = _parse_criteria(_require(raw, "criteria", context), context)

    balance_mode = "proportions"
    target = None
    precedence = None
    if "balance" in raw:
        bal = raw["balance"]
        ctx = f"{context}: balance"
        if not isinstance(bal, dict):
            raise ConfigError(f"{ctx}: expected an object")
        _reject_unknown(bal, {"mode", "target", "precedence"}, ctx)
        balance_mode = str(bal.get("mode", "proportions"))
        if bal.get("target") is not None:
            target = {
                k: float(v)
                for k, v in _mapping(bal["target"], "target", "float", ctx).items()
            }
        if bal.get("precedence") is not None:
            precedence = _names(bal["precedence"], "precedence", ctx)

    kwargs = {
        "locked_groups": frozenset(
            _names(raw.get("locked_groups", []), "locked_groups", context)
        ),
        "max_removed_total": _get(raw, "max_removed_total", _MATCH_TYPES, context),
        "max_removed_per_group": _mapping(
            raw.get("max_removed_per_group") or {}, "max_removed_per_group", "int",
            context,
        ),
        "min_group_size": _get(raw, "min_group_size", _MATCH_TYPES, context, 2),
        "seed": _get(raw, "seed", _MATCH_TYPES, context, 0),
    }
    if "search" in raw:
        sr = raw["search"]
        ctx = f"{context}: search"
        if not isinstance(sr, dict):
            raise ConfigError(f"{ctx}: expected an object")
        _reject_unknown(sr, _SEARCH_KEYS, ctx)
        for key, value in sr.items():
            _checked(key, value, _MATCH_TYPES[key], ctx)
        kwargs.update(sr)

    try:
        match_config = MatchConfig(
            criteria=criteria,
            balance_mode=balance_mode,
            target_proportions=target,
            precedence=precedence,
            **kwargs,
        )
    except GroupMatchError as exc:
        raise ConfigError(f"{context}: {exc}") from None

    algorithms = _parse_algorithms(_require(raw, "algorithms", context), context)
    output_dir = Path(raw["output_dir"]) if raw.get("output_dir") else None
    return RunConfig(
        dataset_path=Path(str(_require(ds, "path", f"{context}: dataset"))),
        schema=schema,
        delimiter=str(ds.get("delimiter", ",")),
        match_config=match_config,
        algorithms=algorithms,
        output_dir=output_dir,
    )


_SPEC_TYPES = {f.name: f.type for f in fields(SyntheticSpec)}


def _spec_from_dict(raw: dict, context: str) -> SyntheticSpec:
    _reject_unknown(raw, set(_SPEC_TYPES), context)
    kwargs = dict(raw)
    for key, annotation in _SPEC_TYPES.items():   # JSON lists to tuple fields
        if annotation.startswith("tuple[") and kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    try:
        return SyntheticSpec(**kwargs)
    except GroupMatchError as exc:
        raise ConfigError(f"{context}: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    path = Path(path)
    return _spec_from_dict(_read_json_object(path), str(path))


@dataclass(frozen=True)
class GridConfig:
    specs: tuple[SyntheticSpec, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    replications: int
    master_seed: int
    alpha: float
    tests: tuple[str, ...]
    workers: int
    time_limit: float | None
    output_dir: Path | None


_GRID_TYPES = {f.name: f.type for f in fields(GridConfig)}


def load_grid_config(path: str | Path) -> GridConfig:
    path = Path(path)
    context = str(path)
    raw = _read_json_object(path)
    _reject_unknown(raw, set(_GRID_TYPES), context)
    raw_specs = _require(raw, "specs", context)
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ConfigError(f"{context}: 'specs' must be a nonempty list")
    specs = tuple(
        _spec_from_dict(s, f"{context}: specs[{i}]") for i, s in enumerate(raw_specs)
    )
    tests = _names(raw["tests"], "tests", context) if "tests" in raw else DEFAULT_TESTS
    if not tests:
        raise ConfigError(f"{context}: 'tests' must be a nonempty list")
    return GridConfig(
        specs=specs,
        algorithms=_parse_algorithms(_require(raw, "algorithms", context), context),
        replications=_get(raw, "replications", _GRID_TYPES, context, 1),
        master_seed=_get(raw, "master_seed", _GRID_TYPES, context, 0),
        alpha=float(_get(raw, "alpha", _GRID_TYPES, context, 0.2)),
        tests=tests,
        workers=_get(raw, "workers", _GRID_TYPES, context, 1),
        time_limit=_get(raw, "time_limit", _GRID_TYPES, context),
        output_dir=Path(raw["output_dir"]) if raw.get("output_dir") else None,
    )
