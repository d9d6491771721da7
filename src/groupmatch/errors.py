"""Exception types shared across the package, and the type rule that
scalar fields of its dataclasses and config files keep."""

import numbers
from dataclasses import fields

# what each scalar annotation accepts, a bool aside: it is not a number
_SCALARS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


class GroupMatchError(Exception):
    """Base class for all errors raised by this package."""


class DataParseError(GroupMatchError):
    """A data file could not be parsed (bad cell, missing column, ...)."""


class ValidationError(GroupMatchError):
    """Structurally valid input that violates a contract (duplicate ids,
    too few groups, bad thresholds, ...)."""


class InfeasibleSubsetError(GroupMatchError):
    """A keep-vector violates feasibility (empty or under-floor group,
    removal from a locked group)."""


class UndefinedTestError(GroupMatchError):
    """A statistical test is undefined for the given samples (too few
    observations, degenerate variance).  Callers treat the offending
    configuration as infeasible rather than inventing a p-value."""


class RegistrationError(GroupMatchError):
    """Attempt to register a test under a name already taken."""


class BudgetExceededError(GroupMatchError):
    """A search hit its criterion-evaluation ceiling."""

    def __init__(self, message: str, evaluations: int | None = None):
        super().__init__(message)
        self.evaluations = evaluations


class GenerationError(GroupMatchError):
    """Synthetic data generation failed (invalid spec, or acceptance
    windows unattainable within the retry budget)."""


class ConfigError(GroupMatchError):
    """A run-configuration file is invalid (unknown keys, bad values)."""


def scalar_fits(value, annotation: str) -> bool:
    """Whether ``value`` fits the scalar annotation ``annotation`` ("int",
    "float | None", ...): a bool is not a number, an int is a float, numpy
    integer and float scalars count, and ``| None`` allows None.  Every
    value fits an annotation that names a type other than these."""
    kinds = annotation.split(" | ")
    if not set(kinds) <= {"None", *_SCALARS}:
        return True
    if value is None:
        return "None" in kinds
    if isinstance(value, bool):
        return "bool" in kinds
    return any(isinstance(value, _SCALARS[k]) for k in kinds if k != "None")


def check_scalar_fields(instance) -> None:
    """Raise ValidationError naming the first field of the dataclass
    ``instance`` whose value does not fit its scalar annotation."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if not scalar_fits(value, f.type):
            raise ValidationError(f"{f.name!r} must be {f.type}, got {value!r}")
