"""One form per kind of value.  A frozen dataclass is a value that
validates itself in ``__post_init__``; a record the package builds from
values it has already checked is a NamedTuple, so its field order is part
of its API and is pinned here."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import seqloc

CLASSES = [
    cls
    for info in pkgutil.iter_modules(seqloc.__path__)
    for module in [importlib.import_module(f"seqloc.{info.name}")]
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__ == module.__name__
]

RECORD_FIELDS = {
    "analysis.ErrorBudget": ("bias", "variance", "rmse"),
    "analysis.BudgetStack": ("bias", "variance", "rmse", "failures"),
    "analysis.OrderingCheck": (
        "trace_known", "trace_prior", "trace_joint",
        "min_eig_prior_minus_known", "min_eig_joint_minus_prior", "ordered"),
    "analysis.DeviationBoundCheck": ("deviation", "bias_norm_sq", "bound",
                                     "holds"),
    "analysis.BiasLowerBound": ("alpha", "checks"),
    "experiments.RmseResult": ("rmse", "per_axis"),
    "experiments.ResultRow": (
        "sweep_value", "estimator", "empirical_rmse", "theoretical_rmse",
        "crlb_rmse", "trials", "non_converged"),
    "experiments.ExperimentResult": ("spec", "scenario", "rows", "records"),
    "simulate.TrialRecord": ("trial", "batch", "truth", "report", "error",
                             "v_assumed", "prior"),
    "solvers.EstimateReport": ("params", "iterations", "converged",
                               "covariance", "final_step_norm"),
}


def _name(cls) -> str:
    return f"{cls.__module__.removeprefix('seqloc.')}.{cls.__qualname__}"


@pytest.mark.parametrize(
    "cls", [cls for cls in CLASSES if dataclasses.is_dataclass(cls)],
    ids=_name)
def test_every_dataclass_validates_itself(cls):
    assert "__post_init__" in vars(cls)


@pytest.mark.parametrize("name, fields", RECORD_FIELDS.items())
def test_plain_records_are_named_tuples(name, fields):
    module, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"seqloc.{module}"), cls_name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == fields


def test_trial_record_defaults():
    assert seqloc.TrialRecord._field_defaults == {"v_assumed": None,
                                                 "prior": None}
