"""The public API: every entry of a module's `__all__` is defined in it, and
the solver options refuse values a solve cannot run with."""

import importlib
import math
import pkgutil

import pytest

import omegapair
from omegapair import BcdOptions, FgmOptions

MODULES = ["omegapair"] + [f"omegapair.{m.name}"
                           for m in pkgutil.iter_modules(omegapair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("options, field, value", [
    (FgmOptions, "trace_every", 0),      # ZeroDivisionError mid-solve
    (FgmOptions, "ls_max", 0),
    (FgmOptions, "stall_window", 0),
    (FgmOptions, "init_step", 0.0),      # ZeroDivisionError
    (FgmOptions, "init_step", -1.0),     # a negative step
    (FgmOptions, "init_step", math.inf),
    (FgmOptions, "init_step", math.nan),
    (FgmOptions, "ls_shrink", math.nan),  # "objective overflowed" mid-solve
    (FgmOptions, "ls_grow", math.nan),
    (FgmOptions, "max_time_s", math.nan),  # elapsed >= nan: no time budget
    (FgmOptions, "max_time_s", -1.0),
    (FgmOptions, "grad_tol", math.nan),   # the gradient-mapping stop never fires
    (FgmOptions, "stall_rel_tol", math.nan),  # nor the stall stop
    (FgmOptions, "max_iters", -1),        # ran no iteration: "iteration budget"
    (FgmOptions, "max_iters", math.nan),
    (FgmOptions, "max_iters", 2.5),       # ran 3 iterations where BCD ran 2 sweeps
    (FgmOptions, "max_iters", True),
    (BcdOptions, "eps_init", 0.0),       # ZeroDivisionError
    (BcdOptions, "eps_init", math.nan),  # NaNs in the SDP Newton system
    (BcdOptions, "eps_init", math.inf),
    (BcdOptions, "eps_floor", -1.0),
    (BcdOptions, "eps_floor", 0.0),
    (BcdOptions, "eps_floor", math.nan),
    (BcdOptions, "eps_decay", math.nan),  # runs at eps_floor from the start
    (BcdOptions, "stall_outer", 0),
    (BcdOptions, "max_time_s", math.nan),
    (BcdOptions, "stall_rel_tol", math.nan),
    (BcdOptions, "max_outer_iters", -1),
    (BcdOptions, "max_outer_iters", math.nan),
    (BcdOptions, "max_outer_iters", 2.5),
    (BcdOptions, "max_outer_iters", True),
])
def test_options_refuse_values_a_solve_cannot_run_with(options, field, value):
    with pytest.raises(ValueError, match=field):
        options(**{field: value})


@pytest.mark.parametrize("options, field", [
    (FgmOptions, "grad_tol"),   # the gradient-mapping stop off
    (FgmOptions, "max_time_s"),
    (BcdOptions, "max_time_s"),
    (FgmOptions, "max_iters"),  # an integer budget: 0, not 0.0
    (BcdOptions, "max_outer_iters"),
])
def test_options_accept_zero_budgets_and_tolerances(options, field):
    assert getattr(options(**{field: 0}), field) == 0
