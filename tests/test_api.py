"""The public API: every entry of a module's `__all__` is defined in it, the
solver options and the bench runner take exactly their documented values,
and the solver options and the solvers refuse values a solve cannot run
with."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import omegapair
from omegapair import BcdOptions, FgmOptions, solve_general, solve_hurwitz
from omegapair.bcd import update_Q
from omegapair.bench import region_plot_data, run_table
from omegapair.cli import main
from omegapair.fgm import estimate_lipschitz
from omegapair.pencil import admissibility_check, regularity_check, spectrum
from omegapair.regions import disk, intersect, membership, uniform_part_nonempty

MODULES = ["omegapair"] + [f"omegapair.{m.name}"
                           for m in pkgutil.iter_modules(omegapair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


# The parameters of the functions whose tolerances, iteration counts and
# trace interval are module constants, not arguments.
SIGNATURES = [
    (spectrum, ["pair"]),
    (regularity_check, ["pair"]),
    (admissibility_check, ["pair", "region", "margin_tol"]),
    (membership, ["region", "z"]),
    (uniform_part_nonempty, ["region"]),
    (region_plot_data, ["region", "pairs", "bounds", "nx", "ny", "out_dir"]),
    (estimate_lipschitz, ["E", "A", "X", "mu", "seed"]),
    (update_Q, ["E", "A", "T", "J", "R", "mu"]),
]


def test_settable_values_are_the_documented_ones(tmp_path, capsys):
    """The line search, momentum seed, stall stops, accuracy schedule, LMI
    margin, trace interval and the verification tolerances are module
    constants, not options, and the bench table runs serially."""
    assert [f.name for f in dataclasses.fields(FgmOptions)] == [
        "mu", "max_time_s", "max_iters", "seed"]
    assert [f.name for f in dataclasses.fields(BcdOptions)] == [
        "mu", "max_time_s", "max_outer_iters", "fix_T", "fix_Q"]
    assert list(inspect.signature(run_table).parameters) == ["instances", "out_dir"]
    for func, params in SIGNATURES:
        assert list(inspect.signature(func).parameters) == params, func.__name__
    spec = tmp_path / "spec.json"
    spec.write_text("[]")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--spec", str(spec), "--out", str(tmp_path / "out"), "--workers", "2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Fields that are now module constants or deleted: any value is refused.
REMOVED = {(FgmOptions, "init_step"), (FgmOptions, "stall_window"),
           (FgmOptions, "stall_rel_tol"), (FgmOptions, "grad_tol"),
           (FgmOptions, "trace_every"),
           (BcdOptions, "eps_floor"), (BcdOptions, "stall_outer")}


@pytest.mark.parametrize("options, field, value", [
    (FgmOptions, "trace_every", 0),      # ZeroDivisionError mid-solve
    (FgmOptions, "trace_every", 2.5),    # a row every 5th iteration
    (FgmOptions, "trace_every", True),   # read as 1
    (FgmOptions, "stall_window", 0),
    (FgmOptions, "init_step", 0.0),
    (FgmOptions, "init_step", -1.0),
    (FgmOptions, "init_step", math.inf),
    (FgmOptions, "init_step", math.nan),
    (FgmOptions, "max_time_s", math.nan),  # elapsed >= nan: no time budget
    (FgmOptions, "max_time_s", -1.0),
    (FgmOptions, "grad_tol", math.nan),
    (FgmOptions, "stall_rel_tol", math.nan),
    (FgmOptions, "max_iters", -1),        # ran no iteration: "iteration budget"
    (FgmOptions, "max_iters", math.nan),
    (FgmOptions, "max_iters", 2.5),       # ran 3 iterations where BCD ran 2 sweeps
    (FgmOptions, "max_iters", True),
    (BcdOptions, "eps_floor", -1.0),
    (BcdOptions, "eps_floor", 0.0),
    (BcdOptions, "eps_floor", math.nan),
    (BcdOptions, "stall_outer", 0),
    (BcdOptions, "max_time_s", math.nan),
    (BcdOptions, "max_outer_iters", -1),
    (BcdOptions, "max_outer_iters", math.nan),
    (BcdOptions, "max_outer_iters", 2.5),
    (BcdOptions, "max_outer_iters", True),
])
def test_options_refuse_values_a_solve_cannot_run_with(options, field, value):
    error = TypeError if (options, field) in REMOVED else ValueError
    with pytest.raises(error, match=field):
        options(**{field: value})


@pytest.mark.parametrize("options, field", [
    (FgmOptions, "max_time_s"),
    (BcdOptions, "max_time_s"),
    (FgmOptions, "max_iters"),  # an integer budget: 0, not 0.0
    (BcdOptions, "max_outer_iters"),
])
def test_options_accept_zero_budgets_and_tolerances(options, field):
    assert getattr(options(**{field: 0}), field) == 0


@pytest.mark.parametrize("solve", [
    lambda E, A: solve_hurwitz(E, A, FgmOptions(max_iters=5)),
    lambda E, A: solve_general(E, A, intersect(disk(0.0, 1.0)), BcdOptions(max_outer_iters=2)),
], ids=["fgm", "bcd"])
@pytest.mark.parametrize("E, A, problem", [
    (np.eye(2), np.eye(3), "E and A must share dimension"),
    (np.ones((2, 3)), np.ones((2, 3)), "E must be a square matrix"),
    (np.eye(2), np.array([[-1.0, np.inf], [0.0, -1.0]]), "A has a non-finite entry"),
], ids=["shapes-differ", "not-square", "inf-entry"])
def test_solvers_refuse_a_pair_they_cannot_solve(solve, E, A, problem):
    """Checked once on entry, before any arithmetic, so the error names the
    problem instead of a NumPy shape error or an overflow inside the loop."""
    with pytest.raises(ValueError, match=problem):
        solve(E, A)
