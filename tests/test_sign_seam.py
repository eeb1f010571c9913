"""Only the calibrated seam takes a sign pattern.

The calibration search (``tests/test_calibration.py``) varies the
``SignPattern`` of the cell residual, the cochain operations and the
cochain laws.  Every other function uses the pinned pattern, so a
``signs`` parameter anywhere else is a knob no caller turns.
"""

import inspect

from dgnerve import horn, laws, nerve

CALIBRATED = {
    "nerve._add_convolution", "nerve._add_faces", "nerve._residual_sum",
    "nerve.cell_residual", "nerve.cochain_compose",
    "nerve.cochain_differential",
    "laws.law_cochain_assoc", "laws.law_cochain_d_squared",
    "laws.law_cochain_leibniz", "laws.run_laws",
}


def functions_with_signs(*modules):
    return {f"{module.__name__.rpartition('.')[2]}.{name}"
            for module in modules
            for name, func in inspect.getmembers(module, inspect.isfunction)
            if func.__module__ == module.__name__
            and "signs" in inspect.signature(func).parameters}


def test_only_the_calibrated_seam_takes_signs():
    assert functions_with_signs(nerve, horn, laws) == CALIBRATED


def test_law_battery_takes_no_dimension_list():
    assert "ns" not in inspect.signature(laws.run_laws).parameters
    assert not inspect.signature(laws.law_rows).parameters
    assert [n for _, _, n in laws.law_rows()] == [1, 2, 3] * 3 + [2, 3, 2]
