import warnings

import numpy as np
import pytest

from vdwsurf.errors import ParameterError, _check_number

_WORDING = {"finite": "finite", "real": "real and finite", ">= 0": ">= 0 and finite", "positive": "positive and finite"}


@pytest.mark.parametrize(
    "value, rule, shown",
    [
        (np.float64(np.nan), "finite", "nan"),
        (complex(1.0, np.inf), "finite", "(1+infj)"),
        (1.0 + 0.0j, "real", "(1+0j)"),
        (np.complex64(2.0), "real", "(2+0j)"),
        (-1.0, ">= 0", "-1.0"),
        (0.0, "positive", "0.0"),
        (np.array([0.5, -0.0, -2.0]), "positive", "-0.0"),
        (np.array([0.5, 1.0 + 1.0j]), ">= 0", "(0.5+0j)"),
        (np.array([0.5, 10**400], dtype=object), "finite", "1" + "0" * 400),
        ([0.5, -(10**5000)], ">= 0", "a negative integer of about 5000 digits"),
        ("1.0", "finite", "'1.0'"),
    ],
)
def test_a_broken_rule_names_the_field_and_shows_the_first_offender(value, rule, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as info:
            _check_number(value, "x", rule)
    assert str(info.value) == f"x must be {_WORDING[rule]}, got {shown}" and info.value.fields == ("x",)


@pytest.mark.parametrize(
    "value, rule",
    [
        (1.0 + 1.0j, "finite"),
        (np.array([1.0 + 1.0j, -2.0]), "finite"),
        (-1, "real"),
        (-0.0, ">= 0"),
        (10**300, "positive"),
        (np.float32(2.0), "positive"),
        (np.array([1, 2]), "positive"),
        (np.array([], dtype=float), "positive"),
    ],
)
def test_a_kept_rule_passes(value, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_number(value, "x", rule)
