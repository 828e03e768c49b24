"""A partition-count budget is an integer, on every route that takes one.

``check_budget_shape`` refuses a float, bool or NaN ``budget_partitions``
with :class:`ConfigError` and accepts numpy integers; the answer's
``budget`` is a Python ``int``. Before, ``nan`` read no partition and
reported ``budget=nan``, ``True`` read one, ``3.0`` reported a float
budget and ``2.5`` died with a bare ``TypeError`` inside the picker. The
CLI keeps "a fraction below 1, a count from 1 up", but ``--budget 2.7``
is a typed error (exit 2) instead of silently reading 2 partitions.
A ``budget_fraction`` must be a finite real number, not a bool or a string.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.engine.aggregates import count_star
from repro.engine.query import Query
from repro.engine.serving import check_budget_shape
from repro.errors import ConfigError

QUERY = Query([count_star()])
API_ROUTES = ("query", "query_many", "submit")

#: Counts that are not integers, as the API would receive them...
NOT_INTEGERS = {
    "nan": float("nan"),
    "true": True,
    "false": False,
    "whole_float": 3.0,
    "fractional_float": 2.5,
    "numpy_float": np.float64(4.0),
    "numpy_bool": np.bool_(True),
}
#: ...and as ``--budget`` text, where a whole ``3.0`` still means 3.
NOT_WHOLE = ("2.7", "1.5", "11.25")
INTEGERS = {"int": 3, "int64": np.int64(3), "int32": np.int32(3), "uint8": np.uint8(3)}


def cases(api_values: dict, cli_values):
    api = [
        pytest.param(route, value, id=f"{route}-{name}")
        for route in API_ROUTES
        for name, value in api_values.items()
    ]
    return api + [pytest.param("cli", text, id=f"cli-{text}") for text in cli_values]


@pytest.fixture(scope="module")
def front(trained_ps3):
    with trained_ps3.serve() as front:
        yield front


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    out = tmp_path_factory.mktemp("deploy")
    args = ["train", "--dataset", "kdd", "--rows", "3000", "--partitions", "12"]
    assert main(args + ["--seed", "4", "--train-queries", "8", "--out", str(out)]) == 0
    return out


def answer(route, count, ps3, front, deployment):
    """The answer's ``budget`` for ``count`` partitions; the CLI's exit
    code instead (it prints the budget it read)."""
    if route == "query":
        return ps3.query(QUERY, budget_partitions=count).budget
    if route == "query_many":
        return ps3.query_many([QUERY], budget_partitions=count)[0].budget
    if route == "submit":
        future = front.submit(QUERY, budget_partitions=count)
        return future.result(timeout=60).budget
    args = ["evaluate", "--deploy", str(deployment), f"--budget={count}"]
    return main(args + ["--queries", "1"])


@pytest.mark.parametrize("route, count", cases(NOT_INTEGERS, NOT_WHOLE))
def test_non_integer_count_is_a_config_error(
    route, count, trained_ps3, front, deployment, capsys
):
    if route != "cli":
        with pytest.raises(ConfigError, match="budget_partitions"):
            answer(route, count, trained_ps3, front, deployment)
        return
    assert answer(route, count, trained_ps3, front, deployment) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "budget_partitions" in captured.err
    assert "partitions" not in captured.out


#: Fractions that are not finite real numbers: ``True`` read the whole
#: table and a string raised an untyped ``TypeError``.
NOT_FRACTIONS = {
    "true": True,
    "numpy_bool": np.bool_(True),
    "string": "0.5",
    "nan": float("nan"),
    "list": [0.5],
}


@pytest.mark.parametrize("fraction", NOT_FRACTIONS.values(), ids=NOT_FRACTIONS)
def test_non_real_fraction_is_a_config_error(fraction):
    with pytest.raises(ConfigError, match="budget_fraction"):
        check_budget_shape(None, fraction)


@pytest.mark.parametrize("route", API_ROUTES)
@pytest.mark.parametrize("fraction", [True, "0.5"], ids=["true", "string"])
def test_non_real_fraction_fails_typed_on_every_route(
    route, fraction, trained_ps3, front
):
    with pytest.raises(ConfigError, match="budget_fraction"):
        if route == "query":
            trained_ps3.query(QUERY, budget_fraction=fraction)
        elif route == "query_many":
            trained_ps3.query_many([QUERY], budget_fraction=fraction)
        else:
            front.submit(QUERY, budget_fraction=fraction)


@pytest.mark.parametrize("route, count", cases(INTEGERS, ("3", "3.0")))
def test_integer_count_is_a_python_int_budget(
    route, count, trained_ps3, front, deployment, capsys
):
    budget = answer(route, count, trained_ps3, front, deployment)
    if route == "cli":
        assert budget == 0
        assert "@ 3 partitions" in capsys.readouterr().out
        return
    assert type(budget) is int and budget == 3
