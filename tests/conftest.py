"""Fixtures shared by the test modules."""

import pytest

from contactlab.core import ContactChart


def _counting_chart(base: ContactChart):
    """(chart, calls): ``base`` whose ``lam`` and ``grad`` callables add up
    their calls in ``calls["lam"]`` and ``calls["grad"]``."""
    calls = {"lam": 0, "grad": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    grad = None if base.grad is None else counted("grad", base.grad)
    chart = ContactChart(base.n, counted("lam", base.lam), grad, name=base.name, periods=base.periods)
    return chart, calls


@pytest.fixture
def counting_chart():
    """Factory of charts that count their evaluations, see ``_counting_chart``."""
    return _counting_chart
