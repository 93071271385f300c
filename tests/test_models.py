"""The model charts: value records that compare equal across calls, and their
float formulas for lam and grad against the numpy formulas they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlab import core
from contactlab.models import darboux_chart, perturbed_tube_chart, torus_chart, weighted_tube_chart
from oracle_models import numpy_darboux_forms, numpy_solid_torus_forms, numpy_torus_forms

# a coordinate of a point, signed zeros included
COORD = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
SPEED = st.floats(0.0, 3.0)

# (chart, numpy lam, numpy grad) of every model, parameters drawn
MODELS = st.one_of(
    st.tuples(st.integers(1, 3), st.floats(0.1, 10.0)).map(
        lambda a: (darboux_chart(*a), *numpy_darboux_forms(*a))),
    st.just(()).map(lambda _: (torus_chart(), *numpy_torus_forms())),
    st.tuples(st.floats(0.5, 2.0), SPEED).map(
        lambda a: (weighted_tube_chart(*a), *numpy_solid_torus_forms(a[1], 0.0))),
    st.tuples(st.floats(0.5, 2.0), SPEED, SPEED).map(
        lambda a: (perturbed_tube_chart(*a), *numpy_solid_torus_forms(a[1], a[2]))),
)


def same_bits(a, b) -> bool:
    """a and b are arrays of one dtype and shape with the same bytes (so
    -0.0 differs from 0.0, and NaN equals NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_point(data, dim):
    return np.array(data.draw(st.lists(COORD, min_size=dim, max_size=dim)), dtype=float)


@settings(max_examples=200, deadline=None)
@given(MODELS, st.data())
def test_model_records_are_the_numpy_formulas_bit_for_bit(model, data):
    chart, lam, grad = model
    x = draw_point(data, chart.dim)
    assert same_bits(chart.lam(x), lam(x))
    assert same_bits(chart.grad(x), grad(x))


@pytest.mark.parametrize("chart, c, q", [(weighted_tube_chart(1.0, 1.41421356), 1.41421356, 0.0),
                                         (perturbed_tube_chart(1.0, 1.0, 0.8), 1.0, 0.8)],
                         ids=["weighted", "perturbed"])
def test_tube_records_square_with_pow_as_numpy_scalars_do(chart, c, q):
    # a numpy float64 scalar's ``** 2`` calls the C pow, which differs from
    # a * a in the last bit at about one draw in a thousand, as at these
    # coordinates; random draws seldom find one
    lam, grad = numpy_solid_torus_forms(c, q)
    x = np.array([0.3, -1.818447760617123, -0.9667936558439592])
    assert (x[1] ** 2).item() != x[1] * x[1]
    assert same_bits(chart.lam(x), lam(x))
    assert same_bits(chart.grad(x), grad(x))


@settings(max_examples=100, deadline=None)
@given(MODELS, st.data())
def test_model_grad_is_the_fd_gradient_of_its_lam(model, data):
    chart = model[0]
    x = draw_point(data, chart.dim)
    assert np.max(np.abs(chart.grad(x) - core.fd_gradient(chart.lam, x))) <= 1e-8


def test_model_charts_compare_equal_across_calls():
    assert torus_chart() == torus_chart()
    assert weighted_tube_chart(1, 2) == weighted_tube_chart(1.0, 2.0)
    assert perturbed_tube_chart(1, 1, 0.8) == perturbed_tube_chart(1.0, 1.0, 0.8)
    assert darboux_chart(2, 3) == darboux_chart(2, 3.0)
    assert hash(weighted_tube_chart(1, 2)) == hash(weighted_tube_chart(1.0, 2.0))
    assert weighted_tube_chart(1, 2) != weighted_tube_chart(1, 2.5)
    assert darboux_chart(1) != darboux_chart(1, 2.0)


@pytest.mark.parametrize("chart", [torus_chart(), darboux_chart(2)], ids=["torus", "darboux"])
def test_a_constant_jacobian_is_one_read_only_array(chart):
    G = chart.grad(np.zeros(chart.dim))
    assert chart.grad(np.ones(chart.dim)) is G
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
