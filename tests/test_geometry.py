from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trochoid import geometry
from trochoid.boundaries import PolytrochoidParams, dense_polytrochoid
from trochoid.geometry import winding_numbers


def _reference_winding_numbers(points, polygon, chunk=262144):
    """Every point against every edge, broadcast in blocks."""
    points = np.asarray(points, dtype=complex).ravel()
    x0, y0 = polygon[:-1].real, polygon[:-1].imag
    x1, y1 = polygon[1:].real, polygon[1:].imag
    wn = np.zeros(points.shape[0], dtype=int)
    block = max(1, chunk // max(1, len(x0)))
    for lo in range(0, len(points), block):
        px = points[lo : lo + block].real[:, None]
        py = points[lo : lo + block].imag[:, None]
        cross = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
        up = (y0 <= py) & (y1 > py) & (cross > 0)
        down = (y0 > py) & (y1 <= py) & (cross < 0)
        wn[lo : lo + block] = up.sum(axis=1) - down.sum(axis=1)
    return wn


def _closed(vertices):
    vertices = np.asarray(vertices, dtype=complex)
    return np.append(vertices, vertices[0])


def _complex(coordinate):
    return st.builds(complex, coordinate, coordinate)


_FLOAT = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
# quarter steps give horizontal edges and points exactly on vertices and edges
_QUARTER = st.integers(-12, 12).map(lambda i: i / 4)


def _assert_matches_reference(points, polygon):
    points = np.asarray(points, dtype=complex)
    got = winding_numbers(points, polygon)
    assert got.dtype.kind == "i" and got.shape == (points.size,)
    np.testing.assert_array_equal(got, _reference_winding_numbers(points, polygon))


@settings(max_examples=150, deadline=None)
@given(
    vertices=st.lists(_complex(_FLOAT), min_size=3, max_size=25),
    points=st.lists(_complex(_FLOAT), max_size=60),
)
def test_random_polygons_match_reference(vertices, points):
    polygon = _closed(vertices)
    _assert_matches_reference(points + vertices, polygon)


@settings(max_examples=150, deadline=None)
@given(
    vertices=st.lists(_complex(_QUARTER), min_size=3, max_size=25),
    points=st.lists(_complex(_QUARTER), max_size=60),
)
def test_quantized_polygons_match_reference(vertices, points):
    _assert_matches_reference(points + vertices, _closed(vertices))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 7),
    excess=st.floats(1.0, 2.5),
    sign=st.sampled_from([1, -1]),
    samples=st.sampled_from([512, 1023]),
    points=st.lists(_complex(st.floats(-3.5, 3.5)), max_size=200),
    chunk=st.sampled_from([61, 262144]),
)
def test_polytrochoids_past_the_cusp_match_reference(k, excess, sign, samples, points, chunk):
    # |rho| (k - 1) > 1: the curve crosses itself and encloses loops of both signs
    rho = sign * excess / (k - 1)
    polygon = dense_polytrochoid(PolytrochoidParams({k: rho}), samples).polygon()
    with mock.patch.object(geometry, "_CHUNK", chunk):
        _assert_matches_reference(points + list(polygon[::7]), polygon)


def test_empty_point_set():
    polygon = _closed([0, 1, 1j])
    got = winding_numbers(np.array([], dtype=complex), polygon)
    assert got.shape == (0,) and got.dtype.kind == "i"


def test_self_intersecting_curve_has_winding_two():
    # a curve traced twice around the unit circle
    phi = np.linspace(0, 4 * np.pi, 200, endpoint=False)
    polygon = _closed(np.exp(1j * phi))
    np.testing.assert_array_equal(winding_numbers([0.1, 0.5j, 2.0], polygon), [2, 2, 0])
