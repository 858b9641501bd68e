import json

import numpy as np
import pytest
from scipy.io import mmread

from trochoid.boundaries import BoundaryCurve, HypotrochoidParams, dense_hypotrochoid
from trochoid.digraphs import RegularCyclicSpec, generate_regular_cyclic
from trochoid.ensembles import adjacency_matrix, generate_base_iid
from trochoid.interior import GridSpec, interior_density
from trochoid.boundaries import PolytrochoidParams
from trochoid.io import (
    read_curve_csv,
    read_spectrum_csv,
    write_curve_csv,
    write_cycle_sidecar,
    write_dense_mtx,
    write_density_csv,
    write_digraph_mtx,
    write_spectrum_csv,
)
from trochoid.svg import render_svg, render_svg_data


def test_dense_matrix_market_round_trip(tmp_path):
    m = generate_base_iid(17, seed=3)
    path = tmp_path / "m.mtx"
    write_dense_mtx(m, path)
    # an independent reader must get every value back bit for bit
    np.testing.assert_array_equal(mmread(path), m.entries)
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"


def test_digraph_matrix_market_round_trip(tmp_path):
    g = generate_regular_cyclic(RegularCyclicSpec(n=30, d=2, k=3, weight=1.5), seed=1)
    path = tmp_path / "g.mtx"
    write_digraph_mtx(g, path)
    np.testing.assert_array_equal(mmread(path).toarray(), adjacency_matrix(g).entries)


def test_write_determinism(tmp_path):
    m = generate_base_iid(9, seed=5)
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_dense_mtx(m, a)
    write_dense_mtx(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_cycle_sidecar_schema(tmp_path):
    g = generate_regular_cyclic(RegularCyclicSpec(n=12, d=1, k=3, weight=2.0), seed=2)
    path = tmp_path / "g.cycles.json"
    write_cycle_sidecar(g, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "cycles", "weights"}
    assert payload["n"] == 12
    assert all(len(c) == 3 for c in payload["cycles"])
    assert payload["weights"] == [2.0] * len(payload["cycles"])


def test_curve_csv_round_trip(tmp_path):
    curve = dense_hypotrochoid(HypotrochoidParams(k=4, rho=0.2))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert path.read_text().splitlines()[0] == "phi,re,im"
    back = read_curve_csv(path)
    np.testing.assert_array_equal(back.phis, curve.phis)
    np.testing.assert_array_equal(back.z, curve.z)


def test_spectrum_csv_round_trip(tmp_path):
    ev = np.array([1 + 2j, -0.5 + 0.25j, 3.0 + 0j])
    path = tmp_path / "s.csv"
    write_spectrum_csv(ev, path)
    assert path.read_text().splitlines()[0] == "re,im"
    np.testing.assert_array_equal(read_spectrum_csv(path), ev)


def test_csv_bytes_are_pinned(tmp_path):
    # every value is written as repr(float): the sign of zero and subnormals survive
    write_spectrum_csv(np.array([complex(0.25, -1e-310), complex(-0.0, 3.0)]), tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == "re,im\n0.25,-1e-310\n-0.0,3.0\n"
    phis = np.full(512, 0.5)
    phis[0] = -0.0
    write_curve_csv(BoundaryCurve(phis, np.full(512, complex(1.5, -0.0))), tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_text() == "phi,re,im\n-0.0,1.5,-0.0\n" + "0.5,1.5,-0.0\n" * 511


def test_density_csv_header(tmp_path):
    field = interior_density(PolytrochoidParams({3: 0.0}), GridSpec(resolution=32))
    path = tmp_path / "d.csv"
    write_density_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re,im,mu"
    assert len(lines) == 1 + field.mu.size


@pytest.mark.parametrize("terms", [{2: 0.5}, {3: 0.2, 4: 0.1}])
def test_density_csv_matches_the_grid_point_writer(tmp_path, terms):
    # the writer formats each axis coordinate once; its bytes must equal one
    # repr per cell of the complex grid, row by row
    field = interior_density(PolytrochoidParams(terms), GridSpec(resolution=64))
    grid = field.grid()
    cells = zip(grid.real.ravel().tolist(), grid.imag.ravel().tolist(), field.mu.ravel().tolist())
    expected = "re,im,mu\n" + "".join(f"{x!r},{y!r},{m!r}\n" for x, y, m in cells)
    path = tmp_path / "d.csv"
    write_density_csv(field, path)
    assert path.read_bytes() == expected.encode()


def test_csv_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re,im\n1.0,2.0\nnot,a number\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_spectrum_csv(path)


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="expected header"):
        read_spectrum_csv(path)


def test_svg_byte_determinism(tmp_path):
    ev = np.array([0.1 + 0.2j, -0.4 - 0.1j, 0.9 + 0j])
    curve = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.1))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg_data(ev, curve.z, a)
    render_svg_data(ev, curve.z, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<?xml")
    assert "<circle" in text and "<path" in text


def test_svg_from_csv_files(tmp_path):
    ev = np.array([0.1 + 0.2j, -0.3 + 0.4j])
    curve = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.1))
    spath, cpath = tmp_path / "s.csv", tmp_path / "c.csv"
    write_spectrum_csv(ev, spath)
    write_curve_csv(curve, cpath)
    out = tmp_path / "fig.svg"
    render_svg(spath, cpath, out)
    assert out.exists()


def test_svg_rejects_empty_spectrum(tmp_path):
    curve = dense_hypotrochoid(HypotrochoidParams(k=3, rho=0.1))
    with pytest.raises(ValueError):
        render_svg_data(np.array([], dtype=complex), curve.z, tmp_path / "x.svg")
