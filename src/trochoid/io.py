"""File formats: Matrix Market matrices, CSV curves/spectra/fields, JSON sidecars.

Writers format floats with repr() so identical inputs always produce
identical bytes; nothing here embeds timestamps or environment state.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boundaries import BoundaryCurve
from .ensembles import DenseMatrix, SparseDigraph
from .interior import DensityField


def write_dense_mtx(m: DenseMatrix, path: str | Path) -> None:
    """Dense matrix in Matrix Market array format (column-major values)."""
    lines = ["%%MatrixMarket matrix array real general", f"{m.n} {m.n}"]
    lines.extend(repr(float(x)) for x in m.entries.flatten(order="F"))
    Path(path).write_text("\n".join(lines) + "\n")


def write_digraph_mtx(g: SparseDigraph, path: str | Path) -> None:
    """Digraph adjacency in Matrix Market coordinate format (1-based indices)."""
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"{g.n} {g.n} {len(g.edges)}",
    ]
    lines.extend(
        f"{u + 1} {v + 1} {w!r}" for (u, v), w in zip(g.edges.tolist(), g.edge_weights.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n")


def write_cycle_sidecar(g: SparseDigraph, path: str | Path) -> None:
    """JSON sidecar recording the generated cycles and their edge weights."""
    payload = {
        "n": g.n,
        "cycles": [list(c) for c in g.cycles],
        "weights": g.cycle_weights,
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _write_csv(path: str | Path, header: str, *columns: np.ndarray) -> None:
    """One row per element of the (flattened) columns, every value as repr(float)."""
    row = ",".join(["{!r}"] * len(columns)) + "\n"
    values = [np.asarray(c, dtype=float).ravel().tolist() for c in columns]
    Path(path).write_text(header + "\n" + "".join(map(row.format, *values)))


def write_curve_csv(curve: BoundaryCurve, path: str | Path) -> None:
    _write_csv(path, "phi,re,im", curve.phis, curve.z.real, curve.z.imag)


def read_curve_csv(path: str | Path) -> BoundaryCurve:
    rows = _read_csv(path, "phi,re,im")
    phis = np.array([r[0] for r in rows])
    z = np.array([complex(r[1], r[2]) for r in rows])
    return BoundaryCurve(phis, z)


def write_spectrum_csv(eigenvalues: np.ndarray, path: str | Path) -> None:
    eigenvalues = np.asarray(eigenvalues)
    _write_csv(path, "re,im", eigenvalues.real, eigenvalues.imag)


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    rows = _read_csv(path, "re,im")
    return np.array([complex(r[0], r[1]) for r in rows])


def write_density_csv(field: DensityField, path: str | Path) -> None:
    """One row per grid point (x, y) = (xs[j], ys[i]), row-major over (i, j).

    The grid has only len(xs) + len(ys) distinct coordinates, so each is
    formatted once and every row is joined from those strings.
    """
    xs = [repr(x) + "," for x in np.asarray(field.xs, dtype=float).tolist()]
    ys = [repr(y) + "," for y in np.asarray(field.ys, dtype=float).tolist()]
    mu = np.asarray(field.mu, dtype=float).tolist()
    rows = [x + y + repr(m) + "\n" for y, mu_row in zip(ys, mu) for x, m in zip(xs, mu_row)]
    Path(path).write_text("re,im,mu\n" + "".join(rows))


def _read_csv(path: str | Path, expected_header: str) -> list[tuple[float, ...]]:
    text = Path(path).read_text().splitlines()
    if not text:
        raise ValueError(f"{path}: empty file")
    if text[0].strip() != expected_header:
        raise ValueError(
            f"{path}:1: expected header {expected_header!r}, got {text[0]!r}"
        )
    width = expected_header.count(",") + 1
    rows = []
    for lineno, ln in enumerate(text[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {len(parts)} in {ln!r}")
        try:
            rows.append(tuple(float(x) for x in parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row {ln!r}") from exc
    return rows


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
