"""End-to-end experiment orchestration: generate, verify, calibrate.

Configs are plain dicts (JSON-compatible).  ``_prepare`` reads what
``run_generate``, ``run_verify`` and ``run_moments`` share: it refuses a
top-level or ``outputs`` field that nothing reads and returns the parsed
ensemble, the seeds and the output directory.  Each runner then calibrates,
and ``_calibration`` describes the result the same way in all three outputs.
Each ensemble kind is one row of ``_KINDS``, which says how to parse, draw
and bound it and what to report.  Every number a config sets is read by
``_whole`` (int) or ``_real`` (float): ``_read`` picks between them by the
field types of the spec dataclass the section fills, and ``run_verify``
reads its run fields, the thread cap and its law before anything is drawn.

Seed-level work runs on a thread pool capped by the TROCHOID_THREADS
environment variable, or in the calling thread when the cap is one; results
are always assembled in seed order, so the cap never changes a report.
Reports are reproducible byte-for-byte for a fixed BLAS thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from math import gcd, isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .boundaries import (
    MIN_CURVE_SAMPLES,
    BoundaryCurve,
    HypotrochoidParams,
    MixedCycleParams,
    PolytrochoidParams,
    SparseCyclicParams,
    dense_hypotrochoid,
    dense_polytrochoid,
    mixed_cycle_asymptotic,
    mixed_cycle_boundary,
    sparse_hypotrochoid,
)
from .correlations import DenseCyclicSpec, flip_uniforms, generate_dense_cyclic
from .digraphs import (
    CycleSpecies,
    MixedCyclicSpec,
    PoissonCyclicSpec,
    RegularCyclicSpec,
    generate_mixed_cyclic,
    generate_poisson_cyclic,
    generate_regular_cyclic,
)
# adjacency_matrix goes unused: perfbench/spans.py looks it up here, and a benchmark change drops both
from .ensembles import DenseMatrix, SparseDigraph, adjacency_matrix, generate_base_iid
from .errors import CalibrationError, ConfigError, InvalidSpecError, TrochoidError, require_finite
from .io import (
    write_curve_csv,
    write_cycle_sidecar,
    write_dense_mtx,
    write_digraph_mtx,
    write_json,
    write_spectrum_csv,
)
from .moments import (
    empirical_mixed_moment,
    empirical_pure_moment,
    mixed_moment_candidates,
    trace_power_moment,
    tree_walk_prediction,
)
from .rng import normalize_seed
from .spectra import (
    SYMMETRY_MAX_N,
    Spectrum,
    compute_eigenvalues,
    containment,
    detect_deterministic_outliers,
    digraph_spectrum,
    rotation_symmetry_residual,
)
from .svg import render_svg_data


def _from_text(kind: type) -> Callable[[str], Any]:
    """``kind`` (int or float) as a reader of text that also refuses underscores ("1_0")."""

    def read(text: str):
        if "_" in text:
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)

    read.__name__ = kind.__name__  # argparse names the type in its error
    return read


_int_text, _float_text = _from_text(int), _from_text(float)


def max_workers() -> int:
    cap = os.environ.get("TROCHOID_THREADS")
    if cap:
        try:
            return max(1, _int_text(cap))
        except ValueError as exc:
            raise ConfigError(f"TROCHOID_THREADS must be an integer, got {cap!r}") from exc
    return min(4, os.cpu_count() or 1)


@contextmanager
def _config_errors(section: str):
    """Report a malformed config section as a ConfigError (exit code 2)."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{section} section missing field {exc}") from exc
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {section} field: {exc}") from exc


def _whole(value, what: str) -> int:
    """A JSON number with no fractional part (2 or 2.0) as an int, else a ConfigError."""
    # a bool is an int subclass; a non-finite float leaves a NaN remainder
    if type(value) not in (int, float) or value % 1:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A finite JSON number (2 or 2.5) as a float, else a ConfigError."""
    if type(value) not in (int, float) or not isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


_READERS = {"int": _whole, "float": _real}  # by annotation: the spec modules' are strings


def _refuse_unread(section: dict, read: Iterable[str], where: str) -> None:
    """A ConfigError naming the fields of ``section`` nobody reads, and the
    section (``where``) they are in: a typo must not run a default."""
    unread = sorted(set(section) - set(read))
    if unread:
        raise ConfigError(f"unknown {where} field(s) {', '.join(map(repr, unread))}")


def _refuse_repeats(seeds: Iterable[int]) -> None:
    """A ConfigError naming a seed listed twice: it would be pooled as two independent draws."""
    drawn: dict[int, int] = {}  # by the 64-bit seed the streams read
    for seed in seeds:
        key = normalize_seed(seed)
        if key in drawn:
            twin = drawn[key]
            same = f"seed {seed} is listed twice" if twin == seed else f"seeds {twin} and {seed} are one draw"
            raise ConfigError(f"{same}: each seed must name its own draw")
        drawn[key] = seed


def _without(section: dict, key: str) -> dict:
    """``section`` less the structural ``key`` its caller has read."""
    return {k: v for k, v in section.items() if k != key}


def _read(spec_type: type, section: dict, where: str, **given):
    """A ``spec_type`` dataclass built from a config section.

    Each int or float field is read from ``section`` by its type's reader,
    or takes its default when the section leaves it out; ``given`` fields
    are passed as they are.  Fields of any other type, and fields set on
    construction, stay out of a config's reach: a section that names one,
    or any field but these, is refused, and the refusal names the section
    as ``where`` ("ensemble", "boundary").  A caller that reads a structural
    key itself (``kind``, ``law``, ``target_rho``) leaves it out of
    ``section``, so a section where nobody reads it is refused too.
    """
    readable = [f for f in fields(spec_type) if f.type in _READERS and f.init and f.name not in given]
    _refuse_unread(section, [*given, *(f.name for f in readable)], where)
    for f in readable:
        if f.name in section:
            given[f.name] = _READERS[f.type](section[f.name], f.name)
        elif f.default is MISSING:
            raise KeyError(f.name)
    return spec_type(**given)


# --- ensemble kinds -------------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """A parsed ensemble section.

    ``spec`` is the generator's spec (the dimension n for dense-iid).
    ``target_rho`` is set when a dense-cyclic section asks for a correlation
    strength instead of a flip probability; ``_calibrated`` resolves it and
    sets ``calibration``, whose draws at the chosen p ``_draw`` hands out.
    """

    kind: str
    spec: Any
    target_rho: float | None = None
    calibration: Calibration | None = None


def _unknown_moment(spec, moment: str, order: int) -> float:
    return float("nan")


@dataclass(frozen=True)
class _Kind:
    """Everything the pipeline does differently for one ensemble kind.

    Entries call generators and laws through this module's globals when they
    run, never through references stored at import time, so swapping a
    global (as a tracer does) reaches every call.
    """

    parse: Callable[[dict], tuple[Any, float | None]]  # section -> (spec, target_rho)
    draw: Callable[[Any, int], DenseMatrix | SparseDigraph]
    law: Callable[[Any, int, float | None], BoundaryCurve]  # (spec, samples, measured rho)
    # lengths of the correlated cycles: the symmetry residual is measured
    # under their gcd, and each is a reported pure moment order
    cycle_lengths: Callable[[Any], list[int]]
    mixed_orders: tuple[int, ...]
    predict: Callable[[Any, str, int], float] = _unknown_moment  # (spec, "pure"/"mixed", order)
    # drawn by the sign-flip sweep: reports carry its flip probability and
    # the strength Tr M^k / n measured on every seed
    flip_sweep: bool = False


def _parse_iid(s: dict) -> tuple[int, None]:
    _refuse_unread(s, {"n"}, "ensemble")
    n = _whole(s["n"], "n")
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    return n, None


def _parse_dense_cyclic(s: dict) -> tuple[DenseCyclicSpec, float | None]:
    target = s.get("target_rho")
    s = _without(s, "target_rho")
    if (s.get("flip_prob") is None) == (target is None):
        raise ConfigError("dense-cyclic needs exactly one of flip_prob and target_rho")
    if target is None:
        return _read(DenseCyclicSpec, s, "ensemble"), None
    target = _real(target, "target_rho")
    # a target's sign is the sweep's: calibration draws toward it
    spec = _read(DenseCyclicSpec, {"sign": -1 if target < 0 else 1, **s}, "ensemble", flip_prob=0.0)
    if target * spec.sign < 0:
        raise ConfigError(f"sign {spec.sign} contradicts target_rho {target}")
    return spec, target


def _parse_mixed_cyclic(s: dict) -> tuple[MixedCyclicSpec, None]:
    species = tuple(_read(CycleSpecies, sp, "ensemble") for sp in s["species"])
    return _read(MixedCyclicSpec, s, "ensemble", species=species), None


def _dense_cyclic_law(spec: DenseCyclicSpec, n_samples: int, measured_rho: float | None):
    if measured_rho is None:
        raise ConfigError(
            "auto boundary for a dense ensemble needs the measured correlation strength"
        )
    return dense_hypotrochoid(HypotrochoidParams(k=spec.k, rho=measured_rho), n_samples)


def _regular_law(spec: RegularCyclicSpec, n_samples: int, measured_rho: float | None):
    if spec.d < 2:
        raise ConfigError(
            "auto boundary needs d >= 2: one cycle per node leaves the "
            "biased cycle count at zero and no law to draw"
        )
    return sparse_hypotrochoid(
        SparseCyclicParams(d_hat=spec.d - 1, k=spec.k, weight=spec.weight), n_samples
    )


def _mixed_law(spec: MixedCyclicSpec, n_samples: int, measured_rho: float | None):
    s1, s2 = spec.species
    return mixed_cycle_boundary(
        MixedCycleParams(d1=s1.d, k1=s1.k, w1=s1.weight, d2=s2.d, k2=s2.k, w2=s2.weight),
        n_samples,
    )


def _walk_prediction(d: float, weight: float, k: int, moment: str, order: int) -> float:
    """Raw moment of a k-cycle digraph with d cycles per node (NaN if unknown)."""
    if moment == "mixed":
        return tree_walk_prediction(2, order, d, d) * weight ** (2 * order)
    if k == 3 and order % 3 == 0 and order >= 3:
        return tree_walk_prediction(3, order // 3, d, d) * weight**order
    return 0.0 if order % k else float("nan")


_KINDS: dict[str, _Kind] = {
    "dense-iid": _Kind(
        parse=_parse_iid,
        draw=lambda n, seed: generate_base_iid(n, seed),
        law=lambda n, samples, rho: dense_hypotrochoid(HypotrochoidParams(k=2, rho=0.0), samples),
        cycle_lengths=lambda n: [],
        mixed_orders=(1, 2),
        predict=lambda n, moment, order: (
            mixed_moment_candidates(order)["catalan"] if moment == "mixed" else 0.0
        ),
    ),
    "dense-cyclic": _Kind(
        parse=_parse_dense_cyclic,
        draw=lambda s, seed: generate_dense_cyclic(s, seed),
        law=_dense_cyclic_law,
        cycle_lengths=lambda s: [s.k],
        mixed_orders=(1,),
        flip_sweep=True,
    ),
    "regular-cyclic": _Kind(
        parse=lambda s: (_read(RegularCyclicSpec, s, "ensemble"), None),
        draw=lambda s, seed: generate_regular_cyclic(s, seed),
        law=_regular_law,
        cycle_lengths=lambda s: [s.k],
        mixed_orders=(1, 2),
        predict=lambda s, moment, order: _walk_prediction(s.d, s.weight, s.k, moment, order),
    ),
    "poisson-cyclic": _Kind(
        parse=lambda s: (_read(PoissonCyclicSpec, s, "ensemble"), None),
        draw=lambda s, seed: generate_poisson_cyclic(s, seed),
        law=lambda s, samples, rho: sparse_hypotrochoid(
            SparseCyclicParams(d_hat=s.mean_degree, k=s.k, weight=s.weight), samples
        ),
        cycle_lengths=lambda s: [s.k],
        mixed_orders=(1, 2),
        predict=lambda s, moment, order: (
            _walk_prediction(s.mean_degree, s.weight, s.k, moment, order)
        ),
    ),
    "mixed-cyclic": _Kind(
        parse=_parse_mixed_cyclic,
        draw=lambda s, seed: generate_mixed_cyclic(s, seed),
        law=_mixed_law,
        cycle_lengths=lambda s: [sp.k for sp in s.species if sp.d > 0],
        mixed_orders=(1,),
    ),
}


def parse_ensemble(section: dict) -> Ensemble:
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("ensemble section must be a mapping with a 'kind'")
    kind = section["kind"]
    with _config_errors("ensemble"):
        if kind not in _KINDS:
            raise ConfigError(f"unknown ensemble kind {kind!r}")
        spec, target_rho = _KINDS[kind].parse(_without(section, "kind"))
    return Ensemble(kind, spec, target_rho)


def _calibrated(ens: Ensemble, seeds: list[int]) -> Ensemble:
    """The ensemble with its flip probability calibrated to ``target_rho``, if set."""
    if ens.target_rho is None:
        return ens
    calibration = calibrate_flip_prob(ens.spec.n, ens.spec.k, ens.target_rho, seeds[:3])
    spec = replace(ens.spec, flip_prob=calibration.flip_prob)
    return Ensemble(ens.kind, spec, calibration=calibration)


def _draw(ens: Ensemble, seed: int) -> DenseMatrix | SparseDigraph:
    """The ensemble's draw at ``seed``: calibration's draw if it made one, else a new one."""
    made = ens.calibration.draws.pop(seed, None) if ens.calibration is not None else None
    return made if made is not None else _KINDS[ens.kind].draw(ens.spec, seed)


def _calibration(ens: Ensemble) -> dict:
    """The ``calibration`` entry of every runner's output for a swept ensemble, else nothing.

    It holds the flip probability the draws were made at and, when
    calibration chose it, the ``[p, mean strength, nodes swept]`` of every
    probe (see ``Calibration``).
    """
    if not _KINDS[ens.kind].flip_sweep:
        return {}
    block: dict = {"flip_prob": ens.spec.flip_prob}
    if ens.calibration is not None:
        block["probes"] = [list(probe) for probe in ens.calibration.probes]
    return {"calibration": block}


# --- boundary selection ---------------------------------------------------

# explicit law -> (params class, curve); curves are called through this
# module's globals when they run, as in ``_KINDS``
_LAWS: dict[str, tuple[type, Callable[[Any, int], BoundaryCurve]]] = {
    "dense": (HypotrochoidParams, lambda params, samples: dense_hypotrochoid(params, samples)),
    "poly": (PolytrochoidParams, lambda params, samples: dense_polytrochoid(params, samples)),
    "sparse": (SparseCyclicParams, lambda params, samples: sparse_hypotrochoid(params, samples)),
    "mixed": (MixedCycleParams, lambda params, samples: mixed_cycle_boundary(params, samples)),
    "mixed-asymptotic": (MixedCycleParams, lambda params, samples: mixed_cycle_asymptotic(params, samples)),
}


def boundary_for(
    ensemble: Ensemble | None,
    section,
    n_samples: int = 1024,
    measured_rho: float | None = None,
) -> BoundaryCurve:
    """Build the requested boundary; "auto" derives the law from the ensemble."""
    if section == "auto" or section is None:
        with _config_errors("boundary"):
            return _KINDS[ensemble.kind].law(ensemble.spec, n_samples, measured_rho)
    if not isinstance(section, dict) or "law" not in section:
        raise ConfigError("boundary section must be 'auto' or a mapping with a 'law'")
    law = section["law"]
    with _config_errors("boundary"):
        if law not in _LAWS:
            raise ConfigError(f"unknown boundary law {law!r}")
        params, curve = _LAWS[law]
        given = {}
        if law == "poly":
            if not isinstance(section["terms"], dict):
                raise ConfigError(f"poly law terms must map each order to its strength, got {section['terms']!r}")
            # JSON object keys are strings: "3" is order 3, and so is "03"
            # (ASCII digits only: str.isdigit also takes other scripts' digits)
            given["terms"] = {
                _whole(int(k) if str(k).isascii() and str(k).isdigit() else k, "term order"): _real(v, f"rho_{k}")
                for k, v in section["terms"].items()
            }
            if len(given["terms"]) < len(section["terms"]):
                raise ConfigError(f"poly law names an order twice: {list(section['terms'])}")
        # the mixed laws' weights default to 1, as the sparse law's does
        defaults = {"w1": 1.0, "w2": 1.0} if params is MixedCycleParams else {}
        return curve(_read(params, {**defaults, **_without(section, "law")}, "boundary", **given), n_samples)


# --- experiment runners ---------------------------------------------------


# every top-level field that a runner or a CLI flag writes: each runner
# accepts all of them, so one preset or config file serves every command
_CONFIG_FIELDS = ("ensemble", "seeds", "boundary", "inflation", "samples", "exclude_outliers", "outputs")


def _prepare(config: dict, out_dir: str | Path | None = None) -> tuple[Ensemble, list[int], Path | None, bool]:
    """(ensemble, seeds, directory, svg): the config fields every runner reads.

    A top-level field outside ``_CONFIG_FIELDS`` or an ``outputs`` field
    other than ``dir`` and ``svg`` is refused, before anything is drawn.
    The directory is ``out_dir`` if given, else the section's ``dir``
    (default "."); it is None when neither is set and the section is empty.
    The ensemble is not calibrated yet, so that verify can build its law
    first and a bad law exits before any draw.
    """
    _refuse_unread(config, _CONFIG_FIELDS, "config")
    outputs, seeds = config.get("outputs", {}), config.get("seeds")
    if not (isinstance(outputs, dict) and isinstance(outputs.get("dir", "."), str)
            and isinstance(outputs.get("svg", True), bool)):
        raise ConfigError(f"outputs must map 'dir' to a string and 'svg' to true or false, got {outputs!r}")
    _refuse_unread(outputs, ("dir", "svg"), "outputs")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list of whole numbers, got {seeds!r}")
    seeds = [_whole(s, "seed") for s in seeds]
    _refuse_repeats(seeds)
    folder = out_dir if out_dir is not None else outputs.get("dir", "." if outputs else None)
    out = None if folder is None else Path(folder)
    return parse_ensemble(config.get("ensemble", {})), seeds, out, outputs.get("svg", True)


def run_generate(config: dict, out_dir: str | Path | None = None) -> dict:
    """Generate every seed's draw and persist it; returns a file manifest."""
    ens, seeds, out, _ = _prepare(config, out_dir)
    out = out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    ens = _calibrated(ens, seeds)
    manifest = {"files": [], "ensemble": config["ensemble"], "seeds": seeds, **_calibration(ens)}
    for seed in seeds:
        draw = _draw(ens, seed)
        stem = out / f"{ens.kind}-seed{seed}"
        if isinstance(draw, DenseMatrix):
            write_dense_mtx(draw, stem.with_suffix(".mtx"))
            manifest["files"].append(str(stem.with_suffix(".mtx")))
        else:
            write_digraph_mtx(draw, stem.with_suffix(".mtx"))
            sidecar = Path(str(stem) + ".cycles.json")
            write_cycle_sidecar(draw, sidecar)
            manifest["files"].extend([str(stem.with_suffix(".mtx")), str(sidecar)])
    return manifest


def _spectrum_for(ens: Ensemble, seed: int) -> tuple[Spectrum, DenseMatrix | SparseDigraph]:
    draw = _draw(ens, seed)
    if isinstance(draw, DenseMatrix):
        return compute_eigenvalues(draw), draw
    return digraph_spectrum(draw), draw


Moments = dict[tuple[str, int], float]  # value by (kind, order): ("pure", k) or ("mixed", l)


def _seed_moments(
    draw: DenseMatrix | SparseDigraph, pure: Sequence[int], mixed: Sequence[int],
    spectrum: Spectrum | None = None,
) -> Moments:
    """One draw's moments by (kind, order): Tr M^k / n and Tr (M M^T)^l / n.

    Pure moments are read off ``spectrum`` when the seed has one, else off
    the draw's matrix powers (a swept draw's ``power_trace``, a digraph's
    sparse adjacency).  Each order appears once, however often it is listed.
    """
    source, moment = (draw, trace_power_moment) if spectrum is None else (spectrum, empirical_pure_moment)
    values = {("pure", k): moment(source, k) for k in pure}
    values.update({("mixed", l): empirical_mixed_moment(draw, l) for l in mixed})
    return values


def _moment_rows(ens: Ensemble, seeds: list[Moments], orders: Iterable[tuple[str, int]]) -> list[dict]:
    """The moment table over ``seeds`` (per-seed ``_seed_moments``), one row per order.

    Each row holds the mean over the seeds against the kind's prediction;
    ``stderr`` is the standard error of that mean, 0 for a single seed.
    """
    rows = []
    for kind, order in orders:
        v = np.asarray([values[(kind, order)] for values in seeds])
        predicted = _KINDS[ens.kind].predict(ens.spec, kind, order)
        rows.append({
            "order": {"kind": kind, ("k" if kind == "pure" else "l"): order},
            "empirical": float(v.mean()),
            # strict JSON has no NaN token; an unknown prediction becomes null
            "predicted": predicted if np.isfinite(predicted) else None,
            "stderr": float(v.std(ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0,
        })
    return rows


def _measure_seed(
    ens: Ensemble, seed: int, exclude: bool
) -> tuple[Spectrum, list[int], Moments, dict]:
    """Everything one seed reports that does not need the boundary curve.

    Returns the spectrum, the positions of the outliers to exclude from
    containment, the moment values by (kind, order) and the seed's report
    entry; the draw goes out of scope here.
    """
    row = _KINDS[ens.kind]
    spectrum, draw = _spectrum_for(ens, seed)
    # an ensemble without correlated cycles reports Tr M^2 / n, its k = 2 strength
    pure = sorted(row.cycle_lengths(ens.spec)) or [2]
    values = _seed_moments(draw, pure, row.mixed_orders, spectrum)
    entry: dict = {"seed": seed, "moments": _moment_rows(ens, [values], values)}
    if row.flip_sweep:
        entry["measured_rho"] = values[("pure", ens.spec.k)]
    # exact (to solver noise) only for a graph stratified by sym_k phases:
    # Poisson by default, regular and mixed when sym_k divides n; dense
    # ensembles and other digraphs are rotation symmetric only statistically
    sym_k = gcd(*row.cycle_lengths(ens.spec))
    if sym_k >= 2 and spectrum.n > SYMMETRY_MAX_N:
        entry["symmetry_skipped"] = f"n = {spectrum.n} exceeds the assignment cap {SYMMETRY_MAX_N}"
    elif sym_k >= 2:
        entry["symmetry_residual"] = rotation_symmetry_residual(spectrum, sym_k)
    exclusions = detect_deterministic_outliers(spectrum, draw) if exclude else []
    return spectrum, exclusions, values, entry


def run_verify(config: dict, out_dir: str | Path | None = None) -> dict:
    """Full verification: spectra, containment, symmetry, moment table.

    Each seed is measured in one task on the seed pool (``_measure_seed``):
    draw, spectrum, moments, symmetry residual and outliers.  A seed whose
    task raises a TrochoidError gets an "error" entry in the report and is
    left out of the aggregate instead of aborting the batch.  After the
    pool come only the steps that need every seed: the law fitted to the
    mean measured strength (dense-cyclic auto boundary), containment, and
    the aggregate.
    """
    ens, seeds, out, svg = _prepare(config, out_dir)
    inflation = _real(config.get("inflation", 0.03), "inflation")
    n_samples = _whole(config.get("samples", 1024), "samples")
    workers = max_workers()
    if inflation < 0:
        raise ConfigError(f"inflation must be >= 0, got {inflation}")
    if n_samples < MIN_CURVE_SAMPLES:
        raise ConfigError(f"samples must be >= {MIN_CURVE_SAMPLES}, got {n_samples}")
    exclude = config.get("exclude_outliers", True)
    if not isinstance(exclude, bool):
        raise ConfigError(f"exclude_outliers must be true or false, got {exclude!r}")
    row = _KINDS[ens.kind]
    section = config.get("boundary", "auto")
    # every law but the one fitted to the measured strength is built, and so
    # validated, before calibration and the first draw
    fitted = row.flip_sweep and section in ("auto", None)
    curve = None if fitted else boundary_for(ens, section, n_samples)
    ens = _calibrated(ens, seeds)

    def task(seed):
        try:
            return _measure_seed(ens, seed, exclude)
        except TrochoidError as exc:
            return exc

    if workers == 1:
        # a one-worker pool overlaps nothing, and its thread frees its malloc
        # arena only after the join returns: the next call's thread may then
        # get a fresh arena, which the process keeps (peak RSS jumps at random)
        outcomes = list(map(task, seeds))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(task, seeds))

    entries = [o[3] for o in outcomes if not isinstance(o, Exception)]
    if not entries:
        failed = "; ".join(f"seed {seed}: {outcome}" for seed, outcome in zip(seeds, outcomes))
        raise TrochoidError(f"every seed failed; nothing to report ({failed})")
    measured = [entry["measured_rho"] for entry in entries if "measured_rho" in entry]
    measured_rho = float(np.mean(measured)) if measured else None
    if curve is None:
        curve = boundary_for(ens, section, n_samples, measured_rho)

    seed_reports = []
    pooled_moments: list[Moments] = []
    pooled_inside = pooled_counted = 0
    pooled_eigenvalues: list[np.ndarray] = []
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, Exception):
            seed_reports.append({"seed": seed, "error": str(outcome)})
            continue
        spectrum, exclusions, values, entry = outcome
        report = containment(spectrum, curve, inflation, exclusions)
        entry["containment"] = report.to_dict()
        entry["inside_fraction"] = report.inside_fraction
        seed_reports.append(entry)
        pooled_moments.append(values)
        pooled_inside += report.inside
        pooled_counted += report.total - len(report.excluded_outliers)
        pooled_eigenvalues.append(spectrum.eigenvalues)

    if pooled_counted == 0:
        raise TrochoidError("no eigenvalue left to test: every one is a deterministic outlier (see exclude_outliers)")

    aggregate = {
        "inside_fraction": pooled_inside / pooled_counted,
        "seeds_failed": sum(1 for r in seed_reports if "error" in r),
        "moments": _moment_rows(ens, pooled_moments, sorted(pooled_moments[0])),
    }
    if measured_rho is not None:
        aggregate["measured_rho"] = measured_rho
    residuals = [r["symmetry_residual"] for r in seed_reports if "symmetry_residual" in r]
    if residuals:
        aggregate["mean_symmetry_residual"] = float(np.mean(residuals))

    report = {
        "ensemble": config["ensemble"],
        "boundary": _describe_curve(curve),
        "inflation": inflation,
        "seeds": seed_reports,
        "aggregate": aggregate,
        **_calibration(ens),
    }

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(report, out / "report.json")
        write_curve_csv(curve, out / "boundary.csv")
        allev = np.concatenate(pooled_eigenvalues)
        write_spectrum_csv(allev, out / "spectrum.csv")
        if svg:
            render_svg_data(allev, curve.z, out / "figure.svg")
    return report


def _describe_curve(curve: BoundaryCurve) -> dict:
    params: dict = {}
    for key, value in vars(curve.law).items():
        if isinstance(value, dict):
            params[key] = {str(k): v for k, v in value.items()}
        elif isinstance(value, (int, float, str)):
            params[key] = value
    out = {"law": type(curve.law).__name__, "params": params, "samples": len(curve.z)}
    if curve.states is not None:
        t1, t2, phi2 = curve.states[0].tolist()
        out["continuation"] = {
            "swept_angles": len(curve.z),
            "t1_at_zero": t1,
            "t2_at_zero": t2,
            "phi2_at_zero": phi2,
            **asdict(curve.sweep),
        }
    return out


def run_moments(config: dict, pure_orders: list[int], mixed_orders: list[int]) -> dict:
    """Empirical-vs-predicted moment table over the configured seeds."""
    ens, seeds, _, _ = _prepare(config)
    if any(order < 1 for order in [*pure_orders, *mixed_orders]):
        raise ConfigError(f"moment orders must be >= 1, got pure {pure_orders}, mixed {mixed_orders}")
    ens = _calibrated(ens, seeds)
    values = [_seed_moments(_draw(ens, seed), pure_orders, mixed_orders) for seed in seeds]
    moments = _moment_rows(ens, values, values[0])
    return {"ensemble": config["ensemble"], "seeds": seeds, "moments": moments, **_calibration(ens)}


# --- calibration ----------------------------------------------------------

_CALIBRATION_TOLERANCE = 0.07  # relative gap to the target that counts as a match
_CALIBRATION_MAX_PROBES = 18


@dataclass(frozen=True)
class Calibration:
    """What ``calibrate_flip_prob`` measured and found.

    ``probes`` holds (p, mean strength, nodes) for every p measured, in
    order, the two ends first; ``nodes`` is the size of the draws measured:
    n, or n // 2 for a probe on their leading half.  ``draws`` holds each
    calibration seed's draw at ``flip_prob``; the runners pop each one and
    use it in place of a new draw.
    """

    flip_prob: float
    probes: tuple[tuple[float, float, int], ...] = ()
    draws: dict[int, DenseMatrix] = field(default_factory=dict, repr=False, compare=False)


class _Point(NamedTuple):
    p: float
    rho: float  # |mean strength| over the calibration seeds


def calibrate_flip_prob(n: int, k: int, target_rho: float, seeds: list[int]) -> Calibration:
    """Find the flip probability whose mean measured strength hits the target.

    The ensemble is swept toward the sign of ``target_rho``.  The search
    starts on the leading half of the draws.  With m = n // 2, the leading
    m x m block of a seed's base, scaled by sqrt(n / m), is that seed's
    m x m base up to the last bit of the scale (each row has its own
    stream), and its sweep flips the signs the full sweep flips in that
    block (flip decisions read signs and edge-keyed uniforms only).  So a
    probe there measures the m-node ensemble, for about a quarter of a full
    sweep's cost at n = 500 and a sixth at n = 1000.  At the small p that
    the presets calibrate to, its strength does not move with n beyond seed
    noise; at p = 1 it grows with n.

    Measures the strength at p = 0 on the full bases (no sweep) and at
    p = 1 on the leading half, or on the full draws when m would not exceed
    k or when the leading half falls short of the target at p = 1 (only
    the full draws can reach it then).  One secant loop then probes: each
    next p is the secant root through the two most recent points, starting
    from the two ends; where that root leaves the open bracket (or the two
    strengths are equal) the bracket's midpoint is probed instead.  Each
    probe must lie between its bracket ends within the sampling noise
    3 / sqrt(seeds * nodes).  The first p, of the ends and the probes,
    whose mean over ``seeds`` is within ``_CALIBRATION_TOLERANCE``
    (relative) of the target, the upper end on a tie, settles the size it
    was measured on.  A p settled on the leading half is confirmed on the
    full draws; on a miss the loop goes on there, bracketed by the p = 0
    end and the confirmed point (or the confirmed point and p = 1 when it
    reads low), its first step along the slope of the last two points
    before it.  The answer is the first p whose full draws are within
    tolerance.  The two sizes share one budget of
    ``_CALIBRATION_MAX_PROBES`` secant probes.

    One rule judges the full draws at p = 1, wherever they are measured
    (up front, or as a confirmation): within tolerance of the target they
    are the answer, and when they fall short of it by more, calibration
    stops there, refusing a target beyond their strength times
    1 + tolerance plus the noise 3 / sqrt(seeds * n) as outside the
    achievable range and any other as not converged.  It stops even where
    a p just below 1 would read within tolerance on these seeds, as a
    sweep's strength can by seed noise.  A CalibrationError carries as
    ``achievable`` the mean strengths at p = 0 and at the p = 1 end
    measured last.

    Each seed's base matrix and flip-uniform table are built once and swept
    (whole, or their leading block and rows) at every p; a swept draw's
    strength is the Tr M^k its sweep accumulated.
    """
    if not seeds:
        raise ConfigError("calibration needs at least one seed")
    _refuse_repeats(seeds)
    with _config_errors("calibration"):
        require_finite(target_rho=target_rho)
        unswept = DenseCyclicSpec(n=n, k=k, flip_prob=0.0, sign=1 if target_rho >= 0 else -1)
    if target_rho == 0.0:
        return Calibration(0.0)
    target = abs(target_rho)
    tolerance = _CALIBRATION_TOLERANCE * target
    bases = {seed: generate_base_iid(n, seed) for seed in seeds}
    tables = {seed: flip_uniforms(seed, base.n) for seed, base in bases.items()}
    probes: list[tuple[float, float, int]] = []
    latest: dict[int, DenseMatrix] = {}  # the full draws at the last p measured on them
    budget = iter(range(_CALIBRATION_MAX_PROBES))  # the secant probes both sizes share

    def noise(nodes: int) -> float:
        return 3.0 / np.sqrt(len(seeds) * nodes)

    def gap(point: _Point) -> float:
        return abs(point.rho - target)

    def fail(reason: str | _Point) -> CalibrationError:
        # a point is where calibration stopped short of the tolerance;
        # achievable: the mean strengths at p = 0 and at the p = 1 end measured last
        if isinstance(reason, _Point):
            reason = f"calibration did not converge: best gap {gap(reason):.4f} at p={reason.p:.4f}"
        return CalibrationError(reason, achievable=(probes[0][1], next(m for p, m, _ in reversed(probes) if p == 1.0)))

    def measure(p: float, nodes: int) -> _Point:
        spec = replace(unswept, n=nodes, flip_prob=p)
        # full draws replace the latest one by one: at most one more is alive
        draws = latest if nodes == n else {}
        for seed in seeds:
            base = bases[seed]
            if nodes < n:  # the leading block, at the nodes-node ensemble's scale
                base = DenseMatrix(base.entries[:nodes, :nodes] * np.sqrt(n / nodes))
            draws[seed] = generate_dense_cyclic(spec, seed, base=base, uniforms=tables[seed][:nodes])
        probes.append((p, float(np.mean([trace_power_moment(draws[s], k) for s in seeds])), nodes))
        point = _Point(p, abs(probes[-1][1]))
        if nodes == n and p == 1.0 and target - point.rho > tolerance:
            # the full draws at p = 1 reach farthest and no p is left beyond
            # them: a target they fall short of by more than the tolerance is
            # out of reach, or missed when within the noise of their reach
            out_of_reach = target > point.rho * (1 + _CALIBRATION_TOLERANCE) + noise(n)
            raise fail(f"target {target_rho} outside achievable range" if out_of_reach else point)
        return point

    nodes = n // 2 if n // 2 > k else n  # the size the search probes first
    zero = lo = measure(0.0, n)  # the p = 0 end, whose draws are the bases themselves
    hi = measure(1.0, nodes)
    if hi.rho < target and nodes < n:
        # the leading half falls short: only the full draws can reach the target
        nodes, hi = n, measure(1.0, n)
    best, slope, at = min(hi, zero, key=gap), (zero, hi), hi
    while gap(best) > tolerance or nodes < n and best is not zero:
        if gap(best) <= tolerance:
            # settled on the leading half: confirm on the full draws, and on
            # a miss go on there from the slope of the half's last two points
            nodes = n
            best = at = measure(best.p, n)
            lo, hi = (best, _Point(1.0, np.inf)) if best.rho < target else (zero, best)
            continue
        if next(budget, None) is None:
            raise fail(best)
        # the root of the line through ``at`` with the slope from a to b (the
        # secant when at is b); the strength is convex in p and close to
        # linear at small p, so the secant closes in from below; equal
        # strengths have no root, and lo.p sends the probe to the midpoint
        a, b = slope
        p = at.p + (target - at.rho) * (a.p - b.p) / (a.rho - b.rho) if a.rho != b.rho else lo.p
        probe = measure(p if lo.p < p < hi.p else 0.5 * (lo.p + hi.p), nodes)
        if not lo.rho - noise(nodes) <= probe.rho <= hi.rho + noise(nodes):
            raise fail(
                f"response is not monotone: |rho| = {probe.rho:.4f} at p={probe.p} is outside "
                f"[{lo.rho:.4f}, {hi.rho:.4f}], its bracket's values at p={lo.p} and p={hi.p}"
            )
        best = min(best, probe, key=gap)
        lo, hi = (probe, hi) if probe.rho < target else (lo, probe)
        slope, at = (at, probe), probe
    # the loop stops at the first point within tolerance on the full draws:
    # the last p measured on them, or the p = 0 end
    return Calibration(best.p, tuple(probes), bases if best is zero else latest)
