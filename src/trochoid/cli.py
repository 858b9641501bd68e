"""Command line interface.

Subcommands: generate, boundary, verify, moments, render, calibrate, preset.
Configuration comes from a JSON file (--config) and/or a named preset
(--preset); individual flags override config fields.  Exit codes: 0 success,
1 runtime failure, 2 invalid configuration.  Errors are emitted to stderr as
a single JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .boundaries import HypotrochoidParams, PolytrochoidParams
from .errors import ConfigError, TrochoidError
from .interior import GridSpec, interior_density
from .io import write_curve_csv, write_density_csv, write_json
from .pipeline import _config_errors, _float_text, _int_text
from .pipeline import boundary_for, calibrate_flip_prob, run_generate, run_moments, run_verify
from .presets import PRESETS, get_preset
from .svg import render_svg


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"type": kind, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers from a flag; empty entries are skipped."""
    with _config_errors(flag):
        return [_int_text(s) for s in text.split(",") if s]


def _load_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if getattr(args, "preset", None):
        config = get_preset(args.preset)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {loaded!r:.60}")
        config.update(loaded)
    if getattr(args, "seeds", None):
        config["seeds"] = _int_list(args.seeds, "--seeds")
    if getattr(args, "seed", None) is not None:
        config["seeds"] = [args.seed]
    if getattr(args, "inflation", None) is not None:
        config["inflation"] = args.inflation
    if getattr(args, "samples", None) is not None:
        config["samples"] = args.samples
    if getattr(args, "no_exclude_outliers", False):
        config["exclude_outliers"] = False
    if not config:
        raise ConfigError("no configuration given; use --config and/or --preset")
    return config


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
    p.add_argument("--seeds", help="comma-separated seed list (overrides config)")
    p.add_argument("--seed", type=_int_text, help="single seed (overrides config)")
    p.add_argument("--out-dir", default=None, help="directory for output artifacts")


def _cmd_generate(args) -> int:
    config = _load_config(args)
    manifest = run_generate(config, args.out_dir)
    print(json.dumps(manifest, sort_keys=True, allow_nan=False))
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args)
    report = run_verify(config, args.out_dir)
    agg = report["aggregate"]
    print(f"inside_fraction: {agg['inside_fraction']:.4f}")
    if "measured_rho" in agg:
        print(f"measured_rho: {agg['measured_rho']:.6f}")
    if "mean_symmetry_residual" in agg:
        print(f"mean_symmetry_residual: {agg['mean_symmetry_residual']:.3e}")
    if agg["seeds_failed"]:
        print(f"seeds_failed: {agg['seeds_failed']}")
    if args.out_dir is None and not config.get("outputs"):
        print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0


_LAW_FIELDS = ("k", "rho", "d_hat", "weight", "d1", "k1", "w1", "d2", "k2", "w2")  # one flag each


def _cmd_boundary(args) -> int:
    section: dict = {"law": args.law}
    for key in _LAW_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            section[key] = value
    if args.law == "poly":
        terms = {}
        for item in args.term or []:
            order, _, strength = item.partition(":")
            try:
                order, strength = _int_text(order), _float_text(strength)
            except ValueError as exc:
                raise ConfigError(f"bad --term {item!r}; expected k:rho") from exc
            if order in terms:
                raise ConfigError(f"--term repeats order {order}")
            terms[order] = strength
        section["terms"] = terms
    if args.density_out:
        if args.law not in ("dense", "poly"):
            raise ConfigError("interior density is defined for the dense and poly laws")
        with _config_errors("--density-resolution"):
            grid = GridSpec(resolution=args.density_resolution)
    curve = boundary_for(None, section, n_samples=args.samples)
    write_curve_csv(curve, args.out)
    print(f"wrote {args.out} ({len(curve.z)} samples)")
    if args.density_out:
        params = curve.law
        if isinstance(params, HypotrochoidParams):
            params = PolytrochoidParams({params.k: params.rho})
        field = interior_density(params, grid)
        write_density_csv(field, args.density_out)
        # past the cusp some inside points lose the continued branch; their
        # density is written as 0, so say how many, and how many points the
        # one-shot Newton solve left to the continuation
        no_branch = int((field.inside & np.isnan(field.h)).sum())
        inside = int(field.inside.sum())
        print(
            f"wrote {args.density_out} (integral {field.integral():.4f}, "
            f"no branch at {no_branch} of {inside} inside grid points, "
            f"continuation at {int(field.continued.sum())} of {inside} inside grid points)"
        )
    return 0


def _cmd_moments(args) -> int:
    config = _load_config(args)
    pure = _int_list(args.pure, "--pure") if args.pure else []
    mixed = _int_list(args.mixed, "--mixed") if args.mixed else []
    if not pure and not mixed:
        raise ConfigError("nothing to do: give --pure and/or --mixed orders")
    table = run_moments(config, pure, mixed)
    if args.out:
        write_json(table, args.out)
    print(json.dumps(table, sort_keys=True, allow_nan=False))
    return 0


def _cmd_render(args) -> int:
    render_svg(args.spectrum, args.boundary, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    seeds = _int_list(args.seeds, "--seeds") if args.seeds else [1, 2, 3]
    calibration = calibrate_flip_prob(args.n, args.k, args.target_rho, seeds)
    print(json.dumps({
        "flip_prob": calibration.flip_prob, "n": args.n, "k": args.k, "target_rho": args.target_rho,
        "probes": [list(probe) for probe in calibration.probes],
    }, allow_nan=False))
    return 0


def _cmd_preset(args) -> int:
    config = get_preset(args.name)
    print(json.dumps(config, indent=2, sort_keys=True, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trochoid",
        description="Generate cyclic-correlation ensembles and verify their spectral boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate ensembles and write matrix files")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    _add_config_flags(p)
    p.add_argument("--inflation", type=_float_text, help="curve inflation fraction")
    p.add_argument("--samples", type=_int_text, help="boundary sample count")
    p.add_argument("--no-exclude-outliers", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("boundary", help="compute a boundary curve CSV")
    p.add_argument("--law", required=True, choices=["dense", "poly", "sparse", "mixed", "mixed-asymptotic"])
    for name in _LAW_FIELDS:
        p.add_argument(f"--{name.replace('_', '-')}", type=_int_text if name[0] == "k" else _float_text)
    p.add_argument("--term", action="append", help="k:rho (repeatable, poly law)")
    p.add_argument("--samples", type=_int_text, default=1024)
    p.add_argument("--out", required=True)
    p.add_argument("--density-out", help="also write the interior density field CSV here")
    p.add_argument("--density-resolution", type=_int_text, default=256)
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("moments", help="empirical vs predicted trace moments")
    _add_config_flags(p)
    p.add_argument("--pure", help="comma-separated pure moment orders")
    p.add_argument("--mixed", help="comma-separated mixed moment orders")
    p.add_argument("--out", help="write the table as JSON here")
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("render", help="render spectrum + boundary CSVs to SVG")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--boundary", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("calibrate", help="find the flip probability for a target strength")
    p.add_argument("--n", type=_int_text, required=True)
    p.add_argument("--k", type=_int_text, required=True)
    p.add_argument("--target-rho", dest="target_rho", type=_float_text, required=True)
    p.add_argument("--seeds", help="comma-separated calibration seeds")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("preset", help="print a named preset's parameters")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except (TrochoidError, OSError, ValueError) as exc:
        _emit_error(type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
