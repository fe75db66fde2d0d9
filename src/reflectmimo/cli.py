"""Command-line front end: named experiment runs, the material catalog,
and quadrature convergence traces."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, _read_config
from .experiments import EXPERIMENT_NAMES, run_named, validation_scene
from .materials import Medium, material_by_name, material_catalog
from .output import emit, write_convergence_csv
from .quadrature import SpatialLag, convergence_study
from .spectrum import FieldComponent, SceneError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectmimo",
        description="Channel model for line-of-sight MIMO over a reflecting "
        "planar surface: eigenvalue spectra, capacity curves, and "
        "impulse-response validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a named experiment")
    run_parser.add_argument("name", choices=EXPERIMENT_NAMES)
    run_parser.add_argument("--config", type=Path, default=None,
                            help="flat key=value config file, or a previously "
                            "emitted JSON result to re-run")
    run_parser.add_argument("--out", type=Path, default=Path("."),
                            help="output directory (default: current)")
    run_parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                            default="csv")

    materials_parser = sub.add_parser("materials", help="material catalog")
    materials_sub = materials_parser.add_subparsers(dest="materials_command",
                                                    required=True)
    materials_sub.add_parser("list", help="list materials with refractive "
                             "index and far-side wavenumber at 57.5 GHz")

    converge_parser = sub.add_parser(
        "converge", help="trace quadrature convergence for one geometry",
    )
    converge_parser.add_argument("--dz", type=float, required=True, metavar="M",
                                 help="propagation span in meters")
    converge_parser.add_argument("--lag", type=float, required=True, metavar="M",
                                 help="transverse offset in meters")
    converge_parser.add_argument("--material", default="vacuum")
    converge_parser.add_argument("--component", choices=("los", "reflection"),
                                 default="los")
    converge_parser.add_argument("--frequency-ghz", type=float, default=57.5)
    converge_parser.add_argument("--rel-tol", type=float, default=1e-8)
    converge_parser.add_argument("--out", type=Path, default=Path("."))
    return parser


def _refuse_unusable_out(out: Path) -> None:
    """Raise, before any work, the error that creating the output directory
    ``out`` would raise: its nearest existing ancestor, itself included,
    must be a directory."""
    existing = out
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(out))


def _cmd_run(args: argparse.Namespace) -> int:
    _refuse_unusable_out(args.out)
    config, config_text = (_read_config(args.config) if args.config is not None
                           else (ExperimentConfig(), None))
    results = run_named(args.name, config, config_text=config_text)
    for path in emit(results, args.fmt, args.out):
        print(path)
    return 0


def _cmd_materials_list() -> int:
    frequency = 57.5e9
    print(f"{'material':<18}{'n':>8}{'kappa2 [Krad/m]':>18}")
    for material in material_catalog():
        medium = Medium(frequency, material)
        if material.is_conductor:
            n_text, kappa_text = "inf", "inf"
        else:
            n_text = f"{material.refractive_index:.2f}"
            kappa_text = f"{medium.kappa2 / 1e3:.4f}"
        print(f"{material.name:<18}{n_text:>8}{kappa_text:>18}")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    _refuse_unusable_out(args.out)
    if not 0.0 < args.dz < float("inf"):
        raise ConfigError([f"--dz must be positive and finite, got {args.dz!r}"])
    if not 0.0 <= args.lag < float("inf"):
        raise ConfigError([f"--lag must be nonnegative and finite, got {args.lag!r}"])
    if not 0.0 < args.rel_tol < float("inf"):
        raise ConfigError([f"--rel-tol must be positive and finite, got {args.rel_tol!r}"])
    material = material_by_name(args.material)
    medium = Medium(args.frequency_ghz * 1e9, material)
    component = (FieldComponent.LOS_ONLY if args.component == "los"
                 else FieldComponent.REFLECTION_ONLY)
    scene = validation_scene(medium, component, args.dz)
    study = convergence_study(scene, component, SpatialLag(x=args.lag),
                              rel_tol=args.rel_tol)
    args.out.mkdir(parents=True, exist_ok=True)
    path = write_convergence_csv(study, args.out / "convergence.csv")
    final = study.rows[-1]
    print(path)
    print(f"value = {final.value.real!r} {final.value.imag:+}j "
          f"after {len(study.rows)} doublings "
          f"({'converged' if study.converged else 'not converged'})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "materials":
            return _cmd_materials_list()
        return _cmd_converge(args)
    except (ConfigError, SceneError) as exc:
        headline = ("invalid configuration" if isinstance(exc, ConfigError)
                    else "scene constraints violated")
        print(f"error: {headline}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
