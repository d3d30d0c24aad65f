"""Command-line entry point for the experiment drivers.

One JSON config file (a "solitons" block, a "numerics" block, and a "knobs"
block) describes a run; subcommands pick the experiment; dotted-key
overrides mutate single values from the command line.  Progress goes to
stderr, data files to the run directory, and the manifest path to stdout.

Exit codes: 0 success, 1 configuration/validation error (the message names
the offending key), 2 numerical failure (the message carries the failing
time or module).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .dynamics import BlowUpError
from .experiments import _KNOB_KEYS, _NUMERICS_KEYS, KINDS, ExperimentSpec, run
from .profiles import MultiSolitonConfig, SolitonParams

__all__ = ["main"]


class ConfigError(ValueError):
    """Configuration problem; rendered as exit code 1."""


def _config_key_help() -> str:
    spec_fields = {f.name: f for f in dataclass_fields(ExperimentSpec)}
    lines = ["config keys and defaults:", "  solitons: list of {omega, c, sigma, gamma}"]
    for block, keys in (("numerics", _NUMERICS_KEYS), ("knobs", _KNOB_KEYS)):
        for key in keys:
            lines.append(f"  {block}.{key}: default {spec_fields[key].default!r}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zaklab",
        description="Zakharov multi-soliton laboratory: integration, "
                    "functionals, modulation, and spectral diagnostics.",
        epilog=_config_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zaklab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", type=Path, required=config_required,
                       help="JSON config file (solitons/numerics/knobs blocks)")
        p.add_argument("--output-dir", type=Path, default=Path("runs"),
                       help="directory that receives run directories (default: runs)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help="dotted-key config override, e.g. numerics.dt=5e-4 "
                            "(repeatable)")

    for kind, entry in KINDS.items():
        p = sub.add_parser(entry.subcommand, help=entry.runner.__doc__)
        common(p, config_required=(kind != "coercivity_sweep"))
        if kind == "coercivity_sweep":
            p.add_argument("--omega", type=float, default=None,
                           help="single pulsation (skips the config sweep lists)")
            p.add_argument("--c", type=float, default=None,
                           help="single speed (with --omega)")
            p.add_argument("--n-points", type=int, default=1024,
                           help="grid size when no config file is given")
        p.set_defaults(func=_cmd_experiment, kind=kind)

    p = sub.add_parser("validate-config",
                       help="strict-check a config file and echo its canonical form")
    common(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def _parse_override(raw: str):
    if "=" not in raw:
        raise ConfigError(f"override {raw!r} must look like KEY=VALUE")
    key, value = raw.split("=", 1)
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _apply_override(data: dict, key: str, value):
    parts = key.split(".")
    node = data
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            if not part.isdigit() or int(part) >= len(node):
                raise ConfigError(f"bad list index in override key {key!r}")
            node = node[int(part)]
            continue
        if part not in node:
            if part in ("numerics", "knobs") and i == 0:
                node[part] = {}
            else:
                raise ConfigError(f"unknown config key in override: {key!r}")
        node = node[part]
    last = parts[-1]
    if isinstance(node, list):
        if not last.isdigit() or int(last) >= len(node):
            raise ConfigError(f"bad list index in override key {key!r}")
        node[int(last)] = value
    else:
        node[last] = value


def _load_config_dict(args) -> dict:
    try:
        text = args.config.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for raw in args.overrides:
        key, value = _parse_override(raw)
        _apply_override(data, key, value)
    return data


def _spec_from_config(args, kind: str | None) -> ExperimentSpec:
    """The config file's spec; kind None takes the file's kind (or backward_msw)."""
    data = _load_config_dict(args)
    file_kind = data.pop("kind", None)
    if kind is None:
        kind = "backward_msw" if file_kind is None else file_kind
    elif file_kind is not None and file_kind != kind:
        raise ConfigError(
            f"config key 'kind' says {file_kind!r} but the subcommand requires {kind!r}")
    data["kind"] = kind
    try:
        return ExperimentSpec.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_experiment(args) -> int:
    if args.kind == "coercivity_sweep" and args.config is None:
        if args.omega is None:
            raise ConfigError("coercivity needs --config or --omega/--c")
        c = args.c if args.c is not None else 0.0
        try:
            config = MultiSolitonConfig((SolitonParams(omega=args.omega, c=c),))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        spec = ExperimentSpec(kind=args.kind, config=config, n_points=args.n_points,
                              omegas_sweep=(args.omega,), speeds_sweep=(c,))
    else:
        spec = _spec_from_config(args, args.kind)
    manifest = run(spec, output_dir=args.output_dir,
                   progress=lambda message: print(message, file=sys.stderr, flush=True))
    print(Path(manifest.run_dir) / "manifest.json")
    return 0


def _cmd_validate(args) -> int:
    print(json.dumps(_spec_from_config(args, None).to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numerical failure in dynamics at t={exc.t:g}: H1 norm {exc.norm:.3e} "
              f"exceeded the blow-up ceiling", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
