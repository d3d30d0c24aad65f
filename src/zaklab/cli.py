"""Command-line entry point for the experiment drivers.

One JSON config file (a "solitons" block, a "numerics" block, and a "knobs"
block) describes a run; subcommands pick the experiment; dotted-key
overrides mutate single values from the command line.  Progress messages of
the "zaklab" logger go to stderr, data files to the run directory, and the
manifest path to stdout.

Exit codes: 0 success, 1 configuration error (the message names the key), an
output directory that cannot be written or a stdout whose reader closed
early, 2 numerical failure (the message carries the failing time or module).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .dynamics import BlowUpError
from .experiments import CONFIG_KEYS, KINDS, ExperimentSpec, run
from .profiles import SOLITON_KEYS

__all__ = ["main"]


class ConfigError(ValueError):
    """Configuration problem; rendered as exit code 1."""


def _config_key_help() -> str:
    lines = ["config keys: default; admissible values"]
    for key in SOLITON_KEYS + CONFIG_KEYS:
        lines.append(f"  {key.metadata['block']}.{key.name}: {key.metadata['help']}")
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

    def common(p):
        p.add_argument("--config", type=Path, required=True,
                       help="JSON config file (solitons/numerics/knobs blocks)")
        p.add_argument("--output-dir", type=Path, default=Path("runs"),
                       help="directory that receives run directories (default: runs)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help="dotted-key config override, e.g. numerics.dt=5e-4 "
                            "(repeatable)")

    for kind, entry in KINDS.items():
        p = sub.add_parser(entry.subcommand, help=entry.runner.__doc__)
        common(p)
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
    for i, part in enumerate(parts):
        if isinstance(node, list):
            if not part.isdigit() or int(part) >= len(node):
                raise ConfigError(f"bad list index in override key {key!r}")
            part = int(part)
        elif not isinstance(node, dict):
            raise ConfigError(f"override key {key!r} goes through the non-container "
                              f"value at {'.'.join(parts[:i])!r}")
        elif part not in node and i < len(parts) - 1:
            if i == 0 and part in {key.metadata["block"] for key in CONFIG_KEYS}:
                node[part] = {}
            else:
                raise ConfigError(f"unknown config key in override: {key!r}")
        if i == len(parts) - 1:
            node[part] = value
        else:
            node = node[part]


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
    """The config file's spec; kind None takes the file's kind (or weinstein_audit)."""
    data = _load_config_dict(args)
    file_kind = data.pop("kind", None)
    if kind is None:
        kind = "weinstein_audit" if file_kind is None else file_kind
    elif file_kind is not None and file_kind != kind:
        raise ConfigError(
            f"config key 'kind' says {file_kind!r} but the subcommand requires {kind!r}")
    data["kind"] = kind
    try:
        return ExperimentSpec.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_experiment(args) -> int:
    manifest = run(_spec_from_config(args, args.kind), output_dir=args.output_dir)
    print(Path(manifest.run_dir) / "manifest.json")
    return 0


def _cmd_validate(args) -> int:
    print(json.dumps(_spec_from_config(args, None).to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # progress messages, one line each; the handler is bound to this call's stderr
    log = logging.getLogger("zaklab")
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader closed early (`zaklab ... | head`): send what is
        # still buffered to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # after BrokenPipeError, which is one too
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
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
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
