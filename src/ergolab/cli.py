"""Command-line front end.

One experiment per invocation.  Ad-hoc subcommands (build, correlate,
rigidity, ledrapier, cesaro, gauss, poisson) assemble a config from flags
generated from their experiment's params schema; `experiment <name>` runs a
named experiment, optionally from a JSON config file.  Reports are written
atomically, the JSON and the CSV together; a failed run leaves no partial
file and no lone one.

Exit codes: 0 all checks passed, 1 a statistical or certified check failed,
2 config, schema or domain violation or an output path that cannot be
written, 3 construction depth exhausted.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    ConfigError,
    command_specs,
    default_config,
    describe_experiments,
    run_experiment,
)
from .reports import write_report_files
from .tower import (
    ConstructionExhaustedError,
    GenerationError,
    InsufficientDepthError,
)

_DEPTH_ERRORS = (ConstructionExhaustedError, InsufficientDepthError, GenerationError)


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1: {text!r}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--csv", default=None, help="also write result rows as CSV")
    sub.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker cap for Monte-Carlo batches"
    )


_SCALAR_TYPES = {"integer": int, "number": float, "string": str}


def _kind(prop: dict) -> str:
    """The one non-null JSON type of a schema property."""
    types = prop["type"] if isinstance(prop["type"], list) else [prop["type"]]
    (kind,) = set(types) - {"null"}
    return kind


def _add_param_flags(sub: argparse.ArgumentParser, schema: dict) -> None:
    """One flag per schema property: `--a-stage` for `a_stage`, and
    `--<name>-file` (a JSON file) for an object property."""
    for name, prop in schema["properties"].items():
        flag = "--" + name.replace("_", "-")
        kind = _kind(prop)
        if kind == "object":
            ref = prop["$ref"].rsplit("/", 1)[-1]
            sub.add_argument(
                flag + "-file",
                dest=name,
                metavar="FILE",
                help=f"JSON file holding a `{ref}` descriptor; "
                "see Construction descriptors in the README",
            )
        elif kind == "array":
            sub.add_argument(flag, type=_int_list)
        else:
            sub.add_argument(
                flag, type=_SCALAR_TYPES[kind], choices=prop.get("enum")
            )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="exact rank-one towers, GF(2) shift events, operator "
        "averages, and suspension simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for spec in command_specs():
        p = sub.add_parser(
            spec.command, help=spec.description, description=spec.description
        )
        _add_param_flags(p, spec.params_schema)
        _add_common(p)
        p.set_defaults(experiment_spec=spec)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name")
    p.add_argument("--config", default=None, help="JSON ExperimentConfig file")
    _add_common(p)

    sub.add_parser("list-experiments", help="catalogue of named experiments")

    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.command == "experiment":
        if args.config is not None:
            config = _load_json(args.config)
            if not isinstance(config, dict):
                raise ConfigError("config file must hold a JSON object")
            declared = config.get("experiment")
            if declared is not None and declared != args.name:
                raise ConfigError(
                    f"config declares experiment {declared!r}, "
                    f"command line says {args.name!r}"
                )
            config["experiment"] = args.name
        else:
            config = default_config(args.name)
    else:
        spec = args.experiment_spec
        params = {}
        for name, prop in spec.params_schema["properties"].items():
            value = getattr(args, name)
            if value is not None:
                params[name] = _load_json(value) if _kind(prop) == "object" else value
        config = {"experiment": spec.name, "params": params}
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name, description in describe_experiments():
            print(f"{name:15s} {description}")
        return 0

    try:
        if args.out and args.csv and (
            os.path.realpath(args.out) == os.path.realpath(args.csv)
        ):
            raise ConfigError(f"--out and --csv name one file: {args.out}")
        config = _config_from_args(args)
        report = run_experiment(config, jobs=args.jobs)
    except _DEPTH_ERRORS as exc:
        module = type(exc).__module__
        print(
            f"ergolab: construction exhausted in {module} "
            f"({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:  # ConfigError, or a domain check in the library
        print(f"ergolab: config error: {exc}", file=sys.stderr)
        return 2

    try:
        write_report_files(report, args.out, args.csv)
    except OSError as exc:
        print(f"ergolab: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    print(f"experiment: {report.experiment} (ergolab {report.version})")
    print(f"rows: {len(report.rows)}")
    for entry in report.checks:
        mark = "PASS" if entry["passed"] else "FAIL"
        detail = f"  [{entry['detail']}]" if entry.get("detail") else ""
        print(f"{mark}  {entry['name']}{detail}")
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        print(f"report written to {args.out}")
    if args.csv:
        print(f"rows written to {args.csv}")
    passed = sum(1 for c in report.checks if c["passed"])
    print(f"result: {'PASS' if report.all_passed else 'FAIL'} "
          f"({passed}/{len(report.checks)} checks)")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
