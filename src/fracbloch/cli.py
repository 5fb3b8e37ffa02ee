"""Command-line front-end.

Subcommands: ``run`` a config file, run a named ``preset``, list ``presets``,
``render`` a trajectory CSV to a pixmap, and ``analyze`` a trajectory CSV.
Exit codes: 0 success, 2 config error, 3 resource cap exceeded, 4 I/O error.
The FRACBLOCH_DIM_CAP environment variable overrides the operator dimension
cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import heatmap, scenario
from .errors import (
    ConfigError,
    DimensionCapError,
    FracblochError,
    InvalidParameterError,
)
from .propagator import DEFAULT_DIM_CAP, Trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def _dim_cap() -> int:
    raw = os.environ.get(scenario.DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise InvalidParameterError(
            f"{scenario.DIM_CAP_ENV} must be a positive integer, got {raw!r}"
        ) from None
    return cap


def _cmd_run(args) -> int:
    config = scenario.parse_config(args.config)
    summary = scenario.run_scenario(config, out_dir=args.out, dim_cap=_dim_cap())
    out_dir = args.out or config.out_dir
    print(f"wrote {out_dir}: {', '.join(sorted(summary['outputs'].values()))}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    config = scenario.preset_config(args.name)
    out_dir = args.out or args.name
    summary = scenario.run_scenario(config, out_dir=out_dir, dim_cap=_dim_cap())
    print(f"wrote {out_dir}: {', '.join(sorted(summary['outputs'].values()))}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    catalogue = scenario.list_presets()
    if args.json:
        print(json.dumps(catalogue, indent=2, sort_keys=True))
        return EXIT_OK
    for entry in catalogue:
        print(f"{entry['name']}")
        print(f"    {entry['description']}")
        params = ", ".join(f"{k}={v}" for k, v in sorted(entry["parameters"].items()))
        print(f"    {params}")
    return EXIT_OK


def _read_trajectory(path: str) -> tuple[Trajectory, str]:
    """A trajectory CSV as (Trajectory, kind): the reader's arrays, folded
    or not, checked as every trajectory is, with the path and the first
    line of the sample at fault before a failed check."""
    z, rows, column, kind = heatmap.load_trajectory_csv(path)
    try:
        return Trajectory(z, rows, column=column), kind
    except InvalidParameterError as exc:
        if exc.sample is None:
            raise InvalidParameterError(f"{path}: {exc}") from None
        lines = 1 if kind == "chain" else column.size
        raise InvalidParameterError(f"{path}: line {2 + exc.sample * lines}: {exc}") from None


def _cmd_render(args) -> int:
    traj, kind = _read_trajectory(args.trajectory)
    axis = args.axis
    if axis is None:
        axis = "diagonal-vs-z" if kind == "pair" else "1d-vs-z"
    elif axis != "1d-vs-z" and kind != "pair":
        raise InvalidParameterError(f"{args.trajectory}: axis {axis} needs the square lattice "
                                    f"of a pair trajectory, not a {traj.dim}-site chain")
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.trajectory)
        out = f"{stem}.pgm"
    heatmap.render_heatmap(traj, axis, args.norm, out, z=args.z)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    result = scenario.analyze_probabilities(*_read_trajectory(args.trajectory))
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbloch",
        description="Boson-pair Bloch-oscillation simulator for waveguide lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset scenario")
    p_preset.add_argument("name", choices=sorted(scenario.PRESETS))
    p_preset.add_argument("--out", help="output directory (default: preset name)")
    p_preset.set_defaults(func=_cmd_preset)

    p_list = sub.add_parser("presets", help="list preset scenarios")
    p_list.add_argument("--json", action="store_true", help="machine-readable")
    p_list.set_defaults(func=_cmd_presets)

    p_render = sub.add_parser("render", help="render a trajectory CSV to a pixmap")
    p_render.add_argument("trajectory")
    p_render.add_argument("--axis", choices=heatmap.AXES)
    p_render.add_argument(
        "--norm", choices=heatmap.NORMALIZATIONS, default="per-column"
    )
    p_render.add_argument("--z", type=float, help="slice position for full-2d-slice")
    p_render.add_argument("--out", help="output file (default: CSV stem + .pgm)")
    p_render.set_defaults(func=_cmd_render)

    p_analyze = sub.add_parser("analyze", help="recompute observables from a CSV")
    p_analyze.add_argument("trajectory")
    p_analyze.add_argument("--out", help="write the JSON summary here")
    p_analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionCapError as exc:
        print(
            f"resource error: {exc} (override with {scenario.DIM_CAP_ENV})",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FracblochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
