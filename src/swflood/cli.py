"""Command-line entry point exposing the three workflows.

    swflood build-dsm --dtm dtm.asc --features f.txt --classes c.txt --out dsm.asc
    swflood run --config scenario.cfg [--blocks N]
    swflood validate --case ritter --n 400 [--report norms.csv]

Exit codes: 0 success, 1 configuration/usage error, 2 numerical abort.
Logs go to stderr; data only to files (or stdout for validate reports).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import validate as validation
from .features import parse_features, read_class_selection
from .raster import atomic_open, load_raster, read_input, save_raster
from .rasterize import build_dsm
from .simulation import ConfigError, load_scenario, run
from .solver import NumericalAbort

ENV_BLOCKS = "SWFLOOD_BLOCKS"

logger = logging.getLogger("swflood")


class UsageError(Exception):
    """Bad command line; reported as a configuration error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # numerical aborts here, so turn them into exceptions instead.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="swflood",
        description="Shallow-water overland-flow simulator and DSM builder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-dsm", help="extrude classified features onto a DTM")
    b.add_argument("--dtm", required=True, type=Path, help="input DTM (ASCII grid)")
    b.add_argument("--features", required=True, type=Path,
                   help="classified feature file")
    b.add_argument("--classes", required=True, type=Path,
                   help="class-selection file, one id per line")
    b.add_argument("--out", required=True, type=Path, help="output DSM path")
    b.add_argument("--close-tolerance", type=float, default=0.1, metavar="METERS",
                   help="endpoint gap below which lines close into polygons")

    r = sub.add_parser("run", help="run a flood scenario")
    r.add_argument("--config", required=True, type=Path, help="scenario config file")
    r.add_argument("--blocks", type=int, default=None,
                   help="worker threads over the row strips of each stage; "
                        f"results do not depend on it (overrides ${ENV_BLOCKS})")

    v = sub.add_parser("validate", help="compare the solver against exact solutions")
    v.add_argument("--case", required=True, choices=sorted(validation.CASES))
    v.add_argument("--n", required=True, type=int, help="cell count (at least 10)")
    v.add_argument("--report", type=Path, default=None,
                   help="write the CSV here instead of stdout")
    return parser


def parse_args(argv) -> argparse.Namespace:
    ns = _build_parser().parse_args(argv)
    if ns.command == "build-dsm" and ns.close_tolerance < 0:
        raise UsageError("--close-tolerance must be nonnegative")
    if ns.command == "run" and ns.blocks is not None and ns.blocks < 1:
        raise UsageError("--blocks must be at least 1")
    if ns.command == "validate" and ns.n < 10:
        raise UsageError("--n must be at least 10")
    return ns


def _resolve_blocks(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get(ENV_BLOCKS)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"{ENV_BLOCKS} must be an integer, got {env!r}")
        if value < 1:
            raise ConfigError(f"{ENV_BLOCKS} must be at least 1, got {value}")
        return value
    return 1


def _execute(ns: argparse.Namespace) -> int:
    if ns.command == "build-dsm":
        dtm = load_raster(ns.dtm)
        features = read_input(ns.features, parse_features)
        class_ids = read_input(ns.classes, read_class_selection)
        dsm = build_dsm(dtm, features, class_ids,
                        close_tolerance=ns.close_tolerance)
        save_raster(ns.out, dsm)
        logger.info("DSM written to %s", ns.out)
        return 0
    if ns.command == "run":
        scenario = load_scenario(ns.config)
        result = run(scenario, blocks=_resolve_blocks(ns.blocks))
        logger.info("outputs in %s", result.output_dir)
        return 0
    _, csv_text = validation.report(ns.case, ns.n)
    if ns.report is None:
        sys.stdout.write(csv_text)
    else:
        with atomic_open(ns.report) as fh:
            fh.write(csv_text)
        logger.info("report written to %s", ns.report)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"swflood: error: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)

    try:
        return _execute(ns)
    except NumericalAbort as exc:
        logger.error("numerical abort: %s", exc)
        return 2
    except (OSError, ValueError) as exc:  # the parse errors are ValueErrors
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
