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
from dataclasses import dataclass
from pathlib import Path

from . import validate as validation
from .features import FeatureParseError, parse_features, read_class_selection
from .raster import RasterParseError, load_raster, save_raster
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


@dataclass(frozen=True)
class BuildDsmCommand:
    dtm: Path
    features: Path
    classes: Path
    out: Path
    close_tolerance: float = 0.1


@dataclass(frozen=True)
class RunCommand:
    config: Path
    blocks: int | None = None


@dataclass(frozen=True)
class ValidateCommand:
    case: str
    n: int
    report: Path | None = None


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


def parse_args(argv):
    ns = _build_parser().parse_args(argv)
    if ns.command == "build-dsm":
        if ns.close_tolerance < 0:
            raise UsageError("--close-tolerance must be nonnegative")
        return BuildDsmCommand(ns.dtm, ns.features, ns.classes, ns.out,
                               ns.close_tolerance)
    if ns.command == "run":
        if ns.blocks is not None and ns.blocks < 1:
            raise UsageError("--blocks must be at least 1")
        return RunCommand(ns.config, ns.blocks)
    if ns.n < 10:
        raise UsageError("--n must be at least 10")
    return ValidateCommand(ns.case, ns.n, ns.report)


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


def _execute(cmd) -> int:
    if isinstance(cmd, BuildDsmCommand):
        dtm = load_raster(cmd.dtm)
        features = parse_features(Path(cmd.features).read_text())
        class_ids = read_class_selection(Path(cmd.classes).read_text())
        dsm = build_dsm(dtm, features, class_ids,
                        close_tolerance=cmd.close_tolerance)
        save_raster(cmd.out, dsm)
        logger.info("DSM written to %s", cmd.out)
        return 0
    if isinstance(cmd, RunCommand):
        scenario = load_scenario(cmd.config)
        result = run(scenario, blocks=_resolve_blocks(cmd.blocks))
        logger.info("outputs in %s", result.output_dir)
        return 0
    _, csv_text = validation.report(cmd.case, cmd.n)
    if cmd.report is None:
        sys.stdout.write(csv_text)
    else:
        Path(cmd.report).write_text(csv_text)
        logger.info("report written to %s", cmd.report)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if argv is None:
        argv = sys.argv[1:]
    try:
        cmd = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"swflood: error: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)

    try:
        return _execute(cmd)
    except NumericalAbort as exc:
        logger.error("numerical abort: %s", exc)
        return 2
    except (ConfigError, FeatureParseError, RasterParseError,
            OSError, ValueError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
