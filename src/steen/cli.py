"""Command-line front end for the workbench.

Subcommands cover catalogue inspection, module algebra, resolutions and
charts, the unstable quotients, obstruction reports, and the acceptance
ledger.  Exit codes: 0 on success, 1 on verification failure, 2 on usage
or precondition errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from steen.catalogue import MODULE_NAMES, get_module
from steen.config import T_MAX_DEFAULT, Config, config_problems, from_env
from steen.modfile import integer, load, parse_algebra, serialize
from steen.module import FiniteModule, double, dualize, tensor
from steen.obstruction import format_report, obstruction_report, report_lines
from steen.resolution import (
    CHART_FORMATS,
    Resolution,
    T_MAX_LIMIT,
    dump_resolution,
    emit_chart,
    ext_chart,
    minimal_resolution,
)
from steen.unstable import SPACES, cube_quotient
from steen.verify import run_all

__all__ = ["main"]


class UsageError(Exception):
    """Bad arguments or unusable inputs; maps to exit code 2."""


def _load_module(token: str) -> FiniteModule:
    """A catalogue name or a module-definition file path; a file must validate."""
    if token in MODULE_NAMES:
        return get_module(token)
    if token and Path(token).exists():  # Path('') is the working directory
        M = load(token)
        problems = M.validate()
        if problems:
            raise ValueError(problems[0])
        return M
    raise UsageError(f"unknown module {token!r}: not a catalogue name or a file")


def _resolution(args: argparse.Namespace, cfg: Config) -> Resolution:
    """The minimal resolution of the module argument, over --algebra or its own."""
    M = _load_module(args.module)
    algebra = M.algebra if args.algebra is None else parse_algebra(args.algebra, "--algebra")
    return minimal_resolution(algebra, M, cfg.s_max, cfg.t_max)


_TMAX_HELP = f"internal-degree bound (default {T_MAX_DEFAULT}, at most {T_MAX_LIMIT})"


def build_parser() -> argparse.ArgumentParser:
    """The steen parser: each command sets `run(args, cfg)`, its handler."""
    parser = argparse.ArgumentParser(
        prog="steen",
        description="modules over the mod-2 Steenrod algebra and its subalgebras",
    )
    parser.add_argument("--output-dir", help="directory for file outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalogue module names").set_defaults(run=_cmd_list)

    p = sub.add_parser("show", help="print a module table")
    p.add_argument("module")
    p.set_defaults(run=lambda args, cfg: _show(_load_module(args.module)))

    p = sub.add_parser("validate", help="check a module-definition file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("dual", help="dualize a module")
    p.add_argument("module")
    p.set_defaults(run=lambda args, cfg: _show(dualize(_load_module(args.module))))

    p = sub.add_parser("double", help="apply the degree-doubling functor")
    p.add_argument("module")
    p.add_argument("k", type=integer)
    p.set_defaults(run=lambda args, cfg: _show(double(_load_module(args.module), args.k)))

    p = sub.add_parser("tensor", help="tensor two modules")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(
        run=lambda args, cfg: _show(tensor(_load_module(args.left), _load_module(args.right)))
    )

    # the resolution window; each flag's dest is the Config field it overrides
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("module")
    window.add_argument("--algebra", help="A or A(n) the module can be read over; default: its own")
    window.add_argument(
        "--smax", dest="s_max", metavar="SMAX", type=integer, help="homological bound"
    )
    window.add_argument("--tmax", dest="t_max", metavar="TMAX", type=integer, help=_TMAX_HELP)

    p = sub.add_parser("resolve", parents=[window], help="minimal free resolution, as text")
    p.set_defaults(run=_cmd_resolve)

    p = sub.add_parser("chart", parents=[window], help="Ext chart from a minimal resolution")
    p.add_argument("--out", help="write under output_dir instead of stdout")
    p.add_argument("--format", choices=CHART_FORMATS)
    p.set_defaults(run=_cmd_chart)

    p = sub.add_parser("unstable", help="truncated characteristic-class quotient")
    p.add_argument("space", choices=SPACES)
    caps = " or ".join(str(3 << n) for _, n in SPACES.values())
    p.add_argument("--cap", type=integer, help=f"degree cap (default {caps})")
    p.set_defaults(run=_cmd_unstable)

    p = sub.add_parser("obstruction", help="non-realizability report for a tower")
    p.add_argument("n", type=integer)
    p.set_defaults(run=_cmd_obstruction)

    p = sub.add_parser("verify-suite", help="run the acceptance ledger")
    p.add_argument("suite", choices=("paper",))
    p.set_defaults(run=lambda args, cfg: 0 if run_all(print) else 1)

    return parser


def _configure(args: argparse.Namespace) -> Config:
    flags = {k: v for k, v in vars(args).items() if k in Config._fields and v is not None}
    cfg = from_env()._replace(**flags)
    problems = config_problems(cfg)
    if problems:
        raise UsageError("; ".join(problems))
    return cfg


def _show(M: FiniteModule) -> int:
    print(serialize(M), end="")
    return 0


def _cmd_list(args: argparse.Namespace, cfg: Config) -> int:
    for name in MODULE_NAMES:
        print(name)
    return 0


def _cmd_validate(args: argparse.Namespace, cfg: Config) -> int:
    path = Path(args.file)
    if not args.file or not path.exists():
        raise UsageError(f"no such file: {args.file}")
    M = load(path)
    problems = M.validate()
    print("\n".join(problems) if problems else f"{M.name}: ok")
    return 1 if problems else 0


def _cmd_resolve(args: argparse.Namespace, cfg: Config) -> int:
    print(dump_resolution(_resolution(args, cfg)), end="")
    return 0


def _cmd_chart(args: argparse.Namespace, cfg: Config) -> int:
    data = emit_chart(ext_chart(_resolution(args, cfg)), cfg.format)
    if args.out:
        target = Path(args.out)
        if not target.is_absolute():
            target = Path(cfg.output_dir) / target
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        except FileExistsError:
            # mkdir found a file where the target's directory should be
            raise UsageError(f"cannot write {target}: Not a directory") from None
        except OSError as exc:
            raise UsageError(f"cannot write {target}: {exc.strerror}") from None
        print(target)
    else:
        sys.stdout.write(data.decode())
    return 0


def _cmd_unstable(args: argparse.Namespace, cfg: Config) -> int:
    Q, matches = cube_quotient(args.space, args.cap)
    print(serialize(Q), end="")
    for name, found in matches.items():
        verdict = "yes" if found else "no"
        print(f"matches {name}[{Q.bottom}] on degrees {Q.bottom}..{Q.top}: {verdict}")
    return 0


def _cmd_obstruction(args: argparse.Namespace, cfg: Config) -> int:
    report = obstruction_report(args.n)
    print(format_report(report))
    print()
    for line in report_lines(report):
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, _configure(args))
    except (UsageError, ValueError) as exc:
        print(f"steen: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
