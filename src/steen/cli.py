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
from steen.milnor import full_a
from steen.modfile import load, parse_algebra, serialize
from steen.module import FiniteModule, double, dualize, find_isomorphism, shift, tensor
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
from steen.unstable import bso3, bsu3, truncate_quotient
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

# the default cap (the degree of the bottom generator's cube), the two
# extensions the quotient at that cap is compared with, and their shift
_UNSTABLE = {
    "bso3": (bso3, 6, "joker0", "joker1", 2),
    "bsu3": (bsu3, 12, "joker(2)0", "joker(2)1", 4),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steen",
        description="modules over the mod-2 Steenrod algebra and its subalgebras",
    )
    parser.add_argument("--output-dir", help="directory for file outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalogue module names")

    p = sub.add_parser("show", help="print a module table")
    p.add_argument("module")

    p = sub.add_parser("validate", help="check a module-definition file")
    p.add_argument("file")

    p = sub.add_parser("dual", help="dualize a module")
    p.add_argument("module")

    p = sub.add_parser("double", help="apply the degree-doubling functor")
    p.add_argument("module")
    p.add_argument("k", type=int)

    p = sub.add_parser("tensor", help="tensor two modules")
    p.add_argument("left")
    p.add_argument("right")

    # the resolution window; each flag's dest is the Config field it overrides
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("module")
    window.add_argument("--algebra", help="A or A(n); default: the module's own")
    window.add_argument(
        "--smax", dest="s_max", metavar="SMAX", type=int, help="homological bound"
    )
    window.add_argument("--tmax", dest="t_max", metavar="TMAX", type=int, help=_TMAX_HELP)

    sub.add_parser("resolve", parents=[window], help="minimal free resolution, as text")

    p = sub.add_parser("chart", parents=[window], help="Ext chart from a minimal resolution")
    p.add_argument("--out", help="write under output_dir instead of stdout")
    p.add_argument("--format", choices=CHART_FORMATS)

    p = sub.add_parser("unstable", help="truncated characteristic-class quotient")
    p.add_argument("space", choices=_UNSTABLE)
    caps = " or ".join(str(entry[1]) for entry in _UNSTABLE.values())
    p.add_argument("--cap", type=int, help=f"degree cap (default {caps})")

    p = sub.add_parser("obstruction", help="non-realizability report for a tower")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify-suite", help="run the acceptance ledger")
    p.add_argument("suite", choices=("paper",))

    return parser


def _configure(args: argparse.Namespace) -> Config:
    flags = {k: v for k, v in vars(args).items() if k in Config._fields and v is not None}
    cfg = from_env()._replace(**flags)
    problems = config_problems(cfg)
    if problems:
        raise UsageError("; ".join(problems))
    return cfg


def _cmd_list() -> int:
    for name in MODULE_NAMES:
        print(name)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
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


def _cmd_unstable(args: argparse.Namespace) -> int:
    build, default_cap, zero_name, one_name, span = _UNSTABLE[args.space]
    cap = args.cap if args.cap is not None else default_cap
    Q = truncate_quotient(build().with_relations((3, 0)), full_a(), cap)
    print(serialize(Q), end="")
    if cap == default_cap:
        for name in (zero_name, one_name):
            found = find_isomorphism(Q, shift(get_module(name), span)) is not None
            print(f"matches {name}[{span}] on degrees {span}..{cap}: {'yes' if found else 'no'}")
    return 0


def _cmd_obstruction(args: argparse.Namespace) -> int:
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
        cfg = _configure(args)
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            print(serialize(_load_module(args.module)), end="")
            return 0
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "dual":
            print(serialize(dualize(_load_module(args.module))), end="")
            return 0
        if args.command == "double":
            print(serialize(double(_load_module(args.module), args.k)), end="")
            return 0
        if args.command == "tensor":
            print(serialize(tensor(_load_module(args.left), _load_module(args.right))), end="")
            return 0
        if args.command == "resolve":
            return _cmd_resolve(args, cfg)
        if args.command == "chart":
            return _cmd_chart(args, cfg)
        if args.command == "unstable":
            return _cmd_unstable(args)
        if args.command == "obstruction":
            return _cmd_obstruction(args)
        if args.command == "verify-suite":
            return 0 if run_all(print) else 1
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        print(f"steen: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
