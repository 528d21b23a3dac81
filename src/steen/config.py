"""Runtime configuration shared by the CLI subcommands.

The default s_max sits at the resolver's guard S_MAX_LIMIT.  The default
t_max is T_MAX_DEFAULT, below the guard T_MAX_LIMIT, so a chart drawn with
the defaults keeps its range when the guard moves.  Environment variables
with the STEEN_ prefix override the defaults and explicit flags override the
environment.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple

from steen.resolution import S_MAX_LIMIT, T_MAX_LIMIT

__all__ = ["Config", "ENV_PREFIX", "T_MAX_DEFAULT", "config_problems", "from_env"]

ENV_PREFIX = "STEEN_"
T_MAX_DEFAULT = 40

_INT_FIELDS = frozenset({"s_max", "t_max"})


class Config(NamedTuple):
    """Knobs for the CLI: resolution window, output plumbing."""

    s_max: int = S_MAX_LIMIT
    t_max: int = T_MAX_DEFAULT
    output_dir: str = "."
    format: str = "text"


def from_env(
    base: Config | None = None, environ: Mapping[str, str] | None = None
) -> Config:
    """Apply STEEN_<FIELD> overrides; any other STEEN_ variable is an error."""
    cfg = Config() if base is None else base
    env = os.environ if environ is None else environ
    known = {ENV_PREFIX + name.upper() for name in Config._fields}
    for key in sorted(env):
        if key.startswith(ENV_PREFIX) and key not in known:
            raise ValueError(f"{key}: unknown setting; known: {', '.join(sorted(known))}")
    updates: dict[str, object] = {}
    for name in Config._fields:
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is None:
            continue
        if name in _INT_FIELDS:
            try:
                updates[name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_PREFIX}{name.upper()}: expected an integer, got {raw!r}"
                ) from None
        else:
            updates[name] = raw
    return cfg._replace(**updates) if updates else cfg


def config_problems(cfg: Config) -> list[str]:
    """Guard violations, empty when the configuration is usable."""
    problems = []
    if not 0 <= cfg.s_max <= S_MAX_LIMIT:
        problems.append(f"s_max must be between 0 and {S_MAX_LIMIT}, got {cfg.s_max}")
    if not 0 <= cfg.t_max <= T_MAX_LIMIT:
        problems.append(f"t_max must be between 0 and {T_MAX_LIMIT}, got {cfg.t_max}")
    if cfg.format not in ("text", "svg"):
        problems.append(f"format must be 'text' or 'svg', got {cfg.format!r}")
    return problems
