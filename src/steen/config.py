"""Runtime configuration shared by the CLI subcommands.

The default s_max sits at the resolver's guard S_MAX_LIMIT.  The default
t_max is T_MAX_DEFAULT, below the guard T_MAX_LIMIT, so a chart drawn with
the defaults keeps its range when the guard moves.  Environment variables
with the STEEN_ prefix override the defaults and explicit flags override the
environment.  Both share the `Config` field names: STEEN_S_MAX and --smax
both land in `s_max`, so the CLI lays its flags over the environment by name.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from steen.modfile import integer
from steen.resolution import CHART_FORMATS, S_MAX_LIMIT, window_problems

__all__ = ["Config", "ENV_PREFIX", "T_MAX_DEFAULT", "config_problems", "from_env"]

ENV_PREFIX = "STEEN_"
T_MAX_DEFAULT = 40


class Config(NamedTuple):
    """Knobs for the CLI: resolution window, output plumbing."""

    s_max: int = S_MAX_LIMIT
    t_max: int = T_MAX_DEFAULT
    output_dir: str = "."
    format: str = "text"


def from_env() -> Config:
    """Apply STEEN_<FIELD> overrides; any other STEEN_ variable is an error."""
    known = {ENV_PREFIX + name.upper() for name in Config._fields}
    for key in sorted(os.environ):
        if key.startswith(ENV_PREFIX) and key not in known:
            raise ValueError(f"{key}: unknown setting; known: {', '.join(sorted(known))}")
    updates: dict[str, object] = {}
    for name in Config._fields:
        key = ENV_PREFIX + name.upper()
        raw = os.environ.get(key)
        if raw is None:
            continue
        if isinstance(Config._field_defaults[name], int):
            try:
                updates[name] = integer(raw)
            except ValueError:
                raise ValueError(f"{key}: expected an integer, got {raw!r}") from None
        else:
            updates[name] = raw
    return Config(**updates)


def config_problems(cfg: Config) -> list[str]:
    """Guard violations, empty when the configuration is usable."""
    problems = window_problems(cfg.s_max, cfg.t_max)
    if cfg.format not in CHART_FORMATS:
        choices = " or ".join(map(repr, CHART_FORMATS))
        problems.append(f"format must be {choices}, got {cfg.format!r}")
    return problems
