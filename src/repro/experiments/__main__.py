"""``python -m repro.experiments [ID ...]`` — print experiment tables."""

from __future__ import annotations

import sys

from repro.experiments import ALL_EXPERIMENTS, format_table


def experiment_id(fn) -> str:
    """The id an experiment function's table carries, from its name:
    ``exp1_specialize`` -> ``EXP-1``, ``abl5_rewrite_cost`` -> ``ABL-5``."""
    prefix = fn.__name__.partition("_")[0]
    return f"{prefix[:3].upper()}-{prefix[3:]}"


def main(argv: list[str]) -> int:
    """Print the requested experiment tables (all when no ids given).
    Only the requested experiments run."""
    wanted = set(a.upper() for a in argv)
    failures = 0
    for fn in ALL_EXPERIMENTS:
        if wanted and experiment_id(fn) not in wanted:
            continue
        exp = fn()
        print(format_table(exp))
        if not exp.all_checks_hold:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) failed their shape checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
