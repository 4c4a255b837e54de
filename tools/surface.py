"""Size of the codilated package: its ``src/`` lines and its public settable values.

    python tools/surface.py

A public settable value is a parameter of a public function or a field of a
public record (a ``NamedTuple``).  The public names are each module's
``__all__``, and, for ``checks`` and ``cli``, which have none, the functions
defined there whose names do not start with "_".  Constants, enums,
exceptions and classes that are not records (``LinearOperator``) add
nothing.  A value with a default is an option.  The script prints both counts
per module and in total, then the line count of every ``.py`` file under the
``src/`` tree next to this script, which is the tree it imports.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

MODULES = ("operators", "orthopoly", "solvers", "zeros", "experiments", "checks", "cli")


def public_names(module) -> list[str]:
    """The module's ``__all__``, else its own functions not named with a leading "_"."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def settable(obj) -> tuple[int, int]:
    """(values, values with a default) of one public name."""
    if inspect.isclass(obj) and hasattr(obj, "_fields"):
        return len(obj._fields), len(obj._field_defaults)
    if inspect.isfunction(obj):
        params = inspect.signature(obj).parameters.values()
        return len(params), sum(p.default is not p.empty for p in params)
    return 0, 0


def surface(name: str) -> tuple[int, int]:
    """(values, values with a default) of module ``codilated.<name>``."""
    module = importlib.import_module(f"codilated.{name}")
    counts = [settable(getattr(module, attr)) for attr in public_names(module)]
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))


def main() -> None:
    print(f"{'module':<12} {'values':>6} {'with default':>12}")
    total = [0, 0]
    for name in MODULES:
        values, options = surface(name)
        total[0] += values
        total[1] += options
        print(f"{name:<12} {values:>6} {options:>12}")
    print(f"{'total':<12} {total[0]:>6} {total[1]:>12}")
    print(f"src/ lines {src_lines()}")


if __name__ == "__main__":
    main()
