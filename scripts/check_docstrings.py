#!/usr/bin/env python
"""Docstring lint for the public API surface (CI ``docs`` job).

Walks every ``repro.*`` package, imports it, and requires a non-empty
docstring on the package itself and on every symbol its ``__init__``
exports (via ``__all__``, or every public attribute otherwise).  Plain
data constants (ints, floats, strings, tuples, dicts) cannot carry
docstrings in Python and are exempt; everything else — classes,
functions, dataclasses — must say what it is, and quantities must name
their units (ns, bytes, MB/s) in the text.

It also resolves every backticked entry point the module map of
``docs/ARCHITECTURE.md`` names against the row's package: the name must
be an attribute of the package or of one of its submodules (``Class.attr``
follows the attribute; ``python -m pkg.mod`` must be a findable module),
so a renamed class cannot leave a dead name in the map.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402

#: Types that cannot carry a docstring of their own; their meaning must be
#: documented by a ``#:`` comment at the definition site instead.
_DATA_TYPES = (int, float, complex, str, bytes, tuple, list, dict, set, frozenset)


def iter_packages():
    """Yield ``repro`` and every importable ``repro.*`` (sub)package."""
    yield repro
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.ispkg:
            yield importlib.import_module(info.name)


def exported_names(package) -> list:
    names = getattr(package, "__all__", None)
    if names is not None:
        return list(names)
    return [
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]


def docstring_problem(name: str, obj) -> str:
    """Return a complaint string for ``obj``'s docstring, or '' if fine."""
    if inspect.isclass(obj):
        # inspect.getdoc() walks the MRO, which lets an Enum subclass pass on
        # enum.Enum's boilerplate; require a docstring on the class itself
        own = vars(obj).get("__doc__") or ""
        if not own.strip():
            return "docstring missing (inherited docstrings do not count)"
        # @dataclass without a docstring synthesizes "Name(field: type, ...)"
        if own.startswith(obj.__name__ + "(") and own.endswith(")"):
            return "auto-generated dataclass signature is not a docstring"
        return ""
    if not (inspect.getdoc(obj) or "").strip():
        return "docstring missing"
    return ""


def entry_point_resolves(modules, entry: str) -> bool:
    """Whether module-map entry ``entry`` names something in ``modules``
    (a package and its submodules)."""
    if entry.startswith("python -m "):
        return importlib.util.find_spec(entry.split()[2]) is not None
    head, *attrs = entry.split(".")
    for module in modules:
        obj = getattr(module, head, None)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def module_map_failures() -> list:
    """Dead entry points in the ``docs/ARCHITECTURE.md`` module map."""
    failures = []
    for line in (ROOT / "docs" / "ARCHITECTURE.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) != 5 or not re.fullmatch(r"`repro(\.\w+)*`", cells[1]):
            continue  # not a "| `repro.pkg` | owns | entry points |" row
        package = importlib.import_module(cells[1].strip("`"))
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
            if not info.name.endswith("__main__")
        ]
        for entry in re.findall(r"`([^`]+)`", cells[3]):
            if not entry_point_resolves(modules, entry):
                failures.append(
                    f"docs/ARCHITECTURE.md: `{entry}` is not in {package.__name__}"
                )
    return failures


def main() -> int:
    failures = module_map_failures()
    for package in iter_packages():
        if not (package.__doc__ or "").strip():
            failures.append(f"{package.__name__}: package docstring missing")
        for name in exported_names(package):
            obj = getattr(package, name, None)
            if obj is None and not hasattr(package, name):
                failures.append(f"{package.__name__}.{name}: exported but undefined")
                continue
            if inspect.ismodule(obj) or isinstance(obj, _DATA_TYPES) or obj is None:
                continue
            problem = docstring_problem(name, obj)
            if problem:
                failures.append(f"{package.__name__}.{name}: {problem}")
    if failures:
        print(f"{len(failures)} undocumented or dead names:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("docstring lint: all public exports documented, module map resolves")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
