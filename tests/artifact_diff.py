"""Compare the artifacts of two run directories, file by file.

    python tests/artifact_diff.py OLD_DIR NEW_DIR

Prints one line per file found in either directory. A file is
``byte-identical``, or, for JSON, JSONL and CSV files whose structure agrees,
the largest absolute and relative deviation over their numbers is given.
Files that hold ``selected`` node sets (explanation records) also say whether
every set is equal, and ``report.json`` whether every value is equal. Other
files that differ are only reported as differing.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _leaves(value, path=()):
    """(path, leaf) pairs of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _parse(path: Path):
    """The file as one JSON-like value, or None when it is not JSON, JSONL or
    CSV. CSV cells split on whitespace into numbers where they parse."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    if path.suffix == ".csv":
        return [[[_number(t) for t in cell.split()] for cell in row]
                for row in csv.reader(text.splitlines())]
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _deviation(old, new):
    """(max absolute, max relative) deviation over the numeric leaves, or
    None when the two values differ in structure or in a non-numeric leaf."""
    a, b = list(_leaves(old)), list(_leaves(new))
    if [p for p, _ in a] != [p for p, _ in b]:
        return None
    worst_abs = worst_rel = 0.0
    for (_, x), (_, y) in zip(a, b):
        if _is_number(x) and _is_number(y):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y)
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
        elif x != y:
            return None
    return worst_abs, worst_rel


def _selected_sets(value) -> list:
    found = []
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "selected" and isinstance(item, list):
                found.append(frozenset(item))
            else:
                found.extend(_selected_sets(item))
    elif isinstance(value, list):
        for item in value:
            found.extend(_selected_sets(item))
    return found


def compare_file(name: str, old: Path, new: Path) -> str:
    """One report line for the file ``name`` of the two directories."""
    if not old.exists():
        return f"{name}: only in NEW"
    if not new.exists():
        return f"{name}: only in OLD"
    if old.read_bytes() == new.read_bytes():
        return f"{name}: byte-identical"
    try:
        a, b = _parse(old), _parse(new)
    except (UnicodeDecodeError, ValueError):
        a = b = None
    if a is None or b is None:
        return f"{name}: differs"
    deviation = _deviation(a, b)
    parts = ["structure differs" if deviation is None
             else f"max abs deviation {deviation[0]:.3g}, max rel deviation {deviation[1]:.3g}"]
    sets_a, sets_b = _selected_sets(a), _selected_sets(b)
    if sets_a or sets_b:
        equal = len(sets_a) == len(sets_b) and all(x == y for x, y in zip(sets_a, sets_b))
        parts.append(f"selected sets {'all equal' if equal else 'DIFFER'} "
                     f"({len(sets_a)} old, {len(sets_b)} new)")
    if Path(name).name == "report.json":
        parts.append(f"report values {'all equal' if a == b else 'DIFFER'}")
    return f"{name}: " + "; ".join(parts)


def compare_dirs(old_dir: Path, new_dir: Path) -> list[str]:
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old_dir, new_dir) for p in root.rglob("*") if p.is_file()})
    return [compare_file(name, old_dir / name, new_dir / name) for name in names]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for line in compare_dirs(Path(args[0]), Path(args[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
