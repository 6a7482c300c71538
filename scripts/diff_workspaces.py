"""Compare two directory trees (workspaces, data directories) file by file.

    python scripts/diff_workspaces.py A B

Prints one line per file that differs in bytes or exists on one side only,
paths relative to the two roots, and exits 1 if there is any such file,
0 if the trees hold the same files with the same bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def diff(a: Path, b: Path) -> list[str]:
    in_a, in_b = files(a), files(b)
    lines = [f"only in {a}: {name}" for name in sorted(in_a - in_b)]
    lines += [f"only in {b}: {name}" for name in sorted(in_b - in_a)]
    lines += [f"differs: {name}" for name in sorted(in_a & in_b)
              if (a / name).read_bytes() != (b / name).read_bytes()]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            ap.error(f"not a directory: {root}")
    lines = diff(args.a, args.b)
    for line in lines:
        print(line)
    n_files = len(files(args.a) | files(args.b))
    print(f"{len(lines)} of {n_files} files differ", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
