#!/usr/bin/env python3
"""Count non-test Rust source lines.

The count is the number of non-blank lines in the `.rs` files under
`crates/`, `src/` and `examples/`, leaving out every item annotated
`#[cfg(test)]` (its attribute line included). `tests/` is not counted.

    python3 scripts/nontest_loc.py [REPO_ROOT] [--by-file]

REPO_ROOT defaults to the current directory. `--by-file` also prints
each file's count.
"""

import os
import sys

DIRS = ("crates", "src", "examples")


def skip_item(lines, i):
    """Return the index just past the item that starts at line `i`.

    The sources are rustfmt-formatted, so an item that opens a block at
    indentation N closes it on the first later line that is N spaces and
    `}`. An item whose first line ends in `;` is one line long. Further
    attributes before the item belong to it.
    """
    while i < len(lines) and lines[i].strip().startswith("#["):
        i += 1
    if i >= len(lines):
        return i
    first = lines[i]
    if first.rstrip().endswith(";"):
        return i + 1
    close = " " * (len(first) - len(first.lstrip())) + "}"
    i += 1
    while i < len(lines) and lines[i].rstrip() != close:
        i += 1
    return i + 1


def count_file(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    total = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("#[cfg(test)]"):
            i = skip_item(lines, i + 1)
            continue
        if stripped:
            total += 1
        i += 1
    return total


def main(argv):
    by_file = "--by-file" in argv
    args = [a for a in argv if a != "--by-file"]
    root = args[0] if args else "."
    grand = 0
    rows = []
    for top in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    n = count_file(path)
                    grand += n
                    rows.append((os.path.relpath(path, root), n))
    if by_file:
        for path, n in rows:
            print(f"{n:7d} {path}")
    print(grand)


if __name__ == "__main__":
    main(sys.argv[1:])
