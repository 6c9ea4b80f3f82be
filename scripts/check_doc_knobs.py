#!/usr/bin/env python3
"""Fail when the docs name an RCUA_* identifier that no code uses.

Every `RCUA_*` identifier named in README.md, TESTING.md or DESIGN.md (an
environment knob, a CMake option, a macro) must be referenced by at least
one tracked file outside tests/: src/, bench/, examples/, perfbench/,
scripts/, .github/ or a CMake file. A name that only tests still mention
is a knob the library no longer reads, and documenting it misleads.

A wildcard mention such as `RCUA_SCHED_*` passes when any reference
starts with its prefix.

Usage: python3 scripts/check_doc_knobs.py   (from anywhere in the repo)
"""

import pathlib
import re
import subprocess
import sys

DOCS = ("README.md", "TESTING.md", "DESIGN.md")
CODE_DIRS = ("src/", "bench/", "examples/", "perfbench/", "scripts/", ".github/")
NAME = re.compile(r"RCUA_[A-Z0-9_]*[A-Z0-9](?:_\*)?")


def tracked_code_files(root):
    files = subprocess.run(
        ["git", "ls-files"], cwd=root, check=True, capture_output=True, text=True
    ).stdout.splitlines()
    for f in files:
        is_cmake = f.endswith("CMakeLists.txt") or f.endswith(".cmake")
        if f.startswith(CODE_DIRS) or is_cmake:
            yield root / f


def main():
    root = pathlib.Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    )
    used = set()
    for path in tracked_code_files(root):
        try:
            used.update(NAME.findall(path.read_text(errors="ignore")))
        except (IsADirectoryError, FileNotFoundError):
            continue

    dead = []
    for doc in DOCS:
        for lineno, line in enumerate(
            (root / doc).read_text().splitlines(), start=1
        ):
            for name in NAME.findall(line):
                if name.endswith("_*"):
                    prefix = name[:-1]
                    ok = any(u.startswith(prefix) for u in used)
                else:
                    ok = name in used
                if not ok:
                    dead.append(f"{doc}:{lineno}: {name}")

    if dead:
        print("documented RCUA_* names that nothing outside tests/ uses:")
        for d in dead:
            print("  " + d)
        return 1
    print("check_doc_knobs: every documented RCUA_* name is referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
