#!/usr/bin/env python3
"""Check the RCUA_* inventory between the docs and the code, both ways.

Every `RCUA_*` identifier named in README.md, TESTING.md or DESIGN.md (an
environment knob, a CMake option, a macro) must be referenced by the code
of at least one tracked file outside tests/: src/, bench/, examples/,
perfbench/, scripts/, .github/ or a CMake file. A name that only tests
still mention is a knob the library no longer reads, and documenting it
misleads.

The other way round, every environment knob the library reads must be
documented: each `"RCUA_..."` string literal in the code under src/ (the
name passed to env_u64, getenv and friends, wherever the call breaks its
line) must appear by name in at least one of the three docs. The script
prints how many knobs src/ reads.

Only code counts as a use: Markdown files are skipped, C++ files are read
with their `//` and `/* */` comments removed, and CMake, Python, shell and
YAML files with their `#` comments removed. A comment or a README that
still names a deleted option does not keep it alive.

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
# A whole string literal that is one RCUA_* name: an environment knob.
KNOB_LITERAL = re.compile(r'"(RCUA_[A-Z0-9_]*[A-Z0-9])"')
CPP_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
HASH_COMMENT_SUFFIXES = (".cmake", ".py", ".sh", ".yml", ".yaml")


def tracked_code_files(root):
    files = subprocess.run(
        ["git", "ls-files"], cwd=root, check=True, capture_output=True, text=True
    ).stdout.splitlines()
    for f in files:
        if f.endswith(".md"):
            continue
        is_cmake = f.endswith("CMakeLists.txt") or f.endswith(".cmake")
        if f.startswith(CODE_DIRS) or is_cmake:
            yield root / f


def strip_cpp_comments(text):
    """Removes // and /* */ comments, leaving string and char literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        digit_separator = c == "'" and i > 0 and text[i - 1].isalnum()
        if c in "\"'" and not digit_separator:
            # A literal, up to its unescaped closing quote on this line.
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        elif text.startswith("//", i):
            i = text.find("\n", i)
            if i < 0:
                break
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_hash_comments(text):
    """Removes `#` comments: a `#` outside quotes that starts the line or
    follows whitespace begins a comment running to the end of the line."""
    lines = []
    for line in text.splitlines():
        quote = None
        cut = len(line)
        for k, c in enumerate(line):
            if quote:
                if c == quote:
                    quote = None
            elif c in "\"'":
                quote = c
            elif c == "#" and (k == 0 or line[k - 1].isspace()):
                cut = k
                break
        lines.append(line[:cut])
    return "\n".join(lines)


def code_text(path):
    text = path.read_text(errors="ignore")
    name = path.name
    if name.endswith(CPP_SUFFIXES):
        return strip_cpp_comments(text)
    if name == "CMakeLists.txt" or name.endswith(HASH_COMMENT_SUFFIXES):
        return strip_hash_comments(text)
    return text


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
    knobs = set()
    for path in tracked_code_files(root):
        try:
            text = code_text(path)
        except (IsADirectoryError, FileNotFoundError):
            continue
        used.update(NAME.findall(text))
        if path.relative_to(root).parts[0] == "src":
            knobs.update(KNOB_LITERAL.findall(text))

    dead = []
    documented = set()
    for doc in DOCS:
        for lineno, line in enumerate(
            (root / doc).read_text().splitlines(), start=1
        ):
            for name in NAME.findall(line):
                documented.add(name)
                if name.endswith("_*"):
                    prefix = name[:-1]
                    ok = any(u.startswith(prefix) for u in used)
                else:
                    ok = name in used
                if not ok:
                    dead.append(f"{doc}:{lineno}: {name}")
    undocumented = sorted(knobs - documented)

    if dead:
        print("documented RCUA_* names that no code outside tests/ uses:")
        for d in dead:
            print("  " + d)
    if undocumented:
        print("RCUA_* knobs src/ reads that no doc of " + ", ".join(DOCS) +
              " names:")
        for k in undocumented:
            print("  " + k)
    if dead or undocumented:
        return 1
    print(f"check_doc_knobs: src/ reads {len(knobs)} RCUA_* knobs, all "
          "documented; every documented RCUA_* name is referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
