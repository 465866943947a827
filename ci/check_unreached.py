#!/usr/bin/env python3
"""Fails when a library source file is linked into no example or bench binary.

For every member of BUILD_DIR/src/*/lib*.a it lists the functions the member
defines (`nm` symbol type T) and looks them up in the symbols the example and
bench executables define (BUILD_DIR/examples/*, BUILD_DIR/bench/*). A static
archive member is linked whole or not at all, so a member none of whose
functions appears in any binary is code no binary reaches: only tests (or
nothing) run it. The check lists every such member and exits 1, unless the
member is in ALLOWED below with the reason it stays.

Usage: check_unreached.py [BUILD_DIR]     (default: build-ci)

Needs a build of every example and bench (the default `cmake --build`
target). Stdlib only plus binutils' `nm`.
"""

import argparse
import os
import subprocess
import sys

# Library sources kept although no binary links them, with the reason.
ALLOWED = {
    "core/analysis.cpp":
        "closed-form DF reference the distance-filter tests compare against",
}


def nm_defined(path):
    """Yields (member, type, name) for each defined symbol in `path`.

    For an archive, member is the object's name; for an executable it is "".
    """
    out = subprocess.run(
        ["nm", "--defined-only", "-A", path],
        check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        # "lib.a:member.o:addr T name" or "binary:addr T name".
        location, _, rest = line.partition(" ")
        fields = rest.split(" ", 1)
        if len(fields) != 2:
            continue
        parts = location.split(":")
        member = parts[1] if len(parts) >= 3 else ""
        yield member, fields[0], fields[1]


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as handle:
        return handle.read(4) == b"\x7fELF"


def binaries(build_dir):
    found = []
    for sub in ("examples", "bench"):
        directory = os.path.join(build_dir, sub)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            if is_elf_executable(path):
                found.append(path)
    return found


def library_functions(build_dir):
    """Maps "subsystem/file.cpp" to the set of T symbols that member defines."""
    members = {}
    src = os.path.join(build_dir, "src")
    for subsystem in sorted(os.listdir(src)):
        directory = os.path.join(src, subsystem)
        if not os.path.isdir(directory):
            continue
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("lib") and name.endswith(".a")):
                continue
            for member, kind, symbol in nm_defined(os.path.join(directory, name)):
                source = f"{subsystem}/{member.removesuffix('.o')}"
                functions = members.setdefault(source, set())
                if kind == "T":
                    functions.add(symbol)
    return members


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir", nargs="?", default="build-ci")
    args = parser.parse_args()

    members = library_functions(args.build_dir)
    if not members:
        print(f"no lib*.a under {args.build_dir}/src — build first", file=sys.stderr)
        return 2
    executables = binaries(args.build_dir)
    if not executables:
        print(f"no example or bench binaries under {args.build_dir} — build first",
              file=sys.stderr)
        return 2

    linked = set()
    for path in executables:
        linked.update(symbol for _, _, symbol in nm_defined(path))

    unreached = []
    for source, functions in sorted(members.items()):
        if functions & linked:
            continue
        if source in ALLOWED:
            print(f"  {source}: unreached, allowed ({ALLOWED[source]})")
            continue
        unreached.append(source)

    print(f"{len(members)} library members checked against "
          f"{len(executables)} example and bench binaries")
    if unreached:
        print("\nno binary links any function from:", file=sys.stderr)
        for source in unreached:
            print(f"  {source}", file=sys.stderr)
        return 1
    print("every library member is linked by at least one binary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
