#!/usr/bin/env python3
"""Reachability lint: library functions that only the test binary keeps.

A function in src/ that no program calls is either dead or kept alive only
to be tested. This lint lists every such function and fails unless
tests/reach_allowlist.txt names it with a one-line reason.

It reads two build trees configured for link-time dead-code elimination,
at -O0 so that no call is inlined away:

  flags=(-DCMAKE_BUILD_TYPE=Debug
         "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
  cmake -B build-reach -S . "${flags[@]}" && cmake --build build-reach -j
  cmake -B build-reach-perfbench -S perfbench "${flags[@]}"
  cmake --build build-reach-perfbench -j
  python3 tests/reach_lint.py build-reach build-reach-perfbench

Collection (the nm runs):
  - candidates: every function vabi_tests defines at a src/ location
    (`nm -C -l --defined-only`), plus every function in the src/ libraries;
  - programs: every bench/ and examples/ executable of the first tree, and
    perfbench from the second. A function a program calls survives the
    program's --gc-sections link.

Checking (sets plus allowlist): each candidate is reduced to a key.
  - Template arguments collapse to `<>`, and a template (or a member of a
    class template) is keyed by its name alone, so every instantiation,
    test types such as TestBody() lambdas included, shares one key.
  - Other functions keep their parameter list, with namespace qualifiers
    dropped from the parameter types: overloads are told apart.
  - Lambdas and local classes fold into their enclosing function.
  - Constructors, destructors, operator= and instantiations of std::
    templates are skipped, as is everything outside namespace vabi.
A candidate whose key no program has is printed. The lint exits 1 if one of
them is not in the allowlist, or if an allowlist entry names no such
function (a stale entry), or if an entry has no reason.

The allowlist holds one `key  # reason` per line; `#` lines are comments.
tests/reach_lint_test.py runs the checking half on canned listings.
"""

import re
import subprocess
import sys
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = SOURCE_ROOT / "tests" / "reach_allowlist.txt"

# nm's symbol types for defined code: global, local and weak text.
TEXT_TYPES = {"T", "t", "W"}

# Operator names containing characters the template and parameter scans
# would otherwise read as brackets.
OPERATOR_RE = re.compile(
    r"operator(?:\(\)|\[\]|<=>|->\*?|<<=?|>>=?|<=|>=|<|>)")


# -- Collection --------------------------------------------------------------

def nm_functions(path, with_locations=False):
    """(demangled name, source location) of each function `path` defines."""
    cmd = ["nm", "-C", "--defined-only"]
    if with_locations:
        cmd.append("-l")
    out = subprocess.run(cmd + [str(path)], capture_output=True, text=True,
                         check=True).stdout
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) < 3 or fields[1] not in TEXT_TYPES:
            continue
        name, _, location = fields[2].partition("\t")
        yield name, location


def programs(build, perfbench_build):
    found = []
    for sub in ("bench", "examples"):
        for p in sorted((build / sub).iterdir()):
            if p.is_file() and p.stat().st_mode & 0o111:
                found.append(p)
    found.append(perfbench_build / "perfbench")
    return found


def collect(build, perfbench_build):
    """(candidate names, names some program keeps), both demangled."""
    build, perfbench_build = Path(build), Path(perfbench_build)
    src = f"{SOURCE_ROOT / 'src'}/"
    candidates = {name for name, loc in nm_functions(
        build / "tests" / "vabi_tests", with_locations=True)
        if loc.startswith(src)}
    for lib in sorted((build / "src").glob("*/*.a")):
        candidates.update(name for name, _ in nm_functions(lib))
    progs = programs(build, perfbench_build)
    kept = set()
    for prog in progs:
        kept.update(name for name, _ in nm_functions(prog))
    print(f"reach_lint: {len(candidates)} library functions, "
          f"{len(progs)} programs")
    return candidates, kept


# -- Checking ----------------------------------------------------------------

def collapse_templates(s):
    """Replaces every outermost template argument list by `<>`."""
    out = []
    depth = 0
    i = 0
    while i < len(s):
        m = OPERATOR_RE.match(s, i)
        if m and depth == 0:
            out.append(m.group())
            i = m.end()
            continue
        c = s[i]
        if c == "<":
            if depth == 0:
                out.append("<")
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
            if depth == 0:
                out.append(">")
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def matching_close(s, i):
    """Index of the bracket closing the one at s[i]."""
    depth = 0
    for j in range(i, len(s)):
        if s[j] in "({":
            depth += 1
        elif s[j] in ")}":
            depth -= 1
            if depth == 0:
                return j
    return len(s)


def split_signature(s):
    """(qualified name, rest from the parameter list on) of a collapsed
    signature, with any return type (or thunk prefix) dropped."""
    i = 0
    spaces = []
    while i < len(s):
        m = OPERATOR_RE.match(s, i)
        if m:
            i = m.end()
            continue
        c = s[i]
        if c == "{" or (c == "(" and s[:i].endswith("decltype ")):
            i = matching_close(s, i) + 1
            continue
        if c == "(":
            break
        if c == " " and not s[:i].endswith("operator"):
            spaces.append(i)
        i += 1
    start = spaces[-1] + 1 if spaces else 0
    return s[start:i], s[i:]


def key(raw):
    """The allowlist key of one demangled function, or None if skipped."""
    s = re.sub(r"\[abi:[^\]]*\]", "", raw)
    s = s.replace("(anonymous namespace)", "{anonymous}")
    name, rest = split_signature(collapse_templates(s))
    if not name.startswith("vabi::"):
        return None  # std::/__gnu_cxx:: instantiations, runtime helpers
    parts = name.split("::")
    last, owner = parts[-1], parts[-2].removesuffix("<>")
    if last.startswith("~") or last.removesuffix("<>") == owner:
        return None  # constructors and destructors
    if last == "operator=":
        return None
    # Fold lambdas and local classes into their enclosing function.
    local = rest.find("::", matching_close(rest, 0) + 1)
    signature = rest[:local] if local >= 0 else rest
    if "<>" in name:
        return name.replace("{anonymous}", "(anonymous namespace)")
    params = re.sub(r"(?:\b\w+|\{anonymous\})::", "", signature)
    return (name + params).replace("{anonymous}", "(anonymous namespace)")


def parse_allowlist(text):
    """{key: reason} of an allowlist, plus the lines that lack a reason."""
    entries = {}
    bad = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" #")
        if not sep or not reason.strip():
            bad.append(line)
            continue
        entries[name.strip()] = reason.strip()
    return entries, bad


def check(candidates, kept, allowlist_text):
    """(report lines, exit status) of the lint over demangled name sets."""
    kept_keys = {k for k in map(key, kept) if k is not None}
    unreached = sorted({k for k in map(key, candidates)
                        if k is not None and k not in kept_keys})
    allowed, bad = parse_allowlist(allowlist_text)
    lines = []
    failed = False
    for k in unreached:
        if k in allowed:
            lines.append(f"  allowed: {k}")
        else:
            lines.append(f" unlisted: {k}")
            failed = True
    for k in sorted(set(allowed) - set(unreached)):
        lines.append(f"    stale: {k}  (no program-unreached function by "
                     "that key; delete the entry)")
        failed = True
    for line in bad:
        lines.append(f"no reason: {line}")
        failed = True
    lines.append(f"reach_lint: {len(unreached)} functions no program keeps, "
                 f"{len(allowed)} allowlisted: "
                 + ("FAIL" if failed else "ok"))
    return lines, 1 if failed else 0


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BUILD_DIR PERFBENCH_BUILD_DIR")
    candidates, kept = collect(sys.argv[1], sys.argv[2])
    lines, status = check(candidates, kept, ALLOWLIST.read_text())
    print("\n".join(lines))
    sys.exit(status)


if __name__ == "__main__":
    main()
