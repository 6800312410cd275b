#!/usr/bin/env python3
"""Narrow every `pub fn` in crates/*/src that nothing outside its crate calls.

Usage, from the repository root on a clean tree:

    python3 tools/narrow_pub.py && git diff --stat

The pass marks each `pub fn` / `pub const fn` in crates/*/src outside
`#[cfg(test)]` items as `pub(crate)`, then builds, with `--keep-going`:

  * the workspace, all targets (every crate, its tests/, the root
    package's tests/ and examples/, the `figures` / `verify` bins);
  * benchmark/, all targets (it has its own workspace);
  * clippy over the workspace, for `len_without_is_empty`: a public
    `len` keeps a public `is_empty` beside it.

Each privacy error (E0603, E0624) names the definition it hit; exactly that
definition gets `pub` back, and the builds repeat until they pass. A
narrowed function that a `pub use` re-exports (E0364) is restored too and
listed, so the re-export can be judged by hand. Rustdoc links from public
docs to narrowed items are not touched; `cargo doc` under `-D warnings`
names them.

On a tree where the pass has already run, nothing is narrowed: the final
`git diff` is the one the tree started with. Needs python3 and cargo only.
"""
import json
import os
import re
import subprocess
import sys
from collections import defaultdict

PUB_FN = re.compile(r"^(\s*)pub (const )?fn ")
CRATE_FN = re.compile(r"^(\s*)pub\(crate\) (const )?fn ")


def skip_trivia(s, i):
    """Skip whitespace and comments from offset `i`."""
    n = len(s)
    while i < n:
        if s[i].isspace():
            i += 1
        elif s.startswith("//", i):
            i = s.find("\n", i)
            i = n if i < 0 else i
        elif s.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if s.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif s.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
        else:
            break
    return i


def item_end(s, i):
    """Offset just past the item starting at `i` (`;`-terminated or braced),
    skipping comments, strings and char literals."""
    n = len(s)
    depth = 0
    while i < n:
        c = s[i]
        if s.startswith("//", i) or s.startswith("/*", i):
            i = skip_trivia(s, i)
            continue
        raw = re.match(r'r(#*)"', s[i:i + 10]) if c == "r" else None
        if raw:
            close = '"' + raw.group(1)
            i = s.find(close, i + len(raw.group(0))) + len(close)
            continue
        if c == '"':
            i += 1
            while s[i] != '"':
                i += 2 if s[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            if s[i + 1] == "\\":
                i = s.find("'", i + 2) + 1
            elif i + 2 < n and s[i + 2] == "'":
                i += 3
            else:
                i += 1  # a lifetime
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";" and depth == 0:
            return i + 1
        i += 1
    return n


def attr_end(s, i):
    depth = 0
    while True:
        if s[i] == "[":
            depth += 1
        elif s[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1


def test_ranges(s):
    """1-based inclusive line ranges of the items under `#[cfg(test)]`."""
    out = []
    for m in re.finditer(r"#\[cfg\(test\)\]", s):
        i = skip_trivia(s, m.end())
        while s.startswith("#[", i):
            i = skip_trivia(s, attr_end(s, i))
        end = item_end(s, i)
        out.append((s.count("\n", 0, m.start()) + 1, s.count("\n", 0, end) + 1))
    return out


def source_files():
    for crate in sorted(os.listdir("crates")):
        for dirpath, _, files in sorted(os.walk(os.path.join("crates", crate, "src"))):
            for f in sorted(files):
                if f.endswith(".rs"):
                    yield crate, os.path.join(dirpath, f)


def rewrite_line(path, ln, pattern, vis):
    lines = open(path).read().split("\n")
    lines[ln - 1] = pattern.sub(lambda m: f"{m.group(1)}{vis} {m.group(2) or ''}fn ", lines[ln - 1], 1)
    open(path, "w").write("\n".join(lines))


def narrow_all():
    """Mark every candidate `pub(crate)`; returns {abs path: {line: crate}}."""
    narrowed = defaultdict(dict)
    for crate, path in source_files():
        text = open(path).read()
        tests = test_ranges(text)
        for idx, line in enumerate(text.split("\n")):
            ln = idx + 1
            if PUB_FN.match(line) and not any(a <= ln <= b for a, b in tests):
                rewrite_line(path, ln, PUB_FN, "pub(crate)")
                narrowed[os.path.abspath(path)][ln] = crate
    return narrowed


def diagnostics(cmd):
    p = subprocess.run(cmd + ["--offline", "--keep-going", "--message-format=json"],
                       capture_output=True, text=True, env=dict(os.environ, RUSTFLAGS=""))
    msgs = []
    for line in p.stdout.splitlines():
        try:
            m = json.loads(line)
        except ValueError:
            continue
        if m.get("reason") == "compiler-message":
            msgs.append(m["message"])
    return p.returncode == 0, msgs


def spans(msg):
    yield from msg.get("spans", [])
    for c in msg.get("children", []):
        yield from spans(c)


def main():
    narrowed = narrow_all()
    marked = sum(len(v) for v in narrowed.values())
    reexported = set()
    builds = [
        ["cargo", "build", "--workspace", "--all-targets"],
        ["cargo", "build", "--all-targets", "--manifest-path", "benchmark/Cargo.toml"],
        ["cargo", "clippy", "--workspace", "--all-targets"],
    ]
    for _ in range(50):
        ok, restored = True, 0
        for cmd in builds:
            built, msgs = diagnostics(cmd)
            ok &= built
            for msg in msgs:
                code = (msg.get("code") or {}).get("code")
                if msg["level"] != "error" and code != "clippy::len_without_is_empty":
                    continue
                if code == "clippy::len_without_is_empty":
                    ok = False
                hit = False
                for sp in spans(msg):
                    path = os.path.abspath(sp["file_name"])
                    for ln in [ln for ln in narrowed.get(path, {}) if sp["line_start"] <= ln <= sp["line_end"]]:
                        rewrite_line(path, ln, CRATE_FN, "pub")
                        del narrowed[path][ln]
                        restored += 1
                        hit = True
                if code in ("E0364", "E0365") and not hit:
                    name = re.search(r"`([^`]+)`", msg["message"]).group(1)
                    crate = msg["spans"][0]["file_name"].split("/")[1]
                    for path, lines in narrowed.items():
                        text = open(path).read().split("\n")
                        for ln in [ln for ln, c in lines.items() if c == crate
                                   and re.search(rf"fn {re.escape(name)}\b", text[ln - 1])]:
                            rewrite_line(path, ln, CRATE_FN, "pub")
                            del lines[ln]
                            restored += 1
                            reexported.add(f"{crate}::{name}")
        if ok:
            break
        if restored == 0:
            sys.exit("narrow_pub: the build fails with nothing left to restore")
    per_crate = defaultdict(int)
    for lines in narrowed.values():
        for crate in lines.values():
            per_crate[crate] += 1
    print(f"marked {marked}, narrowed {sum(per_crate.values())}: {dict(sorted(per_crate.items()))}")
    if reexported:
        print("kept pub for a `pub use` re-export:", ", ".join(sorted(reexported)))


if __name__ == "__main__":
    main()
