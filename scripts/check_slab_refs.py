#!/usr/bin/env python3
"""Slab-reference lint for the DD kernel (src/dd).

The DD node store (NodeSlab) keeps nodes in flat SoA vectors; the accessors
`children(slot)` / `weights(slot)` hand out references *into* those vectors,
and the next allocating call (`lookup`, and everything that reaches it:
makeMatrixNode, add, multiply, the gate builders, ...) may reallocate the
backing storage and leave such a reference dangling. The same applies to the
`const Slot*` that RealTable::find returns, which `insert`/`grow` invalidate.
The safe idiom is a stack copy (`const auto xc = slab.children(...)`);
reference walks are fine only in provably non-allocating code (ref counting,
sweeps, trace/inner-product recursions, audits).

This checker enforces that contract: it flags every reference or pointer
binding to slab/real-table storage whose enclosing scope performs a
potentially-allocating call after the binding.

The scan is lexical and needs nothing but the sources: it understands
brace scoping, comments and strings, which is enough to be exact on this
codebase's idiom (`--self-test` proves it sharp).

Usage:
  scripts/check_slab_refs.py                 # lint src/dd
  scripts/check_slab_refs.py src/dd/package.cpp
  scripts/check_slab_refs.py --self-test     # mutation sharpness check

--self-test first asserts the current tree is clean, then re-introduces a
set of historical reference-holding hazards (the exact bug class PR 6's
slab rewrite had to chase) into an in-memory copy of package.cpp and
asserts the lint flags every one of them. A checker that cannot
re-find the bugs it was built for is worse than no checker; this keeps it
honest in CI and in `ctest -R slab_ref_lint`.

Exit codes: 0 clean, 1 findings / failed self-test, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --- shared hazard model -----------------------------------------------------

# Calls that may reallocate slab storage. Direct table operations plus every
# Package helper that can transitively reach NodeSlab::lookup. Names, not
# overloads: lexical matching must stay conservative on the invalidating
# side to be sharp.
SLAB_ALLOCATING = {
    "allocateSlot",
    "rebuildBuckets",
    "garbageCollect",
    "makeIdent",
    "makeMatrixNode",
    "makeVectorNode",
    "makeGateDD",
    "makeSwapDD",
    "makeOperationDD",
    "makeZeroState",
    "makeBasisState",
    "multiply",
    "multiplyMatrixNodes",
    "multiplyVectorNodes",
    "add",
    "conjugateTranspose",
    "cachedGateDD",
    "buildGateDD",
    "buildSwapDD",
}
# `lookup` only allocates on slab-like receivers (compute-table lookup is a
# read); the receiver check keeps trace/inner-product caches out of scope.
SLAB_RECEIVER = re.compile(r"(?:\bslab\w*|Slabs?_\s*\[[^\[\]]*\])\s*\.\s*$")
# RealTable::find pointers die on insert/grow/lookup (lookup may insert).
TABLE_ALLOCATING = {"insert", "grow", "lookup", "lookupSlow"}


@dataclass
class Finding:
    path: str
    line: int
    name: str
    kind: str  # "slab-ref" | "table-ptr"
    call: str
    call_line: int

    def render(self) -> str:
        what = (
            "reference into slab storage"
            if self.kind == "slab-ref"
            else "pointer into real-table storage"
        )
        return (
            f"{self.path}:{self.line}: {what} '{self.name}' is held across "
            f"potentially-allocating call '{self.call}' (line {self.call_line}); "
            f"copy to the stack before the call instead"
        )


# --- scanner -----------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and literals, preserving length and newlines."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


# A declaration that binds a reference to children()/weights() storage:
#   const auto& xc = slab.children(slotOfIndex(x));
#   const NodeSlab<mEdge>::Children& c = slab.children(slot);
#   const auto& cw = mSlabs_[v].weights(slot)[i];
REF_BINDING = re.compile(
    r"(?:const\s+)?(?:auto|[\w:]+(?:<[^;<>]*>)?(?:::\w+)*)\s*&\s*(\w+)\s*="
    r"[^;]*?\.\s*(?:children|weights)\s*\(",
)
# A pointer binding into RealTable storage: const Slot* s = find(k);
PTR_BINDING = re.compile(
    r"(?:const\s+)?(?:auto|[\w:]+(?:::\w+)*)\s*\*\s*(\w+)\s*="
    r"[^;]*?\bfind\s*\(",
)
CALL = re.compile(r"(\w+)\s*\(")


def brace_depths(text: str) -> list[int]:
    """Depth of each character position (depth after processing the char)."""
    depths = []
    d = 0
    for c in text:
        if c == "{":
            d += 1
        elif c == "}":
            d -= 1
        depths.append(d)
    return depths


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def scope_end(text: str, depths: list[int], pos: int, depth: int) -> int:
    """Index where the block enclosing `pos` (at `depth`) closes."""
    for i in range(pos, len(text)):
        if depths[i] < depth:
            return i
    return len(text)


def allocating_calls(segment: str, kind: str) -> list[tuple[str, int]]:
    """(name, offset) of potentially-allocating calls in `segment`."""
    hits = []
    names = SLAB_ALLOCATING if kind == "slab-ref" else TABLE_ALLOCATING
    for m in CALL.finditer(segment):
        name = m.group(1)
        if name in names:
            hits.append((name, m.start()))
        elif kind == "slab-ref" and name == "lookup":
            if SLAB_RECEIVER.search(segment, 0, m.start()):
                hits.append((name, m.start()))
    return hits


def scan_source(text: str, path: str) -> list[Finding]:
    cleaned = strip_comments_and_strings(text)
    depths = brace_depths(cleaned)
    findings = []
    for kind, pattern in (("slab-ref", REF_BINDING), ("table-ptr", PTR_BINDING)):
        for m in pattern.finditer(cleaned):
            # Depth at the declaration start = scope the binding lives in.
            decl_depth = depths[m.start()]
            if decl_depth <= 0:
                continue  # namespace scope: not a local binding
            end = scope_end(cleaned, depths, m.end(), decl_depth)
            segment = cleaned[m.end() : end]
            for call, offset in allocating_calls(segment, kind):
                findings.append(
                    Finding(
                        path=path,
                        line=line_of(cleaned, m.start()),
                        name=m.group(1),
                        kind=kind,
                        call=call,
                        call_line=line_of(cleaned, m.end() + offset),
                    )
                )
                break  # one finding per binding is enough
    return findings


def scan_paths(paths: list[str]) -> list[Finding]:
    findings = []
    for path in sorted(collect_sources(paths)):
        with open(path, encoding="utf-8") as f:
            findings.extend(scan_source(f.read(), path))
    return findings


def collect_sources(paths: list[str]) -> list[str]:
    out = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, _dirs, files in os.walk(path):
            for name in files:
                if name.endswith((".cpp", ".hpp", ".cc", ".h")):
                    out.append(os.path.join(root, name))
    return out


# --- self-test ---------------------------------------------------------------

# Historical hazard shapes: each mutation rewrites one *safe stack copy* in
# package.cpp back into a reference binding, reintroducing the PR-6 bug class
# (reference into SoA storage held across an allocating recursion). The lint
# must flag every single one.
MUTATIONS = [
    (
        "multiplyMatrixNodes holds children refs across the allocating "
        "recursion",
        re.compile(
            r"const auto (xc) = (slab\.children\(slotOfIndex\(x\)\));"
        ),
        r"const auto& \1 = \2;",
    ),
    (
        "multiplyMatrixNodes holds weight refs across the allocating "
        "recursion",
        re.compile(
            r"const auto (yw) = (slab\.weights\(slotOfIndex\(y\)\));"
        ),
        r"const auto& \1 = \2;",
    ),
    (
        "multiplyVectorNodes holds matrix children refs across the "
        "allocating recursion",
        re.compile(
            r"const auto (mc) = "
            r"(mSlabs_\[static_cast<std::size_t>\(var\)\]"
            r"\.children\(slotOfIndex\(m\)\));"
        ),
        r"const auto& \1 = \2;",
    ),
    (
        "multiplyVectorNodes holds vector weight refs across the "
        "allocating recursion",
        re.compile(
            r"const auto (vw) = "
            r"(vSlabs_\[static_cast<std::size_t>\(var\)\]"
            r"\.weights\(slotOfIndex\(v\)\));"
        ),
        r"const auto& \1 = \2;",
    ),
    (
        "RealTable holds a find() pointer across the inserting miss path",
        re.compile(
            r"for \(const auto k : \{key, key - 1, key \+ 1\}\) \{\n"
            r"\s*const Slot\* slot = find\(k\);\n"
            r"\s*if \(slot != nullptr[^\n]*\n"
            r"\s*return slot->value;\n"
            r"\s*\}\n"
            r"\s*\}\n"
            r"\s*insert\(key, value\);"
        ),
        "const Slot* slot = find(key);\n"
        "  insert(key, value);\n"
        "  if (slot != nullptr && std::abs(slot->value - value) < "
        "tolerance_) {\n"
        "    return slot->value;\n"
        "  }",
    ),
]


def self_test(repo_root: str) -> int:
    package_cpp = os.path.join(repo_root, "src", "dd", "package.cpp")
    real_table_cpp = os.path.join(repo_root, "src", "dd", "real_table.cpp")
    dd_dir = os.path.join(repo_root, "src", "dd")

    clean = scan_paths([dd_dir])
    if clean:
        print("self-test FAILED: the current tree should be clean, but:")
        for finding in clean:
            print("  " + finding.render())
        return 1
    print(f"self-test: clean tree passes ({len(collect_sources([dd_dir]))} "
          f"files, 0 findings)")

    sources = {
        package_cpp: open(package_cpp, encoding="utf-8").read(),
        real_table_cpp: open(real_table_cpp, encoding="utf-8").read(),
    }
    failures = 0
    caught = 0
    for description, pattern, replacement in MUTATIONS:
        hit_any = False
        for path, text in sources.items():
            mutated, count = pattern.subn(replacement, text)
            if count == 0:
                continue
            hit_any = True
            findings = scan_source(mutated, path)
            if findings:
                caught += 1
                print(f"self-test: CAUGHT  [{description}]")
                print("    " + findings[0].render())
            else:
                failures += 1
                print(f"self-test: MISSED  [{description}] — mutation applied "
                      f"({count} site(s)) but no finding raised")
            break
        if not hit_any:
            failures += 1
            print(f"self-test: STALE   [{description}] — mutation pattern no "
                  f"longer matches any source; update MUTATIONS")
    print(f"self-test: {caught}/{len(MUTATIONS)} mutations caught, "
          f"{failures} failure(s)")
    return 1 if failures else 0


# --- entry point -------------------------------------------------------------


def main() -> int:
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Lint src/dd for references into reallocatable slab "
        "storage held across allocating calls."
    )
    parser.add_argument("paths", nargs="*",
                        default=[os.path.join(repo_root, "src", "dd")])
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker still catches reintroduced "
                             "historical hazards")
    args = parser.parse_args()

    if args.self_test:
        return self_test(repo_root)

    findings = scan_paths(args.paths)
    if findings:
        for finding in findings:
            print(finding.render())
        print(f"check_slab_refs: {len(findings)} finding(s)")
        return 1
    print("check_slab_refs: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
