#!/usr/bin/env python3
"""Docs lint: intra-repo markdown links and documented CLI flags.

Checks, over README.md, DESIGN.md, ROADMAP.md, and docs/*.md:

1. Every relative markdown link `[text](path)` resolves to a file or
   directory in the repo (anchors and external http/mailto links are
   skipped).
2. Every `--flag` a doc mentions exists in some tools/*.cc — i.e. is
   parsed via Flags::Get{Int,Double,Bool,String}("flag", ...) — so the
   operator docs can't drift from the binaries. Flags that belong to
   other ecosystems (ctest, cmake, git) live in ALLOWED_FOREIGN_FLAGS.
3. Every `dynaprox_*` metric name a doc mentions appears in the sources
   (src/ or tools/). Names built at runtime from a prefix (e.g.
   `dynaprox_<component>_ingress_...`) are matched by progressively
   stripping leading segments until the literal tail is found. Mentions
   ending in `_` (prefix families like `dynaprox_edge_*`) are skipped.
4. The other direction: every `"dynaprox_..."` string literal in src/ or
   tools/ (a metric name some tier registers) is documented in
   docs/observability.md, whose metric tables are the schema of both
   `/_dynaprox/metrics` and `/_dynaprox/status`. Prefixes (literals
   ending in `_`) and the tool binary names are skipped.

Run from anywhere: paths are resolved relative to the repo root (the
parent of this script's directory). Exits non-zero listing every
violation; wired into CTest as `docs_link_check`.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [
        *(REPO_ROOT / "docs").glob("*.md"),
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        REPO_ROOT / "ROADMAP.md",
    ]
)

# Flags that docs legitimately mention but that are not dynaprox tool
# flags (build/test tooling examples in README etc.).
ALLOWED_FOREIGN_FLAGS = {
    "output-on-failure",  # ctest
    "test-dir",           # ctest
    "build",              # cmake --build
    "target",             # cmake --target
    "parallel",           # cmake --parallel
}

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--([a-z][a-z0-9-]*)")
# Flags::GetInt("name", ...) / GetDouble / GetBool / GetString.
FLAG_DEF_RE = re.compile(r'Get(?:Int|Double|Bool|String)\("([a-z0-9-]+)"')
METRIC_RE = re.compile(r"\bdynaprox_[a-z0-9_]+")
METRIC_LITERAL_RE = re.compile(r'"(dynaprox_[a-z0-9_]+)"')
METRICS_DOC = REPO_ROOT / "docs" / "observability.md"
CODE_FENCE_RE = re.compile(r"^(```|~~~)")

# The three shipped binaries share the metric name prefix; they are not
# metrics.
TOOL_BINARY_NAMES = {"dynaprox_origin", "dynaprox_proxy",
                     "dynaprox_loadgen"}


def known_tool_flags() -> set:
    flags = set()
    for source in (REPO_ROOT / "tools").glob("*.cc"):
        flags.update(FLAG_DEF_RE.findall(source.read_text()))
    return flags


def source_corpus() -> str:
    """All C++ source text that can register a metric name."""
    chunks = []
    for directory in ("src", "tools"):
        for pattern in ("**/*.cc", "**/*.h"):
            for source in sorted((REPO_ROOT / directory).glob(pattern)):
                chunks.append(source.read_text())
    return "\n".join(chunks)


def undocumented_metrics(corpus: str) -> list:
    """Metric-name literals in the sources that observability.md lacks."""
    documented = set(METRIC_RE.findall(METRICS_DOC.read_text()))
    registered = set(METRIC_LITERAL_RE.findall(corpus))
    return sorted(name for name in registered - documented
                  if not name.endswith("_")
                  and name not in TOOL_BINARY_NAMES)


def metric_in_sources(name: str, corpus: str) -> bool:
    # Histogram exposition series (_bucket/_sum/_count) are synthesized
    # from the base name at scrape time.
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    if name in corpus:
        return True
    # Runtime-prefixed names: strip up to three leading segments past
    # "dynaprox" and look for the remaining literal tail (long enough to
    # not match by accident).
    parts = name.split("_")
    for strip in range(2, 5):
        tail = "_".join(parts[strip:])
        if len(tail) >= 8 and tail in corpus:
            return True
    return False


def check_file(doc: Path, tool_flags: set, corpus: str) -> list:
    errors = []
    text = doc.read_text()

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            errors.append(f"{doc.relative_to(REPO_ROOT)}: broken link "
                          f"'{target}' -> {resolved}")

    for flag in sorted(set(FLAG_RE.findall(text))):
        if flag in tool_flags or flag in ALLOWED_FOREIGN_FLAGS:
            continue
        errors.append(f"{doc.relative_to(REPO_ROOT)}: documented flag "
                      f"'--{flag}' is parsed by no tools/*.cc")

    for name in sorted(set(METRIC_RE.findall(text))):
        if name.endswith("_") or name in TOOL_BINARY_NAMES:
            continue
        if not metric_in_sources(name, corpus):
            errors.append(f"{doc.relative_to(REPO_ROOT)}: documented "
                          f"metric '{name}' appears nowhere in "
                          f"src/ or tools/")
    return errors


def main() -> int:
    tool_flags = known_tool_flags()
    if not tool_flags:
        print("check_docs_links: found no flags in tools/*.cc "
              "(wrong repo root?)", file=sys.stderr)
        return 2

    corpus = source_corpus()
    errors = []
    checked = 0
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"expected doc missing: "
                          f"{doc.relative_to(REPO_ROOT)}")
            continue
        checked += 1
        errors.extend(check_file(doc, tool_flags, corpus))
    for name in undocumented_metrics(corpus):
        errors.append(f"metric '{name}' is registered in src/ or tools/ "
                      f"but not documented in "
                      f"{METRICS_DOC.relative_to(REPO_ROOT)}")

    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"check_docs_links: {len(errors)} problem(s) in {checked} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"check_docs_links: {checked} files OK "
          f"({len(tool_flags)} tool flags known)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
