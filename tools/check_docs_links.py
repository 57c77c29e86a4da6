#!/usr/bin/env python3
"""Link-check and lightweight lint for the repo's markdown tree.

Run from anywhere: paths are resolved relative to the repo root (the
parent of this script's directory). Checks every tracked-looking *.md at
the repo root and under docs/:

  * every relative markdown link/image target exists (anchors stripped);
  * no link target is an absolute filesystem path;
  * no empty link targets `[text]()`;
  * fenced code blocks are balanced (an odd number of ``` fences usually
    means a swallowed section);
  * the "HLP_*" string literals in the program sources (src/, tools/,
    examples/, bench/) are exactly the variables of the docs/env-vars.md
    table, so a deleted knob leaves no stale row and a new one cannot go
    undocumented;
  * every markdown file a program source or test (src/, tools/,
    examples/, bench/, tests/) cites by name exists at the repo root or
    under docs/, so a comment cannot point at a deleted or never-written
    document.

Exits non-zero with one line per problem, so CI fails loudly.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]*)\)")
SCHEMES = ("http://", "https://", "mailto:", "ftp://")
ENV_LITERAL_RE = re.compile(r'"(HLP_[A-Z0-9_]+)"')
ENV_ROW_RE = re.compile(r"^\| `(HLP_[A-Z0-9_]+)` \|", re.MULTILINE)
SOURCE_DIRS = ("src", "tools", "examples", "bench")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".py")
MD_CITE_RE = re.compile(r"[A-Za-z0-9_./-]+\.md\b")
CITING_DIRS = SOURCE_DIRS + ("tests",)


def md_files():
    yield from sorted(REPO.glob("*.md"))
    yield from sorted((REPO / "docs").glob("*.md"))


def check_file(path: Path):
    problems = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)

    if text.count("```") % 2 != 0:
        problems.append(f"{rel}: unbalanced ``` code fences")

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        line = text.count("\n", 0, m.start()) + 1
        if target.startswith(SCHEMES) or target.startswith("#"):
            continue
        if not target:
            problems.append(f"{rel}:{line}: empty link target")
            continue
        if target.startswith("/"):
            problems.append(
                f"{rel}:{line}: absolute path link '{target}' (use a "
                "repo-relative path)")
            continue
        plain = target.split("#", 1)[0]
        if not plain:
            continue
        if not (path.parent / plain).exists():
            problems.append(f"{rel}:{line}: broken link '{target}'")
    return problems


def check_env_table():
    used = set()
    for d in SOURCE_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                used.update(ENV_LITERAL_RE.findall(
                    path.read_text(encoding="utf-8")))
    table = REPO / "docs" / "env-vars.md"
    documented = set(ENV_ROW_RE.findall(table.read_text(encoding="utf-8")))
    rel = table.relative_to(REPO)
    problems = [f"{rel}: no table row for {v}, which the sources read"
                for v in sorted(used - documented)]
    problems += [f"{rel}: table row for {v}, which no source reads"
                 for v in sorted(documented - used)]
    return problems


def check_md_citations():
    problems = []
    for d in CITING_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8")
            for m in MD_CITE_RE.finditer(text):
                cited = m.group(0)
                if (REPO / cited).is_file() or (REPO / "docs" / cited).is_file():
                    continue
                line = text.count("\n", 0, m.start()) + 1
                problems.append(
                    f"{path.relative_to(REPO)}:{line}: cites '{cited}', which "
                    "is neither at the repo root nor under docs/")
    return problems


def main():
    files = list(md_files())
    if not files:
        print("check_docs_links: no markdown files found", file=sys.stderr)
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path))
    problems.extend(check_env_table())
    problems.extend(check_md_citations())
    for p in problems:
        print(p, file=sys.stderr)
    print(f"check_docs_links: {len(files)} files, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
