#!/usr/bin/env python3
"""Documentation CI checks.

1. Intra-repo markdown links: every relative link (and #anchor) in a
   tracked .md file must resolve to an existing file (and, for anchors, to
   a heading in that file). External schemes (http/https/mailto) are not
   fetched.
2. Knob coverage: every quoted "AUTOMC_*" string appearing in src/,
   examples/, bench/, scripts/ or tests/ must be mentioned in
   docs/configuration.md — the authoritative knob table — so a new env
   variable cannot ship undocumented, and every knob row of that table must
   name a knob something there still reads. (Macro identifiers and
   header-guard tokens are not quoted strings and are therefore out of
   scope.)
3. Metric coverage: every name passed to AUTOMC_METRIC_COUNT/GAUGE/OBSERVE
   or AUTOMC_SCOPED_TIMER in src/ must appear in backticks in
   docs/observability.md. The macros accept string literals only, so the
   scan sees every recorded name. In reverse, every backticked dotted name
   (such as `search.stops`; paths are not names) in that page's "What is
   instrumented" section must be recorded by a macro site in src/, so a
   metric cannot stay documented after its last site is gone.
4. Repo paths: every backticked path under bench/, scripts/, src/, tests/
   or examples/, and every root BENCH_*.json, named in a .md file must
   exist, as named or with a .cc, .h or .cpp suffix (docs name binaries
   such as bench/load_replay and stems such as src/common/metrics).
   At the repo root only README.md, DESIGN.md and EXPERIMENTS.md, which
   describe the tree, are checked; the other root .md files (changelog,
   roadmap, paper notes) record history or outside code and are skipped.

Exits non-zero with one line per violation.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
QUOTED_KNOB_RE = re.compile(r'"(AUTOMC_[A-Z][A-Z0-9_]*)"')
METRIC_SITE_RE = re.compile(
    r'AUTOMC_(?:METRIC_(?:COUNT|GAUGE|OBSERVE)|SCOPED_TIMER)\(\s*"([^"]+)"')
METRIC_NAME_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[A-Za-z0-9_]+)+")
# The metric list: from its heading to the next heading of any level.
INSTRUMENTED_RE = re.compile(r"^## What is instrumented\n(.*?)(?=^#|\Z)",
                             re.M | re.S)
SKIP_DIRS = {".git", "build", "build-san", "third_party", ".claude"}
KNOB_DIRS = ("src", "examples", "bench", "scripts", "tests")
# A knob table runs from its `| Variable |` header to the first blank line.
KNOB_TABLE_RE = re.compile(r"^\| Variable \|.*?(?:\n\n|\Z)", re.M | re.S)
KNOB_ROW_RE = re.compile(r"^\| `(AUTOMC_[A-Z][A-Z0-9_]*)`", re.M)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
REPO_PATH_RE = re.compile(
    r"(?<![\w./-])(?:\./)?((?:bench|scripts|src|tests|examples)/[\w./-]*\w"
    r"|BENCH_\w+\.json)")
TREE_ROOT_MD = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        for name in files:
            if name.endswith(".md"):
                yield os.path.join(root, name)


def github_slug(heading):
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md_path, cache={}):
    if md_path not in cache:
        with open(md_path, encoding="utf-8") as f:
            content = f.read()
        cache[md_path] = {github_slug(h) for h in HEADING_RE.findall(content)}
    return cache[md_path]


def check_links():
    errors = []
    for md in markdown_files():
        with open(md, encoding="utf-8") as f:
            content = f.read()
        # Fenced code blocks routinely contain [x](y)-shaped text; skip them.
        prose = re.sub(r"```.*?```", "", content, flags=re.DOTALL)
        rel_md = os.path.relpath(md, REPO)
        for target in LINK_RE.findall(prose):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path_part, _, anchor = target.partition("#")
            if not path_part:  # same-file #anchor
                dest = md
            else:
                dest = os.path.normpath(os.path.join(os.path.dirname(md),
                                                     path_part))
            if not os.path.exists(dest):
                errors.append(f"{rel_md}: dead link -> {target}")
                continue
            if anchor and dest.endswith(".md"):
                if anchor not in anchors_of(dest):
                    errors.append(f"{rel_md}: dead anchor -> {target}")
    return errors


def knobs_read():
    """Every AUTOMC_* knob the code reads -> the files that read it."""
    reads = {}
    for sub in KNOB_DIRS:
        for root, dirs, files in os.walk(os.path.join(REPO, sub)):
            dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
            for name in files:
                if not name.endswith((".cc", ".cpp", ".h", ".sh", ".py")):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    content = f.read()
                hits = set(QUOTED_KNOB_RE.findall(content))
                # Shell scripts reference knobs unquoted: ${AUTOMC_X:-...}.
                if name.endswith(".sh"):
                    hits |= set(
                        re.findall(r"\$\{(AUTOMC_[A-Z][A-Z0-9_]*)", content))
                for knob in hits:
                    reads.setdefault(knob, []).append(
                        os.path.relpath(path, REPO))
    return reads


def check_knobs():
    config_doc = os.path.join(REPO, "docs", "configuration.md")
    if not os.path.exists(config_doc):
        return ["docs/configuration.md is missing"]
    with open(config_doc, encoding="utf-8") as f:
        content = f.read()
    documented = set(QUOTED_KNOB_RE.findall(content))
    documented |= set(re.findall(r"`(AUTOMC_[A-Z][A-Z0-9_]*)`", content))

    errors = []
    reads = knobs_read()
    for knob in sorted(set(reads) - documented):
        for path in sorted(reads[knob]):
            errors.append(f"{path}: {knob} not in docs/configuration.md")
    for table in KNOB_TABLE_RE.findall(content):
        for knob in KNOB_ROW_RE.findall(table):
            if knob not in reads:
                errors.append(f"docs/configuration.md: row for {knob}, which "
                              f"nothing in {', '.join(KNOB_DIRS)} reads")
    return errors


def check_metrics():
    doc = os.path.join(REPO, "docs", "observability.md")
    if not os.path.exists(doc):
        return ["docs/observability.md is missing"]
    with open(doc, encoding="utf-8") as f:
        content = f.read()
    documented = set(re.findall(r"`([^`]+)`", content))
    section = INSTRUMENTED_RE.search(content)
    if section is None:
        return ['docs/observability.md: no "What is instrumented" section']
    listed = {span for span in CODE_SPAN_RE.findall(section.group(1))
              if METRIC_NAME_RE.fullmatch(span)}

    errors = []
    all_recorded = set()
    for root, dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in files:
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                recorded = set(METRIC_SITE_RE.findall(f.read()))
            all_recorded |= recorded
            for metric in sorted(recorded - documented):
                errors.append(
                    f"{os.path.relpath(path, REPO)}: metric {metric} not in "
                    "docs/observability.md")
    for metric in sorted(listed - all_recorded):
        errors.append(f"docs/observability.md: metric {metric}, which no "
                      "macro site in src/ records")
    return errors


def check_paths():
    errors = []
    for md in markdown_files():
        rel_md = os.path.relpath(md, REPO)
        if os.sep not in rel_md and rel_md not in TREE_ROOT_MD:
            continue
        with open(md, encoding="utf-8") as f:
            prose = re.sub(r"```.*?```", "", f.read(), flags=re.DOTALL)
        for span in CODE_SPAN_RE.findall(prose):
            for path in REPO_PATH_RE.findall(span):
                full = os.path.join(REPO, path)
                if not any(os.path.exists(full + ext)
                           for ext in ("", ".cc", ".h", ".cpp")):
                    errors.append(f"{rel_md}: stale path `{path}`")
    return errors


def main():
    errors = check_links() + check_knobs() + check_metrics() + check_paths()
    for e in errors:
        print(f"doc-check: {e}", file=sys.stderr)
    if errors:
        print(f"doc-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("doc-check: all markdown links, AUTOMC_* knobs, metric names and "
          "repo paths check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
