#!/usr/bin/env python3
"""Documentation CI checks.

1. Intra-repo markdown links: every relative link (and #anchor) in a
   tracked .md file must resolve to an existing file (and, for anchors, to
   a heading in that file). External schemes (http/https/mailto) are not
   fetched.
2. Knob coverage: every quoted "AUTOMC_*" string appearing in src/,
   examples/, bench/, or scripts/ must be mentioned in
   docs/configuration.md — the authoritative knob table — so a new env
   variable cannot ship undocumented. (Macro identifiers and header-guard
   tokens are not quoted strings and are therefore out of scope.)
3. Metric coverage: every name passed to AUTOMC_METRIC_COUNT/GAUGE/OBSERVE
   or AUTOMC_SCOPED_TIMER in src/ must appear in backticks in
   docs/observability.md. The macros accept string literals only, so the
   scan sees every recorded name.

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
SKIP_DIRS = {".git", "build", "build-san", "third_party", ".claude"}


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


def check_knobs():
    config_doc = os.path.join(REPO, "docs", "configuration.md")
    if not os.path.exists(config_doc):
        return ["docs/configuration.md is missing"]
    with open(config_doc, encoding="utf-8") as f:
        documented = set(QUOTED_KNOB_RE.findall(f.read()))
        f.seek(0)
        documented |= set(re.findall(r"`(AUTOMC_[A-Z][A-Z0-9_]*)`", f.read()))

    errors = []
    for sub in ("src", "examples", "bench", "scripts"):
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
                for knob in sorted(hits - documented):
                    errors.append(
                        f"{os.path.relpath(path, REPO)}: {knob} not in "
                        "docs/configuration.md")
    return errors


def check_metrics():
    doc = os.path.join(REPO, "docs", "observability.md")
    if not os.path.exists(doc):
        return ["docs/observability.md is missing"]
    with open(doc, encoding="utf-8") as f:
        documented = set(re.findall(r"`([^`]+)`", f.read()))

    errors = []
    for root, dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in files:
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                recorded = set(METRIC_SITE_RE.findall(f.read()))
            for metric in sorted(recorded - documented):
                errors.append(
                    f"{os.path.relpath(path, REPO)}: metric {metric} not in "
                    "docs/observability.md")
    return errors


def main():
    errors = check_links() + check_knobs() + check_metrics()
    for e in errors:
        print(f"doc-check: {e}", file=sys.stderr)
    if errors:
        print(f"doc-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("doc-check: all markdown links, AUTOMC_* knobs and metric names "
          "check out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
