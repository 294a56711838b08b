#!/usr/bin/env python
"""Documentation checks: internal links resolve, ``>>>`` snippets run.

Two passes over ``README.md`` and ``docs/*.md``, plus a doctest pass
over the package docstring (``src/repro/__init__.py``):

1. **Links** — every relative markdown link target (``[text](path)``)
   must exist on disk, and every intra-repo path mentioned in backticks
   that looks like a file (``src/...``, ``tests/...``, ``docs/...``,
   ``examples/...``, ``benchmarks/...``, ``scripts/...``) must exist,
   so renames cannot silently strand the prose.
2. **Doctests** — ``python -m doctest`` semantics over each file: any
   ``>>>`` examples embedded in the markdown, or in the docstrings of
   :data:`DOCTEST_MODULES`, are executed and their outputs compared.

Exit code 0 on success; prints every failure otherwise.  Run directly
(``python scripts/check_docs.py``) or through the fast test tier
(``tests/unit/test_docs.py``) — CI wires both.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown link: [text](target), excluding http(s)/mailto and anchors.
_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

#: Backticked intra-repo file mentions, e.g. `src/repro/walks/batched.py`.
_CODE_PATH = re.compile(
    r"`((?:src|tests|docs|examples|benchmarks|scripts)/[A-Za-z0-9_./-]+"
    r"\.(?:py|md|json|sh|yml))`"
)

#: Modules whose docstring ``>>>`` examples are doctested too.
DOCTEST_MODULES = ("repro",)


def doc_files() -> List[Path]:
    """README plus every markdown file under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def check_links(path: Path) -> List[str]:
    """Unresolvable relative links / stranded repo paths in *path*."""
    failures: List[str] = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            failures.append(f"{path.name}: broken link -> {target}")
    for match in _CODE_PATH.finditer(text):
        target = match.group(1)
        if not (REPO_ROOT / target).exists():
            failures.append(f"{path.name}: stranded path reference -> {target}")
    return failures


def check_doctests(path: Path) -> List[str]:
    """Failing ``>>>`` examples embedded in *path* (doctest semantics)."""
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    if results.failed:
        return [f"{path.name}: {results.failed}/{results.attempted} doctests failed"]
    return []


def check_module_doctests(name: str) -> List[str]:
    """Failing ``>>>`` examples in the docstrings of module *name*."""
    results = doctest.testmod(
        importlib.import_module(name),
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    if results.failed:
        return [f"{name}: {results.failed}/{results.attempted} doctests failed"]
    return []


def main() -> int:
    failures: List[str] = []
    for name in DOCTEST_MODULES:
        failures.extend(check_module_doctests(name))
    for path in doc_files():
        if not path.exists():
            failures.append(f"missing documentation file: {path}")
            continue
        failures.extend(check_links(path))
        failures.extend(check_doctests(path))
    if failures:
        print("documentation checks FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"documentation checks passed ({len(doc_files())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
