"""Documentation tests: every fenced ``python`` block in docs/*.md must
execute, every example script must run, and internal links must resolve.

This is what keeps the documentation site from silently drifting away
from the API: a renamed function or changed signature fails CI here,
not in a reader's terminal.  Blocks within one page share a namespace
(pages build up examples incrementally); blocks that are not meant to
execute use a non-``python`` fence language (``text``, ``bash``).
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
EXAMPLES = REPO / "examples"

FENCE_RE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)#\s]+)[^)]*\)")

DOC_PAGES = sorted(DOCS.glob("*.md"))
EXAMPLE_SCRIPTS = sorted(EXAMPLES.glob("*.py"))

#: Keeps every doc block and example run cheap enough for tier-1 CI.
SMALL_ENV = {"REPRO_EXAMPLE_CORES": "16", "REPRO_EXAMPLE_SCALE": "tiny"}


def test_docs_exist():
    assert (DOCS / "index.md") in DOC_PAGES
    assert len(EXAMPLE_SCRIPTS) >= 6


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_fenced_python_blocks_execute(page, monkeypatch, tmp_path):
    # Blocks that call tempfile.mkdtemp() leave nothing behind.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    blocks = FENCE_RE.findall(page.read_text())
    namespace = {"__name__": f"docs_{page.stem}"}
    for i, block in enumerate(blocks):
        code = compile(block, f"{page.name}[block {i}]", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS, ids=lambda p: p.name)
def test_example_runs_clean(script):
    env = dict(os.environ, **SMALL_ENV)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    assert proc.stdout.strip(), f"{script.name} printed nothing"


def test_internal_links_resolve():
    for page in DOC_PAGES:
        for target in LINK_RE.findall(page.read_text()):
            if "://" in target:
                continue
            resolved = (page.parent / target).resolve()
            assert resolved.exists(), f"{page.name}: broken link {target}"


def test_index_links_every_docs_page():
    index = (DOCS / "index.md").read_text()
    for page in DOC_PAGES:
        if page.name == "index.md":
            continue
        assert page.name in index, f"docs/index.md does not link {page.name}"
