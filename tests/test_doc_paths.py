"""Every repository path the documentation names exists.

README.md, DESIGN.md and docs/*.md point readers at source files, tests,
benchmarks and examples; a rename that leaves them behind sends the reader
nowhere. EXPERIMENTS.md is left out: it is a dated log, and the paths it
names are the ones that existed when each entry was written.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md"] + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
)

#: a path under one of the top-level directories, not itself part of a
#: longer path (``repro/sim/...`` inside ``src/repro/sim/...`` is one match)
_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|examples|docs)/[\w./*-]*")


def named_paths(text: str):
    """The repository paths ``text`` names, trailing punctuation dropped."""
    return sorted({m.group(0).rstrip(".") for m in _PATH.finditer(text)})


def test_named_paths_reads_paths_in_prose_and_code():
    text = "see `src/repro/sim/engine.py`, tests/sim/ and benchmarks/bench_*.py."
    assert named_paths(text) == [
        "benchmarks/bench_*.py", "src/repro/sim/engine.py", "tests/sim/",
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_a_document_names_exists(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = [p for p in named_paths(text) if not any(ROOT.glob(p))]
    assert missing == [], f"{doc} names paths that do not exist"
