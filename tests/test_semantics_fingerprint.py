"""A persisted verdict must never outlive the code that produced it.

Every ``SharedCache`` row carries ``SEMANTICS_VERSION``; a row with
another stamp is stale and recomputed.  That only protects anyone if the
version moves whenever the code that decides verdicts does.  This golden
test hashes those sources and compares the digest with the one recorded
in ``tests/golden/semantics_fingerprint.json`` next to the version it
belongs to: a change to any of them fails here until
``SEMANTICS_VERSION`` is bumped and the new digest recorded with it.
"""

import hashlib
import json
from pathlib import Path

from repro.service.sharedcache import SEMANTICS_VERSION

PKG = Path(__file__).resolve().parents[1] / "src" / "repro"
GOLDEN = Path(__file__).resolve().parent / "golden" / "semantics_fingerprint.json"

#: Verdict-relevant sources, relative to ``src/repro`` (directories are
#: taken whole: every ``*.py`` below them).
SOURCES = (
    "mso",
    "automata",
    "bdd/bdd.py",
    "solver",
    "core/encode.py",
    "core/symbolic.py",
    "core/configurations.py",
    "core/pathcond.py",
)


def source_files():
    files = []
    for rel in SOURCES:
        path = PKG / rel
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def source_digest() -> str:
    h = hashlib.sha256()
    for path in source_files():
        h.update(path.relative_to(PKG).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_sources_exist():
    for rel in SOURCES:
        assert (PKG / rel).exists(), rel
    assert len(source_files()) > len(SOURCES)


def test_semantics_version_matches_source_fingerprint():
    golden = json.loads(GOLDEN.read_text())
    digest = source_digest()
    fresh = json.dumps(
        {"semantics_version": SEMANTICS_VERSION + 1, "sha256": digest,
         "sources": list(SOURCES)},
        indent=2,
    )
    assert digest == golden["sha256"], (
        "verdict-relevant sources changed (sha256 " + digest + "): bump "
        "SEMANTICS_VERSION in src/repro/service/sharedcache.py to "
        f"{SEMANTICS_VERSION + 1} and write this to {GOLDEN.name}:\n"
        + fresh
    )
    assert golden["semantics_version"] == SEMANTICS_VERSION, (
        f"{GOLDEN.name} records the digest of semantics version "
        f"{golden['semantics_version']}, but SEMANTICS_VERSION is "
        f"{SEMANTICS_VERSION}"
    )
    assert golden["sources"] == list(SOURCES)
