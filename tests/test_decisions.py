"""Pin the decisions over the fixed corpus of scripts/payload_digest.py.

A change that moves the verdict kind or state count of any case in that
corpus fails here; the digest below is then edited on purpose, and the change
says which cases moved and why.
"""
import hashlib
import importlib.util
import sys
from pathlib import Path

import hmpident as hi

KINDS = "bfaaa680f325bc193303645d9c12b6204a521351d42b75c8d5d60a52775ac8fb"


def test_kinds_digest_over_the_payload_corpus(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "payload_digest.py"
    spec = importlib.util.spec_from_file_location("payload_digest", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends ./src and ./tests
    spec.loader.exec_module(script)
    kinds = hashlib.sha256()
    for dist in script.corpus():
        verdict = hi.identify(dist)
        script.feed(kinds, (verdict.kind, verdict.states))
    assert kinds.hexdigest() == KINDS
