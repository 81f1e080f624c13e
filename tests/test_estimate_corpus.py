"""full_estimate against the stored outcomes of the seeded corpus.

The corpus and the script that writes it are in estimate_corpus.py; the
values are compared at rtol 1e-10, the tolerance for estimator rewrites.
"""
import json

import pytest

from estimate_corpus import CORPUS, outcome

ENTRIES = json.loads(CORPUS.read_text())


def _matches(got: dict, want: dict) -> bool:
    if set(got) != set(want) or "error" in want:
        return got == want
    return got["tz_skipped"] == want["tz_skipped"] and all(
        got[k] == pytest.approx(want[k], rel=1e-10, abs=0.0) for k in ("e_tz", "e_gl")
    )


def test_full_estimate_matches_stored_corpus():
    assert len(ENTRIES) >= 100
    mismatches = []
    for i, entry in enumerate(ENTRIES):
        want = {k: v for k, v in entry["outcome"].items() if k != "fixed_from"}
        assert "unfixed" not in want, f"case {i} has no stored outcome"
        got = outcome(entry["case"])
        if not _matches(got, want):
            mismatches.append((i, want, got))
    assert not mismatches
