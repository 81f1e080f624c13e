"""full_estimate against the stored outcomes of the seeded corpus.

The corpus and the script that writes it are in estimate_corpus.py; the
values are compared by its matches(), at rtol 1e-10, the tolerance for
estimator rewrites.
"""
import json

import estimate_corpus
from estimate_corpus import CORPUS, main, matches, outcome

ENTRIES = json.loads(CORPUS.read_text())


def test_full_estimate_matches_stored_corpus():
    assert len(ENTRIES) >= 100
    mismatches = []
    for i, entry in enumerate(ENTRIES):
        assert "unfixed" not in entry["outcome"], f"case {i} has no stored outcome"
        got = outcome(entry["case"])
        if not matches(got, entry["outcome"]):
            mismatches.append((i, entry["outcome"], got))
    assert not mismatches


def test_full_rewrite_keeps_the_outcomes_that_still_match(tmp_path, monkeypatch):
    # a rewrite with the current code changes no byte of the committed corpus,
    # not even where a stored value is 1e-12 off or has a fixed_from, since
    # those outcomes still match
    lines = CORPUS.read_text().split("\n")
    # the first two entries with values, on lines that end in a comma
    off, marked = [i for i, entry in enumerate(ENTRIES, start=1) if "e_tz" in entry["outcome"]][:2]
    edited = {i: json.loads(lines[i].rstrip(",")) for i in (off, marked)}
    edited[off]["outcome"]["e_tz"] *= 1.0 + 1e-12
    edited[marked]["outcome"]["fixed_from"] = "nan"
    for i, entry in edited.items():
        lines[i] = json.dumps(entry) + ","
    copy = tmp_path / CORPUS.name
    copy.write_text("\n".join(lines))
    monkeypatch.setattr(estimate_corpus, "CORPUS", copy)
    assert main([]) == 0
    assert copy.read_text() == "\n".join(lines)
