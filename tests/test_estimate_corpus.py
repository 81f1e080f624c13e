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


def test_full_rewrite_keeps_the_outcomes_that_still_match(tmp_path, monkeypatch, capsys):
    # a rewrite with the current code changes no byte of the committed corpus,
    # not even where a stored value is 1e-12 off or has a fixed_from, since
    # those outcomes still match, and names no case as replaced
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
    capsys.readouterr()
    assert main([]) == 0
    assert copy.read_text() == "\n".join(lines)
    assert capsys.readouterr().out == f"wrote {copy} ({len(ENTRIES)} cases, 0 unfixed)\n"


def test_full_rewrite_names_each_case_it_replaced(tmp_path, monkeypatch, capsys):
    # over the first three cases, the second stored 1e-6 off: the rewrite
    # replaces that outcome only, and prints it with its old and new outcome
    entries = [dict(entry, outcome=dict(entry["outcome"])) for entry in ENTRIES[:3]]
    moved = entries[1]["outcome"]
    key = "e_tz" if moved.get("e_tz") else "e_gl"
    moved[key] *= 1.0 + 1e-6
    copy = tmp_path / CORPUS.name
    copy.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    monkeypatch.setattr(estimate_corpus, "CORPUS", copy)
    monkeypatch.setattr(estimate_corpus, "make_cases", lambda: [e["case"] for e in entries])
    capsys.readouterr()
    assert main([]) == 0
    new = json.loads(copy.read_text())[1]["outcome"]
    assert matches(new, ENTRIES[1]["outcome"]) and not matches(new, moved)
    assert capsys.readouterr().out.splitlines()[:-1] == [
        f"case 1 replaced: {json.dumps(moved)} -> {json.dumps(new)}"
    ]
