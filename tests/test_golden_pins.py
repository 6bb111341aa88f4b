"""The shared ``--write`` rule of the golden suites (``golden_pins``)."""

from __future__ import annotations

import json

import pytest

from golden_pins import write_pinned


def test_new_ids_added_and_removed_ids_dropped(tmp_path):
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"kept": "a", "removed": "b"}))
    write_pinned(path, {"kept": "a", "new": {"exit": 0, "stdout": "c"}})
    assert json.loads(path.read_text()) == {"kept": "a", "new": {"exit": 0, "stdout": "c"}}


def test_changed_digest_refused_and_nothing_written(tmp_path):
    path = tmp_path / "digests.json"
    text = json.dumps({"same": "a", "cli": {"exit": 0, "stdout": "b"}}, indent=1) + "\n"
    path.write_text(text)
    with pytest.raises(SystemExit, match="1 pinned outputs changed, nothing written"):
        write_pinned(path, {"same": "a", "cli": {"exit": 1, "stdout": "b"}, "new": "c"})
    assert path.read_text() == text
