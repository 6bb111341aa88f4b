"""The ``--write`` mode shared by the golden byte-identity suites.

``python tests/test_<suite>_golden.py --write`` adds the digests of new case
ids, drops those of removed ones, and refuses (exit 1, nothing written) when
a pinned digest would change.  An intended output change is re-pinned by
deleting the affected entries first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable


def write_pinned(path: Path, actual: dict) -> None:
    """Write ``actual`` to ``path`` unless it changes a digest pinned there."""
    pinned = json.loads(path.read_text()) if path.exists() else {}
    changed = [name for name in pinned if actual.get(name, pinned[name]) != pinned[name]]
    if changed:
        sys.exit(f"{len(changed)} pinned outputs changed, nothing written: {changed[:10]}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(actual, indent=1) + "\n")


def main(path: Path, compute: Callable[[], dict]) -> None:
    """Command-line entry of one suite: ``--write`` pins ``compute()``."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write_pinned(path, compute())
