"""Line guard over ``src/foliations``: the standard library and pytest only.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
and fails on every executable line of the package that no test ran, unless
``UNREACHED`` lists it with the reason it stays.  A module's executable lines
are those its code objects name in ``co_lines()``, from ``compile()`` of its
source.  An entry is keyed by module, the qualified name of the innermost
code object that holds the line, and the line's stripped text, so it
survives edits elsewhere in the module.  A stale entry fails too: one whose
line ran, or that names no executable line.

The tracer hooks only frames whose code lies in the package, and stops
tracing a code object once every one of its lines has run; the traced suite
still takes two to three times as long as the plain one.  Lines that run
only in a subprocess are not seen, so ``__main__.py`` is run in-process by a
test.

Run from the repository root; the hypothesis seed defaults to 0::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/line_guard.py [--hypothesis-seed N]

It prints one ``module.py:LINE: text`` per unlisted unexecuted line and exits
1, or exits with pytest's code when a test fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import threading
import types
from pathlib import Path

import pytest

# (module, code object qualname, stripped line text) of lines no test runs,
# and why each stays
UNREACHED = {
    ("fields.py", "euler_test", 'raise NotApplicableError("Euler bracket identity failed")'):
        "[R, Z] = (d - 1) Z holds for every Z homogeneous of degree d; the "
        "check re-verifies lie_bracket, so only a wrong bracket reaches it",
    ("intervals.py", "_certify", 'raise DegenerateInputError("root count mismatch")'):
        "np.roots returns one root per degree; the check keeps a NumPy that "
        "broke that contract from certifying a wrong number of roots",
}

PACKAGE = Path(importlib.util.find_spec("foliations").origin).parent
TESTS = Path(__file__).resolve().parent

_todo: dict = {}                    # code object -> its lines not yet run, or None
_ran: dict[str, set[int]] = {}      # file name -> lines run


def _own_lines(code) -> set[int]:
    """The lines of ``code`` that a frame of it reports.  Its first line is
    left out: a function reports no event there, and the code that defines
    it runs that line."""
    return {line for _, _, line in code.co_lines()
            if line and line != code.co_firstlineno}


def _line(frame, event, arg):
    if event == "line":
        code = frame.f_code
        _ran[code.co_filename].add(frame.f_lineno)
        _todo[code].discard(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    try:
        todo = _todo[code]
    except KeyError:
        inside = Path(code.co_filename).parent == PACKAGE
        if inside:
            _ran.setdefault(code.co_filename, set())
        todo = _todo[code] = _own_lines(code) if inside else None
    return _line if todo else None


def _walk(code):
    """``(line, qualname)`` for every line of ``code`` and of the code
    objects nested in it, the innermost code object last."""
    for _, _, line in code.co_lines():
        if line:    # None, or 0 for a module's first instruction
            yield line, code.co_qualname
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk(const)


def _unreached() -> tuple[list[str], list[str], int, int]:
    """The unexecuted lines that ``UNREACHED`` does not list, its stale
    entries, and the counts of executed and of executable lines."""
    unlisted, matched, executable, counts = [], set(), set(), [0, 0]
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        owner = dict(_walk(compile(source, str(path), "exec")))
        ran = _ran.get(str(path), set())
        counts[0] += len(ran & owner.keys())
        counts[1] += len(owner)
        for line in sorted(owner):
            key = (path.name, owner[line], text[line - 1].strip())
            executable.add(key)
            if line in ran:
                continue
            if key in UNREACHED:
                matched.add(key)
            else:
                unlisted.append(f"{path.name}:{line}: {key[2]}")
    stale = [f"{key}: {'ran' if key in executable else 'no such line'}"
             for key in UNREACHED if key not in matched]
    return unlisted, stale, *counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--hypothesis-seed", default="0")
    args = parser.parse_args()
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              f"--hypothesis-seed={args.hypothesis_seed}", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"line guard: the tests failed (pytest exit {int(status)})")
        return int(status)
    unlisted, stale, ran, executable = _unreached()
    for entry in unlisted:
        print(entry)
    for entry in stale:
        print(f"stale UNREACHED entry {entry}")
    print(f"line guard: {ran} of {executable} executable lines ran; "
          f"{len(unlisted)} unlisted unexecuted lines, {len(stale)} stale entries, "
          f"{len(UNREACHED)} listed")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
