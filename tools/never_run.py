"""List the executable lines of src/gromov4 that the test suite never runs.

Runs pytest in this process with a sys.settrace hook that follows only
frames whose code lives under src/gromov4, then prints every executable
line (taken from the code objects' co_lines) that raised no trace event,
with a count per module.  Lines run only in a subprocess (the CLI's
`main`, `__main__`) are not seen.  Standard library only, besides the
pytest it runs:

    python tools/never_run.py [pytest arguments]

With no arguments it runs the Tier-1 suite (`-q --continue-on-collection-errors`).
When GITHUB_STEP_SUMMARY names a file, the report is appended to it too.
The exit code is pytest's; the list itself gates nothing.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "gromov4") + os.sep

_hits: dict[str, set[int]] = defaultdict(set)
_ours: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    ours = _ours.get(filename)
    if ours is None:
        ours = _ours[filename] = os.path.abspath(filename).startswith(PACKAGE)
    if not ours:
        return None
    # A call event stands for the code object's first line (its RESUME).
    _hits[filename].add(frame.f_lineno)
    return _local


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def never_run() -> dict[str, list[tuple[int, str]]]:
    """Module file name -> the (line number, text) pairs that never ran."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        hit = set().union(*(lines for fn, lines in _hits.items() if os.path.abspath(fn) == path))
        missed = sorted(_code_lines(compile(source, path, "exec")) - hit)
        out[name] = [(n, text[n - 1].strip()) for n in missed]
    return out


def report(missed: dict[str, list[tuple[int, str]]]) -> str:
    total = sum(map(len, missed.values()))
    lines = [f"## Never-run lines in src/gromov4: {total}", "", "```"]
    for name, rows in missed.items():
        if rows:
            lines.append(f"{name}: {len(rows)}")
            lines.extend(f"  {name}:{n}: {src}" for n, src in rows)
    lines.append("```")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import pytest  # before tracing starts: only gromov4 frames are followed

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    text = report(never_run())
    print(text, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(text)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
