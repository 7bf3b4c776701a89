"""List the library lines that the tier-1 suite never executes.

    python tools/unrun_lines.py

Installs a ``sys.settrace`` hook that records the lines executed in
``src/permpatterns``, then runs the tests under ``tests/`` in this
process, so the package is imported under the hook.  The Hypothesis seed
is fixed and the example database is off, so that every run draws the
same examples.  Prints ``path:line: source`` for each line of a function
or class body that never executed (module-level lines are left out) and
exits 1 if there are any; exits with pytest's code if the suite does not
pass.  The trace is the standard library's, so ``coverage`` is not
needed.  Only this process's main thread is traced: code that runs only
in another thread or a child process, such as a ``select-k --threads 2``
pool job, counts as run only if the suite also runs it in the main
thread.
"""
from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "permpatterns"
SEED = "0"
PROFILE = "unrun-lines"

hits: set[tuple[str, int]] = set()


def _record(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _record


def _trace(frame, event, arg):
    """Trace only the frames of the package's files."""
    code = frame.f_code
    if not code.co_filename.startswith(str(PACKAGE)):
        return None
    # the code's first line (its def or class line) starts the frame but
    # gets no line event
    hits.add((code.co_filename, code.co_firstlineno))
    return _record


def _body_lines(code: CodeType, top: bool = True) -> set[int]:
    """The lines of every code object nested in code, leaving out code's
    own when it is the module's."""
    lines = set() if top else {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _body_lines(const, top=False)
    return lines


def unrun() -> list[tuple[Path, int, str]]:
    """(file, line, source) of each body line the trace never saw."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        code = compile(source, str(path), "exec")
        for line in sorted(_body_lines(code)):
            if (str(path), line) not in hits:
                found.append((path, line, text[line - 1].strip()))
    return found


class _NoExampleDatabase:
    """Registers the Hypothesis profile the run loads, before Hypothesis's
    own plugin loads it."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile(PROFILE, database=None)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          f"--hypothesis-seed={SEED}",
                          f"--hypothesis-profile={PROFILE}",
                          str(ROOT / "tests")],
                         plugins=[_NoExampleDatabase()])
    sys.settrace(None)
    if status != 0:
        print(f"the test suite did not pass (pytest exit code {status})")
        return int(status)
    found = unrun()
    for path, line, text in found:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(found)} library lines never ran")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
