"""Line coverage of src/qmds under the Tier-1 suite, with the standard library only.

    python tools/coverage.py            print every executable line of src/qmds
                                        that no Tier-1 test runs
    python tools/coverage.py --check    also compare them with tools/uncovered.txt

The suite runs in this process under `sys.settrace` and `threading.settrace`.
Child interpreters it starts (the `qmds` CLI calls) are traced too: a
`sitecustomize.py` put first on their PYTHONPATH loads this file and traces
them, and each writes the lines it ran to a directory named in COVERAGE_ENV.
The executable lines of a file are those its code objects' `co_lines()` name.

A line is keyed by its file and its stripped source text, not by its
number, so an edit elsewhere in the file does not move the pin.  The pin,
tools/uncovered.txt, holds one entry a line, `<file>: <source> => <reason>`.
--check fails on a never-run line the pin does not hold and on a pinned
line that now runs or is gone, so the list can only shrink.  To update the
pin, delete the entries --check reports as running, and add a line that
must stay unrun with the reason it stays.  The run takes about 110 s on a
2-core Xeon with Python 3.11.7, where Tier-1 alone takes about 30 s.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qmds")
PIN = os.path.join(ROOT, "tools", "uncovered.txt")
COVERAGE_ENV = "QMDS_COVERAGE_DIR"
SITECUSTOMIZE = f"""\
import importlib.util
spec = importlib.util.spec_from_file_location("_qmds_coverage", {os.path.abspath(__file__)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child()
"""


def executable_lines(path: str) -> set:
    """The line numbers that some code object compiled from the file names."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def source_lines(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh]


def package_files() -> list:
    return sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def start_tracing() -> dict:
    """Trace every later call into src/qmds in this process and its new
    threads; returns the dict that collects, for each real path, the set
    of lines run.  A code object stops being traced once all its lines
    have run."""
    prefix = os.path.realpath(PACKAGE) + os.sep
    hits: dict = {}
    seen: dict = {}  # co_filename -> (its line tracer, its set), or None outside the package
    lines_of: dict = {}  # code -> its executable lines
    done: set = set()

    def tracer(ran: set):
        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local, ran

    def call(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        name = code.co_filename
        if name not in seen:
            path = os.path.realpath(name)
            seen[name] = tracer(hits.setdefault(path, set())) if path.startswith(prefix) else None
        if seen[name] is None:
            return None
        local, ran = seen[name]
        ran.add(frame.f_lineno)
        if code not in lines_of:
            lines_of[code] = {line for _, _, line in code.co_lines() if line is not None}
        if lines_of[code] <= ran:
            done.add(code)
            return None
        return local

    import threading  # here: a traced child then loads it only once it traces

    threading.settrace(call)
    sys.settrace(call)
    return hits


def trace_child() -> None:
    """Trace this interpreter, and write the lines it ran at exit into the
    directory COVERAGE_ENV names, one `path:line` a line."""
    import atexit

    out = os.environ.get(COVERAGE_ENV)
    if not out:
        return
    hits = start_tracing()

    def save() -> None:
        sys.settrace(None)
        with open(os.path.join(out, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{path}:{line}\n" for path, ran in hits.items() for line in ran)

    atexit.register(save)


def read_pin(path: str = PIN) -> list:
    """The pin's entries as (file, source, reason), in order; blank lines
    and lines starting with # are skipped."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, rest = line.partition(": ")
            source, sep2, reason = rest.rpartition(" => ")
            if not (sep and sep2 and source and reason.strip()):
                raise ValueError(f"{path}:{number}: expected '<file>: <source> => <reason>'")
            entries.append((name, source, reason.strip()))
    return entries


def never_run(hits: dict) -> list:
    """(file, line number, source) for each executable line not in hits."""
    out = []
    for name in package_files():
        path = os.path.join(PACKAGE, name)
        real = os.path.realpath(path)
        text = source_lines(path)
        for line in sorted(executable_lines(path)):
            if line not in hits.get(real, ()):
                out.append((name, line, text[line - 1]))
    return out


def run_suite() -> tuple:
    """Run Tier-1 under the tracers; returns (pytest's exit code, hits)."""
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE)
        env_path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [site, SRC, env_path]))
        os.environ[COVERAGE_ENV] = out
        sys.path.insert(0, SRC)
        os.chdir(ROOT)
        hits = start_tracing()
        try:
            code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
        finally:
            sys.settrace(None)
            import threading

            threading.settrace(None)
        children = 0
        for name in os.listdir(out):
            children += 1
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for row in fh:
                    path, _, line = row.rstrip("\n").rpartition(":")
                    hits.setdefault(path, set()).add(int(line))
    print(f"traced {children} child interpreters", file=sys.stderr)
    return int(code), hits


def compare(found: list, pinned: list) -> list:
    """The problems --check reports: a never-run line the pin lacks, and a
    pinned line that ran or no longer exists.  A source text that appears
    twice in a file needs two entries."""
    from collections import Counter

    left = Counter((name, source) for name, source, _ in pinned)
    problems = []
    for name, line, source in found:
        if left[name, source]:
            left[name, source] -= 1
        else:
            problems.append(f"never run and not pinned: {name}:{line}: {source}")
    problems += [f"pinned but runs or is gone: {name}: {source}"
                 for (name, source), n in left.items() for _ in range(n)]
    return problems


def main(argv: list) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python tools/coverage.py [--check]", file=sys.stderr)
        return 2
    code, hits = run_suite()
    found = never_run(hits)
    for name, line, source in found:
        print(f"{name}:{line}: {source}")
    print(f"{len(found)} executable lines of src/qmds never ran", file=sys.stderr)
    if code:
        print(f"the suite failed (pytest exit {code})", file=sys.stderr)
        return code
    if not argv:
        return 0
    problems = compare(found, read_pin())
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{os.path.relpath(PIN)} disagrees with the run: see the lines above", file=sys.stderr)
        return 1
    print(f"every never-run line is pinned in {os.path.relpath(PIN)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
