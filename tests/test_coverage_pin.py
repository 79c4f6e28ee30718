"""tools/uncovered.txt, the pinned never-run lines of src/qmds, checked
without tracing: a pin that names a line no longer in the source fails here
in seconds, not only under `python tools/coverage.py --check`."""

import collections
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "qmds_coverage_tool", os.path.join(ROOT, "tools", "coverage.py"))
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def test_every_pinned_line_is_an_executable_line_of_src_qmds():
    pinned = collections.Counter((name, source) for name, source, _ in coverage.read_pin())
    assert pinned
    present = collections.Counter()
    for name in coverage.package_files():
        path = os.path.join(coverage.PACKAGE, name)
        text = coverage.source_lines(path)
        present.update((name, text[line - 1]) for line in coverage.executable_lines(path))
    assert pinned - present == collections.Counter()


def test_check_reports_a_new_never_run_line_and_a_pinned_line_that_runs():
    pinned = [("a.py", "raise X", "why"), ("a.py", "raise X", "why"), ("b.py", "pass", "why")]
    # the same text twice needs two entries, so the third occurrence is new
    found = [("a.py", 3, "raise X"), ("a.py", 9, "raise X"), ("a.py", 12, "raise X")]
    assert coverage.compare(found, pinned) == [
        "never run and not pinned: a.py:12: raise X",
        "pinned but runs or is gone: b.py: pass",
    ]
    assert coverage.compare(found[:2], pinned[:2]) == []


def test_a_pin_entry_without_a_reason_is_rejected(tmp_path):
    pin = tmp_path / "uncovered.txt"
    pin.write_text("# a comment\nfield.py: raise X => \n")
    with pytest.raises(ValueError, match="expected '<file>: <source> => <reason>'"):
        coverage.read_pin(str(pin))
