"""scripts/report_diff.py: its exit status says whether any report's exit
code, status or integer field moved between the two checkouts."""

import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
import report_diff  # noqa: E402


def report(code=0, status="two-solutions", steps=3, energy=1.0):
    raw = json.dumps({"status": status, "energy": energy,
                      "timings": {"newton_steps": steps}})
    return {"name": "solve", "code": code, "raw": raw}


@pytest.mark.parametrize("new, want", [
    (report(), 0),
    (report(energy=1.0 + 1e-15), 0),     # a float moved by roundoff
    (report(code=2), 1),
    (report(status="one-solution-only"), 1),
    (report(steps=4), 1),
], ids=["same", "float-roundoff", "exit-code", "status", "counter"])
def test_exit_status_counts_moved_reports(monkeypatch, capsys, new, want):
    runs = {"OLD": [report()], "NEW": [new]}
    monkeypatch.setattr(report_diff, "collect", runs.__getitem__)
    monkeypatch.setattr(sys, "argv", ["report_diff.py", "OLD", "NEW"])
    assert report_diff.main() == want
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"{want} of 1 reports changed")
