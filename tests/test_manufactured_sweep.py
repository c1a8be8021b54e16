"""scripts/manufactured_sweep.py: each configuration's certified factor and
status, and no run where certify refuses lambda."""

import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))
import manufactured_sweep  # noqa: E402


def test_a_certified_configuration_reports_its_factor_and_status():
    factor, status, detail = manufactured_sweep.run(2, 0.75, 1, 0.02, 0.05)
    assert 0.0 < factor < 1.0
    assert (status, detail) == ("two-solutions", "")


def test_a_refused_lambda_is_not_run(monkeypatch):
    monkeypatch.setattr(manufactured_sweep, "solve_multiplicity", None)
    assert manufactured_sweep.run(2, 0.75, 1, 0.2, 0.5) == (None, "refused", "")
