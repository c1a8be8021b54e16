"""scripts/manufactured_sweep.py: each configuration's certified factor and
status, no run where certify refuses lambda, and configurations whose
saddle once escaped the saddle stage."""

import pathlib
import sys

import pytest

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


# certified (N, s, M, eps, lambda) configurations that need every path
# node as a Newton start, or the Jacobian that samples f' on the residual's
# grid, to reach the saddle
SADDLE_CASES = [(1, 0.4, 2, 0.1, 0.2), (3, 0.9, 1, 0.05, 0.05),
                (1, 0.4, 4, 0.2, 0.2), (3, 0.9, 1, 0.05, 0.2),
                (3, 0.9, 2, 0.2, 0.02), (3, 0.9, 4, 0.1, 0.1),
                (3, 0.9, 4, 0.2, 0.02)]


@pytest.mark.parametrize("N, s, M, eps, lam", SADDLE_CASES)
def test_certified_configuration_reaches_the_saddle(N, s, M, eps, lam):
    factor, status, detail = manufactured_sweep.run(N, s, M, eps, lam)
    assert 0.0 < factor < 1.0
    assert (status, detail) == ("two-solutions", "")
