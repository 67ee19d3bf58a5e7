"""Import closure of the serve path, checked in fresh interpreters.

The daemon and every fleet member import the health screen but never
run the FIPS 140-2 startup battery, so the serve path must not load
:mod:`repro.nist`, the QA batteries or SciPy: a forked member inherits
the parent's image and a spawned one re-imports it.  A test process has
usually imported those modules already, so each check runs in its own
``python -c`` child."""

import os
import pathlib
import subprocess
import sys
import textwrap


def run_fresh(code: str) -> None:
    """Run *code* in a new interpreter with ``src`` on the path."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_serve_path_loads_no_scipy_nist_or_qa():
    run_fresh(
        """
        import sys
        import repro.cli, repro.serve, repro.fleet.worker

        heavy = sorted(
            m for m in sys.modules
            if m.split(".")[0] == "scipy" or m.startswith(("repro.nist", "repro.qa"))
        )
        assert not heavy, heavy
        """
    )


def test_startup_self_test_imports_the_battery_on_first_use():
    run_fresh(
        """
        import sys
        import pytest
        from repro.core.generator import BSRNG
        from repro.errors import HealthTestError
        from repro.robust.faults import StuckBSRNG
        from repro.robust.health import HealthMonitoredBSRNG

        assert "repro.nist" not in sys.modules
        mon = HealthMonitoredBSRNG(BSRNG("xorwow", seed=2, lanes=64))
        assert mon.startup_report is not None and mon.startup_report.passed
        assert "repro.nist" in sys.modules
        with pytest.raises(HealthTestError):
            HealthMonitoredBSRNG(StuckBSRNG("xorwow", seed=2, lanes=64, stuck_byte=0))
        """
    )
