import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# exact rational arithmetic can be slow per example on loaded machines;
# the per-example deadline adds flakiness without adding coverage
settings.register_profile(
    "exact", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("exact")

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_checks.py"


@pytest.fixture(scope="session")
def checks_script():
    """scripts/run_all_checks.py as a module, for its cross-checks; importing it runs none."""
    spec = importlib.util.spec_from_file_location("run_all_checks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
