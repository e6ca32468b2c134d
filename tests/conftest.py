import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def payload_digests():
    """scripts/payload_digests.py, loaded once as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "payload_digests.py"
    spec = importlib.util.spec_from_file_location("payload_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
