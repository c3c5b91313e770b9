from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from fflab.field import make_field

settings.register_profile(
    "fflab",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fflab")

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fflab"


@pytest.fixture
def sources() -> dict[str, str]:
    """Each module of ``src/fflab`` by name, as the AST meta-tests read the
    package; a fresh dict per test, so a planted edit stays in its test."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def f11():
    return make_field(11)
