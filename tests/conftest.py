import pytest

from confmass import chart as chart_module
from confmass.config import load_config, load_expected


@pytest.fixture
def unvalidated(monkeypatch):
    """``make_chart`` without the load-time probes of ``_validate_chart``,
    for charts that exercise a layer outside the valid ends."""
    monkeypatch.setattr(chart_module, "_validate_chart", lambda chart: chart)


@pytest.fixture(scope="session")
def flat_cfg():
    return load_config("flat.chart")


@pytest.fixture(scope="session")
def iso_cfg():
    return load_config("schwarzschild.chart")


@pytest.fixture(scope="session")
def lee_cfg():
    return load_config("schwarzschild-lee.chart")


@pytest.fixture(scope="session")
def rot_cfg():
    return load_config("schwarzschild-rot-lee.chart")


@pytest.fixture(scope="session")
def p4_cfg():
    return load_config("perturbed4.chart")


@pytest.fixture(scope="session")
def ends_cfg():
    return load_config("twoends.ends")


@pytest.fixture(scope="session")
def expected():
    return load_expected()
