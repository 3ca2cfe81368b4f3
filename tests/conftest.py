import numpy as np
import pytest

from qhgeo import (
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    sphericalize,
)


def make_domain(kind, params, h, band=2.0):
    return build_grid_domain(ShapeSpec(kind, params, h), band)


@pytest.fixture(scope="session")
def disk_coarse():
    domain = make_domain("disk", {"radius": 1.0}, 0.05)
    return domain, QuasihyperbolicMetric(domain)


@pytest.fixture(scope="session")
def disk_mid():
    domain = make_domain("disk", {"radius": 1.0}, 0.02)
    return domain, QuasihyperbolicMetric(domain)


@pytest.fixture(scope="session")
def square_mid():
    domain = make_domain("square", {"side": 1.0}, 0.02)
    return domain, QuasihyperbolicMetric(domain)


@pytest.fixture(scope="session")
def lshape_coarse():
    domain = make_domain("L-shape", {"arm_width": 1.0, "arm_length": 2.0}, 0.05)
    return domain, QuasihyperbolicMetric(domain)


@pytest.fixture(scope="session")
def punctured_sphericalized():
    d = make_domain("punctured-plane-truncation", {"radius": 6.0}, 0.25)
    space = sphericalize(d, (0.0, 0.0), max_points=1200, rng=np.random.default_rng(0))
    return d, QuasihyperbolicMetric(d), space


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
