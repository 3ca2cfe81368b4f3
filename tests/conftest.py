import numpy as np
import pytest

from qhgeo import (
    QuasihyperbolicMetric,
    ShapeSpec,
    build_grid_domain,
    domain_from_length_graph,
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


@pytest.fixture(scope="session")
def imported_subset():
    """``imported_subset(d, keep)``: the vertices ``keep`` of ``d`` and the edges among
    them, imported as a domain of their own (vertex ``i`` is ``d``'s vertex ``keep[i]``)."""

    def imported(d, keep):
        index = np.full(d.n, -1)
        index[keep] = np.arange(len(keep))
        edges = index[d.graph.edges]
        return domain_from_length_graph(d.coords[keep], edges[(edges >= 0).all(axis=1)],
                                        d.boundary_coords)

    return imported


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
