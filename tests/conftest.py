"""Shared fixtures: geometries and the expensive 10x10 session matrices."""

import warnings

import pytest

from holoest import experiments
from holoest.coupling import GeometryOverlapWarning, coupling_model
from holoest.correlation import cluster_matrix, iso_matrix
from holoest.experiments import DEFAULT_BASE_SEED, default_cluster_scenario
from holoest.geometry import UpaGeometry


@pytest.fixture(scope="session")
def geom_2x2():
    return UpaGeometry(m_y=2, m_z=2, d_y=0.25, d_z=0.25)


@pytest.fixture(scope="session")
def geom_4x4():
    return UpaGeometry(m_y=4, m_z=4, d_y=0.2, d_z=0.2)


@pytest.fixture(scope="session")
def geom_4x4_quarter():
    return UpaGeometry(m_y=4, m_z=4, d_y=0.25, d_z=0.25)


@pytest.fixture(scope="session")
def geom_10x10():
    return UpaGeometry(m_y=10, m_z=10, d_y=0.2, d_z=0.2)


@pytest.fixture(scope="session")
def r_iso_4x4(geom_4x4):
    return iso_matrix(geom_4x4)


@pytest.fixture(scope="session")
def r_iso_10x10(geom_10x10):
    return iso_matrix(geom_10x10)


@pytest.fixture(scope="session")
def model_4x4(geom_4x4, r_iso_4x4):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometryOverlapWarning)
        return coupling_model(geom_4x4, r_iso=r_iso_4x4)


@pytest.fixture(scope="session")
def model_10x10(geom_10x10, r_iso_10x10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GeometryOverlapWarning)
        return coupling_model(geom_10x10, r_iso=r_iso_10x10)


@pytest.fixture(scope="session")
def cluster_scenario_20():
    return default_cluster_scenario(DEFAULT_BASE_SEED)


@pytest.fixture(scope="session")
def r_clu_10x10(geom_10x10, cluster_scenario_20):
    return cluster_matrix(geom_10x10, cluster_scenario_20)


@pytest.fixture
def biased_mc_cell(monkeypatch):
    """Shift every Monte Carlo mean 100 standard errors off the analytic MSE."""
    original = experiments._mc_cell

    def biased(*args, **kwargs):
        cell = original(*args, **kwargs)
        return {kind: (mean + 100.0 * se, se) for kind, (mean, se) in cell.items()}

    monkeypatch.setattr(experiments, "_mc_cell", biased)
