import pytest

from gflswing.cli import bundled_config_path, load_config


@pytest.fixture(scope="session")
def table_config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def nofault_config():
    return load_config(bundled_config_path("table1_nofault.yaml"))


@pytest.fixture(scope="session")
def uncleared_config():
    return load_config(bundled_config_path("table1_uncleared.yaml"))


@pytest.fixture(scope="session")
def sync_config():
    return load_config(bundled_config_path("table1_sync.yaml"))
