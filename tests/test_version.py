"""The package version has one owner: pyproject.toml reads exacthom.__version__."""

import pathlib

import pytest

import exacthom

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(str(PYPROJECT))
    assert config["project"]["version"] == exacthom.__version__
