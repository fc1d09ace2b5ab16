"""The version lives in one place: ``pyproject.toml`` reads it from
``formstrength.version.__version__``, the string every certificate
records, so the package metadata and the certificates cannot drift apart."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_the_package_version_is_read_from_the_version_module():
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "formstrength.version.__version__"}
