import os

import pytest
from hypothesis import settings

import localelab

# the suite pins reports and bounds of the default S_l bound, whatever the
# caller exports; tests that need another bound set it with monkeypatch
os.environ.pop("LOCALELAB_SIZE_LIMIT", None)

settings.register_profile("det", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("det")


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for child interpreters: PYTHONPATH is the absolute parent of
    the imported localelab package, so it resolves whatever the child's cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(localelab.__file__)))
    return env
