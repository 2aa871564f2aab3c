import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import _probe
from gphazard import cli
from gphazard.validation import DEMO_SEED, demo_models


@pytest.fixture(scope="session")
def demo():
    """The six documented demonstration models at the documented seed."""
    return demo_models(DEMO_SEED)


@pytest.fixture
def run_cli(tmp_path, monkeypatch, capsys):
    """Runs ``gphazard.cli.main(argv)`` in-process, in the test's temporary directory.

    Returns ``(rc, stdout, stderr)``.  It catches nothing: an exception that
    escapes ``main`` fails the test, as a traceback did in a child process.
    """
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        capsys.readouterr()
        rc = cli.main(list(argv))
        return (rc, *capsys.readouterr())

    return run


@pytest.fixture(scope="session")
def probe(tmp_path_factory):
    """The records of the one child process ``tests/_probe.py``, by step name.

    Each has the step's ``returncode``, ``stdout`` and ``stderr``, and the
    watched modules ``loaded`` after it.  The child runs with every warning an
    error, as tier-1 does and as the numpy-only CI job runs it.
    """
    proc = subprocess.run([sys.executable, "-W", "error", _probe.__file__,
                           str(tmp_path_factory.mktemp("probe"))], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {name: SimpleNamespace(**record) for name, record in json.loads(proc.stdout).items()}
