"""Two sweep-service defects the benchmark works around, as expected failures.

Both tests state the correct behaviour and are marked ``xfail(strict=True)``:
the change that fixes a defect turns its test into an unexpected pass, which
fails until the marker is removed.

* Registry race: ``_ensure_builtin_backends`` sets ``_BUILTINS_LOADED``
  before importing the built-in backends, so a second thread's first
  ``get_backend`` can run while the first thread is still importing them
  and raises ``UnknownBackendError`` over an empty registry.
* Job hang: ``SweepService._run_job`` computes ``point_key`` before its
  ``try``/``finally``; if that raises, the job's ``done`` event is never
  set and ``wait``/``results`` without a timeout block forever.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Holds the first lookup inside the built-in backend import until a second
#: thread has made its own first lookup, then lets it finish.
_RACE_SCRIPT = r"""
import importlib.abc
import sys
import threading

entered = threading.Event()
release = threading.Event()


class HoldBackendImport(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "repro.backends.external" and not entered.is_set():
            entered.set()
            release.wait(10)
        return None


sys.meta_path.insert(0, HoldBackendImport())
from repro.backends import get_backend

errors = []


def lookup():
    try:
        get_backend("trajectory")
    except Exception as error:
        errors.append(f"{type(error).__name__}: {error}")


first = threading.Thread(target=lookup)
first.start()
entered.wait(10)
second = threading.Thread(target=lookup)
second.start()
second.join(1.0)  # a correct registry makes the second lookup wait here
release.set()
first.join(10)
second.join(10)
print(errors)
sys.exit(1 if errors or first.is_alive() or second.is_alive() else 0)
"""


@pytest.mark.xfail(strict=True, reason="registry race: _BUILTINS_LOADED is set before "
                   "the built-in backends are imported")
def test_concurrent_first_backend_lookups_both_succeed():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _RACE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


class _UnkeyablePoint:
    """An ExecutionPoint whose content key cannot be computed."""

    def key(self) -> str:
        return self.payload()

    def payload(self) -> dict:
        raise RuntimeError("payload unavailable")

    def execute(self) -> object:
        return None


@pytest.mark.xfail(strict=True, raises=TimeoutError,
                   reason="job hang: point_key runs before _run_job's try/finally")
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_job_whose_key_fails_is_reported_failed(tmp_path):
    from repro.service import SweepService
    from repro.store import ArtifactStore

    service = SweepService(ArtifactStore(tmp_path / "store"))
    job = service.submit([_UnkeyablePoint()])
    status = service.wait(job, timeout=2.0)
    assert status.state == "failed"
