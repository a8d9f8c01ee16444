import os
import time

import pytest
from hypothesis import settings

from abelsplit import scan

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def desk_scan_run():
    """The full desk-scale scan and its wall-clock seconds."""
    started = time.monotonic()
    report = scan(1, 30, jobs=os.cpu_count() or 1)
    return report, time.monotonic() - started


@pytest.fixture(scope="session")
def desk_scan(desk_scan_run):
    """The full desk-scale scan, shared by the acceptance criteria."""
    return desk_scan_run[0]
