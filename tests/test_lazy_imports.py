"""A server run and lfsck load no code they never call.

``derive_point_seed`` lives in ``repro.seeds`` (not the simulator),
``repro.obs`` resolves its report, timeline, watchdog and framing names
on first access, and the file system imports the NVM staging component
only when a board is attached. Checked in a fresh interpreter,
since this test process has loaded everything already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro
import repro.obs

UNUSED = (
    "repro.simulator",
    "repro.obs.timeline",
    "repro.obs.report",
    "repro.obs.watchdog",
    "repro.core.nvlog",
    "multiprocessing",
)


def test_server_and_lfsck_import_no_unused_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, repro.server, repro.tools.lfsck\n"
        f"print(sorted(m for m in {UNUSED!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_lazy_obs_names_resolve():
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None
    from repro.obs import FormatError, Watchdog  # noqa: F401
