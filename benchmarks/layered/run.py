"""Entry point of the layered benchmark: ``python benchmarks/layered/run.py``.

Stamps the clock before anything heavy is imported (imports are part of
``setup_s``), pins ``PYTHONHASHSEED=0`` by re-executing itself once, puts
the repository's ``src`` and this package on the path, and hands over to
:mod:`layered.cli`. With no ``src`` beside it the import fails and the
process exits non-zero without printing a result.
"""

import os
import sys
import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(here))
    from layered.cli import main

    sys.exit(main(sys.argv[1:], STARTED))
