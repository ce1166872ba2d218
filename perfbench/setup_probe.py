"""Cold start of the canspec command line, run in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py H.json OUT_DIR``.  Imports the
package from the checkout's ``src/``, runs ``canspec forward`` on the given
weight through ``canspec.cli.main`` and prints, as its last line, a JSON
object with the import time, the command time and the exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from canspec import cli  # noqa: E402

t1 = perf_counter()
rc = cli.main(["forward", "--in", sys.argv[1], "--window", "20", "--out-dir", sys.argv[2]])
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "command_s": t2 - t1, "rc": rc}))
