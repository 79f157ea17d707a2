"""Time `import gswf` plus one CLI call in a fresh interpreter.

    python3 probe.py SRC_DIR GSWF_ARG...

Prints one JSON line: {"rc": exit code, "seconds": import + call time}.
The benchmark uses it for set-up timing and to prepare inputs in parallel.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gswf.cli  # noqa: E402  (the import is part of what is timed)

rc = gswf.cli.run(sys.argv[2:])
print(json.dumps({"rc": rc, "seconds": time.perf_counter() - start}))
