"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py SRC_DIR WARMUPS_JSON

Imports efdkit.cli from SRC_DIR, runs each warm-up argv once, then prints
"ready <time.monotonic()>" so the parent can time fresh process start to
the first query it could send.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, warmups = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import efdkit.cli as cli

    for argv in warmups:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            print(f"warm-up {argv} exited with {code}", flush=True)
            return 1
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
