#!/usr/bin/env python3
"""Capture the CLI workloads' reference stdout into perfbench/reference/.

    python3 perfbench/capture_reference.py

Run it once at the commit whose output is the reference (the benchmark's
seed commit); later commits are compared byte for byte against what it
wrote.  It also runs a second seed and checks that the seed field is the
only byte that differs, which is what lets one file serve every seed.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stirhom import cli  # noqa: E402

from workloads import CLI_COMMANDS, REFERENCE_DIR, REFERENCE_SEED  # noqa: E402

OTHER_SEED = 12345


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"{argv} exited with {status}")
    return buf.getvalue()


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name, argv in CLI_COMMANDS.items():
        text = stdout_of(argv + ["--seed", str(REFERENCE_SEED)])
        other = stdout_of(argv + ["--seed", str(OTHER_SEED)])
        if other != text.replace(f'"seed":{REFERENCE_SEED}', f'"seed":{OTHER_SEED}'):
            raise SystemExit(f"{name}: output depends on the seed beyond its seed field")
        with open(os.path.join(REFERENCE_DIR, name + ".json"), "w") as handle:
            handle.write(text)
        print(f"{name}: {len(text.encode())} bytes")


if __name__ == "__main__":
    main()
