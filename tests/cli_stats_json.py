#!/usr/bin/env python3
"""Runs `vabi_cli --stats-json` on one generated net serially and with
--threads 4, and requires both files to parse as one flat JSON object with
the same keys, a schema_version, and equal values on every key but the
thread count, wall_seconds and the scheduling-dependent allocations: the
parallel engine's results, organization counters and peak_terms are
thread-count invariant.

Usage: tests/cli_stats_json.py VABI_CLI
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

MAY_DIFFER = {"threads", "wall_seconds", "allocations"}


def run(cli, out, extra):
    cmd = [cli, "--generate", "200", "--seed", "3", "--mode", "wid",
           "--rule", "2p", "--stats-json", str(out)] + extra
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"FAIL: exit {done.returncode} from {' '.join(cmd)}")
    with open(out) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} VABI_CLI")
    with tempfile.TemporaryDirectory() as tmp:
        serial = run(sys.argv[1], Path(tmp) / "serial.json", [])
        threaded = run(sys.argv[1], Path(tmp) / "t4.json", ["--threads", "4"])
    if list(serial) != list(threaded):
        sys.exit(f"FAIL: key lists differ: {list(serial)} vs {list(threaded)}")
    if not isinstance(serial.get("schema_version"), int):
        sys.exit("FAIL: no integer schema_version")
    if serial["threads"] != 1 or threaded["threads"] != 4:
        sys.exit("FAIL: threads not reported")
    if serial["aborted"] or serial["candidates_created"] == 0:
        sys.exit("FAIL: the serial solve did no work")
    diff = {k: (serial[k], threaded[k]) for k in serial
            if k not in MAY_DIFFER and serial[k] != threaded[k]}
    if diff:
        sys.exit(f"FAIL: serial and --threads 4 differ on {diff}")
    print(f"ok: {len(serial)} keys, serial == --threads 4 on "
          f"{len(serial) - len(MAY_DIFFER)}")


if __name__ == "__main__":
    main()
