#!/usr/bin/env python3
"""Checks that bench/perf_smoke_diff.py's gate (--fail-ratio set) fails when
a baseline record vanishes from the run: a run that drops one record, and a
run whose `seconds` keys were renamed so that it has no timing entries at
all, must exit 1 when gating and 0 in warn-only mode. The committed Table 2
baseline against itself must pass the gate.

Usage: tests/perf_gate_test.py PERF_SMOKE_DIFF BASELINE_JSON
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def gate(script, current, baseline, gating):
    cmd = [sys.executable, script, str(current), "--baseline", str(baseline),
           "--max-ratio", "1.6"]
    if gating:
        cmd += ["--fail-ratio", "2.0"]
    return subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} PERF_SMOKE_DIFF BASELINE_JSON")
    script, baseline = sys.argv[1], Path(sys.argv[2])
    doc = json.loads(baseline.read_text())
    timed = [r for r in doc["records"]
             if "seconds" in r and not r.get("aborted")]
    if not timed:
        sys.exit(f"FAIL: {baseline} has no timed records")

    dropped = dict(doc, records=[r for r in doc["records"]
                                 if r is not timed[0]])
    renamed = dict(doc, records=[
        {("wall" + k[len("seconds"):] if k.endswith("seconds") else k): v
         for k, v in r.items()} for r in doc["records"]])

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        cases = [("baseline itself", doc, 0, 0),
                 ("one record dropped", dropped, 1, 0),
                 ("seconds keys renamed", renamed, 1, 0)]
        for what, run, want_gated, want_warn in cases:
            current = Path(tmp) / "current.json"
            current.write_text(json.dumps(run))
            for gating, want in ((True, want_gated), (False, want_warn)):
                got = gate(script, current, baseline, gating)
                mode = "gating" if gating else "warn-only"
                status = "ok" if got == want else "FAIL"
                print(f"{status}: {what}, {mode}: exit {got} (want {want})")
                if got != want:
                    failures.append(what)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
