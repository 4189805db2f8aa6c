#!/usr/bin/env python3
"""Write expected.json: the exit codes and output digests the benchmark checks.

    python3 bench/freeze.py

The checked-in file was written on the first commit that carried this
benchmark, from the engine as it stood then.  qser's stdout is byte-identical
for every correct engine, so a later change that alters these digests has
changed the program's output, and the file should not be regenerated to
hide that.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import qser

    cli = {}
    for invocations in workloads.CLI_WORKLOADS.values():
        for argv in invocations:
            proc = run.spawn(["-m", "qser", *argv])
            cli[workloads.cli_key(argv)] = {"code": proc.code, "stdout_sha256": workloads.sha256(proc.stdout)}
    tables = {name: workloads.digest(qser.build(name, workloads.WALK_END)) for name in workloads.WALK_NAMES}
    sweep = run.load(run.spawn([run.PROBE, "sweep"]))["digests"]
    doc = {"cli": cli, "tables": tables, "sweep": sweep}
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
