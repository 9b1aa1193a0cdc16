"""Run one `popfuzz` command under the benchmark's probes.

    python3 perfbench/cli_entry.py RECORD.json TRACE(0|1) <popfuzz arguments>

It calls `popfuzz.cli.main` with the arguments, exits with its code, and
writes what the probes recorded, the process's pace samples and its peak
resident memory to RECORD.json.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import probes


def main() -> int:
    record_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    from popfuzz import cli

    recorder = probes.Recorder(record_path.parent, trace)
    recorder.start_pace()
    with recorder.installed():
        code = cli.main(argv)
    recorder.stop_pace()
    data = recorder.snapshot()
    data["pace"] = recorder.pace
    data["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record_path.write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
