"""The popfuzz benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It starts one fresh interpreter for
the run (perfbench/workload.py), which imports popfuzz from ./src, runs
whole rounds of the workload for about S seconds, checks the outputs, and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT = 170  # seconds a run may take, set-up and checks included


def main() -> int:
    parser = argparse.ArgumentParser(description="popfuzz benchmark")
    parser.add_argument("--workload", required=True, help="burn_search, loop_buy_cli or ablation_matrix")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "popfuzz" / "__init__.py").is_file():
        print(f"error: no popfuzz sources in {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at"]
    # the workload's set-up time is measured from here, interpreter start included
    cmd.append(repr(time.monotonic()))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: the run took over {TIME_LIMIT} s", file=sys.stderr)
        return 3
    finally:
        try:  # pool workers or CLI processes left behind by a failed run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
