"""sim.peak_rss_bytes is the CLI's own peak, not its launcher's.

Writes 96 MiB, keeps it resident, then runs `stackscope run --report-out`
as a child and checks that the report's sim.peak_rss_bytes gauge stays
below 64 MiB: the launcher's pages must not show through the exec.

Usage: python3 peak_rss_test.py <stackscope binary> <report path>
"""

import json
import subprocess
import sys

BALLAST_BYTES = 96 << 20
LIMIT_BYTES = 64 << 20


def main():
    cli, report = sys.argv[1], sys.argv[2]
    ballast = b"\x01" * BALLAST_BYTES  # every page written, so resident
    subprocess.run(
        [cli, "run", "--workload", "gcc", "--machine", "knl",
         "--instrs", "2000", "--report-out", report],
        check=True, stdout=subprocess.DEVNULL)
    with open(report, encoding="utf-8") as f:
        peak = json.load(f)["host_metrics"]["gauges"]["sim.peak_rss_bytes"]
    print(f"launcher ballast {len(ballast) >> 20} MiB, "
          f"sim.peak_rss_bytes {peak / (1 << 20):.1f} MiB")
    if not 0 < peak < LIMIT_BYTES:
        print(f"FAIL: expected 0 < sim.peak_rss_bytes < {LIMIT_BYTES}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
