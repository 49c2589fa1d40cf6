"""Set one workload's inputs up in a fresh interpreter, then print "ready".

run.py times this script from process start to the "ready" line, which
gives the set-up time a user of gapcount pays on every run: interpreter
start, `import gapcount`, graph and theta construction and seeded input
generation.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from workloads import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
