"""One qfilab CLI invocation in this fresh process, with its set-up timed.

Usage: PERFBENCH_SPAWN_T=<parent's time.monotonic()> python3 perfbench/op.py [<qfilab argv...>]

CLOCK_MONOTONIC is shared by every process on Linux, so setup_s runs from
the parent's spawn call until qfilab.cli (numpy, scipy, qfilab) has
imported; main_s is cli.main itself. Both go to the last stderr line as
"perfbench <setup_s> <main_s>"; the exit code is cli.main's. With no
qfilab arguments the process only imports, exits 0 and reports main_s 0,
which gives one more set-up sample.
"""

import os
import sys
import time

from qfilab import cli

setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN_T"])
code = main_s = 0
if sys.argv[1:]:
    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    main_s = time.perf_counter() - start
sys.stderr.write(f"\nperfbench {setup_s!r} {main_s!r}\n")
sys.exit(code)
