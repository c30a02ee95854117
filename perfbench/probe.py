"""Set-up probe: what a fresh `nclab` process does before its first GD step.

    python3 perfbench/probe.py CONFIG     # import nclab.cli, load, build data and net
    python3 perfbench/probe.py --verify   # import nclab.cli and nclab.verify

Prints `time.monotonic()` at the end (the clock is shared by every process
on the machine, so the parent can subtract its own launch time) and the path
nclab was imported from.
"""

import sys
import time

from nclab import cli

if sys.argv[1] == "--verify":
    from nclab import verify  # noqa: F401  (cmd_verify imports it lazily)
else:
    cfg = cli.load_config(sys.argv[1])
    ds = cli.build_dataset(cfg)
    cli.build_network(cfg, ds.x.shape[0])
print(repr(time.monotonic()), cli.__file__)
