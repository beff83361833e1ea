"""One cold start: import degenwave, load a config, build its setup and the
step workspace.  `run.py` times this script in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/coldstart.py baseline mesh.n=1024
"""

import sys

from degenwave import config, stepper

cfg = config.apply_overrides(config.load_config(sys.argv[1]), sys.argv[2:])
setup = config.build_setup(cfg)
stepper.StepWorkspace.build(setup.ops, setup.gains, setup.dt)
