import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

problem = run.import_repro()
if problem is not None:
    raise RuntimeError(problem)
