"""Cold-start probe: a fresh interpreter imports the CLI and loads one spec.

Usage: python3 perfbench/coldstart.py ROOT SPEC_JSON
The caller times the whole process, interpreter start-up included.
"""

import os
import sys

root, spec = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))

import krongambler.cli  # noqa: E402

krongambler.cli.load_spec(spec)
