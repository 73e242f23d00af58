"""``python -m benchmarks.spine`` (needs ``PYTHONPATH=src``)."""

import sys

from benchmarks.spine.cli import main

sys.exit(main())
