"""Entry point ``BENCHMARK.json`` names: ``python3 benchmarks/spine/run.py``.

Runs from the root of any checkout without ``PYTHONPATH``: puts the
checkout's root and ``src`` on ``sys.path``, then hands over to the same
command line as ``python -m benchmarks.spine``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

if __name__ == "__main__":
    try:
        from benchmarks.spine.cli import main
    except ImportError as exc:
        sys.exit(f"benchmarks.spine needs the repro package under {ROOT}/src: {exc}")
    sys.exit(main())
