"""Import bktfit from the checkout's src/ when the benchmark's tests run.

Run them from the repository root with:

    python3 -m pytest benchmarks
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
