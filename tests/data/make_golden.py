"""Write golden.json next to this file from the current code.

    PYTHONPATH=src python3 tests/data/make_golden.py

Takes no options.  What is stored, and how tests/test_golden.py compares
it, is described in that test module.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, record  # noqa: E402

from degenwave.config import SCENARIO_NAMES  # noqa: E402

if __name__ == "__main__":
    golden = {name: record(name) for name in SCENARIO_NAMES}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(golden)} scenarios)")
