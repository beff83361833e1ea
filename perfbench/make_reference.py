"""Regenerate perfbench/reference.json from the code in src/.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its outputs;
the stored file is what every benchmark pass is checked against.  The
references do not depend on the seed (run.py checks this on every run), so
one fixed seed makes them.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    out = BENCH.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(out)
        ref[name] = wl.ops(wl.run(1))
        print(f"{name}: {len(ref[name])} operations")
    (BENCH / "reference.json").write_text(
        json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
