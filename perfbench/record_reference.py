"""Record the reference outputs the benchmark checks against.

Usage: python3 perfbench/record_reference.py

Runs every sweep item and every request in the cli pool with the lrq in
src/ and writes the SHA-256 of each canonical output to reference.json.  The
printed outputs are lrq's behaviour contract, so the file is recorded once
and re-recorded only when a workload's inputs change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    reference = {item.key: workloads.digest(item.run()) for item in workloads.reference_items()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"{len(reference)} reference outputs")


if __name__ == "__main__":
    main()
