"""Record golden.json: each op's exit code, stdout SHA-256 and byte count.

    python3 benchmarks/record_golden.py

Run it only at a commit whose outputs are trusted (golden.json was recorded
at the commit that added the benchmark); run.py fails any op that differs.
"""

from __future__ import annotations

import json
import sys

from run import HERE, Runner
from workloads import WORKLOADS


def main() -> int:
    runner = Runner()
    golden = {}
    for ops in WORKLOADS.values():
        result = runner.spawn({"mode": "pass",
                               "ops": [list(op) for op in ops]})
        for op in result["ops"]:
            if op["error"]:
                print(f"error: {op['op']} raised {op['error']}",
                      file=sys.stderr)
                return 1
            golden[op["op"]] = {"exit": op["exit"], "sha256": op["sha256"],
                                "bytes": op["bytes"]}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
