"""Regenerate the fine-grid kite far field that ``kite-solve`` is checked against.

The reference is the combined-source solve of the ``kite-solve`` physics at
N=1024 with a dense LU solve, written with all 17 significant digits.
Run from the repository root:

    python3 perfbench/make_reference.py

It takes about a minute and peaks near 1.5 GB of memory.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

REF_N = 1024


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    cli = workloads.import_program(root).cli
    cfg = dict(workloads.KITE_CONFIG, N=REF_N, solver={"type": "lu", "tol": 1e-8, "maxit": None},
               diagnostics=False)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        cfg["out"] = tmp
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        if cli.main(["solve", "--config", str(cfg_path)]) != 0:
            print("reference solve failed", file=sys.stderr)
            return 1
        theta, values = workloads.read_farfield(Path(tmp) / "farfield.csv")
    cfg.pop("out")
    doc = {
        "config": cfg,
        "theta": [float(t) for t in theta],
        "re": [float(v.real) for v in values],
        "im": [float(v.imag) for v in values],
    }
    workloads.KITE_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.KITE_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
