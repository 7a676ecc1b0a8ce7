"""Regenerate the reference outputs the benchmark checks every result against.

    python3 bench/make_reference.py                       # full size, into bench/reference/
    python3 bench/make_reference.py --size tiny --out DIR # smoke-test sizes

References use the canonical inputs (sender 0, receiver 0 or 1); a run with
any seed must reproduce them within the tolerances in workloads.py.  Only
regenerate them when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "reference")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name](args.size, seed=0, canonical=True)
        path = args.out / f"{name}.json"
        path.write_text(json.dumps(workload.reference(), indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
