#!/usr/bin/env python3
"""Run one or more experiment presets and collect CSVs under an output root.

Prints the sha256 of each file written, so outputs can be compared with
reference hashes in one command.

Example:
    python scripts/run_presets.py --out results --seeds 1,2,3,4,5
    python scripts/run_presets.py --out results --presets last-round --seeds 7
"""
import argparse
import hashlib
import sys
from pathlib import Path

from zerosum.cli import PRESETS, run_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output root directory")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    parser.add_argument(
        "--presets", default=",".join(PRESETS),
        help=f"comma-separated preset names (default: all of {', '.join(PRESETS)})"
    )
    parser.add_argument("--parallelism", type=int, default=4)
    args = parser.parse_args()

    seeds = [int(tok) for tok in args.seeds.split(",")]
    failures = 0
    for name in args.presets.split(","):
        out_dir = Path(args.out) / name
        print(f"running preset {name} -> {out_dir}")
        failures += run_preset(name, out_dir, seeds, parallelism=args.parallelism)
        for path in (out_dir / PRESETS[name].csv, out_dir / "manifest.json"):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    if failures:
        print(f"{failures} run(s) failed; see the manifests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
