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

from zerosum.cli import PRESETS, parse_number, parse_seeds, report_errors, run_preset
from zerosum.core import check_choice


def run(args) -> int:
    # every flag is checked before any preset runs
    seeds = parse_seeds(args.seeds)
    parallelism = parse_number(args.parallelism, "--parallelism", 1, integer=True)
    names = [check_choice(name, "--presets", PRESETS) for name in args.presets.split(",")]
    failures = 0
    for name in names:
        out_dir = Path(args.out) / name
        print(f"running preset {name} -> {out_dir}")
        failures += run_preset(name, out_dir, seeds, parallelism=parallelism)
        for path in (out_dir / PRESETS[name].csv, out_dir / "manifest.json"):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    if failures:
        print(f"{failures} run(s) failed; see the manifests", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output root directory")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    parser.add_argument(
        "--presets", default=",".join(PRESETS),
        help=f"comma-separated preset names (default: all of {', '.join(PRESETS)})"
    )
    parser.add_argument("--parallelism", default="4")
    return report_errors(run, parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
