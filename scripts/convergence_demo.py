#!/usr/bin/env python3
"""Desk-scale demo: last-iterate behavior of self-play update rules.

Runs MWU, OMWU, and the exploit-weighted update on one seeded random game
and prints the duality gap of the last iterate at a few checkpoints;
finishes with the equilibrium of the game and its spectral certificates.

Example:
    python scripts/convergence_demo.py --seed 12 --size 20 --horizon 20000
"""
import sys

from zerosum.cli import (
    AGENTS, CERTIFICATE_ALPHAS, CERTIFICATE_ETA, ArgumentParser, parse_number, report_errors,
)
from zerosum.engine import AdversarySpec, GameSpec, SimulationConfig, run_self_play
from zerosum.nash import solve_zero_sum, spectral_radius_at_ne


def run(args) -> int:
    seed = parse_number(args.seed, "--seed", integer=True)
    size = parse_number(args.size, "--size", 2, integer=True)
    T = parse_number(args.horizon, "--horizon", 2, integer=True)

    checkpoints = sorted({c for c in (100, 1000, T // 2, T) if c <= T})
    amwu = AGENTS["AMWU"]
    agents = [("MWU", AGENTS["MWU"]), ("OMWU", AGENTS["OMWU"]),
              (f"AMWU(alpha={amwu.alpha:g})", amwu)]
    game_spec = GameSpec(kind="random", n=size, m=size, seed=seed)

    print(f"random {size}x{size} game, seed {seed}, T={T}")
    print(f"{'agent':>18} " + " ".join(f"t={c:<8d}" for c in checkpoints))
    unit = None
    for label, spec in agents:
        cfg = SimulationConfig(
            game=game_spec,
            horizon=T,
            agent=spec,
            adversary=AdversarySpec(kind="self_play"),
            metrics=("exploitability",),
        )
        _, _, series, unit = run_self_play(cfg)
        gaps = " ".join(f"{series['exploitability'][c - 1]:<10.5f}" for c in checkpoints)
        print(f"{label:>18} {gaps}")

    ne = solve_zero_sum(unit)
    print(f"\nequilibrium value {ne.value:.6f} (duality gap {ne.gap:.2e})")
    for _, alpha in CERTIFICATE_ALPHAS:
        label = f"exploit rate {alpha:g}" if alpha else "plain"
        rho = spectral_radius_at_ne(unit, ne, CERTIFICATE_ETA, alpha)
        print(f"spectral radius at the equilibrium, {label}: {rho:.6f}")
    return 0


def main() -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="12")
    parser.add_argument("--size", default="20")
    parser.add_argument("--horizon", default="20000")
    parser.set_defaults(func=run)
    return report_errors(parser)


if __name__ == "__main__":
    sys.exit(main())
