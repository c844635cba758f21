#!/usr/bin/env python3
"""FSI: the coupled case's scalability at cluster scale.

Reproduces Fig. 3's shape on the simulated MareNostrum4 at reduced node
counts: bare-metal and the system-specific container keep scaling; the
self-contained container stops at ~32 nodes because its bundled MPI
cannot drive Omni-Path.

Run:  python examples/fsi_scaling_study.py
"""

from repro.core.figures import fig3_table
from repro.core.study import ScalabilityStudy


def main() -> None:
    print("== Fig. 3 shape at reduced scale (4..64 nodes) ==")
    study = ScalabilityStudy(nodes=(4, 8, 16, 32, 64), sim_steps=2)
    outcome = study.run()
    print(fig3_table(outcome))
    speedups = outcome.speedups()
    sc = speedups["singularity self-contained"]
    print(
        f"\nself-contained speedup 32 -> 64 nodes: "
        f"{sc[32]:.2f} -> {sc[64]:.2f}  (stops scaling)"
    )
    print(
        f"bare-metal speedup at 64 nodes: {speedups['bare-metal'][64]:.1f} "
        f"of ideal {outcome.ideal()[64]:.0f}"
    )


if __name__ == "__main__":
    main()
