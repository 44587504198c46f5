"""The benchmark's workloads: one synthetic dataset shape plus one set of
`coft run` flags each.

Every workload uses the acceptance generator settings (noise_sigma 0.4,
anchor_alignment 0.6, separation 1.0); the workload seed feeds both the
generator and `coft run --seed`. `TrainConfig` keeps its defaults unless the
flags below say otherwise. Each workload stresses a different layer, so an
optimisation of one layer shows on one workload and stays flat on another.
Only `accept-coft` keeps the default epochs. The others train for fewer: per
step they cost the same as longer training, and short runs let one
measurement repeat each run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    dim: int
    run_args: tuple  # extra `coft run` flags
    why: str
    noise_sigma: float = 0.4
    anchor_alignment: float = 0.6
    separation: float = 1.0

    def inputs(self) -> dict:
        """Everything that defines the workload's inputs, for the result record."""
        return {
            "classes": self.classes,
            "per_class": self.per_class,
            "dim": self.dim,
            "noise_sigma": self.noise_sigma,
            "anchor_alignment": self.anchor_alignment,
            "separation": self.separation,
            "run_args": list(self.run_args),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "accept-coft", 10, 100, 64, ("--mode", "coft"),
            "acceptance set in base mode: tiny tensors, so per-call overhead of "
            "phase 1 and the optimizer step dominates; momentum contrast is bypassed",
        ),
        Workload(
            "accept-plus", 10, 100, 64,
            ("--mode", "coft-plus", "--phase1-epochs", "40", "--phase2-epochs", "30"),
            "acceptance set in coft-plus mode: the only workload that runs momentum "
            "contrast, augmentation and round-2 regeneration",
        ),
        Workload(
            "scale-coft", 100, 100, 256,
            ("--mode", "coft", "--phase1-epochs", "2", "--phase2-epochs", "1"),
            "100 classes x 256-d: 512x256 student tensors make the optimizer step "
            "bandwidth-bound, and the filter keeps nearly every sample",
        ),
        Workload(
            "label-heavy", 20, 2500, 64,
            ("--mode", "coft", "--phase1-epochs", "5", "--phase2-epochs", "1"),
            "50k samples with short training: pseudo-label bookkeeping, the filter, "
            "label export and dataset load are about half the run",
        ),
    )
}
