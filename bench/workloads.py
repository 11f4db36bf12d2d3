"""The benchmark's workloads. Importing this module loads no numpy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "generate"
    geometry: str        # a key of inputs.GEOMETRIES
    entities: int        # training examples per epoch, or entities per generate round
    chunks: int = 1      # distinct generate rounds before the inputs repeat
    mode: str = "greedy"
    setup_repeats: int = 3   # set-ups timed before and after training, or before each round


WORKLOADS = {w.name: w for w in [
    # an epoch is 4 steps of 16 examples, under 2 s on a 2-vCPU guest
    Workload("train-overfit", "train", "overfit", entities=64, setup_repeats=15),
    # an epoch is one step of 16 examples, 3 to 4 s on a 2-vCPU guest
    Workload("train-paper", "train", "paper", entities=16),
    Workload("generate-greedy", "generate", "d256", entities=48, chunks=2),
    Workload("generate-beam", "generate", "overfit", entities=48, chunks=2, mode="beam:4"),
]}


def tiny(workload: Workload) -> Workload:
    """The same workload at the self-check geometry and size."""
    return Workload(workload.name, workload.kind, "tiny", entities=8, chunks=2,
                    mode=workload.mode, setup_repeats=1)
