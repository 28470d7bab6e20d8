"""Read-memory micro-benchmark: reference serial implementation.

Section III: "The read-memory benchmark streams through a region of
memory and computes the sum of a block of continuous elements.  The
block size of 64 is used for our experiments.  The computed sum is
then written to an output buffer to ensure that the compiler does not
optimize out the code."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...engine.memo import memoized_setup, projection_stub
from ...hardware.specs import Precision

BLOCK_SIZE = 64


@dataclass(frozen=True)
class ReadMemConfig:
    """Problem size of the read-memory benchmark."""

    size: int  # number of input elements
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size % self.block_size != 0:
            raise ValueError(
                f"size {self.size} must be a positive multiple of the "
                f"block size {self.block_size}"
            )

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_size


def default_config() -> ReadMemConfig:
    """CI-sized run: 1 Mi elements (4 MiB single precision)."""
    return ReadMemConfig(size=1 << 20)


def paper_config() -> ReadMemConfig:
    """Paper-sized run: 64 Mi elements (256 MiB single precision)."""
    return ReadMemConfig(size=1 << 26)


@memoized_setup
def make_input(config: ReadMemConfig, precision: Precision, seed: int = 7) -> np.ndarray:
    """Deterministic input stream."""
    dtype = np.float32 if precision is Precision.SINGLE else np.float64
    rng = np.random.default_rng(seed)
    return rng.random(config.size).astype(dtype)


@projection_stub(make_input)
def _projection_input(config: ReadMemConfig, precision: Precision, seed: int = 7) -> np.ndarray:
    """Shape-faithful stand-in for schedule capture: the ports derive
    buffer sizes and kernel specs from the array's shape/dtype only."""
    dtype = np.float32 if precision is Precision.SINGLE else np.float64
    data = np.zeros(config.size, dtype=dtype)
    data.flags.writeable = False
    return data


def read_serial_cpu(data: np.ndarray, out: np.ndarray, block_size: int = BLOCK_SIZE) -> None:
    """Figure 3a: stream through ``data`` summing blocks of 64."""
    out[:] = data.reshape(-1, block_size).sum(axis=1)


def reference_checksum(data: np.ndarray, config: ReadMemConfig) -> float:
    """Oracle checksum every port must reproduce."""
    out = np.zeros(config.n_blocks, dtype=data.dtype)
    read_serial_cpu(data, out, config.block_size)
    return float(out.sum())
