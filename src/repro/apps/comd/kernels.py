"""CoMD device kernels and characterizations.

Three kernels, as in Table I ("3 (LJ)"): the Lennard-Jones force
computation (>90% of runtime), the velocity half-kick, and the
position advance.
"""

from __future__ import annotations

import numpy as np

from ...engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from ...hardware.specs import Precision
from .reference import CoMDConfig

#: Atoms per link cell on the perfect FCC lattice (2x2x2 unit cells).
ATOMS_PER_CELL = 32


def lj_force(
    positions: np.ndarray,
    forces: np.ndarray,
    pe_per_atom: np.ndarray,
    cell_atoms: np.ndarray,
    cell_count: np.ndarray,
    neighbor_cells: np.ndarray,
    box: np.ndarray,
    cutoff: float,
) -> None:
    """Kernel 1: truncated-and-shifted LJ forces via the 27-cell stencil.

    One thread per atom in the GPU formulation; here each neighbour
    offset is evaluated for all cells at once.  Periodic minimum-image
    convention; the potential is shifted to zero at the cutoff so
    energy is continuous.
    """
    dtype = positions.dtype
    n_cells, max_occ = cell_atoms.shape
    valid = cell_atoms >= 0
    idx = np.where(valid, cell_atoms, 0)
    pos_c = positions[idx]  # (nc, m, 3)
    force_acc = np.zeros_like(pos_c)
    pe_acc = np.zeros((n_cells, max_occ), dtype=dtype)

    rc2 = dtype.type(cutoff * cutoff)
    sr6 = (1.0 / rc2) ** 3
    e_shift = dtype.type(4.0 * (sr6 * sr6 - sr6))
    box_t = box.astype(dtype)
    inv_box = (1.0 / box_t).astype(dtype)
    eps = dtype.type(1e-12)

    valid_f = valid.astype(dtype)
    for k in range(neighbor_cells.shape[1]):
        ncell = neighbor_cells[:, k]
        pos_n = pos_c[ncell]  # (nc, m, 3), gathered cell-block at a time
        d = pos_c[:, :, None, :] - pos_n[:, None, :, :]
        d -= np.round(d * inv_box) * box_t
        r2 = (d * d).sum(axis=-1)
        pair_mask = ((r2 < rc2) & (r2 > eps)).astype(dtype)
        pair_mask *= valid_f[:, :, None]
        pair_mask *= valid_f[ncell][:, None, :]
        r2i = pair_mask / np.maximum(r2, eps)  # exact zero where masked
        r6i = r2i * r2i * r2i
        fcoef = 24.0 * (2.0 * r6i * r6i - r6i) * r2i
        force_acc += np.einsum("cij,cijx->cix", fcoef, d)
        pe_acc += (4.0 * (r6i * r6i - r6i) - e_shift * pair_mask).sum(axis=2)

    forces[:] = 0.0
    pe_per_atom[:] = 0.0
    flat = idx[valid]
    forces[flat] = force_acc[valid]
    pe_per_atom[flat] = 0.5 * pe_acc[valid]  # halve the double-counted pairs


def advance_velocity(velocities: np.ndarray, forces: np.ndarray, dt_half: float) -> None:
    """Kernel 2: velocity half-kick v += (dt/2) * F / m (m = 1)."""
    velocities += forces * velocities.dtype.type(dt_half)


def advance_position(positions: np.ndarray, velocities: np.ndarray, box: np.ndarray, dt: float) -> None:
    """Kernel 3: drift x += dt * v with periodic wrap-around."""
    dtype = positions.dtype
    positions += velocities * dtype.type(dt)
    np.mod(positions, box.astype(dtype), out=positions)


def kernel_specs(config: CoMDConfig, precision: Precision) -> dict[str, KernelSpec]:
    """Characterize the three kernels for the timing model."""
    ebytes = precision.bytes_per_element
    n = config.n_atoms
    checks = 27 * ATOMS_PER_CELL  # pair candidates examined per atom
    accepted = 70  # pairs inside the cutoff sphere on the FCC lattice
    force_flops = checks * 9 + accepted * 15

    specs = {
        "comd.lj_force": KernelSpec(
            name="comd.lj_force",
            work_items=n,
            ops=OpCount(
                flops=float(force_flops * n),
                int_ops=float(checks * 2 * n),
                bytes_read=float((27 * 3 + 6) * ebytes * n),
                bytes_written=float(4 * ebytes * n),
            ),
            access=AccessPattern(
                kind=AccessKind.NEIGHBOR_LIST,
                working_set_bytes=float(10 * ebytes * n),
                request_bytes=4 * ebytes,
                reuse_fraction=0.35,
                row_buffer_efficiency=0.85,
            ),
            workgroup_size=ATOMS_PER_CELL * 2,
            instructions_per_item=float(force_flops * 1.1),
            registers_per_thread=64,
            lds_bytes_per_workgroup=2 * ATOMS_PER_CELL * 4 * ebytes * 2,
            lds_traffic_filter=0.5,
            divergence=0.3,
            unroll_benefit=0.15,
            cpu_simd_fraction=0.5,
        ),
        "comd.advance_velocity": KernelSpec(
            name="comd.advance_velocity",
            work_items=n,
            ops=OpCount(
                flops=float(6 * n),
                int_ops=float(2 * n),
                bytes_read=float(6 * ebytes * n),
                bytes_written=float(3 * ebytes * n),
            ),
            access=AccessPattern(
                kind=AccessKind.STREAMING,
                working_set_bytes=float(9 * ebytes * n),
                request_bytes=ebytes,
            ),
            workgroup_size=256,
            instructions_per_item=14.0,
            registers_per_thread=12,
            cpu_simd_fraction=0.95,
        ),
        "comd.advance_position": KernelSpec(
            name="comd.advance_position",
            work_items=n,
            ops=OpCount(
                flops=float(9 * n),
                int_ops=float(2 * n),
                bytes_read=float(6 * ebytes * n),
                bytes_written=float(3 * ebytes * n),
            ),
            access=AccessPattern(
                kind=AccessKind.STREAMING,
                working_set_bytes=float(9 * ebytes * n),
                request_bytes=ebytes,
            ),
            workgroup_size=256,
            instructions_per_item=20.0,
            registers_per_thread=12,
            cpu_simd_fraction=0.9,
        ),
    }
    return specs
