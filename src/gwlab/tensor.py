"""Dense complex linear algebra over multipartite tensor-product spaces.

Parties are indexed 0..n-1 with local dimensions ``dims``.  The composite
basis ket |i_0 i_1 ... i_{n-1}> sits at flat index sum_k i_k * prod_{j>k} d_j,
so party 0 is the most significant digit and C-order reshaping of an
amplitude vector into shape ``dims`` maps axis k to party k.

All objects are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.

A :class:`SubsystemLayout` holds a dense state's local dimensions, and
:func:`require_dense` refuses a dense array that does not fit in memory
before it is allocated.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

import numpy as np

try:
    import resource
except ImportError:  # no address-space limits to read on this platform
    resource = None

#: Hard cap on the composite dimension.  Dense storage only; every supported
#: instance is tiny, so exceeding this signals a caller bug.
DIM_CAP = 2**20

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-10
#: Eigenvalues in [EIG_FLOOR, 0) are float noise and clamp to 0; anything
#: more negative is a logic bug and raises.
EIG_FLOOR = -1e-10
SUPPORT_TOL = 1e-10

#: Bytes of a complex128 entry.
_ENTRY_BYTES = 16
#: Arrays of a dense state's size alive at once while it is built and
#: validated (``PureState.density`` peaks at 4.06 of them).
_BUILD_COPIES = 4
#: Arrays below this size are not checked against the memory limits: reading
#: the limits costs more than such an allocation.
_GUARD_MIN_BYTES = 2**24


def _proc_text(path: str) -> str:
    """Contents of a /proc file, or "" where there is none."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _memory_headroom() -> float:
    """Bytes this process can still allocate: the address-space soft limit
    less what the process maps now, and the memory the system has available;
    infinite where neither is known."""
    room = math.inf
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            statm = _proc_text("/proc/self/statm").split()
            mapped = int(statm[0]) * os.sysconf("SC_PAGE_SIZE") if statm else 0
            room = soft - mapped
    for line in _proc_text("/proc/meminfo").splitlines():
        if line.startswith("MemAvailable:"):
            room = min(room, int(line.split()[1]) * 1024)
    return room


def require_dense(dim: int, square: bool = False) -> None:
    """Refuse a dense complex array of ``dim`` entries (``dim x dim`` when
    ``square``) before it is allocated: raises ValueError when building it
    needs more bytes than :func:`_memory_headroom` leaves."""
    need = _BUILD_COPIES * _ENTRY_BYTES * dim * (dim if square else 1)
    if need < _GUARD_MIN_BYTES:
        return
    room = _memory_headroom()
    if need > room:
        shape = f"{dim}x{dim}" if square else f"{dim}"
        raise ValueError(
            f"a dense {shape} array needs {need} bytes to build; "
            f"only {room:.0f} are left"
        )


def _as_complex_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions of a dense state (composite dimension at most
    ``DIM_CAP``); fixes the tensor-index convention."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        if not dims or min(dims) < 2:
            raise ValueError(f"a layout needs one or more local dimensions >= 2, got {dims}")
        if math.prod(dims) > DIM_CAP:
            raise ValueError(f"total dimension {math.prod(dims)} exceeds cap {DIM_CAP}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def check_party(self, party: int) -> int:
        if not 0 <= party < self.n_parties:
            raise IndexError(f"party {party} out of range for {self.dims}")
        return party


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over a :class:`SubsystemLayout`.

    ``gw`` marks provenance from a generalized W-class constructor (possibly
    through reductions and coarse-grainings); closed-form measures refuse
    states without it.
    """

    amplitudes: np.ndarray
    layout: SubsystemLayout
    gw: bool = False

    def __post_init__(self):
        amp = _as_complex_vector(self.amplitudes, "amplitudes")
        if amp.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude vector of length {amp.size} does not match "
                f"layout dimension {self.layout.total_dim}"
            )
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.dims)

    def density(self) -> "DensityOperator":
        require_dense(self.layout.total_dim, square=True)
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(mat, self.layout, gw=self.gw)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian unit-trace matrix over a :class:`SubsystemLayout`."""

    matrix: np.ndarray
    layout: SubsystemLayout
    gw: bool = False

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.layout.total_dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dim {d}")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("matrix contains non-finite entries")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > max(HERM_TOL, HERM_TOL * float(np.max(np.abs(mat)))):
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace = float(np.real(np.trace(mat)))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        mat = (mat + mat.conj().T) / (2.0 * trace)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def tensor(self) -> np.ndarray:
        dims = self.layout.dims
        return self.matrix.reshape(dims + dims)

    def eigenvalues(self) -> np.ndarray:
        """Descending eigenvalues, clamped to [0, 1]; raises below EIG_FLOOR."""
        vals = np.linalg.eigvalsh(self.matrix)
        if float(vals.min()) < EIG_FLOOR:
            raise ValueError(
                f"eigenvalue {vals.min():.3e} below the clamp floor {EIG_FLOOR}"
            )
        return np.sort(np.clip(vals, 0.0, None))[::-1]

    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues() > SUPPORT_TOL))


State = Union[PureState, DensityOperator]


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Descending nonnegative coefficients lambda_i summing to one."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if coeffs.size == 0:
            raise ValueError("empty spectrum")
        if float(coeffs.min()) < EIG_FLOOR:
            raise ValueError(f"negative coefficient {coeffs.min():.3e}")
        coeffs = np.sort(np.clip(coeffs, 0.0, None))[::-1]
        total = float(coeffs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"coefficients sum to {total}, expected 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty blocks of party indices, held as a label vector:
    ``labels[p]`` is the block of party p, numbered from 0; -1, or a place
    past the vector's end, marks a party in no block."""

    labels: np.ndarray
    n_blocks: int = field(init=False)

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.intp).reshape(-1)
        sizes = np.bincount(labels + 1, minlength=2)  # parties in no block, in block 0...
        if np.count_nonzero(sizes[1:]) < sizes.size - 1:
            raise ValueError("partition blocks must be nonempty")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_blocks", sizes.size - 1)
        object.__setattr__(self, "_sizes", sizes)
        # block b's parties, ascending, are _members[_offsets[b] : _offsets[b + 1]]
        object.__setattr__(self, "_members", labels.argsort(kind="stable")[sizes[0] :])
        object.__setattr__(self, "_offsets", list(accumulate(sizes[1:].tolist(), initial=0)))

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]], n_parties: Optional[int] = None,
           complete: bool = False) -> "Partition":
        """The partition whose block i holds the parties listed i-th.  A party
        past ``n_parties - 1`` raises IndexError, or with ``complete`` the
        ValueError of :meth:`require_complete`, before labels are allocated."""
        members = [[int(p) for p in block] for block in blocks]
        if not members:
            raise ValueError("partition needs at least one block")
        if not all(members):
            raise ValueError("partition blocks must be nonempty")
        parties = [p for block in members for p in block]
        if min(parties) < 0:
            raise ValueError(f"party index {min(parties)} is negative")
        if len(set(parties)) < len(parties):
            party = min((-count, p) for p, count in Counter(parties).items())[1]  # most listed
            raise ValueError(f"partition blocks overlap: party {party} is listed more than once")
        top = max(parties)
        if complete and (top >= n_parties or len(parties) < n_parties):
            raise _uncovered(members, n_parties)
        if n_parties is not None and top >= n_parties:
            raise IndexError(f"party {top} out of range for {n_parties} parties")
        labels = [-1] * (top + 1)
        for b, block in enumerate(members):
            for p in block:
                labels[p] = b
        return cls(labels)

    @classmethod
    def cut(cls, blocks: Iterable[Iterable[int]], n_parties: Optional[int] = None,
            complete: bool = False) -> "Partition":
        """:meth:`of` of a bipartition, refused unless it has two blocks."""
        partition = cls.of(blocks, n_parties, complete)
        if partition.n_blocks != 2:
            raise ValueError(f"a bipartition needs two blocks, got {partition.n_blocks}")
        return partition

    @classmethod
    def singletons(cls, n_parties: int) -> "Partition":
        return cls(np.arange(n_parties))

    def covers(self, n_parties: int) -> bool:
        """Whether the blocks hold parties 0..n_parties-1 and no other."""
        return self.labels.size == n_parties and not self._sizes[0]

    @cached_property
    def sorted_blocks(self) -> list[list[int]]:
        """Each block's parties in ascending order, one list shared by every report."""
        flat, offsets = self._members.tolist(), self._offsets
        return [flat[a:b] for a, b in zip(offsets, offsets[1:])]

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.sorted_blocks))

    def parties(self) -> frozenset[int]:
        return frozenset(self._members.tolist())

    def block_sums(self, values) -> np.ndarray:
        """Each block's sum of ``values[p]`` over its parties p, exact as
        ``math.fsum``: a one-party block's is its value, through
        ``np.bincount``, and a larger block's its ``math.fsum``.  ``values``
        holds one entry per party; a block holding a party past its end
        raises IndexError."""
        values, labels = self._per_party(np.asarray(values, dtype=float)), self.labels
        # bin 0 gathers the parties in no block
        sums = np.bincount(labels + 1, values, self.n_blocks + 1)[1:]
        grouped, offsets = values[self._members].tolist(), self._offsets
        for b in (self._sizes[1:] > 1).nonzero()[0].tolist():
            sums[b] = math.fsum(grouped[offsets[b] : offsets[b + 1]])
        return sums

    def _per_party(self, values: np.ndarray) -> np.ndarray:
        """``values`` cut to one entry per labelled party; too few raise IndexError."""
        if values.size < self.labels.size:
            raise IndexError(f"party {self.labels.size - 1} out of range for {values.size} parties")
        return values[: self.labels.size]

    def require_complete(self, n_parties: int) -> None:
        if not self.covers(n_parties):
            raise _uncovered(self.sorted_blocks, n_parties)


def _uncovered(blocks: Iterable[Iterable[int]], n_parties: int) -> ValueError:
    return ValueError(f"partition {sorted(map(sorted, blocks))} does not cover "
                      f"all {n_parties} parties")


def _validated_keep(layout: SubsystemLayout, keep: Iterable[int]) -> list[int]:
    keep_list = sorted({int(p) for p in keep})
    if not keep_list:
        raise ValueError("keep set must be nonempty")
    for p in keep_list:
        layout.check_party(p)
    return keep_list


def partial_trace(state: State, keep: Iterable[int]) -> DensityOperator:
    """Trace out every party not in ``keep``.

    The result keeps the surviving parties in ascending original order and
    inherits the GW provenance flag (reductions stay inside the family).
    """
    keep_list = _validated_keep(state.layout, keep)
    layout = state.layout
    rest = [p for p in range(layout.n_parties) if p not in keep_list]
    d_keep = math.prod(layout.dims[p] for p in keep_list)
    require_dense(d_keep, square=True)
    order = keep_list + rest

    if isinstance(state, PureState):
        mat = np.transpose(state.tensor(), order).reshape(d_keep, -1)
        rho = mat @ mat.conj().T
    else:  # kets then bras, each kept parties first; trace the rest's ket against its bra
        n, d_rest = layout.n_parties, layout.total_dim // d_keep
        t = np.transpose(state.tensor(), order + [n + p for p in order])
        rho = np.trace(t.reshape(d_keep, d_rest, d_keep, d_rest), axis1=1, axis2=3)

    return DensityOperator(rho, SubsystemLayout(tuple(layout.dims[p] for p in keep_list)),
                           gw=state.gw)


def partial_transpose(rho: DensityOperator, party: int) -> np.ndarray:
    """Transpose the given party's indices; returns a plain matrix since the
    result need not be positive."""
    layout = rho.layout
    layout.check_party(party)
    n = layout.n_parties
    t = rho.tensor()
    t = np.swapaxes(t, party, n + party)
    d = layout.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def trace_norm(matrix) -> float:
    """Sum of singular values; for Hermitian input this is sum |eigenvalues|."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def bipartition_matrix(
    psi: PureState, bipartition: tuple[Iterable[int], Iterable[int]]
) -> np.ndarray:
    """Amplitude matrix with rows indexing the first block, columns the second."""
    side_a, side_b = Partition.cut(bipartition, psi.layout.n_parties, complete=True).sorted_blocks
    t = np.transpose(psi.tensor(), side_a + side_b)
    d_a = math.prod(psi.layout.dims[p] for p in side_a)
    return t.reshape(d_a, -1)


def schmidt_spectrum(
    psi: PureState, bipartition: tuple[Iterable[int], Iterable[int]]
) -> SchmidtSpectrum:
    """Eigenvalues of the reduced operator on the first block."""
    mat = bipartition_matrix(psi, bipartition)
    return SchmidtSpectrum(np.linalg.svd(mat, compute_uv=False) ** 2)


def coarse_grain(dims: Sequence[int], partition: Partition) -> tuple[int, ...]:
    """Each block's dimension, the product of its parties' local ``dims`` (a
    party in no block is left out): per distinct dimension u, u to the power
    of the block's count of such parties, so no block costs a long product."""
    labels = partition.labels
    dims, inside, block_dims = partition._per_party(np.asarray(dims, dtype=object)), labels >= 0, 1
    for u in map(int, set(dims.tolist())):
        counts = np.bincount(labels[inside & (dims == u)], minlength=partition.n_blocks)
        block_dims = block_dims * u ** counts.astype(object)
    return tuple(block_dims.tolist())


def block_dimension(dims: Sequence[int], partition: Partition, block: int) -> int:
    """One block's dimension as :func:`coarse_grain` gives it, without the other
    blocks': u to the power of its count of parties of local dimension u."""
    members = partition._per_party(np.asarray(dims, dtype=object))[partition.labels == block]
    return math.prod(int(u) ** count for u, count in Counter(members.tolist()).items())


def coarse_grain_state(state: State, partition: Partition) -> State:
    """Reindex ``state`` so each partition block becomes a single party.

    The amplitude data is unchanged up to the permutation of the parties
    that puts the blocks in order, each block's parties ascending.
    """
    partition.require_complete(state.layout.n_parties)
    new_layout = SubsystemLayout(coarse_grain(state.layout.dims, partition))
    perm = partition._members.tolist()
    n = state.layout.n_parties
    if isinstance(state, PureState):
        t = np.transpose(state.tensor(), perm)
        return PureState(t.reshape(-1), new_layout, gw=state.gw)
    both = list(perm) + [n + p for p in perm]
    t = np.transpose(state.tensor(), both)
    d = new_layout.total_dim
    return DensityOperator(t.reshape(d, d), new_layout, gw=state.gw)


def _support_basis(rho_local: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis of the local support, dimension >= 2.

    The basis comes from Gram-Schmidt over the computational kets projected
    onto the support, so a populated |0> maps to the first basis vector and
    weight-one structure survives compression.  Rank-1 supports are padded
    back to dimension 2 so downstream qubit formulas stay applicable.
    """
    d = rho_local.shape[0]
    evals, evecs = np.linalg.eigh(rho_local)
    support = evecs[:, evals > SUPPORT_TOL]
    rank = support.shape[1]
    proj = support @ support.conj().T

    basis: list[np.ndarray] = []

    def orthogonalize(vec: np.ndarray) -> np.ndarray:
        v = vec.astype(complex).copy()
        for _ in range(2):  # two passes keep the basis orthonormal
            for b in basis:
                v -= np.vdot(b, v) * b
        return v

    for j in range(d):
        if len(basis) == rank:
            break
        v = orthogonalize(proj[:, j])
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-7:
            basis.append(v / nrm)
    if len(basis) != rank:  # computational kets span everything
        raise RuntimeError("failed to span the local support")

    j = 0
    while len(basis) < 2:
        unit = np.zeros(d, dtype=complex)
        unit[j] = 1.0
        v = orthogonalize(unit)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-7:
            basis.append(v / nrm)
        j += 1

    # isometry matrix rows are the bra vectors <b_i|
    return np.array([b.conj() for b in basis])


def _apply_local_maps(state: State, maps: list[np.ndarray]) -> State:
    """Apply party k's map to axis k: a ket's, and for a density operator
    also the bra's (axis n + k), by the conjugate map."""
    n, dense = state.layout.n_parties, isinstance(state, DensityOperator)
    layout = SubsystemLayout(tuple(v.shape[0] for v in maps))
    axes = [(k, v) for k, v in enumerate(maps)]
    if dense:
        axes = [pair for k, v in axes for pair in ((k, v), (n + k, v.conj()))]
    t = state.tensor()
    for axis, v in axes:
        t = np.moveaxis(np.tensordot(v, t, axes=(1, axis)), 0, axis)
    d = layout.total_dim
    # the weight kept is the trace, or the squared norm of the amplitudes
    flat = t.reshape(d, d) if dense else t.reshape(-1)
    scale = float(np.real(np.trace(flat))) if dense else float(np.linalg.norm(flat))
    lost = abs(1.0 - (scale if dense else scale**2))
    if lost > 1e-8:
        raise RuntimeError(f"compression discarded weight {lost:.3e}")
    return type(state)(flat / scale, layout, gw=state.gw)


def compress_local_support(state: State) -> tuple[State, SubsystemLayout]:
    """Compress every party onto its local support (minimum dimension 2).

    The compression is a local isometry, so every measure in this package is
    invariant under it.  Parties already minimal pass through unchanged.
    """
    maps = []
    for k in range(state.layout.n_parties):
        marginal = partial_trace(state, {k})
        maps.append(_support_basis(marginal.matrix))
    compressed = _apply_local_maps(state, maps)
    return compressed, compressed.layout
