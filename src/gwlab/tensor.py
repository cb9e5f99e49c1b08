"""Dense complex linear algebra over multipartite tensor-product spaces.

Parties are indexed 0..n-1 with local dimensions ``dims``.  The composite
basis ket |i_0 i_1 ... i_{n-1}> sits at flat index sum_k i_k * prod_{j>k} d_j,
so party 0 is the most significant digit and C-order reshaping of an
amplitude vector into shape ``dims`` maps axis k to party k.

All objects are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
Each state also holds a private memo of values derived from it (reductions,
Schmidt spectra, compressed pair reductions and their concurrences), filled
on first use and dropped with the state.  Two threads filling the same entry
at once at worst compute the same value twice.

A :class:`PartyLayout` describes parties of any number; a
:class:`SubsystemLayout` also fits dense storage.  :func:`require_dense`
refuses a dense array that does not fit in memory before it is allocated.
"""

from __future__ import annotations

import math
import os
import string
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence, TypeVar, Union

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

_AXIS_LETTERS = string.ascii_lowercase + string.ascii_uppercase

_T = TypeVar("_T")


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
class PartyLayout:
    """Ordered list of local dimensions; fixes the tensor-index convention."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("layout needs at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def restricted(self, keep: Sequence[int]) -> "PartyLayout":
        """Layout of the listed parties, kept in ascending party order."""
        return type(self)(tuple(self.dims[p] for p in sorted(keep)))

    def check_party(self, party: int) -> int:
        if not 0 <= party < self.n_parties:
            raise IndexError(f"party {party} out of range for {self.dims}")
        return party


class SubsystemLayout(PartyLayout):
    """A layout whose composite dimension fits dense storage (``DIM_CAP``)."""

    def __post_init__(self):
        super().__post_init__()
        if math.prod(self.dims) > DIM_CAP:
            raise ValueError(
                f"total dimension {math.prod(self.dims)} exceeds cap {DIM_CAP}"
            )


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
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def rank(self, tol: float = SUPPORT_TOL) -> int:
        return int(np.count_nonzero(self.eigenvalues() > tol))


State = Union[PureState, DensityOperator]


def _memoized(state: State, key: Hashable, compute: Callable[[], _T]) -> _T:
    """The value stored on ``state`` under ``key``, computed on first use.

    Only immutable values derived from the state alone may be stored, and
    callers validate their arguments first: an exception leaves no entry,
    so an invalid call raises again every time.
    """
    try:
        return state._memo[key]
    except KeyError:
        return state._memo.setdefault(key, compute())


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


@dataclass(frozen=True)
class Partition:
    """Disjoint grouping of party indices into blocks."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(int(p) for p in block) for block in self.blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        if any(not block for block in blocks):
            raise ValueError("partition blocks must be nonempty")
        seen: set[int] = set()
        for block in blocks:
            if seen & block:
                raise ValueError("partition blocks overlap")
            seen |= block
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(frozenset(b) for b in blocks))

    @classmethod
    def singletons(cls, n_parties: int) -> "Partition":
        return cls.of([{p} for p in range(n_parties)])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def parties(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)

    def require_complete(self, layout: PartyLayout) -> None:
        if self.parties() != frozenset(range(layout.n_parties)):
            raise ValueError(
                f"partition {sorted(map(sorted, self.blocks))} does not cover "
                f"all {layout.n_parties} parties"
            )


def _validated_keep(layout: PartyLayout, keep: Iterable[int]) -> list[int]:
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
    key = ("partial_trace", tuple(keep_list))
    return _memoized(state, key, lambda: _partial_trace(state, keep_list))


def _partial_trace(state: State, keep_list: list[int]) -> DensityOperator:
    layout = state.layout
    rest = [p for p in range(layout.n_parties) if p not in keep_list]
    d_keep = math.prod(layout.dims[p] for p in keep_list)
    require_dense(d_keep, square=True)

    if isinstance(state, PureState):
        t = np.transpose(state.tensor(), keep_list + rest)
        mat = t.reshape(d_keep, -1)
        rho = mat @ mat.conj().T
    else:
        n = layout.n_parties
        if 2 * n > len(_AXIS_LETTERS):
            raise ValueError("too many parties for dense partial trace")
        ket = list(_AXIS_LETTERS[:n])
        bra = list(_AXIS_LETTERS[n : 2 * n])
        for p in rest:
            bra[p] = ket[p]
        out = "".join(ket[p] for p in keep_list) + "".join(bra[p] for p in keep_list)
        rho = np.einsum("".join(ket) + "".join(bra) + "->" + out, state.tensor())
        rho = rho.reshape(d_keep, d_keep)

    return DensityOperator(rho, layout.restricted(keep_list), gw=state.gw)


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


def _normalized_bipartition(
    layout: PartyLayout, bipartition: tuple[Iterable[int], Iterable[int]]
) -> tuple[list[int], list[int]]:
    side_a = sorted({int(p) for p in bipartition[0]})
    side_b = sorted({int(p) for p in bipartition[1]})
    if not side_a or not side_b:
        raise ValueError("both sides of the bipartition must be nonempty")
    if set(side_a) & set(side_b):
        raise ValueError("bipartition blocks overlap")
    if set(side_a) | set(side_b) != set(range(layout.n_parties)):
        raise ValueError("bipartition must cover all parties")
    return side_a, side_b


def bipartition_matrix(
    psi: PureState, bipartition: tuple[Iterable[int], Iterable[int]]
) -> np.ndarray:
    """Amplitude matrix with rows indexing the first block, columns the second."""
    side_a, side_b = _normalized_bipartition(psi.layout, bipartition)
    t = np.transpose(psi.tensor(), side_a + side_b)
    d_a = math.prod(psi.layout.dims[p] for p in side_a)
    return t.reshape(d_a, -1)


def schmidt_spectrum(
    psi: PureState, bipartition: tuple[Iterable[int], Iterable[int]]
) -> SchmidtSpectrum:
    """Eigenvalues of the reduced operator on the first block."""
    side_a, side_b = _normalized_bipartition(psi.layout, bipartition)

    def compute() -> SchmidtSpectrum:
        mat = bipartition_matrix(psi, (side_a, side_b))
        return SchmidtSpectrum(np.linalg.svd(mat, compute_uv=False) ** 2)

    key = ("schmidt_spectrum", tuple(side_a), tuple(side_b))
    return _memoized(psi, key, compute)


def partition_permutation(partition: Partition) -> tuple[int, ...]:
    """Party order after coarse-graining: blocks in order, members ascending."""
    return tuple(p for block in partition.blocks for p in sorted(block))


def coarse_grain(layout: PartyLayout, partition: Partition) -> PartyLayout:
    """Layout with one party per block, dimension the product over members."""
    partition.require_complete(layout)
    return type(layout)(
        tuple(
            math.prod(layout.dims[p] for p in sorted(block))
            for block in partition.blocks
        )
    )


def coarse_grain_state(state: State, partition: Partition) -> State:
    """Reindex ``state`` so each partition block becomes a single party.

    The amplitude data is unchanged up to the index permutation returned by
    :func:`partition_permutation`.
    """
    new_layout = coarse_grain(state.layout, partition)
    perm = partition_permutation(partition)
    n = state.layout.n_parties
    if isinstance(state, PureState):
        t = np.transpose(state.tensor(), perm)
        return PureState(t.reshape(-1), new_layout, gw=state.gw)
    both = list(perm) + [n + p for p in perm]
    t = np.transpose(state.tensor(), both)
    d = new_layout.total_dim
    return DensityOperator(t.reshape(d, d), new_layout, gw=state.gw)


def _support_basis(rho_local: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Rows form an orthonormal basis of the local support, dimension >= 2.

    The basis comes from Gram-Schmidt over the computational kets projected
    onto the support, so a populated |0> maps to the first basis vector and
    weight-one structure survives compression.  Rank-1 supports are padded
    back to dimension 2 so downstream qubit formulas stay applicable.
    """
    d = rho_local.shape[0]
    evals, evecs = np.linalg.eigh(rho_local)
    support = evecs[:, evals > tol]
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
    n = state.layout.n_parties
    new_dims = tuple(v.shape[0] for v in maps)
    if isinstance(state, PureState):
        t = state.tensor()
        for k, v in enumerate(maps):
            t = np.moveaxis(np.tensordot(v, t, axes=(1, k)), 0, k)
        vec = t.reshape(-1)
        lost = abs(1.0 - float(np.linalg.norm(vec)) ** 2)
        if lost > 1e-8:
            raise RuntimeError(f"compression discarded weight {lost:.3e}")
        vec = vec / np.linalg.norm(vec)
        return PureState(vec, SubsystemLayout(new_dims), gw=state.gw)
    t = state.tensor()
    for k, v in enumerate(maps):
        t = np.moveaxis(np.tensordot(v, t, axes=(1, k)), 0, k)
        t = np.moveaxis(np.tensordot(v.conj(), t, axes=(1, n + k)), 0, n + k)
    d = math.prod(new_dims)
    mat = t.reshape(d, d)
    lost = abs(1.0 - float(np.real(np.trace(mat))))
    if lost > 1e-8:
        raise RuntimeError(f"compression discarded weight {lost:.3e}")
    mat = mat / np.real(np.trace(mat))
    return DensityOperator(mat, SubsystemLayout(new_dims), gw=state.gw)


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
