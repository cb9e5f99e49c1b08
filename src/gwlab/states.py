"""Constructors for generalized W-class (GW) state families.

A GW state is a coherent superposition of all product kets with Hamming
weight one, optionally superposed or mixed with the vacuum ket |0...0>.
Reductions and coarse-grainings of these states stay inside the family,
which is what makes the closed-form measures in :mod:`gwlab.measures`
applicable; every constructor here therefore tags its output with
``gw=True``.  :class:`GWBlocks` describes the same members by their
excitation probabilities alone, with no dense array;
:meth:`GWBlocks.from_state` reads those off a dense member, and is the one
place that tells the two kinds of state apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DensityOperator,
    NORM_TOL,
    Partition,
    PartyLayout,
    PureState,
    SUPPORT_TOL,
    SubsystemLayout,
    coarse_grain,
    partial_trace,
    require_dense,
)

__all__ = [
    "GWSpec",
    "GWBlocks",
    "Partition",
    "ProvenanceError",
    "build_w_qubit",
    "superpose_with_vacuum",
    "mix_with_vacuum",
    "purify_mixture",
    "reduce_to_parties",
    "gw_spec_to_json",
    "gw_spec_from_json",
]


class ProvenanceError(ValueError):
    """Closed form requested on a state without GW provenance."""


def _normalized_table(values, shape, name: str) -> np.ndarray:
    table = np.array(values, dtype=complex)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name} has non-finite entries")
    norm_sq = float(np.sum(np.abs(table) ** 2))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(
            f"{name} has squared norm {norm_sq}, deviating from 1 beyond {NORM_TOL}"
        )
    table = table / np.sqrt(norm_sq)
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class GWSpec:
    """Amplitude table a_{si} plus a vacuum weight.

    ``amplitudes[s, i-1]`` is the coefficient of the ket exciting party s to
    level i (1 <= i <= d-1); the table has unit norm.  ``vacuum_weight`` is
    the probability weight of the vacuum ket in the superposition and
    mixture families: the excited part carries ``1 - vacuum_weight``.
    """

    n: int
    d: int
    amplitudes: np.ndarray
    vacuum_weight: float = 0.0

    def __post_init__(self):
        n, d = int(self.n), int(self.d)
        if n < 2:
            raise ValueError(f"need at least 2 parties, got {n}")
        if d < 2:
            raise ValueError(f"local dimension must be >= 2, got {d}")
        p = float(self.vacuum_weight)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"vacuum_weight {p} outside [0, 1]")
        table = _normalized_table(self.amplitudes, (n, d - 1), "amplitude table")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "amplitudes", table)
        object.__setattr__(self, "vacuum_weight", p)

    @classmethod
    def qubit(cls, amplitudes, vacuum_weight: float = 0.0) -> "GWSpec":
        """Spec for an n-qubit family member from a flat amplitude list."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1, 1)
        return cls(n=amps.shape[0], d=2, amplitudes=amps, vacuum_weight=vacuum_weight)

    @property
    def layout(self) -> SubsystemLayout:
        return SubsystemLayout((self.d,) * self.n)


@dataclass(frozen=True, eq=False)
class GWBlocks:
    """A family member described by its excitation probabilities, with no
    dense array.

    ``weights[k]`` (a read-only float array) is the probability t_k of the
    ket exciting party k and ``vacuum_weight`` is the vacuum population w,
    so that the weights and w sum to one.  Every closed form in
    :mod:`gwlab.measures` reads the t_k only (Kim and Sanders, J. Phys. A
    41, 495301 (2008)): C(S, K) = 2 sqrt(t_S t_K) and C^2(S | R) = 4 t_S t_R,
    with t_B the summed weight of block B and R the other parties present.
    Only a pure member's canonical pair also reads w.

    ``pure`` marks a vacuum superposition; a vacuum mixture with w > 0 and
    every reduction are not pure.  A reduction keeps the weights of the
    parties it keeps and counts the rest as vacuum, and merging blocks sums
    them; :meth:`merged` does both, so both stay GWBlocks.
    """

    weights: np.ndarray
    layout: PartyLayout
    vacuum_weight: float = 0.0
    pure: bool = True

    #: Only family members have a GWBlocks description.
    gw = True

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.layout.n_parties,):
            raise ValueError(
                f"{weights.size} weights for {self.layout.n_parties} parties"
            )
        w = float(self.vacuum_weight)
        if not (0.0 <= w < math.inf and 0.0 <= weights.min() and weights.max() < math.inf):
            raise ValueError("weights and vacuum_weight must be finite and nonnegative")
        # a dense member may leave up to SUPPORT_TOL outside Hamming weight <= 1
        total = math.fsum([*weights.tolist(), w])
        if abs(total - 1.0) > NORM_TOL + SUPPORT_TOL:
            raise ValueError(f"weights and vacuum_weight sum to {total}")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vacuum_weight", w)
        object.__setattr__(self, "pure", bool(self.pure))

    @classmethod
    def of(cls, spec: GWSpec) -> "GWBlocks":
        """The spec's vacuum superposition: t_k = (1-w) sum_i |a_ki|^2, the
        excited populations of :func:`superpose_with_vacuum` and of
        :func:`mix_with_vacuum`, which is not pure when w > 0."""
        w = spec.vacuum_weight
        weights = (1.0 - w) * np.sum(np.abs(spec.amplitudes) ** 2, axis=1)
        return cls(weights, PartyLayout((spec.d,) * spec.n), w)

    @classmethod
    def from_state(cls, state) -> "GWBlocks":
        """The weights of a GW-tagged state; a GWBlocks is returned as it is.

        A dense state must have no population outside Hamming weight <= 1
        beyond ``SUPPORT_TOL``.  Its excited populations are the weights and
        its vacuum population is w.  A :class:`PureState` is pure, and so is
        a :class:`DensityOperator` with 1 - Tr rho^2 <= ``SUPPORT_TOL``."""
        if isinstance(state, GWBlocks):
            return state
        if not state.gw:
            raise ProvenanceError(
                "closed forms hold on the generalized W-class family; "
                "the input state carries no GW provenance"
            )
        if isinstance(state, PureState):
            populations, pure = np.abs(state.amplitudes) ** 2, True
        else:
            matrix = state.matrix
            populations = np.real(np.diagonal(matrix))
            pure = 1.0 - float(np.vdot(matrix, matrix).real) <= SUPPORT_TOL
        # party k alone excited to level i sits at flat index i * stride_k
        dims = state.layout.dims
        strides = [math.prod(dims[k + 1 :]) for k in range(len(dims))]
        excited = [
            max(0.0, float(populations[stride : d * stride : stride].sum()))
            for d, stride in zip(dims, strides)
        ]
        vacuum = max(0.0, float(populations[0]))
        outside = float(populations.sum()) - vacuum - math.fsum(excited)
        if outside > SUPPORT_TOL:
            raise ValueError(
                f"state has population {outside:.3e} outside Hamming weight <= 1; "
                "it is not a generalized W-class member"
            )
        return cls(excited, PartyLayout(dims), vacuum, pure)

    def merged(self, partition: Partition) -> "GWBlocks":
        """One party per block of ``partition``, weighing t_B.  The parties
        in no block are traced out and count as vacuum: w = 1 - the fsum of
        the weights kept, and the reduction is not pure."""
        weights = partition.block_sums(self.weights)
        if partition.covers(self.layout.n_parties):
            layout = coarse_grain(self.layout, partition)
            return GWBlocks(weights, layout, self.vacuum_weight, self.pure)
        keep = np.flatnonzero(partition.labels >= 0)
        layout = coarse_grain(self.layout.restricted(keep.tolist()), partition.covered())
        vacuum = max(0.0, 1.0 - math.fsum(self.weights[keep].tolist()))
        return GWBlocks(weights, layout, vacuum, pure=False)


def _weight_one_vector(n: int, d: int, table: np.ndarray) -> np.ndarray:
    """Flat amplitude vector supported on Hamming-weight-one kets."""
    require_dense(d**n)
    vec = np.zeros(d**n, dtype=complex)
    for s in range(n):
        stride = d ** (n - 1 - s)
        for i in range(1, d):
            vec[i * stride] += table[s, i - 1]
    return vec


def build_w_qubit(amplitudes) -> PureState:
    """n-qubit W-class state sum_j a_j |0...1_j...0> from n amplitudes."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size < 2:
        raise ValueError("need at least 2 amplitudes")
    return superpose_with_vacuum(GWSpec.qubit(amps))


def superpose_with_vacuum(spec: GWSpec) -> PureState:
    """sqrt(1-w)|W> + sqrt(w)|0...0> with w the spec's vacuum weight; at
    w = 0 the pure qudit state sum_{s,i} a_{si} |0...i_s...0>."""
    w = spec.vacuum_weight
    vec = np.sqrt(1.0 - w) * _weight_one_vector(spec.n, spec.d, spec.amplitudes)
    vec[0] += np.sqrt(w)
    return PureState(vec, spec.layout, gw=True)


def mix_with_vacuum(spec: GWSpec) -> DensityOperator:
    """(1-w)|W><W| + w|0...0><0...0|; rank at most two."""
    w = spec.vacuum_weight
    require_dense(spec.d**spec.n, square=True)
    wvec = _weight_one_vector(spec.n, spec.d, spec.amplitudes)
    mat = (1.0 - w) * np.outer(wvec, wvec.conj())
    mat[0, 0] += w
    return DensityOperator(mat, spec.layout, gw=True)


def purify_mixture(spec: GWSpec, ancilla_amplitudes) -> PureState:
    """(n+1)-party pure state whose ancilla trace-out gives the mixture.

    The purification is itself a generalized W-class state: the spec's table
    scaled by sqrt(1-w) plus an ancilla row carrying sqrt(w) times the d-1
    ancilla amplitudes, which must be finite and of unit norm.
    """
    anc = _normalized_table(
        np.asarray(ancilla_amplitudes, dtype=complex).reshape(-1),
        (spec.d - 1,),
        "ancilla amplitudes",
    )
    w = spec.vacuum_weight
    table = np.zeros((spec.n + 1, spec.d - 1), dtype=complex)
    table[: spec.n, :] = np.sqrt(1.0 - w) * spec.amplitudes
    table[spec.n, :] = np.sqrt(w) * anc
    induced = GWSpec(n=spec.n + 1, d=spec.d, amplitudes=table, vacuum_weight=0.0)
    return superpose_with_vacuum(induced)


def reduce_to_parties(psi: PureState | DensityOperator, subset) -> DensityOperator:
    """Reduced density matrix of a dense GW-tagged state on ``subset``,
    keeping the tag: reductions of family members stay in the family, so
    closed-form measures remain valid on the result.  Block weights reduce
    through :meth:`GWBlocks.merged`.
    """
    if not psi.gw:
        raise ValueError("reduce_to_parties needs a GW-tagged state")
    return partial_trace(psi, subset)


def gw_spec_to_json(spec: GWSpec) -> str:
    """Serialize to the wire schema: amplitudes as [re, im] pairs in (s, i)
    row-major order."""
    pairs = [
        [float(a.real), float(a.imag)] for a in spec.amplitudes.reshape(-1)
    ]
    doc = {
        "n": spec.n,
        "d": spec.d,
        "amplitudes": pairs,
        "vacuum_weight": spec.vacuum_weight,
    }
    return json.dumps(doc, sort_keys=True)


def _json_number(value, integral: bool = False) -> float | int:
    """A number of the spec document: a JSON int or float, never a bool or a
    string.  A count must be integral, so 2.0 reads as 2 and 2.9 is refused."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    if integral and type(value) is float and not value.is_integer():
        raise ValueError(f"{value!r} is not an integral count")
    return int(value) if integral else float(value)


def gw_spec_from_json(text: str) -> GWSpec:
    try:
        doc = json.loads(text)
        n = _json_number(doc["n"], integral=True)
        d = _json_number(doc["d"], integral=True)
        pairs = doc["amplitudes"]
        w = _json_number(doc["vacuum_weight"])
        if not {type(x) for pair in pairs for x in pair} <= {int, float}:
            raise TypeError("an amplitude entry is not a JSON number")
        flat = np.array(
            [complex(float(re), float(im)) for re, im in pairs], dtype=complex
        )
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # a RecursionError is a spec nested deeper than the decoder recurses
        raise ValueError(f"malformed GW spec document: {exc}") from exc
    if n < 2 or d < 2:
        raise ValueError(f"a GW spec needs n >= 2 parties and d >= 2 levels, got n={n}, d={d}")
    if flat.size != n * (d - 1):
        raise ValueError(
            f"amplitude list of length {flat.size} does not match n={n}, d={d}"
        )
    return GWSpec(n=n, d=d, amplitudes=flat.reshape(n, d - 1), vacuum_weight=w)
