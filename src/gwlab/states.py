"""Constructors for generalized W-class (GW) state families.

A GW state is a coherent superposition of all product kets with Hamming
weight one, optionally superposed or mixed with the vacuum ket |0...0>.
Reductions and coarse-grainings of these states stay inside the family,
which is what makes the closed-form measures in :mod:`gwlab.measures`
applicable; every constructor here therefore tags its output with
``gw=True``.  :class:`GWBlocks` describes the same members by their
excitation weights alone, with no dense array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .tensor import (
    DensityOperator,
    NORM_TOL,
    Partition,
    PartyLayout,
    PureState,
    SubsystemLayout,
    _validated_keep,
    coarse_grain,
    partial_trace,
    require_dense,
)

__all__ = [
    "GWSpec",
    "GWBlocks",
    "FamilyState",
    "Partition",
    "PurificationSpec",
    "build_w_qubit",
    "build_gw_qudit",
    "superpose_with_vacuum",
    "mix_with_vacuum",
    "purify_mixture",
    "reduce_to_parties",
    "gw_spec_to_json",
    "gw_spec_from_json",
]


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

    def block_weight(self, parties) -> float:
        """Total squared amplitude carried by the listed parties."""
        idx = sorted({int(p) for p in parties})
        return float(np.sum(np.abs(self.amplitudes[idx, :]) ** 2))


@dataclass(frozen=True, eq=False)
class PurificationSpec:
    """A mixed family member together with ancilla amplitudes purifying it."""

    base: GWSpec
    ancilla_amplitudes: np.ndarray

    def __post_init__(self):
        anc = _normalized_table(
            np.asarray(self.ancilla_amplitudes, dtype=complex).reshape(-1),
            (self.base.d - 1,),
            "ancilla amplitudes",
        )
        object.__setattr__(self, "ancilla_amplitudes", anc)


@dataclass(frozen=True, eq=False)
class GWBlocks:
    """A family member described by its excitation weights, with no dense array.

    ``weights[k]`` is the share s_k of the excitation carried by party k and
    ``vacuum_weight`` is w, so the ket exciting party k has probability
    (1-w) s_k.  Every closed form in :mod:`gwlab.measures` depends on these
    numbers only (Kim and Sanders, J. Phys. A 41, 495301 (2008)):
    C(S, K) = 2 (1-w) sqrt(s_S s_K) and C^2(S | R) = 4 (1-w)^2 s_S s_R, with
    s_B the summed weight of block B and R the other parties present.

    ``pure`` marks a vacuum superposition, whose weights sum to one; a vacuum
    mixture and every reduction are not pure.  A reduction keeps the weights
    of the parties it keeps, and merging blocks sums them, so both stay
    GWBlocks.
    """

    weights: tuple[float, ...]
    layout: PartyLayout
    vacuum_weight: float = 0.0
    pure: bool = True

    #: Only family members have a GWBlocks description.
    gw = True

    def __post_init__(self):
        weights = tuple(float(x) for x in self.weights)
        if len(weights) != self.layout.n_parties:
            raise ValueError(
                f"{len(weights)} weights for {self.layout.n_parties} parties"
            )
        if not all(math.isfinite(x) and x >= 0.0 for x in weights):
            raise ValueError("weights must be finite and nonnegative")
        total = math.fsum(weights)
        if total > 1.0 + NORM_TOL or (self.pure and abs(total - 1.0) > NORM_TOL):
            raise ValueError(f"weights sum to {total}")
        w = float(self.vacuum_weight)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"vacuum_weight {w} outside [0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vacuum_weight", w)
        object.__setattr__(self, "pure", bool(self.pure))

    @classmethod
    def of(cls, spec: GWSpec, pure: bool = True) -> "GWBlocks":
        """The spec's vacuum superposition, or its vacuum mixture when not
        ``pure``: the weights of :func:`superpose_with_vacuum` and
        :func:`mix_with_vacuum`."""
        weights = np.sum(np.abs(spec.amplitudes) ** 2, axis=1)
        layout = PartyLayout((spec.d,) * spec.n)
        return cls(tuple(weights.tolist()), layout, spec.vacuum_weight, pure)

    @classmethod
    def purification(cls, spec: GWSpec) -> "GWBlocks":
        """The pure member of :func:`purify_mixture`: the spec's weights scaled
        by 1-w plus an ancilla party of weight w, with no vacuum."""
        w = spec.vacuum_weight
        mixture = cls.of(spec, pure=False)
        weights = tuple((1.0 - w) * s for s in mixture.weights) + (w,)
        layout = PartyLayout(mixture.layout.dims + (spec.d,))
        return cls(weights, layout, 0.0, True)

    def block_weight(self, parties) -> float:
        """Summed weight s_B of the listed parties."""
        values = [self.weights[p] for p in parties]  # IndexError past the end
        if values and min(parties) < 0:
            raise IndexError(f"negative party index in {sorted(parties)}")
        return math.fsum(values)

    def restricted(self, keep) -> "GWBlocks":
        """The reduction to ``keep``, its parties renumbered in ascending order."""
        keep_list = _validated_keep(self.layout, keep)
        weights = tuple(self.weights[p] for p in keep_list)
        layout = self.layout.restricted(keep_list)
        return GWBlocks(weights, layout, self.vacuum_weight, pure=False)

    def merged(self, partition: Partition) -> "GWBlocks":
        """One party per block of a complete partition, weighing s_B."""
        layout = coarse_grain(self.layout, partition)
        weights = tuple(self.block_weight(b) for b in partition.blocks)
        return GWBlocks(weights, layout, self.vacuum_weight, self.pure)


#: What the family closed forms accept: a dense state or its block weights.
FamilyState = Union[PureState, DensityOperator, GWBlocks]


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
    spec = GWSpec.qubit(amps)
    return build_gw_qudit(spec)


def build_gw_qudit(spec: GWSpec) -> PureState:
    """Pure qudit state sum_{s,i} a_{si} |0...i_s...0> from an amplitude table.

    The vacuum machinery plays no role here, so the spec must not declare a
    vacuum admixture; use :func:`superpose_with_vacuum` for those members.
    """
    if spec.vacuum_weight != 0.0:
        raise ValueError(
            "build_gw_qudit needs vacuum_weight 0; "
            "use superpose_with_vacuum for vacuum superpositions"
        )
    vec = _weight_one_vector(spec.n, spec.d, spec.amplitudes)
    return PureState(vec, spec.layout, gw=True)


def superpose_with_vacuum(spec: GWSpec) -> PureState:
    """sqrt(1-w)|W> + sqrt(w)|0...0> with w the spec's vacuum weight."""
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


def purify_mixture(pspec: PurificationSpec) -> PureState:
    """(n+1)-party pure state whose ancilla trace-out gives the mixture.

    The purification is itself a generalized W-class state: the base table
    scaled by sqrt(1-w) plus an ancilla row carrying sqrt(w) times the
    ancilla amplitudes.
    """
    base = pspec.base
    w = base.vacuum_weight
    table = np.zeros((base.n + 1, base.d - 1), dtype=complex)
    table[: base.n, :] = np.sqrt(1.0 - w) * base.amplitudes
    table[base.n, :] = np.sqrt(w) * pspec.ancilla_amplitudes
    induced = GWSpec(n=base.n + 1, d=base.d, amplitudes=table, vacuum_weight=0.0)
    return build_gw_qudit(induced)


def reduce_to_parties(psi: FamilyState, subset) -> DensityOperator | GWBlocks:
    """Reduced density matrix on ``subset``, keeping the GW provenance tag;
    the kept weights for a :class:`GWBlocks`.

    Reductions of family members stay in the family, so closed-form measures
    remain valid on the result.
    """
    if not psi.gw:
        raise ValueError("reduce_to_parties needs a GW-tagged state")
    if isinstance(psi, GWBlocks):
        return psi.restricted(subset)
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


def gw_spec_from_json(text: str) -> GWSpec:
    doc = json.loads(text)
    try:
        n = int(doc["n"])
        d = int(doc["d"])
        pairs = doc["amplitudes"]
        w = float(doc["vacuum_weight"])
        flat = np.array(
            [complex(float(re), float(im)) for re, im in pairs], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed GW spec document: {exc}") from exc
    if n < 2 or d < 2 or flat.size != n * (d - 1):
        raise ValueError(
            f"amplitude list of length {flat.size} does not match n={n}, d={d}"
        )
    return GWSpec(n=n, d=d, amplitudes=flat.reshape(n, d - 1), vacuum_weight=w)
