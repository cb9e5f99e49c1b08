"""Constructors for generalized W-class (GW) state families.

A GW state is a coherent superposition of all product kets with Hamming
weight one, optionally superposed or mixed with the vacuum ket |0...0>.
Reductions and coarse-grainings of these states stay inside the family,
which is what makes the closed-form measures in :mod:`gwlab.measures`
applicable; every constructor here therefore tags its output with
``gw=True``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DensityOperator,
    NORM_TOL,
    Partition,
    PureState,
    SubsystemLayout,
    partial_trace,
)

__all__ = [
    "GWSpec",
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


def _weight_one_vector(n: int, d: int, table: np.ndarray) -> np.ndarray:
    """Flat amplitude vector supported on Hamming-weight-one kets."""
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


def reduce_to_parties(psi: PureState, subset) -> DensityOperator:
    """Reduced density matrix on ``subset``, keeping the GW provenance tag.

    Reductions of family members stay in the family, so closed-form measures
    remain valid on the result.
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
