"""Shared fixtures and random-instance generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gwlab import GWSpec, Partition, PureState, SubsystemLayout


def rand_unit(rng: np.random.Generator, *shape) -> np.ndarray:
    vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return vec / np.linalg.norm(vec.reshape(-1))


def random_gw_spec(
    rng: np.random.Generator,
    n_min: int = 3,
    n_max: int = 6,
    d: int = 2,
    vacuum: str = "sometimes",
) -> GWSpec:
    """Random family member; vacuum weight is 0 half the time unless forced."""
    n = int(rng.integers(n_min, n_max + 1))
    if vacuum == "never":
        w = 0.0
    elif vacuum == "always":
        w = float(rng.uniform(0.05, 0.95))
    else:
        w = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.0, 1.0))
    return GWSpec(n=n, d=d, amplitudes=rand_unit(rng, n, d - 1), vacuum_weight=w)


def random_complete_partition(
    rng: np.random.Generator, n_parties: int, n_blocks: int | None = None
) -> Partition:
    if n_blocks is None:
        n_blocks = int(rng.integers(2, n_parties + 1))
    order = rng.permutation(n_parties)
    # every block gets one party, the remainder lands uniformly
    assignment = list(range(n_blocks)) + [
        int(rng.integers(0, n_blocks)) for _ in range(n_parties - n_blocks)
    ]
    blocks = [set() for _ in range(n_blocks)]
    for party, b in zip(order, assignment):
        blocks[b].add(int(party))
    return Partition.of(blocks)


def assert_same_doc(got, want, where: str, tol: float = 1e-12) -> None:
    """Same keys, strings, booleans and nulls; numbers within ``tol``."""
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)}"
        for key in want:
            assert_same_doc(got[key], want[key], f"{where}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_doc(g, w, f"{where}[{i}]", tol)
    elif want is None or isinstance(want, (bool, str)):
        assert got == want and type(got) is type(want), f"{where}: {got!r}"
    else:
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isfinite(got), f"{where}: {got!r}"
        assert abs(got - want) <= tol, f"{where}: {got!r} vs {want!r}"


@pytest.fixture
def bell_state() -> PureState:
    return PureState(
        np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), SubsystemLayout((2, 2))
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)
