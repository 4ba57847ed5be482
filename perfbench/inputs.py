"""Seeded workload inputs and exact ground truth, generated with numpy only.

Everything a workload feeds the system — the preload stream, the
partitioning sample, query keys, ingest frames and probe sets — comes from
one ``numpy.random.default_rng(seed)`` in a fixed order, so the same seed
gives the same inputs.  The generator lives here rather than in
``repro.datasets`` so that a change to the program cannot change the
workload.

Edges are integer pairs.  A Zipf-ranked source population makes the
partitioning matter (gSketch localizes the heavy sources), and each source
draws its targets Zipf-skewed from its own small neighbourhood, so edges
repeat and exact frequencies are well above one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict

import numpy as np

WORKLOADS = ("serve-mixed", "embedded-bulk")

SOURCE_POPULATION = 20_000
SOURCE_EXPONENT = 1.1
NEIGHBOURHOOD = 256
NEIGHBOUR_EXPONENT = 1.0
TARGET_SPACE = 4 * SOURCE_POPULATION
QUERY_EXPONENT = 1.1

#: ``(source << 32) | target`` codes identify an edge exactly.
_CODE_SHIFT = 32


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; fixed per (workload, seconds, smoke).

    Every workload runs its phases in ``rounds`` rounds, each with an equal
    share of every phase's seconds, and sets the engine up once before the
    first round and once more after each round (``setups``).
    """

    preload: int
    sample: int
    batch: int
    rounds: int
    # serve-mixed phases (subgraph_seconds and subgraph_edges are shared)
    open_seconds: float
    closed_seconds: float
    phase_gap_seconds: float
    hot_keys: int
    open_rate: float
    closed_depth: int
    closed_cap: int
    frame_edges: int
    frame_period: float
    probe: int
    sweep_batch: int
    # embedded-bulk phases
    bulk: int
    query_seconds: float
    subgraph_seconds: float
    edge_queries: int
    query_batch: int
    subgraphs: int
    subgraph_edges: int

    @property
    def setups(self) -> int:
        return self.rounds + 1

    @property
    def round_seconds(self) -> float:
        """Seconds from the first open-loop request of a serve-mixed round to its end."""
        phases = self.open_seconds + self.closed_seconds + self.subgraph_seconds
        return phases / self.rounds + 2 * self.phase_gap_seconds

    @property
    def frames_per_round(self) -> int:
        """Ingest frames sent in each serve-mixed round (fixed schedule)."""
        return int(self.round_seconds / self.frame_period)

    @property
    def frames(self) -> int:
        return self.rounds * self.frames_per_round


def sizes_for(workload: str, seconds: int, smoke: bool = False) -> Sizes:
    """The work one run of ``workload`` does in ``seconds`` measured seconds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    return Sizes(
        preload=100_000 if smoke else 500_000,
        sample=10_000 if smoke else 50_000,
        batch=8_192,
        rounds=1 if smoke else 6,
        open_seconds=0.35 * seconds,
        closed_seconds=0.35 * seconds,
        phase_gap_seconds=0.1,
        hot_keys=256 if smoke else 4_096,
        open_rate=3_000.0,
        closed_depth=32,
        closed_cap=int(0.35 * seconds * 100_000) + 1_024,
        frame_edges=256,
        frame_period=0.05,
        probe=1_024 if smoke else 16_384,
        sweep_batch=256,
        bulk=20_000 if smoke else 100_000 * seconds,
        query_seconds=0.35 * seconds,
        subgraph_seconds=0.3 * seconds,
        edge_queries=4_096 if smoke else 131_072,
        query_batch=1_024,
        subgraphs=256 if smoke else 8_192,
        subgraph_edges=16,
    )


def own_cpu(slot: int) -> None:
    """Pin this process to the ``slot``-th allowed CPU (system 0, load generator 1).

    Left to itself the kernel sometimes runs the server and the load
    generator on the same CPU, which halves closed-loop throughput and
    shortens open-loop latency; which placement a run gets would decide its
    figures.  With fewer than two CPUs nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[slot]})


def edge_codes(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """One int64 code per edge (labels are non-negative and below 2**31)."""
    return (np.asarray(sources, dtype=np.int64) << _CODE_SHIFT) | np.asarray(
        targets, dtype=np.int64
    )


def split_codes(codes: np.ndarray):
    """Inverse of :func:`edge_codes`: ``(sources, targets)``."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >> _CODE_SHIFT, codes & ((1 << _CODE_SHIFT) - 1)


def exact_counts(stream_codes: np.ndarray, query_codes: np.ndarray) -> np.ndarray:
    """Exact frequency of each query edge in a unit-frequency stream."""
    unique, counts = np.unique(stream_codes, return_counts=True)
    position = np.searchsorted(unique, query_codes)
    position = np.minimum(position, len(unique) - 1)
    found = unique[position] == query_codes
    return np.where(found, counts[position], 0).astype(np.int64)


def _zipf_cdf(population: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, population + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


class _StreamSource:
    """An endless Zipf-source edge stream drawn from one generator."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._ranked_sources = rng.permutation(SOURCE_POPULATION).astype(np.int64)
        self._source_cdf = _zipf_cdf(SOURCE_POPULATION, SOURCE_EXPONENT)
        self._neighbour_cdf = _zipf_cdf(NEIGHBOURHOOD, NEIGHBOUR_EXPONENT)

    def draw(self, count: int):
        rng = self._rng
        rank = np.searchsorted(self._source_cdf, rng.random(count))
        sources = self._ranked_sources[rank]
        neighbour = np.searchsorted(self._neighbour_cdf, rng.random(count))
        targets = (sources * 2_654_435_761 + neighbour * 40_503) % TARGET_SPACE
        return sources, targets.astype(np.int64)


def _distinct_sample(rng: np.random.Generator, codes: np.ndarray, count: int) -> np.ndarray:
    distinct = np.unique(codes)
    count = min(count, len(distinct))
    return distinct[np.sort(rng.choice(len(distinct), count, replace=False))]


def generate(workload: str, seed: int, sizes: Sizes) -> Dict[str, np.ndarray]:
    """All inputs of one run, as named int64/int32 arrays."""
    rng = np.random.default_rng(seed)
    stream = _StreamSource(rng)
    arrays: Dict[str, np.ndarray] = {}
    arrays["pre_src"], arrays["pre_dst"] = stream.draw(sizes.preload)
    arrays["sample_idx"] = np.sort(rng.choice(sizes.preload, sizes.sample, replace=False))
    pre_codes = edge_codes(arrays["pre_src"], arrays["pre_dst"])

    if workload == "embedded-bulk":
        arrays["bulk_src"], arrays["bulk_dst"] = stream.draw(sizes.bulk)
        bulk_codes = edge_codes(arrays["bulk_src"], arrays["bulk_dst"])
        distinct = np.unique(np.concatenate([pre_codes, bulk_codes]))
        picks = rng.integers(0, len(distinct), sizes.edge_queries)
        arrays["eq_src"], arrays["eq_dst"] = split_codes(distinct[picks])
        picks = rng.integers(0, len(distinct), sizes.subgraphs * sizes.subgraph_edges)
        arrays["sg_src"], arrays["sg_dst"] = split_codes(distinct[picks])
        return arrays

    hot = _distinct_sample(rng, pre_codes, sizes.hot_keys)
    hot = hot[rng.permutation(len(hot))]  # rank order independent of label order
    arrays["hot_src"], arrays["hot_dst"] = split_codes(hot)
    query_cdf = _zipf_cdf(len(hot), QUERY_EXPONENT)
    open_count = sizes.rounds * int(sizes.open_seconds / sizes.rounds * sizes.open_rate)
    arrays["open_keys"] = np.searchsorted(query_cdf, rng.random(open_count)).astype(np.int32)
    arrays["closed_keys"] = np.searchsorted(query_cdf, rng.random(sizes.closed_cap)).astype(
        np.int32
    )
    subgraph_cap = int(sizes.subgraph_seconds * 40_000) + 1_024
    arrays["subgraph_keys"] = np.searchsorted(
        query_cdf, rng.random(subgraph_cap * sizes.subgraph_edges)
    ).astype(np.int32).reshape(subgraph_cap, sizes.subgraph_edges)
    arrays["probe_src"], arrays["probe_dst"] = split_codes(
        _distinct_sample(rng, pre_codes, sizes.probe)
    )
    frame_src, frame_dst = stream.draw(sizes.frames * sizes.frame_edges)
    arrays["frame_src"] = frame_src.reshape(sizes.frames, sizes.frame_edges)
    arrays["frame_dst"] = frame_dst.reshape(sizes.frames, sizes.frame_edges)
    return arrays


def save(directory: Path, arrays: Dict[str, np.ndarray], sizes: Sizes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / "inputs.npz", **arrays)
    (directory / "sizes.json").write_text(json.dumps(asdict(sizes)))


def load(directory: Path, names=None):
    """``(arrays, sizes)`` written by :func:`save`; only ``names`` if given."""
    with np.load(directory / "inputs.npz") as data:
        arrays = {name: data[name] for name in data.files if names is None or name in names}
    sizes = Sizes(**json.loads((directory / "sizes.json").read_text()))
    return arrays, sizes
