"""The correctness gate: every answer against an oracle engine and exact truth.

Runs in ``run.py`` after the measured phases.  The oracle is a second
engine built in this process from the same sample, config and stream-size
hint, fed the same edges.  Counters hold integer-valued sums, so the oracle
may ingest in larger batches and still match the system bit for bit.

* ``serve-mixed``: the oracle ingests the preload, then replays the ingest
  frames one at a time, and records its estimate of every hot key after each frame
  (:func:`serve_reference`).  Each answer carries the generation that
  produced it and each frame acknowledgement the generation it created, so
  every answer is compared bit for bit with the oracle after the same
  frames.  It must also reflect every frame acknowledged before its
  request was sent, and be at least the exact truth after the frames it
  reflects (Count-Min never underestimates).  A final sweep over the probe
  edges is bit-exact against the oracle after all frames.
* ``embedded-bulk``: every edge and subgraph answer equals the oracle's
  answer after the same rounds of bulk ingest, and the final pass after all
  writes is at least the exact truth.

A request counts as failed if it was refused, errored, went unanswered or
missed its deadline, and as incorrect if its answer fails a check above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import inputs
from loadgen import OK
from system import build_engine, ingest_columns, sample_stream, stream_size_hint

ORACLE_BATCH = 65_536


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    notes: List[str] = field(default_factory=list)
    avg_rel_error: float = float("nan")

    @property
    def correct(self) -> bool:
        return self.incorrect == 0

    def count(self, what: str, attempted: int, failed: int, incorrect: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        self.incorrect += int(incorrect)
        if failed or incorrect:
            self.notes.append(f"{what}: {failed} failed, {incorrect} incorrect of {attempted}")


def estimates(engine, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    keys = list(zip(sources.tolist(), targets.tolist()))
    return np.asarray(engine.estimator.query_edges(keys), dtype=np.float64)


def subgraph_sums(per_edge: np.ndarray) -> np.ndarray:
    """The ``sum`` aggregate over each row, as ``SubgraphQuery.combine`` does it."""
    from repro.queries.aggregate import get_aggregate

    combine = get_aggregate("sum")
    return np.asarray([combine(row) for row in per_edge.tolist()], dtype=np.float64)


def relative_error(answers: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean((answers - truth) / truth))


def _hit_counts(key_codes: np.ndarray, stream_codes: np.ndarray) -> np.ndarray:
    """``counts[f, k]``: occurrences of key ``k`` in row ``f`` of ``stream_codes``."""
    order = np.argsort(key_codes)
    position = np.minimum(np.searchsorted(key_codes[order], stream_codes), len(order) - 1)
    hit = key_codes[order][position] == stream_codes
    counts = np.zeros((len(stream_codes), len(key_codes)), dtype=np.int64)
    rows = np.broadcast_to(np.arange(len(stream_codes))[:, None], stream_codes.shape)
    np.add.at(counts, (rows[hit], order[position[hit]]), 1)
    return counts


def serve_reference(workload: str, arrays: Dict[str, np.ndarray], sizes: inputs.Sizes) -> dict:
    """The oracle after the preload and after each ingest frame.

    ``hot[m, k]`` is its estimate of hot key ``k`` and ``truth[m, k]`` the
    exact count, after the first ``m`` frames; ``probe``/``probe_truth``
    cover the final-sweep edges after every frame.
    """
    engine = build_engine(sample_stream(arrays), stream_size_hint(workload, sizes))
    ingest_columns(engine, arrays["pre_src"], arrays["pre_dst"], ORACLE_BATCH)
    engine.frozen()
    hot_codes = inputs.edge_codes(arrays["hot_src"], arrays["hot_dst"])
    pre_codes = inputs.edge_codes(arrays["pre_src"], arrays["pre_dst"])
    stream = [pre_codes]
    truth = inputs.exact_counts(pre_codes, hot_codes)[None, :]
    hot = [estimates(engine, arrays["hot_src"], arrays["hot_dst"])]
    frame_codes = inputs.edge_codes(arrays["frame_src"], arrays["frame_dst"])
    stream.append(frame_codes.reshape(-1))
    truth = truth + np.cumsum(
        np.vstack([np.zeros_like(truth), _hit_counts(hot_codes, frame_codes)]), axis=0
    )
    for sources, targets in zip(arrays["frame_src"], arrays["frame_dst"]):
        ingest_columns(engine, sources, targets, ORACLE_BATCH)
        hot.append(estimates(engine, arrays["hot_src"], arrays["hot_dst"]))
    probe_codes = inputs.edge_codes(arrays["probe_src"], arrays["probe_dst"])
    return {
        "hot": np.vstack(hot),
        "truth": truth,
        "probe": estimates(engine, arrays["probe_src"], arrays["probe_dst"]),
        "probe_truth": inputs.exact_counts(np.concatenate(stream), probe_codes),
    }


def frames_reflected(loadgen: Dict[str, np.ndarray], generations: np.ndarray) -> np.ndarray:
    """How many ingest frames each answer's generation reflects.

    Frames are applied in order on the server's loop, so an answer of
    generation ``g`` reflects the acknowledged frames of generation <= ``g``.
    """
    acknowledged = loadgen["frame_generation"][loadgen["frame_status"] == OK]
    return np.searchsorted(acknowledged, generations, side="right")


def check_serve(
    arrays: Dict[str, np.ndarray],
    sizes: inputs.Sizes,
    loadgen: Dict[str, np.ndarray],
    deadline_ms: float,
    reference: dict,
    corrupt: bool = False,
) -> Verdict:
    verdict = Verdict()
    hot = reference["hot"]
    truth = reference["truth"]
    if corrupt:
        # Lower the oracle's value behind the first answered open-loop request.
        first = int(np.argmax(loadgen["open_status"] == OK))
        reflected = frames_reflected(loadgen, loadgen["open_generation"][first : first + 1])
        hot = hot.copy()
        hot[reflected[0], arrays["open_keys"][first]] -= 1.0

    def phase(name: str, keys: np.ndarray, start_ns: np.ndarray) -> None:
        status = loadgen[f"{name}_status"]
        late = (loadgen[f"{name}_recv_ns"] - start_ns) > deadline_ms * 1e6
        failed = (status != OK) | late
        ok = ~failed
        keys = keys[: len(status)][ok]
        values = loadgen[f"{name}_value"][ok]
        acked = loadgen[f"{name}_acked"][ok]
        reflected = frames_reflected(loadgen, loadgen[f"{name}_generation"][ok])
        if keys.ndim == 1:
            expected = hot[reflected, keys]
            lower = truth[reflected, keys]
        else:
            expected = subgraph_sums(hot[reflected[:, None], keys])
            lower = truth[reflected[:, None], keys].sum(axis=1)
        wrong = (values != expected) | (values < lower) | (reflected < acked)
        verdict.count(name, len(status), failed.sum(), wrong.sum())

    n_open = len(loadgen["open_status"])
    phase("open", arrays["open_keys"], loadgen["open_due_ns"][:n_open])
    phase("closed", arrays["closed_keys"], loadgen["closed_send_ns"])
    phase("subgraph", arrays["subgraph_keys"], loadgen["subgraph_send_ns"])
    frame_failed = loadgen["frame_status"] != OK
    generations = loadgen["frame_generation"][~frame_failed]
    out_of_order = int(np.count_nonzero(np.diff(generations) <= 0))
    missing = sizes.frames - len(frame_failed)
    verdict.count("ingest", sizes.frames, frame_failed.sum() + missing, out_of_order)

    sweep_ok = np.repeat(loadgen["sweep_status"] == OK, sizes.sweep_batch)
    sweep_ok = sweep_ok[: len(reference["probe"])]
    answers = loadgen["sweep_values"]
    probe_truth = reference["probe_truth"]
    wrong = sweep_ok & ((answers != reference["probe"]) | (answers < probe_truth))
    verdict.count(
        "final sweep",
        len(loadgen["sweep_status"]),
        np.count_nonzero(loadgen["sweep_status"] != OK),
        wrong.sum(),
    )
    verdict.avg_rel_error = relative_error(answers, probe_truth)
    return verdict


def embedded_reference(arrays: Dict[str, np.ndarray], sizes: inputs.Sizes) -> dict:
    """Oracle answers and exact truth after each round of ``embedded-bulk``."""
    from system import bulk_chunks

    engine = build_engine(sample_stream(arrays), stream_size_hint("embedded-bulk", sizes))
    ingest_columns(engine, arrays["pre_src"], arrays["pre_dst"], ORACLE_BATCH)
    sg_shape = (sizes.subgraphs, sizes.subgraph_edges)
    edge_codes = inputs.edge_codes(arrays["eq_src"], arrays["eq_dst"])
    subgraph_codes = inputs.edge_codes(arrays["sg_src"], arrays["sg_dst"])
    pre_codes = inputs.edge_codes(arrays["pre_src"], arrays["pre_dst"])
    edge_truth = inputs.exact_counts(pre_codes, edge_codes)
    subgraph_truth = inputs.exact_counts(pre_codes, subgraph_codes)
    rounds = {"edges": [], "subgraphs": [], "edge_truth": [], "subgraph_truth": []}
    for lo, hi in bulk_chunks(sizes):
        sources, targets = arrays["bulk_src"][lo:hi], arrays["bulk_dst"][lo:hi]
        ingest_columns(engine, sources, targets, ORACLE_BATCH)
        engine.frozen()
        chunk = inputs.edge_codes(sources, targets)
        edge_truth = edge_truth + inputs.exact_counts(chunk, edge_codes)
        subgraph_truth = subgraph_truth + inputs.exact_counts(chunk, subgraph_codes)
        rounds["edges"].append(estimates(engine, arrays["eq_src"], arrays["eq_dst"]))
        per_edge = estimates(engine, arrays["sg_src"], arrays["sg_dst"])
        rounds["subgraphs"].append(subgraph_sums(per_edge.reshape(sg_shape)))
        rounds["edge_truth"].append(edge_truth)
        rounds["subgraph_truth"].append(subgraph_truth.reshape(sg_shape).sum(axis=1))
    return {name: np.array(rows) for name, rows in rounds.items()}


def check_embedded(
    answers: Dict[str, np.ndarray],
    finished: dict,
    reference: dict,
    corrupt: bool = False,
) -> Verdict:
    verdict = Verdict()
    expected_edges = reference["edges"]
    if corrupt:
        # Lower the oracle's value behind the first edge query of round 0.
        expected_edges = expected_edges.copy()
        expected_edges[0, 0] -= 1.0
    batches = sum(len(seconds) for seconds in finished["ingest_seconds"])
    verdict.count("ingest batches", batches, 0, 0)
    verdict.count("repeated answers", 1, 0, finished["mismatches"])
    for kind, given, expected, truth, attempted in (
        ("edge queries", answers["edges"], expected_edges, reference["edge_truth"],
         finished["queries"]),
        ("subgraph queries", answers["subgraphs"], reference["subgraphs"],
         reference["subgraph_truth"], finished["subgraph_queries"]),
    ):
        asked = ~np.isnan(given)
        wrong = (given[asked] != expected[asked]) | (given[asked] < truth[asked])
        verdict.count(kind, attempted, 0, np.count_nonzero(wrong))
    final = answers["final"]
    truth = reference["edge_truth"][-1]
    wrong = (final != reference["edges"][-1]) | (final < truth)
    verdict.count("final pass", len(final), 0, wrong.sum())
    verdict.avg_rel_error = relative_error(final, truth)
    return verdict
