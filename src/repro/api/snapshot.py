"""Versioned estimator snapshots and crash-consistent checkpoints.

Every backend implements the ``state_dict()`` / ``from_state()`` half of the
:class:`~repro.api.protocol.Estimator` contract; this module wraps those
states in a self-describing envelope so a snapshot file can be handed to
``load_snapshot`` without knowing which backend produced it.

Version 3 envelope (written by this build)::

    <pickled header dict> <raw section payload bytes>

    header = {"format": "repro.sketch-snapshot", "version": 3,
              "backend": <name>, "payload_length": <total bytes>,
              "sections": [{"name", "length", "crc32"}, ...]}

The header is a plain pickle; the section payloads follow it back to back.
Each section carries a CRC32 and its exact length, so a torn write
(truncation) or silent corruption (bit flip) is rejected by
:func:`load_snapshot` with a :class:`SnapshotError` *naming the bad
section* — never deserialized into garbage counters.  Every backend writes
one ``state`` section holding its whole ``state_dict()``.

Every sketch state records the edge-key rule that placed its counters
(:data:`~repro.sketches.hashing.KEY_RULE`).  A state placed by the retired
four-pass splitmix64 rule (every version 1 and 2 file) or hashed by the
retired Mersenne-61 family is refused with a :class:`SnapshotError` naming
it: its counters cannot be re-placed, so rebuild them from the stream.
Version 2 files (the same layout) and version 1 files (one pickle, no
checksums) are still read so that their states reach that check.  Builds
that read only versions 1 and 2 refuse this build's files at load.

:func:`save_checkpoint` / :func:`load_checkpoint` keep the same section as a
*file in a directory* under an atomically-swapped ``MANIFEST.json``.  Each
checkpoint writes a new ``state-{n}.bin`` (``n`` one past the live
manifest's generation, whatever that manifest's version), never a file the
live manifest names, and every file is written temp-file → flush → fsync →
``os.replace``, so a crash mid-checkpoint leaves the previous checkpoint
fully intact.  Manifest version 2 (written by this build) has the layout of
version 1, which is still read; builds that read only version 1 refuse it.

Payloads are pickled (counter tables are numpy arrays and the partitioning
tree/router carry arbitrary hashable vertex labels), so snapshots are a
trusted-input format: load only files this program wrote.
"""

from __future__ import annotations

import json
import os
import pickle
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Type, Union

from repro import faults as _faults
from repro.api.protocol import (
    BACKEND_GLOBAL,
    BACKEND_GSKETCH,
    BACKEND_WINDOWED,
    Estimator,
)
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import GSketch
from repro.core.windowed import WindowedGSketch

SNAPSHOT_FORMAT = "repro.sketch-snapshot"
SNAPSHOT_VERSION = 3
#: Envelope versions with header-plus-sections layout (version 1 is one pickle).
_SECTIONED_VERSIONS = (2, SNAPSHOT_VERSION)

CHECKPOINT_FORMAT = "repro.sketch-checkpoint"
CHECKPOINT_VERSION = 2
_CHECKPOINT_VERSIONS = (1, CHECKPOINT_VERSION)
MANIFEST_NAME = "MANIFEST.json"

#: backend name → estimator class, the single source of truth for dispatch.
BACKEND_CLASSES: Dict[str, type] = {
    BACKEND_GSKETCH: GSketch,
    BACKEND_GLOBAL: GlobalSketch,
    BACKEND_WINDOWED: WindowedGSketch,
}

_CLASS_BACKENDS: Dict[type, str] = {cls: name for name, cls in BACKEND_CLASSES.items()}

_PICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError)


class SnapshotError(ValueError):
    """A snapshot/checkpoint is malformed, truncated, corrupt or unknown."""


def backend_name(estimator: Estimator) -> str:
    """Canonical backend name of an estimator instance.

    Resolves subclasses structurally (``isinstance``) after the exact-type
    fast path, so a specialized ``GSketch`` subclass still snapshots as the
    ``gsketch`` backend.
    """
    name = _CLASS_BACKENDS.get(type(estimator))
    if name is not None:
        return name
    for backend, cls in BACKEND_CLASSES.items():
        if isinstance(estimator, cls):
            return backend
    raise SnapshotError(
        f"unknown estimator type {type(estimator).__name__}; snapshot backends: "
        f"{sorted(BACKEND_CLASSES)}"
    )


def _resolve_backend(backend, source: str) -> type:
    """The estimator class for a backend name, or a SnapshotError naming it."""
    cls: Optional[type] = BACKEND_CLASSES.get(backend)
    if cls is None:
        raise SnapshotError(
            f"{source} names unknown backend {backend!r}; known: "
            f"{sorted(BACKEND_CLASSES)}"
        )
    return cls


def _state_section(estimator: Estimator) -> bytes:
    """The one ``state`` section: the estimator's pickled ``state_dict``."""
    return pickle.dumps(estimator.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)


def _revive_state(cls: Type, backend: str, state, source: str) -> Estimator:
    """``cls.from_state(state)``; a state it refuses (for one, counters
    placed by a retired hash family) raises a SnapshotError naming why."""
    try:
        return cls.from_state(state)
    except ValueError as error:
        raise SnapshotError(
            f"{source} holds a {backend!r} state this build cannot load: {error}"
        ) from error


def _revive_from_sections(
    backend: str, sections: Mapping[str, bytes], source: str
) -> Estimator:
    """Assemble an estimator from verified section payloads."""
    cls: Type = _resolve_backend(backend, source)
    try:
        state = pickle.loads(sections["state"])
    except _PICKLE_ERRORS as error:
        raise SnapshotError(
            f"{source} holds an unreadable {backend!r} state: {error}"
        ) from error
    return _revive_state(cls, backend, state, source)


def _write_atomic(path: Path, data: bytes) -> None:
    """Temp-file → flush → fsync → atomic rename; never truncates ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_snapshot(estimator: Estimator, path: Union[str, Path]) -> Path:
    """Write a versioned, per-section-checksummed snapshot to ``path``.

    Returns the path written.  The snapshot round-trips through
    :func:`load_snapshot` into an estimator answering every query
    bit-identically; a file damaged on disk afterwards (truncated, bit
    flipped) is rejected at load with the damaged section named.
    """
    data = _state_section(estimator)
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "backend": backend_name(estimator),
        "payload_length": len(data),
        "sections": [{"name": "state", "length": len(data), "crc32": zlib.crc32(data)}],
    }
    # Checksums cover the true bytes; the durability fault sites mangle what
    # is physically written, so an injected torn/corrupt write fails
    # validation exactly like a real one.
    body, _ = _faults.mangle_payload(data)
    path = Path(path)
    _write_atomic(
        path, pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL) + body
    )
    return path


def load_snapshot(path: Union[str, Path]) -> Estimator:
    """Revive the estimator stored at ``path`` (version 3, 2 or legacy 1).

    Raises:
        SnapshotError: if the file is not a repro snapshot, has an
            unsupported version, names an unknown backend, is truncated,
            fails a section checksum, or holds a state the backend refuses
            (counters placed by a retired key rule or hash family).
    """
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
            body = handle.read()
    except _PICKLE_ERRORS as error:
        raise SnapshotError(
            f"{path} is not a readable {SNAPSHOT_FORMAT} file: {error}"
        ) from error
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = header.get("version")
    if version == 1:
        # Legacy envelope: the whole file is one pickle, state in-band.
        backend = header.get("backend")
        cls = _resolve_backend(backend, str(path))
        return _revive_state(cls, backend, header["state"], str(path))
    if version not in _SECTIONED_VERSIONS:
        raise SnapshotError(
            f"{path} has snapshot version {version!r}; this build reads versions "
            f"1 to {SNAPSHOT_VERSION}"
        )
    _resolve_backend(header.get("backend"), str(path))  # fail fast on unknown
    sections = _verify_sections(header["sections"], body, str(path))
    return _revive_from_sections(header.get("backend"), sections, str(path))


def _verify_sections(
    listed: List[dict], body: bytes, source: str
) -> Dict[str, bytes]:
    """Slice + validate the concatenated section payloads of a sectioned
    (version 2 or 3) snapshot."""
    sections: Dict[str, bytes] = {}
    offset = 0
    for entry in listed:
        name, length = entry["name"], int(entry["length"])
        data = body[offset : offset + length]
        if len(data) != length:
            raise SnapshotError(
                f"{source} is truncated in section {name!r}: expected {length} "
                f"bytes, found {len(data)}"
            )
        if zlib.crc32(data) != entry["crc32"]:
            raise SnapshotError(
                f"{source} failed the CRC32 checksum of section {name!r}; the "
                "file is corrupt — restore from a good checkpoint"
            )
        sections[name] = data
        offset += length
    return sections


# ---------------------------------------------------------------------- #
# Checkpoint directories (crash-consistent)
# ---------------------------------------------------------------------- #
def save_checkpoint(estimator: Estimator, directory: Union[str, Path]) -> Path:
    """Write a checkpoint directory, replacing any checkpoint already there.

    Layout: one ``state-{generation}.bin`` file holding the estimator's whole
    state plus an atomically-swapped ``MANIFEST.json`` naming it with its
    length and CRC32.  The generation is one past every generation the live
    manifest names, whatever its version, so a checkpoint never writes to a
    file the live manifest names; the superseded file is removed only after
    the new manifest is in place.  A crash at any
    point leaves the directory loading as either the old or the new
    checkpoint, never a mix.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    backend = backend_name(estimator)
    previous = _read_manifest(directory, required=False)
    generation = 0
    if previous is not None and previous["sections"]:
        generation = 1 + max(int(entry["generation"]) for entry in previous["sections"])
    data = _state_section(estimator)
    entry = {
        "name": "state",
        "generation": generation,
        "file": f"state-{generation}.bin",
        "length": len(data),
        "crc32": zlib.crc32(data),
    }
    # Checksum the true bytes, write the (possibly fault-mangled) bytes:
    # an injected torn/corrupt section write must fail validation.
    mangled, _ = _faults.mangle_payload(data)
    _write_atomic(directory / entry["file"], mangled)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "backend": backend,
        "sections": [entry],
    }
    _write_atomic(
        directory / MANIFEST_NAME, json.dumps(manifest, indent=2).encode("utf-8")
    )
    for stale in directory.glob("*.bin"):
        if stale.name != entry["file"]:
            stale.unlink(missing_ok=True)
    return directory


def load_checkpoint(directory: Union[str, Path]) -> Estimator:
    """Revive the estimator checkpointed in ``directory``.

    Every section file is length- and CRC32-verified against the manifest
    before any deserialization happens.

    Raises:
        SnapshotError: if the manifest is missing/malformed, any section
            file is missing, truncated or corrupt (the section is named), or
            the state is one the backend refuses.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory, required=True)
    sections: Dict[str, bytes] = {}
    for entry in manifest["sections"]:
        name = entry["name"]
        path = directory / entry["file"]
        try:
            data = path.read_bytes()
        except FileNotFoundError as error:
            raise SnapshotError(
                f"{directory} is missing checkpoint section {name!r} ({path.name})"
            ) from error
        if len(data) != int(entry["length"]):
            raise SnapshotError(
                f"{directory} section {name!r} is truncated: expected "
                f"{entry['length']} bytes, found {len(data)} — the write was torn"
            )
        if zlib.crc32(data) != entry["crc32"]:
            raise SnapshotError(
                f"{directory} section {name!r} failed its CRC32 checksum; the "
                "file is corrupt — restore from a good checkpoint"
            )
        sections[name] = data
    return _revive_from_sections(manifest.get("backend"), sections, str(directory))


def _read_manifest(directory: Path, required: bool) -> Optional[dict]:
    """Read + validate ``MANIFEST.json``; ``None`` when absent/invalid and
    not required (an interrupted first checkpoint simply rewrites fully).

    The version is checked only when ``required``: a checkpoint over a
    directory holding another version's manifest must still skip past the
    generations it names.
    """
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except FileNotFoundError:
        if required:
            raise SnapshotError(f"{directory} has no {MANIFEST_NAME}") from None
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        if required:
            raise SnapshotError(
                f"{directory}/{MANIFEST_NAME} is not valid JSON: {error}"
            ) from error
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != CHECKPOINT_FORMAT
        or not isinstance(manifest.get("sections"), list)
    ):
        if required:
            raise SnapshotError(f"{directory} is not a {CHECKPOINT_FORMAT} directory")
        return None
    version = manifest.get("version")
    if required and version not in _CHECKPOINT_VERSIONS:
        raise SnapshotError(
            f"{directory} has checkpoint version {version!r}; this build "
            f"reads versions 1 and {CHECKPOINT_VERSION}"
        )
    return manifest
