"""Blake2b content manifests for ``.npz`` artifacts, stored in-band.

A checksummed ``.npz`` is a plain zip whose **end-of-central-directory
comment** carries a JSON manifest: per-member sizes and a whole-member
blake2b digest.  The comment is the one zip field that lives *after*
all member data, so it is a literal manifest footer: attaching it never
moves the members' raw bytes, and ``np.load`` keeps working unchanged
(readers locate the central directory by scanning backwards past the
comment).

Writes go through :func:`write_npz` — scratch file, ``np.savez``,
manifest attach, fsync, ``os.replace`` (see
:mod:`repro.durability.atomic`) — so an artifact is only ever reachable
under its real name *with* a manifest that matches its bytes.  Opens go
through :func:`verify_artifact`, which streams every member end to end
against its digest and raises
:class:`~repro.exceptions.ArtifactCorruptError` on any mismatch instead
of letting a torn or bit-flipped file be walked.  Manifests written by
older versions also carry per-page digests; those fields are ignored.

Artifacts written before manifests existed verify as ``"unchecked"``
rather than failing — every *new* write carries one.  Process-wide
verified/failed/skipped counters feed the service's ``/stats``
durability block.
"""

from __future__ import annotations

import json
import threading
import zipfile
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

from repro.durability.atomic import PathLike, atomic_write
from repro.exceptions import ArtifactCorruptError
from repro.resilience.faults import fire

#: Bytes read per chunk while hashing a member.
_READ_CHUNK = 1 << 20

_MANIFEST_MAGIC = b"repro-manifest:"
_DIGEST_SIZE = 16

_COUNTER_LOCK = threading.Lock()
_COUNTERS = {"verified": 0, "failed": 0, "skipped": 0}


def artifact_counters() -> Dict[str, int]:
    """Process-wide verification counters (for ``/stats``)."""
    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def reset_artifact_counters() -> None:
    """Zero the counters (test isolation)."""
    with _COUNTER_LOCK:
        for key in _COUNTERS:
            _COUNTERS[key] = 0


def _count(key: str) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[key] += 1


def _member_digest(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> str:
    """The blake2b digest of one member's bytes, streamed in chunks."""
    whole = blake2b(digest_size=_DIGEST_SIZE)
    with archive.open(info) as member:
        while True:
            chunk = member.read(_READ_CHUNK)
            if not chunk:
                break
            whole.update(chunk)
    return whole.hexdigest()


def attach_manifest(path: PathLike) -> Dict[str, object]:
    """Compute and attach the manifest comment to a finished zip at *path*.

    Intended for the scratch file inside an atomic write (the public
    entry point is :func:`write_npz`); returns the manifest dict.
    """
    with zipfile.ZipFile(path, "r") as archive:
        members = {
            info.filename: {"size": info.file_size, "digest": _member_digest(archive, info)}
            for info in archive.infolist()
        }
    manifest: Dict[str, object] = {
        "format": 1,
        "algorithm": "blake2b",
        "digest_size": _DIGEST_SIZE,
        "members": members,
    }
    comment = _MANIFEST_MAGIC + json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    with zipfile.ZipFile(path, "a") as archive:
        archive.comment = comment
    return manifest


def read_manifest(path: PathLike) -> Optional[Dict[str, object]]:
    """The manifest attached to the zip at *path*, or ``None``.

    Raises :class:`~repro.exceptions.ArtifactCorruptError` when the
    file is not a readable zip at all (a torn in-place write from a
    pre-durability version) or the manifest JSON itself is mangled.
    """
    try:
        with zipfile.ZipFile(path, "r") as archive:
            comment = archive.comment
    except FileNotFoundError:
        # A missing artifact is an attach race (publisher mid-rewrite,
        # raced deletion), not corruption — callers own that contract.
        raise
    except (zipfile.BadZipFile, OSError) as exc:
        raise ArtifactCorruptError(
            f"artifact {path} is not a readable zip ({exc}); it was likely "
            "torn by a crashed writer — delete it and regenerate",
            location=str(path),
        ) from exc
    if not comment.startswith(_MANIFEST_MAGIC):
        return None
    try:
        manifest = json.loads(comment[len(_MANIFEST_MAGIC):].decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptError(
            f"artifact {path} carries an unreadable manifest footer ({exc})",
            location=str(path),
        ) from exc
    return manifest


def _fail(path: PathLike, detail: str) -> None:
    _count("failed")
    raise ArtifactCorruptError(
        f"artifact {path} failed integrity verification: {detail}; "
        "refusing to open it (see docs/operations.md, 'Durability & "
        "recovery', for the corrupt-artifact runbook)",
        location=str(path),
    )


def verify_artifact(path: PathLike) -> str:
    """Verify every byte of the artifact at *path* against its manifest.

    Returns ``"verified"``, or ``"unchecked"`` for a legacy artifact
    with no manifest; raises
    :class:`~repro.exceptions.ArtifactCorruptError` on any mismatch.
    This is also the ``artifact.verify`` fault site.
    """
    fire("artifact.verify", location=str(path))
    manifest = read_manifest(path)
    if manifest is None:
        _count("skipped")
        return "unchecked"
    members = manifest.get("members", {})
    try:
        with zipfile.ZipFile(path, "r") as archive:
            if sorted(archive.namelist()) != sorted(members):
                _fail(path, "member list does not match the manifest")
            for info in archive.infolist():
                expected = members[info.filename]
                if info.file_size != expected["size"]:
                    _fail(
                        path,
                        f"member {info.filename!r} is {info.file_size} bytes, "
                        f"manifest says {expected['size']}",
                    )
                if _member_digest(archive, info) != expected["digest"]:
                    _fail(path, f"member {info.filename!r} digest mismatch")
    except (zipfile.BadZipFile, OSError) as exc:
        # A bit flip can surface as zipfile's own CRC check or a read
        # error before our digest comparison runs — same verdict.
        _fail(path, f"zip-level read failure ({exc})")
    _count("verified")
    return "verified"


def write_npz(path: PathLike, payload: Mapping[str, np.ndarray]) -> Path:
    """Atomically write a checksummed, uncompressed ``.npz`` at *path*.

    The single write path for every durable ``.npz`` this repo produces
    (edge-list sidecars, :func:`repro.graph.store.save_csr_npz`
    archives): scratch file in
    the same directory, ``np.savez``, manifest footer, fsync, rename.
    A crash at any point leaves the previous *path* (if any) intact.
    """

    def writer(scratch: Path) -> None:
        with open(scratch, "wb") as sink:
            np.savez(sink, **payload)
        attach_manifest(scratch)

    return atomic_write(path, writer)


__all__ = [
    "artifact_counters",
    "attach_manifest",
    "read_manifest",
    "reset_artifact_counters",
    "verify_artifact",
    "write_npz",
]
