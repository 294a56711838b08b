"""Blake2b content manifests for ``.npz`` artifacts, stored in-band.

A checksummed ``.npz`` is a plain zip whose **end-of-central-directory
comment** carries a JSON manifest: per-member sizes, a whole-member
blake2b digest, and per-page digests (:data:`PAGE_BYTES` pages).  The
comment is the one zip field that lives *after* all member data, so it
is a literal manifest footer: attaching it never moves the members'
raw bytes, and ``np.load`` keeps working unchanged (readers locate the central
directory by scanning backwards past the comment).

Writes go through :func:`write_npz` — scratch file, ``np.savez``,
manifest attach, fsync, ``os.replace`` (see
:mod:`repro.durability.atomic`) — so an artifact is only ever reachable
under its real name *with* a manifest that matches its bytes.  Opens go
through :func:`verify_artifact`, which checks the manifest in one of
three modes and raises :class:`~repro.exceptions.ArtifactCorruptError`
on any mismatch instead of letting a torn or bit-flipped file be
walked:

``full``
    every member streamed end to end against its whole-member digest —
    the fsck / CI mode;
``sampled``
    member sizes plus up to :data:`SAMPLE_PAGES` evenly spaced page
    digests per member — O(pages) I/O, the quick mode for multi-GB
    artifacts (it catches truncation and localized damage without
    reading every byte);
``off``
    presence only (escape hatch).

The default mode is ``full``; set :data:`VERIFY_ENV`
(``REPRO_VERIFY_ARTIFACTS``) to ``sampled`` or ``off`` to relax it
process-wide.  Artifacts written before manifests existed verify as
``"unchecked"`` rather than failing — every *new* write carries one.
Process-wide verified/failed/skipped counters feed the service's
``/stats`` durability block.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.durability.atomic import PathLike, atomic_write
from repro.exceptions import ArtifactCorruptError, ConfigurationError
from repro.resilience.faults import fire

#: Environment variable selecting the process-wide verification mode.
VERIFY_ENV = "REPRO_VERIFY_ARTIFACTS"

#: The verification modes :func:`verify_artifact` accepts.
VERIFY_MODES = ("full", "sampled", "off")

#: Page granularity of the per-page digests (1 MiB).
PAGE_BYTES = 1 << 20

#: Pages checked per member in ``sampled`` mode (first and last always).
SAMPLE_PAGES = 8

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


def _digest(data: bytes) -> str:
    return blake2b(data, digest_size=_DIGEST_SIZE).hexdigest()


def resolve_verify_mode(
    mode: Optional[str] = None, environ: Optional[Mapping[str, str]] = None
) -> str:
    """*mode* if given, else :data:`VERIFY_ENV`, else ``full``."""
    if mode is None:
        env = os.environ if environ is None else environ
        mode = env.get(VERIFY_ENV) or "full"
    if mode not in VERIFY_MODES:
        raise ConfigurationError(
            f"unknown artifact verification mode {mode!r}; "
            f"available: {', '.join(VERIFY_MODES)}"
        )
    return mode


def attach_manifest(path: PathLike) -> Dict[str, object]:
    """Compute and attach the manifest comment to a finished zip at *path*.

    Intended for the scratch file inside an atomic write (the public
    entry point is :func:`write_npz`); returns the manifest dict.
    """
    members: Dict[str, Dict[str, object]] = {}
    with zipfile.ZipFile(path, "r") as archive:
        for info in archive.infolist():
            whole = blake2b(digest_size=_DIGEST_SIZE)
            pages: List[str] = []
            with archive.open(info) as member:
                while True:
                    chunk = member.read(PAGE_BYTES)
                    if not chunk:
                        break
                    whole.update(chunk)
                    pages.append(_digest(chunk))
            members[info.filename] = {
                "size": info.file_size,
                "digest": whole.hexdigest(),
                "pages": pages,
            }
    manifest: Dict[str, object] = {
        "format": 1,
        "algorithm": "blake2b",
        "digest_size": _DIGEST_SIZE,
        "page_bytes": PAGE_BYTES,
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


def _sample_indices(num_pages: int) -> List[int]:
    """First, last, and evenly spaced interior pages (≤ SAMPLE_PAGES)."""
    if num_pages <= SAMPLE_PAGES:
        return list(range(num_pages))
    step = (num_pages - 1) / (SAMPLE_PAGES - 1)
    return sorted({round(index * step) for index in range(SAMPLE_PAGES)})


def _fail(path: PathLike, detail: str) -> None:
    _count("failed")
    raise ArtifactCorruptError(
        f"artifact {path} failed integrity verification: {detail}; "
        "refusing to open it (see docs/operations.md, 'Durability & "
        "recovery', for the corrupt-artifact runbook)",
        location=str(path),
    )


def verify_artifact(path: PathLike, mode: Optional[str] = None) -> str:
    """Verify the artifact at *path* against its manifest footer.

    Returns ``"verified"``, ``"sampled"``, ``"skipped"`` (mode off) or
    ``"unchecked"`` (legacy artifact with no manifest); raises
    :class:`~repro.exceptions.ArtifactCorruptError` on any mismatch.
    This is also the ``artifact.verify`` fault site.
    """
    mode = resolve_verify_mode(mode)
    fire("artifact.verify", location=str(path), mode=mode)
    if mode == "off":
        _count("skipped")
        return "skipped"
    manifest = read_manifest(path)
    if manifest is None:
        _count("skipped")
        return "unchecked"
    members = manifest.get("members", {})
    page_bytes = int(manifest.get("page_bytes", PAGE_BYTES))
    try:
        with zipfile.ZipFile(path, "r") as archive:
            names = archive.namelist()
            if sorted(names) != sorted(members):
                _fail(path, "member list does not match the manifest")
            for info in archive.infolist():
                expected = members[info.filename]
                if info.file_size != expected["size"]:
                    _fail(
                        path,
                        f"member {info.filename!r} is {info.file_size} bytes, "
                        f"manifest says {expected['size']}",
                    )
                if mode == "full":
                    whole = blake2b(digest_size=_DIGEST_SIZE)
                    with archive.open(info) as member:
                        while True:
                            chunk = member.read(PAGE_BYTES)
                            if not chunk:
                                break
                            whole.update(chunk)
                    if whole.hexdigest() != expected["digest"]:
                        _fail(path, f"member {info.filename!r} digest mismatch")
                else:  # sampled
                    pages: List[str] = expected["pages"]  # type: ignore[assignment]
                    with archive.open(info) as member:
                        for index in _sample_indices(len(pages)):
                            member.seek(index * page_bytes)
                            chunk = member.read(page_bytes)
                            if _digest(chunk) != pages[index]:
                                _fail(
                                    path,
                                    f"member {info.filename!r} page {index} "
                                    "digest mismatch",
                                )
    except (zipfile.BadZipFile, OSError) as exc:
        # A bit flip can surface as zipfile's own CRC check or a read
        # error before our digest comparison runs — same verdict.
        _fail(path, f"zip-level read failure ({exc})")
    _count("verified")
    return "verified" if mode == "full" else "sampled"


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
    "PAGE_BYTES",
    "SAMPLE_PAGES",
    "VERIFY_ENV",
    "VERIFY_MODES",
    "artifact_counters",
    "attach_manifest",
    "read_manifest",
    "reset_artifact_counters",
    "resolve_verify_mode",
    "verify_artifact",
    "write_npz",
]
