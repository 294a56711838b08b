"""Crash-consistent durability: atomic writes, manifests, WALs, snapshots.

Everything this repo persists survives crash-stop faults through three
legs, each a module here:

* :mod:`~repro.durability.atomic` + :mod:`~repro.durability.manifest` —
  every durable write is scratch-file + fsync + ``os.replace``, and
  every ``.npz`` carries a blake2b manifest footer the load paths
  check against every byte before using any;
* :mod:`~repro.durability.journal` — long sweeps WAL each completed
  cell, fingerprint-keyed, so ``--resume`` replays the finished work
  bit-identically;
* :mod:`~repro.durability.snapshot` — the serving layer checkpoints its
  answer cache for warm restarts.

The runbook lives in docs/operations.md ("Durability & recovery").
"""

from repro.durability.atomic import (
    SCRATCH_PATTERN,
    atomic_write,
    atomic_write_bytes,
    commit_scratch,
    fsync_directory,
    scratch_path,
)
from repro.durability.journal import (
    JOURNAL_SUFFIX,
    ExperimentJournal,
    graph_fingerprint,
    journal_is_committed,
    read_records,
    suite_fingerprint,
)
from repro.durability.manifest import (
    artifact_counters,
    attach_manifest,
    read_manifest,
    reset_artifact_counters,
    verify_artifact,
    write_npz,
)
from repro.durability.snapshot import read_blob, write_blob

__all__ = [
    "JOURNAL_SUFFIX",
    "SCRATCH_PATTERN",
    "ExperimentJournal",
    "artifact_counters",
    "atomic_write",
    "atomic_write_bytes",
    "attach_manifest",
    "commit_scratch",
    "fsync_directory",
    "graph_fingerprint",
    "journal_is_committed",
    "read_blob",
    "read_manifest",
    "read_records",
    "reset_artifact_counters",
    "scratch_path",
    "suite_fingerprint",
    "verify_artifact",
    "write_blob",
    "write_npz",
]
