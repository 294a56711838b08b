"""The experiment journal: an append-only JSONL WAL for long sweeps.

A ``--jobs 8`` ten-algorithm table over a 10⁶-node graph that dies at
cell 47/60 should not restart from zero.  The journal makes every
completed cell durable the moment it finishes: one fsync'd JSON line
per cell, appended by :func:`repro.experiments.runner.compare_algorithms`
(and the sweeps built on it), keyed by a **suite fingerprint** — a
blake2b over the experiment parameters, the seed, and a content probe
of the graph — so a journal can never replay into a run it does not
belong to.  ``--resume`` then replays finished cells from the journal
and re-runs only the missing ones; because cell seeds are pre-derived
(:func:`repro.utils.rng.derive_seed`), the resumed table is
bit-identical to an uninterrupted run.

Records are self-checking: each line carries a blake2b digest of its
payload, so a line torn by a crash mid-append (the only torn shape an
append-then-fsync protocol can produce) is detected and skipped on
replay rather than poisoning it.  The record vocabulary:

``begin``
    journal header — format version, suite fingerprint, writer pid;
``cell``
    one completed (algorithm, column) cell with its estimates and
    per-trial API-call counts — everything
    :class:`~repro.experiments.runner.TrialOutcome` needs to be rebuilt
    exactly;
``commit``
    the suite completed.  A committed journal is garbage (its table was
    delivered) and :func:`repro.graph.store.sweep_orphan_spills`
    reclaims it; an *uncommitted* journal is resume state and is always
    left alone.

Journal appends are deliberately non-fatal: a full disk should degrade
resumability, not kill a half-finished sweep.  Failed appends are
counted (and rehearsed via the ``journal.append`` fault site).
"""

from __future__ import annotations

import json
import os
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.durability.atomic import PathLike, fsync_directory
from repro.exceptions import ExperimentError
from repro.resilience.faults import fire

JOURNAL_FORMAT = 1

#: File suffix all experiment journals carry (the sweep keys off it).
JOURNAL_SUFFIX = ".journal.jsonl"

CellKey = Tuple[str, object]


def _jsonable(value: object) -> object:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


def _dumps(payload: object) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )


def _check(record: Dict[str, object]) -> str:
    return blake2b(_dumps(record).encode("utf-8"), digest_size=8).hexdigest()


def graph_fingerprint(graph: object) -> str:
    """A cheap content fingerprint of a graph (CSR or dict substrate).

    For CSR graphs this probes the head and tail of ``indptr`` /
    ``indices`` (and ``label_array`` when present) on top of the node
    and edge counts — O(1) reads even on a million-node graph, yet any
    regeneration with different parameters changes it.  Dict graphs
    hash only their counts and type (they are never the resume target
    at the scale where resume matters).
    """
    digest = blake2b(digest_size=16)
    digest.update(type(graph).__name__.encode("ascii"))
    digest.update(
        f"|V|={graph.num_nodes},|E|={graph.num_edges}".encode("ascii")
    )
    indptr = getattr(graph, "indptr", None)
    if indptr is not None:
        # CSRGraph exposes label_array as a zero-arg accessor, not an
        # attribute; other substrates may expose it as a plain array.
        labels = getattr(graph, "label_array", None)
        if callable(labels):
            labels = labels()
        for array in (indptr, graph.indices, labels):
            if array is None:
                continue
            probe = np.asarray(array)
            for part in (probe[:256], probe[-256:]):
                if part.dtype == object:  # object bytes are addresses
                    part = np.array([repr(value) for value in part.tolist()])
                digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def suite_fingerprint(graph: object, **params: object) -> str:
    """The journal key: graph content probe + every run-shaping parameter."""
    digest = blake2b(digest_size=16)
    digest.update(graph_fingerprint(graph).encode("ascii"))
    digest.update(_dumps(params).encode("utf-8"))
    return digest.hexdigest()


def read_records(path: PathLike) -> List[Dict[str, object]]:
    """Every intact record in the journal at *path*, in append order.

    Torn or mangled lines (a crash mid-append, a checksum mismatch) are
    skipped, not fatal — that is the WAL contract.
    """
    records: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as source:
            lines = source.readlines()
    except OSError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            envelope = json.loads(line)
            record = envelope["record"]
        except (ValueError, TypeError, KeyError):
            continue
        if not isinstance(record, dict):
            continue
        if envelope.get("check") != _check(record):
            continue
        records.append(record)
    return records


def journal_is_committed(path: PathLike) -> bool:
    """Whether the journal at *path* recorded a completed run."""
    return any(
        record.get("type") == "commit" for record in read_records(path)
    )


class ExperimentJournal:
    """One suite's WAL: open (fresh or resuming), append cells, commit."""

    def __init__(
        self, path: PathLike, fingerprint: str, resume: bool = False
    ) -> None:
        self.path = Path(path)
        if not str(self.path).endswith(JOURNAL_SUFFIX):
            # Normalize so sweep_orphan_spills can recognise journals.
            self.path = self.path.with_name(self.path.name + JOURNAL_SUFFIX)
        self.fingerprint = fingerprint
        self.append_failures = 0
        self.appended = 0
        self._committed = False
        self._replayed: Dict[CellKey, Dict[str, object]] = {}
        existing = read_records(self.path) if resume else []
        if resume and existing:
            header = existing[0]
            if (
                header.get("type") != "begin"
                or header.get("fingerprint") != fingerprint
            ):
                raise ExperimentError(
                    f"journal {self.path} belongs to a different suite "
                    f"(fingerprint {header.get('fingerprint')!r} != "
                    f"{fingerprint!r}); delete it or point --journal at a "
                    "fresh path"
                )
            for record in existing:
                if record.get("type") == "cell":
                    key = (str(record["algorithm"]), record["column"])
                    self._replayed[key] = record
                elif record.get("type") == "commit":
                    self._committed = True
            self._handle = open(self.path, "a", encoding="utf-8")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")
            self._append(
                {
                    "type": "begin",
                    "format": JOURNAL_FORMAT,
                    "fingerprint": fingerprint,
                }
            )

    @property
    def committed(self) -> bool:
        return self._committed

    def completed_cells(self) -> Dict[CellKey, Dict[str, object]]:
        """Replayed ``(algorithm, column) -> cell record`` from a resume."""
        return dict(self._replayed)

    def _append(self, record: Dict[str, object]) -> None:
        record = dict(record, pid=os.getpid())
        line = _dumps({"check": _check(record), "record": record})
        try:
            fire("journal.append", location=str(self.path))
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except Exception:
            # Durability must degrade, never kill the run: a failed
            # append costs resumability of this cell, nothing else.
            self.append_failures += 1
        else:
            self.appended += 1

    def append_cell(
        self,
        algorithm: str,
        column: object,
        sample_size: int,
        true_count: int,
        estimates: List[float],
        api_calls: List[int],
    ) -> None:
        """Make one finished cell durable."""
        self._append(
            {
                "type": "cell",
                "algorithm": algorithm,
                "column": column,
                "sample_size": int(sample_size),
                "true_count": int(true_count),
                "estimates": [float(value) for value in estimates],
                "api_calls": [int(value) for value in api_calls],
            }
        )

    def commit(self, cells: int) -> None:
        """Mark the suite complete (a committed journal is reclaimable)."""
        if not self._committed:
            self._append({"type": "commit", "cells": int(cells)})
            self._committed = True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            fsync_directory(self.path.parent)

    def __enter__(self) -> "ExperimentJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_SUFFIX",
    "ExperimentJournal",
    "graph_fingerprint",
    "journal_is_committed",
    "read_records",
    "suite_fingerprint",
]
