"""Shared input, statistics, process probes and run provenance."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
#: Scratch space for spans, spill files and temp files; never committed.
WORK_DIR = BENCH_DIR / ".work"
HISTORY = BENCH_DIR / "history.jsonl"

#: The shared input: the 10^5-node CSR-native Chung-Lu stand-in of
#: examples/full_table_csr.py (99,618 nodes, 598k edges after cleaning).
NODES = 100_000
SMOKE_NODES = 4_000
TARGET_PAIR = (1, 2)


def build_graph(tracer, nodes: int = NODES):
    """Generate, assemble, clean and label the graph every workload uses.

    The graph is fixed (it is the workloads' common ground, like a
    dataset); the workload seed drives the walks and the query streams.
    """
    from repro.datasets.labeling import zipf_label_array
    from repro.datasets.synthetic import chung_lu_edges, powerlaw_degree_sequence
    from repro.graph.cleaning import largest_connected_component_csr
    from repro.graph.csr import CSRGraph

    with tracer.span("datasets.generate"):
        weights = powerlaw_degree_sequence(nodes, average_degree=12.0)
        edges = chung_lu_edges(weights, rng=1)
    with tracer.span("graph.csr.assemble"):
        graph = CSRGraph.from_edge_array(edges, num_nodes=nodes)
    with tracer.span("graph.cleaning.lcc"):
        graph = largest_connected_component_csr(graph)
    with tracer.span("datasets.labeling.label"):
        labels = zipf_label_array(graph.num_nodes, num_labels=50, exponent=1.0, rng=2)
        graph = graph.with_labels(label_array=labels)
    return graph


def build_suite(tracer, graph):
    from repro.experiments.algorithms import build_algorithm_suite

    with tracer.span("experiments.algorithms.suite"):
        return build_algorithm_suite(graph)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def windowed_rate(completions: Sequence[float], per_window: int) -> float:
    """Median completion rate over consecutive windows of *per_window*.

    *completions* are sorted completion times in seconds from the start
    of the timed phase.  A median over windows keeps a few slow seconds
    on a shared machine from moving the whole run's rate.
    """
    bounds = [0.0, *completions]
    if len(completions) < per_window:
        return len(completions) / bounds[-1]
    return float(numpy.median([
        per_window / (bounds[i + per_window] - bounds[i])
        for i in range(0, len(completions) - per_window + 1, per_window)
    ]))


def digest(rows) -> str:
    """Order-sensitive hash of (estimates, api_calls) rows, bit-exact."""
    hasher = hashlib.sha256()
    for estimates, api_calls in rows:
        hasher.update(repr([float(v).hex() for v in estimates]).encode())
        hasher.update(repr([int(c) for c in api_calls]).encode())
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# process probes
# ----------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of *pid* (default: this process) in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by *pid*."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# provenance and history
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def tree_digest(directory: Path) -> str:
    """Hash of every Python file under *directory* (works without git)."""
    hasher = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> Dict[str, object]:
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_digest": tree_digest(ROOT / "src"),
        "bench_digest": tree_digest(BENCH_DIR),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


#: Provenance fields that must agree before two runs' output digests are
#: expected to match bit for bit.
_SAME_BITS = ("source_digest", "bench_digest", "cpu", "python", "numpy")


def earlier_digests(record: Dict[str, object]) -> List[str]:
    """Output digests of earlier clean runs of this workload, seed and build."""
    if not HISTORY.is_file():
        return []
    found = []
    for line in HISTORY.read_text().splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn line from a killed run
        if (
            old.get("workload") == record["workload"]
            and old.get("smoke") == record["smoke"]
            and old.get("provenance", {}).get("seed") == record["provenance"]["seed"]
            and all(
                old.get("provenance", {}).get(key) == record["provenance"][key]
                for key in _SAME_BITS
            )
            and old.get("output_digest")
            and not old.get("problems")
        ):
            found.append(old["output_digest"])
    return found


def append_history(record: Dict[str, object]) -> None:
    """Append one run to the history file (never rewritten)."""
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def python_env() -> Dict[str, str]:
    """Environment for the server child: checkout sources, scratch in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(WORK_DIR / "tmp")
    env["REPRO_MMAP_DIR"] = str(WORK_DIR / "spill")
    return env
