#!/usr/bin/env bash
# Test-tier runner.
#
#   scripts/run_tests.sh fast   - tier 1: everything except @pytest.mark.slow
#   scripts/run_tests.sh slow   - tier 2: the statistical / multi-seed suite
#   scripts/run_tests.sh all    - both tiers in one run (default)
#
# The slow tier holds the Kolmogorov-Smirnov engine-equivalence checks
# and the estimator-unbiasedness checks, which walk many seeds and are
# not needed on every edit-compile loop.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-all}"
shift || true
case "$tier" in
  fast) exec python -m pytest -q -m "not slow" "$@" ;;
  slow) exec python -m pytest -q -m slow "$@" ;;
  all)  exec python -m pytest -q "$@" ;;
  *)    echo "usage: $0 [fast|slow|all] [pytest args...]" >&2; exit 2 ;;
esac
