#!/usr/bin/env bash
# Build the whole repository under ThreadSanitizer and run the entire
# ctest suite, failing on any reported race.
#
# Every test runs, not only the ctest labels for the deliberately
# concurrent code (telemetry registry, gateway fan-out, archive, directory,
# security fast path): the rpc, integration and consumer suites drive
# server threads that loop on PollOnce, and an idle PollOnce returns
# without sleeping, so those loops spin against their peers.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" -DJAMM_SANITIZE=thread
cmake --build "$build_dir" -j"$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure

echo "tsan: whole ctest suite clean under TSan"
