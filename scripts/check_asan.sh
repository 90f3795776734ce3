#!/usr/bin/env bash
# Build the whole repository under AddressSanitizer + UndefinedBehavior-
# Sanitizer and run the entire ctest suite, failing on any report.
#
# -DJAMM_SANITIZE=address compiles with -fsanitize=address,undefined.
# ASan aborts on its first error by default; UBSan only prints unless told
# to halt, so UBSAN_OPTIONS makes any undefined behaviour fail its test.
# Leak checking stays on (ASan's default on Linux).
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" -DJAMM_SANITIZE=address
cmake --build "$build_dir" -j"$(nproc)"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$build_dir" --output-on-failure

echo "asan: whole ctest suite clean under ASan+UBSan"
