#!/usr/bin/env bash
# Dead-surface gate: lists the functions librefloat.a exports that no
# test or bench binary keeps, and exits 1 when the list is not empty.
#
# Builds every target of the root project and bench/e2e's bench_e2e (a
# project of its own) with -ffunction-sections (one section per function)
# and links with --gc-sections --print-gc-sections, so the linker drops
# every function no binary reaches. The build is Debug (-O0): no caller
# inlines a function away and hides its use. A strong text symbol of the
# library is dead when no binary keeps it. The linker's logs of dropped
# sections are left in <build_dir>/gc-sections.log and
# <build_dir>/e2e/gc-sections.log.
#
# Usage: scripts/dead_symbols.sh [build_dir] [jobs]
#   build_dir  build tree to use (default: build-dead)
#   jobs       build parallelism (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-dead}
JOBS=${2:-$(nproc)}

# build <source dir> <build dir> [target]
build() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections" \
    > /dev/null
  if ! cmake --build "$2" -j "$JOBS" ${3:+--target "$3"} \
      > "$2/gc-sections.log" 2>&1; then
    tail -n 40 "$2/gc-sections.log"
    exit 1
  fi
}
build . "$BUILD_DIR"
build bench/e2e "$BUILD_DIR/e2e" bench_e2e

defined=$(nm --defined-only -g "$BUILD_DIR/librefloat.a" |
  awk '$2 == "T" { print $3 }' | sort -u)
kept=$(find "$BUILD_DIR" -path '*/CMakeFiles' -prune -o -type f -perm -u+x \
  \( -name 'test_*' -o -name 'bench_*' \) -print |
  xargs nm --defined-only | awk 'NF == 3 { print $3 }' | sort -u)
dead=$(comm -23 <(printf '%s\n' "$defined") <(printf '%s\n' "$kept") |
  sed '/^$/d')

count=$(printf '%s' "$dead" | grep -c . || true)
echo "dead_symbols: $count exported librefloat function(s) kept by no binary"
if [[ -n "$dead" ]]; then
  printf '%s\n' "$dead" | c++filt | sed 's/^/  /'
  exit 1
fi
