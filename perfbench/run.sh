#!/usr/bin/env bash
# Builds the release resilience-cli and the benchmark harness from this
# checkout, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR (default
# ./target); captured stderr, spans and result records go to
# $CARGO_TARGET_DIR/perfbench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

commit=unknown
if [ -d "$root/.git" ]; then
    commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p resilience-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

mkdir -p "$target/perfbench"
exec "$target/release/perfbench" \
    --cli "$target/release/resilience-cli" \
    --out "$target/perfbench" \
    --commit "$commit" \
    "$@"
