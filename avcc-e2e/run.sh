#!/usr/bin/env bash
# The benchmark's command: build `avcc-e2e` and the repository's `avcc-worker`
# from source (a no-op when they are fresh), then run one workload.
# Arguments are passed through: --workload NAME --seed N --seconds S --trace 0|1.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/avcc-e2e" "$@"
