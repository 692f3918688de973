#!/usr/bin/env bash
# Regenerates the HDSL fuzz corpus with the built make_corpus into a temporary directory and
# checks it against tests/corpus/MANIFEST.sha256. check_corpus.sh only hashes the committed
# files, and round-trip tests pass for any self-consistent format; this fails as soon as the
# session-log or container writer emits a different byte.
#   scripts/check_corpus_regenerates.sh <make_corpus>
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <make_corpus>" >&2
  exit 2
fi

manifest=$(cd "$(dirname "$0")/../tests/corpus" && pwd)/MANIFEST.sha256
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$1" "$work" > /dev/null
cd "$work"
sha256sum --check --strict "$manifest"
