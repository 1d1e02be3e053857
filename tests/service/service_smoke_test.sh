#!/usr/bin/env bash
# Copyright 2026 The balanced-clique Authors.
#
# The canned service-smoke batch through `mbc_cli batch --deterministic`:
# generates the Bitcoin smoke graph (scale 0.0625) in a temp dir, replays
# the requests and diffs the responses against the golden byte for byte.
#
#   service_smoke_test.sh <mbc_cli> <requests.jsonl> <golden.jsonl>
set -u

MBC_CLI="$1"
REQUESTS="$2"
GOLDEN="$3"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

# The requests load the graph by this relative path.
"$MBC_CLI" generate --dataset Bitcoin --scale 0.0625 --out smoke_graph.txt \
  > /dev/null || { echo "FAIL: generate"; exit 1; }

"$MBC_CLI" batch --input "$REQUESTS" --deterministic true \
  > responses.jsonl || { echo "FAIL: mbc_cli batch exited non-zero"; exit 1; }

diff "$GOLDEN" responses.jsonl || {
  echo "FAIL: responses differ from $GOLDEN"
  exit 1
}
echo "PASS: $(wc -l < responses.jsonl) responses match the golden"
