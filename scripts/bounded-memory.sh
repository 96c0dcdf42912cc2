#!/usr/bin/env bash
# Bounded-memory gate for the out-of-core collection path.
#
# Three legs:
#   1. UNRESTRICTED: megascale-x10 (quick), ordinary in-RAM collection, no
#      memory limit — the reference digest. Its peak RSS is ~270 MiB at this
#      scale; the streamed legs run under GOMEMLIMIT targets far below that.
#   2. STREAMED: the same world with -stream-collect -backend streaming under
#      GOMEMLIMIT=96MiB. The scan spills observations to disk and feeds the
#      resolver sessions as it goes, so the run must complete
#      under a heap target the in-RAM path cannot satisfy — and its
#      sets_digest must equal leg 1's byte for byte.
#   3. X100: megascale-x100 (quick) streamed under GOMEMLIMIT=160MiB — the
#      stream-only world. The same invocation without -stream-collect must be
#      refused (the preset's contract), and the streamed run must finish with
#      a non-empty digest.
#
# Every in-process session folds observations as they arrive, so any
# in-process backend name suits the memory gate; the streamed legs name
# streaming. Digest equality across backends is enforced separately
# (backend-equivalence job), which is what makes the cross-leg comparison
# here valid.
#
# Set BOUNDED_MEMORY_DIR to keep the work directory (CI uploads it as an
# artifact); otherwise a temp directory is used and cleaned up.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "${BOUNDED_MEMORY_DIR:-}" ]; then
    workdir=$BOUNDED_MEMORY_DIR
    mkdir -p "$workdir"
else
    workdir=$(mktemp -d)
    trap 'rm -rf "$workdir"' EXIT
fi

bin=$workdir/scenarios-bin
go build -o "$bin" ./cmd/scenarios

echo "bounded-memory: unrestricted in-RAM reference (megascale-x10, quick)"
"$bin" -run megascale-x10 -quick -json "$workdir/UNRESTRICTED.json"

echo "bounded-memory: streamed run under GOMEMLIMIT=96MiB"
GOMEMLIMIT=96MiB "$bin" -run megascale-x10 -quick -stream-collect -backend streaming \
    -json "$workdir/STREAMED.json"

grep -o '"sets_digest": *"[^"]*"' "$workdir/UNRESTRICTED.json" >"$workdir/unrestricted.digest"
grep -o '"sets_digest": *"[^"]*"' "$workdir/STREAMED.json" >"$workdir/streamed.digest"
if ! diff -u "$workdir/unrestricted.digest" "$workdir/streamed.digest"; then
    echo "bounded-memory: streamed digest diverges from the in-RAM run" >&2
    exit 1
fi
echo "bounded-memory: OK — streamed sets_digest identical under the memory limit"

echo "bounded-memory: megascale-x100 must refuse to run in RAM"
if "$bin" -run megascale-x100 -quick >/dev/null 2>"$workdir/refusal.txt"; then
    echo "bounded-memory: stream-only world ran in-RAM" >&2
    exit 1
fi
grep -q 'stream-collect' "$workdir/refusal.txt"

echo "bounded-memory: megascale-x100 streamed under GOMEMLIMIT=160MiB"
GOMEMLIMIT=160MiB "$bin" -run megascale-x100 -quick -stream-collect -backend streaming \
    -json "$workdir/X100.json"
x100=$(grep -o '"sets_digest": *"[^"]*"' "$workdir/X100.json" | head -1)
if [ -z "$x100" ]; then
    echo "bounded-memory: megascale-x100 produced no sets digest" >&2
    exit 1
fi
echo "bounded-memory: OK — stream-only world completed out-of-core ($x100)"
