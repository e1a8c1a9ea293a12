#!/usr/bin/env bash
# End-to-end smoke for the distributed sweep service, exercised through the
# CLI exactly as a user would: start a controller and two workers, submit a
# sweep, SIGKILL one worker mid-run, and assert that
#
#   1. the run completes with a clean health summary (no failed points), and
#   2. the remote records are bit-identical (modulo wall_seconds) to the
#      same sweep executed through the local process-pool path, and
#   3. a sweep run through the service with ``--remote``, journaled, cut
#      short mid-line and resumed prints the table the local sweep prints.
#
# The deterministic kill-mid-lease variants live in tests/test_chaos.py;
# this script checks the shipped serve/worker/submit entry points wire the
# same machinery together.
set -euo pipefail

PORT="${SMOKE_PORT:-7431}"
TMP="$(mktemp -d)"
cleanup() {
    # unquoted on purpose: one pid per word
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

SWEEP_ARGS=(--k 4 --warmup 200 --measure 600
            --rates 0.05,0.10,0.15,0.20 --axis router-delay=1,2)

echo "== local baseline =="
python -m repro sweep "${SWEEP_ARGS[@]}" --journal "$TMP/local.jsonl" \
    >/dev/null

echo "== controller + 2 workers on port $PORT =="
python -m repro serve --port "$PORT" --heartbeat-timeout 5 \
    --fallback-after 60 &
sleep 1
python -m repro worker "127.0.0.1:$PORT" --name smoke-a 2>/dev/null &
python -m repro worker "127.0.0.1:$PORT" --name smoke-b 2>/dev/null &
WORKER_B=$!

echo "== submit, killing worker smoke-b after the first record lands =="
python -m repro submit "127.0.0.1:$PORT" "${SWEEP_ARGS[@]}" \
    --journal "$TMP/remote.jsonl" >/dev/null 2>"$TMP/health.txt" &
SUBMIT=$!
for _ in $(seq 150); do
    grep -qs '"index"' "$TMP/remote.jsonl" && break
    sleep 0.2
done
kill -9 "$WORKER_B" 2>/dev/null || true
wait "$SUBMIT"

echo "== health summary =="
cat "$TMP/health.txt"
grep -q "8/8 ok" "$TMP/health.txt"
! grep -q "failed" "$TMP/health.txt"

python - "$TMP/local.jsonl" "$TMP/remote.jsonl" <<'PY'
import json
import sys


def records(path):
    out = {}
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "index" not in obj:  # fingerprint header
            continue
        out[obj["index"]] = {
            k: v for k, v in obj["record"].items() if k != "wall_seconds"
        }
    return out


local, remote = records(sys.argv[1]), records(sys.argv[2])
assert len(local) == 8, f"local baseline incomplete: {len(local)}/8"
assert local == remote, (
    f"records differ: {len(local)} local vs {len(remote)} remote, "
    f"mismatched indices: "
    f"{sorted(i for i in local if remote.get(i) != local[i])}"
)
print(f"service smoke OK: {len(local)} records bit-identical to local path")
PY

echo "== remote sweep: local vs remote, then remote resume =="
RESUME_ARGS=(--k 4 --warmup 200 --measure 600
             --rates 0.05,0.10,0.15,0.20,0.25,0.30 --axis router-delay=1,2)
python -m repro sweep "${RESUME_ARGS[@]}" >"$TMP/resume_local.txt" 2>/dev/null
python -m repro sweep "${RESUME_ARGS[@]}" --remote "127.0.0.1:$PORT" \
    --journal "$TMP/resume.jsonl" >"$TMP/resume_remote.txt" 2>/dev/null
diff "$TMP/resume_local.txt" "$TMP/resume_remote.txt"
# Keep the header and the first five entries plus half a line: a client
# killed mid-write.  The resumed run must print the same table.
head -n 6 "$TMP/resume.jsonl" >"$TMP/resume_cut.jsonl"
sed -n 7p "$TMP/resume.jsonl" | head -c 40 >>"$TMP/resume_cut.jsonl"
python -m repro sweep "${RESUME_ARGS[@]}" --remote "127.0.0.1:$PORT" \
    --journal "$TMP/resume_cut.jsonl" --resume >"$TMP/resume_resumed.txt" 2>/dev/null
diff "$TMP/resume_local.txt" "$TMP/resume_resumed.txt"
echo "resume smoke OK: remote and resumed tables identical to local"
