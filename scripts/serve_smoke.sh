#!/usr/bin/env bash
# End-to-end smoke for the veriqcd job service: pipe a mixed NDJSON batch
# (clean checks, a guaranteed non-equivalent pair, malformed JSON, an
# unknown config key, a budget violation, an oversized line) through the
# daemon over stdin, then a second batch over a Unix socket, and assert the
# daemon's contract:
#
#   - exactly one veriqc-report/v1 line per submitted job, each of which
#     passes check_qasm --validate-report (the same validateRunReport gate
#     CI applies to bench reports);
#   - every rejection carries a structured job.reason from the wire enum,
#     never a crash or a dropped line;
#   - the --metrics-fd dump is valid JSON whose serve/ counters add up
#     (submitted = admitted + rejected), and SIGUSR1 produces a mid-run
#     metrics dump without disturbing the job stream;
#   - a numeric flag that is not a whole, non-negative decimal integer, or
#     an unknown flag, stops veriqcd (and check_qasm) with the usage and
#     exit code 3 before any job runs.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Reuse an already-configured tree as-is (ctest invokes this script inside
# whatever build flavor registered it — never override that flavor's flags);
# only a fresh tree is configured as Release.
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "$BUILD_DIR" -j"$(nproc)" --target veriqcd check_qasm >/dev/null

VERIQCD="$BUILD_DIR/examples/veriqcd"
CHECK_QASM="$BUILD_DIR/examples/check_qasm"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat >"$WORK/bell_a.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
EOF
cp "$WORK/bell_a.qasm" "$WORK/bell_b.qasm"
cat >"$WORK/bell_c.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
EOF

# --- malformed flags ---------------------------------------------------------

# Each command gets one runnable job on stdin; it must exit 3 without
# printing a single report or verdict line.
echo "{\"id\":\"flag\",\"file1\":\"$WORK/bell_a.qasm\",\"file2\":\"$WORK/bell_b.qasm\"}" >"$WORK/one_job.ndjson"
expect_usage_exit() {
  local status=0
  "$@" <"$WORK/one_job.ndjson" >"$WORK/flag.out" 2>"$WORK/flag.err" || status=$?
  if [[ $status -ne 3 || -s "$WORK/flag.out" ]]; then
    echo "error: '$*' exited $status (expected 3 and no stdout); output:" >&2
    cat "$WORK/flag.out" "$WORK/flag.err" >&2
    exit 1
  fi
}
expect_usage_exit "$VERIQCD" --max-active -1
expect_usage_exit "$VERIQCD" --pool-slots -1
expect_usage_exit "$VERIQCD" --timeout-ms abc
expect_usage_exit "$VERIQCD" --max-active 2x
expect_usage_exit "$VERIQCD" --no-shared-cache
expect_usage_exit "$CHECK_QASM" "$WORK/bell_a.qasm" "$WORK/bell_b.qasm" \
  --timeout 10 --sims -1
echo "malformed flags OK: 6 commands stopped with usage exit 3"

# --- batch over stdin --------------------------------------------------------

BATCH="$WORK/batch.ndjson"
: >"$BATCH"
for i in $(seq 0 29); do
  case $((i % 6)) in
  0 | 1)
    echo "{\"id\":\"job-$i\",\"file1\":\"$WORK/bell_a.qasm\",\"file2\":\"$WORK/bell_b.qasm\"}" >>"$BATCH"
    ;;
  2)
    echo "{\"id\":\"job-$i\",\"file1\":\"$WORK/bell_a.qasm\",\"file2\":\"$WORK/bell_c.qasm\"}" >>"$BATCH"
    ;;
  3)
    echo "{\"id\":\"job-$i\", not even json" >>"$BATCH"
    ;;
  4)
    echo "{\"id\":\"job-$i\",\"file1\":\"$WORK/bell_a.qasm\",\"file2\":\"$WORK/bell_b.qasm\",\"config\":{\"maxDDNoodles\":7}}" >>"$BATCH"
    ;;
  *)
    echo "{\"id\":\"job-$i\",\"file1\":\"$WORK/bell_a.qasm\",\"file2\":\"$WORK/bell_b.qasm\",\"config\":{\"maxDDNodes\":99999999}}" >>"$BATCH"
    ;;
  esac
done
# One oversized line (the daemon's line limit is set to 4096 below).
printf '{"id":"job-huge","file1":"%s","file2":"%s","pad":"%s"}\n' \
  "$WORK/bell_a.qasm" "$WORK/bell_b.qasm" "$(head -c 5000 /dev/zero | tr '\0' x)" >>"$BATCH"
SUBMITTED=31

echo "== stdin batch ($SUBMITTED jobs) =="
"$VERIQCD" --max-dd-nodes 100000 --max-line-bytes 4096 --timeout-ms 30000 \
  --metrics-fd 3 <"$BATCH" >"$WORK/reports.ndjson" 3>"$WORK/metrics.json"

python3 - "$WORK/reports.ndjson" "$WORK/metrics.json" "$SUBMITTED" <<'EOF'
import json
import sys

reports_path, metrics_path, submitted = sys.argv[1], sys.argv[2], int(sys.argv[3])
reasons = {"", "malformed_request", "oversized_request", "queue_full",
           "memory_budget", "budget_exceeds_limit", "fault_plan_forbidden",
           "shutting_down"}
lines = [l for l in open(reports_path, encoding="utf-8").read().splitlines() if l]
assert len(lines) == submitted, f"expected {submitted} report lines, got {len(lines)}"
admitted = rejected = 0
for line in lines:
    report = json.loads(line)
    assert report["schema"] == "veriqc-report/v1", report["schema"]
    job = report["job"]
    assert job["reason"] in reasons, job["reason"]
    if job["admitted"]:
        admitted += 1
        assert job["reason"] == ""
    else:
        rejected += 1
        assert job["reason"] != "", "rejection without a structured reason"
        assert report["verdict"]["verdict"] == "not_run"
assert admitted == 15 and rejected == 16, (admitted, rejected)

metrics = json.loads(open(metrics_path, encoding="utf-8").read().splitlines()[-1])
assert metrics["schema"] == "veriqc-metrics/v1", metrics["schema"]
counters = metrics["counters"]
assert counters["serve/jobs_submitted"] == submitted
assert counters["serve/jobs_admitted"] == admitted
assert counters["serve/jobs_rejected"] == rejected
assert counters["serve/jobs_completed"] == admitted
print(f"stdin batch OK: {admitted} ran, {rejected} rejected, metrics consistent")
EOF

# Every report line passes the same schema gate CI applies to bench reports.
i=0
while IFS= read -r line; do
  echo "$line" >"$WORK/one_report.json"
  "$CHECK_QASM" --validate-report "$WORK/one_report.json" >/dev/null ||
    { echo "error: report line $i failed validateRunReport" >&2; exit 1; }
  i=$((i + 1))
done <"$WORK/reports.ndjson"
echo "all $i report lines pass validateRunReport"

# --- batch over the Unix socket, with a SIGUSR1 metrics dump -----------------

echo "== socket batch =="
SOCK="$WORK/veriqcd.sock"
"$VERIQCD" --socket "$SOCK" --timeout-ms 30000 --metrics-fd 3 \
  >"$WORK/sock_reports.ndjson" 3>"$WORK/sock_metrics.json" &
DAEMON=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "error: daemon never bound $SOCK" >&2; exit 1; }

python3 - "$SOCK" "$WORK" <<'EOF'
import json
import socket
import sys

sock_path, work = sys.argv[1], sys.argv[2]
client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
client.connect(sock_path)
jobs = [
    {"id": "sock-0", "file1": f"{work}/bell_a.qasm", "file2": f"{work}/bell_b.qasm"},
    {"id": "sock-1", "file1": f"{work}/bell_a.qasm", "file2": f"{work}/bell_c.qasm"},
]
stream = client.makefile("rw", encoding="utf-8", newline="\n")
replies = []
for job in jobs:
    stream.write(json.dumps(job) + "\n")
    stream.flush()
    replies.append(stream.readline().strip())
stream.write("definitely not json\n")
stream.flush()
replies.append(stream.readline().strip())
client.close()
assert replies == ["admitted", "admitted", "rejected"], replies
print("socket client replies OK:", replies)
EOF

# Wait for all three reports before signaling: SIGTERM cancels in-flight
# jobs, and under VERIQC_AUDIT=2 the checks are slow enough to still be
# running when the client disconnects.
for _ in $(seq 1 300); do
  [[ $(grep -c . "$WORK/sock_reports.ndjson" 2>/dev/null || echo 0) -ge 3 ]] && break
  sleep 0.1
done

# A mid-run SIGUSR1 must dump metrics without disturbing the daemon.
kill -USR1 "$DAEMON"
for _ in $(seq 1 100); do
  [[ -s "$WORK/sock_metrics.json" ]] && break
  sleep 0.1
done
[[ -s "$WORK/sock_metrics.json" ]] ||
  { echo "error: SIGUSR1 produced no metrics dump" >&2; exit 1; }

kill -TERM "$DAEMON"
wait "$DAEMON" || true

python3 - "$WORK/sock_reports.ndjson" "$WORK/sock_metrics.json" <<'EOF'
import json
import sys

lines = [l for l in open(sys.argv[1], encoding="utf-8").read().splitlines() if l]
assert len(lines) == 3, f"expected 3 socket reports, got {len(lines)}"
by_id = {json.loads(l)["job"]["id"]: json.loads(l) for l in lines}
assert by_id["sock-0"]["verdict"]["verdict"] == "equivalent"
assert by_id["sock-1"]["verdict"]["verdict"] == "not_equivalent"
assert by_id[""]["job"]["reason"] == "malformed_request"
dumps = [json.loads(l) for l in
         open(sys.argv[2], encoding="utf-8").read().splitlines() if l]
assert len(dumps) >= 2, "expected the SIGUSR1 dump plus the exit dump"
assert all(d["schema"] == "veriqc-metrics/v1" for d in dumps)
print("socket batch OK: verdicts, structured rejection, and both metrics dumps")
EOF

# One-line coverage summary: jobs pushed through each transport and how many
# report lines survived the validateRunReport schema gate.
echo "serve-smoke: OK (stdin: $SUBMITTED jobs, socket: 3 jobs; $i reports schema-validated, 2 metrics dumps checked, 6 malformed flags rejected)"
