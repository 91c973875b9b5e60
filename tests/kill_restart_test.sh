#!/bin/sh
# Crash-recovery integration test: SIGKILL crowdml-server mid-run, restart
# it on the same port with the same --wal-dir, and assert that
#   (a) the restarted server recovers every sample it had applied before
#       the kill from snapshot + WAL (--fsync always: no acked checkin
#       lost),
#   (b) devices ride out the outage via ReconnectingDeviceSession,
#   (c) training resumes past the recovered state.
# The whole scenario runs once with one model instance (the single
# applier) and once with a draw-and-discard pool of two, so a SIGKILL of
# the applier goes through the real binary at both k. Samples, not
# iterations, are compared: a pool's iteration also counts discard
# overwrites, which carry no ack and may be lost uncommitted.
# Run by ctest with the build directory as argument.
set -eu
BUILD_DIR="$1"
WORK=$(mktemp -d)
SERVER_PID=""
trap 'kill -9 $SERVER_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$WORK"

"$BUILD_DIR/tools/crowdml-make-dataset" --kind mnist --scale 0.05 --shards 2 \
    --shard-prefix dev_ --seed 42

# Sum of the last $2 "samples reported:" lines of log $1 — one per
# instance in the most recent portal report.
samples() {
  sed -n 's/^samples reported: *\([0-9]*\).*/\1/p' "$1" | tail -"$2" |
      awk '{s+=$1} END {print s+0}'
}

run_scenario() {
  K="$1"
  EXTRA="$2"
  DIR="run_k$K"
  mkdir "$DIR"
  cd "$DIR"

  start_server() {
    # --auth-seed is fixed, so re-enrollment after the crash regenerates
    # the exact same device keys the devices are already holding.
    # shellcheck disable=SC2086
    "$BUILD_DIR/tools/crowdml-server" --port "$1" --classes 10 --dim 50 \
        --enroll 2 --keys-out "$2" --auth-seed 7 \
        --model-instances "$K" $EXTRA \
        --wal-dir wal --fsync always --report-every 0.3 \
        --max-iterations 100000 >> "$3" 2>&1 &
    SERVER_PID=$!
  }

  start_server 0 keys.csv server1.log

  PORT=""
  for i in $(seq 1 50); do
    PORT=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' server1.log)
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "[k=$K] server did not start"; cat server1.log; exit 1; }
  grep -q "^config: .* model-instances=$K " server1.log || {
    echo "[k=$K] missing effective-config line"; cat server1.log; exit 1; }

  # Devices with a generous retry budget: they must survive the restart
  # window (capped exponential backoff, checkins abandoned, never replayed).
  KEY1=$(sed -n 1p keys.csv)
  KEY2=$(sed -n 2p keys.csv)
  run_device() {
    "$BUILD_DIR/tools/crowdml-device" --host 127.0.0.1 --port "$PORT" \
        --data "../$1" --key "$2" --minibatch 10 --epsilon 50 --passes 20 \
        --classes 10 --max-attempts 60 --backoff-max-ms 500 \
        --connect-timeout-ms 1000 > "$3" 2>&1 &
  }
  run_device dev_0.csv "$KEY1" dev1.log
  DEV1=$!
  run_device dev_1.csv "$KEY2" dev2.log
  DEV2=$!

  # Let training get going, then pull the plug without ceremony.
  PRE=0
  for i in $(seq 1 100); do
    PRE=$(samples server1.log "$K")
    [ "$PRE" -ge 200 ] && break
    sleep 0.1
  done
  [ "$PRE" -ge 200 ] || { echo "[k=$K] training never took off"; cat server1.log; exit 1; }
  kill -9 $SERVER_PID
  wait $SERVER_PID 2>/dev/null || true

  start_server "$PORT" keys2.csv server2.log

  RECOVERED=""
  for i in $(seq 1 50); do
    RECOVERED=$(sed -n 's/^recovered state: iteration [0-9]*, samples \([0-9]*\).*/\1/p' server2.log)
    [ -n "$RECOVERED" ] && break
    sleep 0.1
  done
  [ -n "$RECOVERED" ] || { echo "[k=$K] no recovery line"; cat server2.log; exit 1; }
  cmp -s keys.csv keys2.csv || { echo "[k=$K] re-enrolled keys differ"; exit 1; }

  # The WAL must have carried training at least to the last report we saw
  # — with --fsync always this is exactly "no acked checkin lost".
  [ "$RECOVERED" -ge "$PRE" ] || {
    echo "[k=$K] recovered $RECOVERED samples, behind last report's $PRE"
    cat server2.log; exit 1; }

  wait $DEV1 || { echo "[k=$K] device 1 failed"; cat dev1.log; exit 1; }
  wait $DEV2 || { echo "[k=$K] device 2 failed"; cat dev2.log; exit 1; }
  cat dev1.log dev2.log

  # At least one device had to reconnect across the crash window.
  RECONNECTS=$(sed -n 's/^transport: \([0-9]*\) reconnects.*/\1/p' dev1.log dev2.log |
      awk '{s+=$1} END {print s+0}')
  [ "$RECONNECTS" -ge 1 ] || { echo "[k=$K] no device ever reconnected"; exit 1; }

  # Training resumed: the restarted server moved past the recovered state.
  kill -TERM $SERVER_PID
  wait $SERVER_PID 2>/dev/null || true
  FINAL=$(samples server2.log "$K")
  [ -n "$FINAL" ] && [ "$FINAL" -gt "$RECOVERED" ] || {
    echo "[k=$K] training did not resume (recovered $RECOVERED, final ${FINAL:-none})"
    cat server2.log; exit 1; }
  grep -q "durable state compacted" server2.log || {
    echo "[k=$K] no final compaction"; cat server2.log; exit 1; }
  find wal -name 'snapshot-*.bin' | grep -q . || { echo "[k=$K] no snapshot on disk"; exit 1; }

  echo "kill-restart [k=$K] OK (crashed at >=$PRE, recovered at $RECOVERED," \
       "finished at $FINAL, $RECONNECTS reconnects)"
  cd ..
}

run_scenario 1 ""
run_scenario 2 "--io-threads 2 --checkin-queue-max 256"
