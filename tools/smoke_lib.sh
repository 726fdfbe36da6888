# smoke_lib.sh — helpers the kill-and-resume smoke scripts source.

# kill_after_first_block <pid> <segment>: wait until <segment> holds a data
# block (a header alone is under 100 bytes, a 512-record block several KiB),
# then SIGKILL <pid>, the subshell running a backgrounded function, and its
# chaser_run child, which would otherwise keep running and race the resume
# for the same output files.
kill_after_first_block() {
  local pid="$1" seg="$2"
  for _ in $(seq 1 3000); do
    [[ "$(stat -c %s "$seg" 2>/dev/null || echo 0)" -gt 1024 ]] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.01
  done
  if kill -9 $(pgrep -P "$pid") "$pid" 2>/dev/null; then
    echo "   killed pid $pid with the store at $(stat -c %s "$seg" 2>/dev/null || echo 0) bytes"
  else
    echo "   the run finished before the kill landed; resume becomes a replay"
  fi
  wait "$pid" 2>/dev/null
}

# check_resumed <chaser_run log> <script name>: succeed when the run's store
# line ("..., N resumed)") reports a nonzero N, and print it.
check_resumed() {
  local n
  n="$(sed -n 's/.*, \([0-9]*\) resumed)$/\1/p' "$1")"
  if [[ -z "$n" || "$n" -eq 0 ]]; then
    echo "$2: FAIL — the resumed run replayed no stored record ($1)"
    return 1
  fi
  echo "   resumed $n records from the store"
}
