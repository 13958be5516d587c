# Server lifecycle for the CI smoke jobs. Source it from the repo root
# (`. tools/ci/serve.sh`), then:
#
#   serve_start LOG [listen flags...]
#       Starts `./build/colossal_serve listen --port 0 [flags]` in the
#       background with stdout and stderr in LOG, waits for its
#       `listening` line(s), and exports SERVER_PID, PORT and, when the
#       flags include --http-port, HTTP_PORT. Fails if the server does
#       not listen within 10 s.
#   serve_wait
#       Waits up to 10 s for a server told to `shutdown` to exit, reaps
#       it and prints LOG. Fails if it had to be killed or exited
#       nonzero.
#   serve_stop
#       Sends SIGTERM (the graceful stop) and then does serve_wait.
#
# serve_start also traps EXIT, so a step that fails midway still stops,
# reaps and prints its server.

serve_start() {
  SERVE_LOG=$1
  shift
  ./build/colossal_serve listen --port 0 "$@" > "$SERVE_LOG" 2>&1 &
  SERVER_PID=$!
  trap serve_stop EXIT
  local want='^listening host='
  case " $* " in *' --http-port '*) want='^listening http host=' ;; esac
  for _ in $(seq 1 100); do
    grep -q "$want" "$SERVE_LOG" && break
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  PORT=$(grep -oP '^listening host=\S+ port=\K[0-9]+' "$SERVE_LOG") || return 1
  HTTP_PORT=$(grep -oP '^listening http host=\S+ port=\K[0-9]+' "$SERVE_LOG") || true
  export SERVER_PID PORT HTTP_PORT
  echo "server pid=$SERVER_PID port=$PORT http_port=${HTTP_PORT:-none}"
}

serve_wait() {
  [ -n "${SERVER_PID:-}" ] || return 0
  local rc=0
  for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server $SERVER_PID still running after 10 s; killing it" >&2
    kill -KILL "$SERVER_PID" 2>/dev/null || true
    rc=1
  fi
  wait "$SERVER_PID" || rc=1
  SERVER_PID=
  cat "$SERVE_LOG"
  return "$rc"
}

serve_stop() {
  [ -n "${SERVER_PID:-}" ] || return 0
  kill -TERM "$SERVER_PID" 2>/dev/null || true
  serve_wait
}
