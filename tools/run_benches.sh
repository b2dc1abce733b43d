#!/usr/bin/env bash
# Runs every experiment harness, teeing per-bench outputs next to an aggregate file.
# Usage: tools/run_benches.sh [output-dir]   (default: bench_results/)
#        tools/run_benches.sh --serve        smoke-test `concord serve` with canned
#                                            requests piped through the binary
#        tools/run_benches.sh --smoke        serve smoke plus, when
#                                            CONCORD_SMOKE_ASAN=1, the sanitized
#                                            test pass (tools/run_tests_asan.sh)
#        tools/run_benches.sh --store        durable-store acceptance: cold vs warm
#                                            restart, written to BENCH_STORE.json
#        tools/run_benches.sh --overload     frontend overload soak: greedy TCP
#                                            clients vs one well-behaved Unix
#                                            client; shed rate and p99s written
#                                            to BENCH_SERVE.json
#        tools/run_benches.sh --batch        batched-checking acceptance: batch
#                                            sweep, million-line scale sweep, and
#                                            the socket-level batch=100 >= 3x
#                                            gate, merged into BENCH_SERVE.json
#        tools/run_benches.sh --analyze      contract-set analyzer acceptance:
#                                            clean learned edge/WAN sets must
#                                            analyze with zero warning-or-worse
#                                            findings and the pruned check must
#                                            stay byte-identical while evaluating
#                                            strictly fewer contracts, merged
#                                            into BENCH_SERVE.json
set -u

serve_smoke() {
  local concord=build/src/cli/concord
  if [ ! -x "$concord" ]; then
    echo "error: $concord not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # Expand now: $tmp is function-local.
  trap "rm -rf '$tmp'" EXIT
  # A tiny corpus with a shared structure, learned then served.
  for i in 1 2 3; do
    printf 'hostname DEV%s\ninterface Loopback0\n   ip address 10.14.%s.34\n' \
      "$i" "$i" > "$tmp/dev$i.cfg"
  done
  "$concord" learn --configs "$tmp/*.cfg" --support 2 --quiet \
    --out "$tmp/contracts.json" || exit 2
  # Canned v1 request file: a batched check, a cache-hitting repeat, stats,
  # a metrics scrape, shutdown.
  text1="$(sed -e 's/$/\\n/' "$tmp/dev1.cfg" | tr -d '\n')"
  cat > "$tmp/requests.ndjson" <<EOF
{"v":1,"verb":"check","contracts":"smoke","configs":[{"name":"dev1.cfg","text":"$text1"}]}
{"v":1,"verb":"check","contracts":"smoke","configs":[{"name":"dev1.cfg","text":"$text1"}]}
{"v":1,"verb":"stats"}
{"v":1,"verb":"metrics"}
{"v":1,"verb":"shutdown"}
EOF
  out="$("$concord" serve --contracts "smoke=$tmp/contracts.json" --quiet \
    < "$tmp/requests.ndjson")" || exit 2
  lines="$(printf '%s\n' "$out" | wc -l)"
  if [ "$lines" -ne 5 ] || printf '%s' "$out" | grep -q '"ok":false'; then
    echo "serve smoke FAILED; responses:" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | sed -n 2p | grep -q '"cache_hits":1'; then
    echo "serve smoke FAILED: repeat request did not hit the config cache" >&2
    exit 1
  fi
  # The metrics verb must return valid Prometheus exposition that reflects the
  # checks above (two ok check requests, always-on per-stage counters).
  metrics_line="$(printf '%s\n' "$out" | sed -n 4p)"
  if ! printf '%s\n' "$metrics_line" \
      | python3 "$(dirname "$0")/check_prom.py"; then
    echo "serve smoke FAILED: metrics exposition did not validate" >&2
    exit 1
  fi
  if ! printf '%s' "$metrics_line" \
      | grep -q 'concord_requests_total{verb=\\"check\\",status=\\"ok\\"} 2'; then
    echo "serve smoke FAILED: metrics missing the check request counter" >&2
    exit 1
  fi
  echo "serve smoke OK ($lines responses, cache hit on repeat, metrics valid)"
}

if [ "${1:-}" = "--store" ]; then
  bench=build/bench/bench_store
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  # Exits non-zero unless the warm-restart response was byte-identical to
  # the cold run.
  "$bench" || exit 1
  exit 0
fi

if [ "${1:-}" = "--overload" ]; then
  bench=build/bench/bench_overload
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  # Exits non-zero unless every request got exactly one response, the greedy
  # clients were shed with structured `overloaded` envelopes, and the
  # well-behaved client's p99 stayed within the acceptance bound.
  "$bench" || exit 1
  exit 0
fi

if [ "${1:-}" = "--batch" ]; then
  bench=build/bench/bench_batch
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  # Exits non-zero unless the socket-level batch=100 check beat 100 sequential
  # single-config checks by >= 3x with check_batch slots byte-identical to the
  # standalone responses (merged into BENCH_SERVE.json under "batch").
  "$bench" || exit 1
  exit 0
fi

if [ "${1:-}" = "--analyze" ]; then
  bench=build/bench/bench_analyze
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (run: cmake --build build -j)" >&2
    exit 2
  fi
  # Exits non-zero unless both learned sets analyzed with zero warning-or-worse
  # findings and the --prune-subsumed coverage-off check was byte-identical to
  # the unpruned one while evaluating strictly fewer contracts (merged into
  # BENCH_SERVE.json under "analyze").
  "$bench" || exit 1
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  serve_smoke
  exit 0
fi

if [ "${1:-}" = "--smoke" ]; then
  serve_smoke
  if [ "${CONCORD_SMOKE_ASAN:-0}" = "1" ]; then
    "$(dirname "$0")/run_tests_asan.sh" || exit 1
  fi
  exit 0
fi

out="${1:-bench_results}"
mkdir -p "$out"
for b in build/bench/*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  case "$name" in
    bench_micro|bench_serve) "$b" --benchmark_min_time=0.05 > "$out/$name.txt" 2>&1 ;;
    bench_incremental)
      # Writes BENCH_INCREMENTAL.json in the working directory and exits non-zero
      # if the single-config delta misses the >=5x acceptance bar.
      if ! "$b" > "$out/$name.txt" 2>&1; then
        echo "bench_incremental acceptance FAILED (see $out/$name.txt)" >&2
      fi
      [ -f BENCH_INCREMENTAL.json ] && cp -f BENCH_INCREMENTAL.json "$out/"
      ;;
    bench_store)
      # Writes BENCH_STORE.json; non-zero means the warm-restart response
      # diverged from the cold run.
      if ! "$b" > "$out/$name.txt" 2>&1; then
        echo "bench_store acceptance FAILED (see $out/$name.txt)" >&2
      fi
      [ -f BENCH_STORE.json ] && cp -f BENCH_STORE.json "$out/"
      ;;
    bench_overload)
      # Writes BENCH_SERVE.json; non-zero means load was dropped silently or
      # the well-behaved client's p99 blew the acceptance bound.
      if ! "$b" > "$out/$name.txt" 2>&1; then
        echo "bench_overload acceptance FAILED (see $out/$name.txt)" >&2
      fi
      [ -f BENCH_SERVE.json ] && cp -f BENCH_SERVE.json "$out/"
      ;;
    bench_batch|bench_analyze) continue ;;  # Deferred below: must run after bench_overload.
    *) "$b" > "$out/$name.txt" 2>&1 ;;
  esac
  echo "== $name -> $out/$name.txt"
done
if [ -x build/bench/bench_batch ]; then
  # Merges a "batch" section into BENCH_SERVE.json; runs after the loop because
  # bench_overload overwrites that file wholesale. Non-zero means the batch=100
  # socket gate missed 3x or a batched report diverged from the sequential one.
  if ! build/bench/bench_batch > "$out/bench_batch.txt" 2>&1; then
    echo "bench_batch acceptance FAILED (see $out/bench_batch.txt)" >&2
  fi
  [ -f BENCH_SERVE.json ] && cp -f BENCH_SERVE.json "$out/"
  echo "== bench_batch -> $out/bench_batch.txt"
fi
if [ -x build/bench/bench_analyze ]; then
  # Merges an "analyze" section into BENCH_SERVE.json (same deferral as
  # bench_batch). Non-zero means a learned set analyzed dirty or the pruned
  # check diverged from the unpruned one.
  if ! build/bench/bench_analyze > "$out/bench_analyze.txt" 2>&1; then
    echo "bench_analyze acceptance FAILED (see $out/bench_analyze.txt)" >&2
  fi
  [ -f BENCH_SERVE.json ] && cp -f BENCH_SERVE.json "$out/"
  echo "== bench_analyze -> $out/bench_analyze.txt"
fi
