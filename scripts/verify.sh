#!/usr/bin/env bash
# Hermetic tier-1 verify: the workspace must build and test from a clean
# checkout with no network access, and no Cargo.toml may reintroduce an
# external (non-workspace) dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency denylist =="
# Inspect every [dependencies] / [dev-dependencies] / [build-dependencies]
# section: each entry must be a workspace crate (ilpc-*). Anything else is
# an external dependency and breaks the offline build.
fail=0
while IFS= read -r -d '' manifest; do
  bad=$(awk '
    /^\[(dependencies|dev-dependencies|build-dependencies)\]$/ { indeps = 1; next }
    /^\[/ { indeps = 0 }
    indeps && /^[A-Za-z0-9_-]+[ \t]*[=.]/ {
      name = $1
      sub(/[=.].*/, "", name)
      gsub(/[ \t]/, "", name)
      if (name !~ /^ilpc-/) print name
    }
  ' "$manifest")
  if [ -n "$bad" ]; then
    echo "ERROR: external dependency in $manifest:"
    echo "$bad" | sed 's/^/    /'
    fail=1
  fi
done < <(find . -name Cargo.toml -not -path "./target/*" -print0)
if [ "$fail" -ne 0 ]; then
  echo "the workspace must stay dependency-free (see README 'Hermetic build')"
  exit 1
fi
echo "ok: all Cargo.toml dependencies are workspace-local (ilpc-*)"
# Every library crate is compiler-held to safe Rust: no root without the lint.
if grep -L 'forbid(unsafe_code)' crates/*/src/lib.rs src/lib.rs | grep .; then
  echo "ERROR: the crate roots above lack #![forbid(unsafe_code)]"
  exit 1
fi

echo "== offline release build =="
# --workspace: the root manifest is a package AND a workspace, so a bare
# `cargo build` would build only the root package and its dependencies —
# leaving non-dependency members (ilpc-serve) stale, and the serve smoke
# below runs the built binary.
cargo build --release --offline --workspace

echo "== offline workspace check (all targets, warnings are errors) =="
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --offline
# Rustdoc too: a public doc linking a private or deleted item is an error.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# benchmark/ is its own workspace on path deps into crates/*: a change to
# the crates' public surface can break the ledger without tier-1 noticing.
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "== offline test suite =="
cargo test -q --offline

echo "== simulator tests in release =="
# The suite above is a debug build; the ledger measures release code,
# which has no debug assertions and no overflow checks. The simulator's
# unit tests, the 840-point engine differential and the fast path's pinned
# coverage (replayed and elided instructions, which notice a replay that
# loses blocks without a wrong result) run again as the ledger's binaries
# are built. So do the IR crate's: every decode runs its verifier.
cargo test -q --release --offline -p ilpc-sim -p ilpc-ir
cargo test -q --release --offline --test engine_differential --test steady_state_coverage

echo "== ledger smoke (BENCHMARK.json's command, each workload, --quick) =="
# The benchmark the pipeline judges a change by, invoked as the driver
# invokes it (one workload, tracing off, last stdout line = result JSON) on
# a fraction of the work: the real ilpc-serve through stdin, TCP and
# --pool 2, every reply checked against an in-process reference. Exit
# status and `"correct": true` are what is checked; its timings compare
# with nothing, here or anywhere in this script. (The all-workload summary,
# `-- --quick`, adds a traced replay whose spans must sum to 0.9..1.1 of an
# untraced wall: host-dependent, so informative but no gate.)
workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
for w in $workloads; do
  rc=0
  result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --quick --trace 0 | tail -n 1) || rc=$?
  echo "$w: exit $rc ${result%%, \"metrics\"*}"
  if [ "$rc" -ne 0 ] || [[ "$result" != '{"correct": true, '* ]]; then
    echo "ERROR: ledger smoke failed on $w"
    exit 1
  fi
done

echo "== traced ledger replay (each workload, --quick --trace 1) =="
# The same command traced: each request is replayed in process with the
# layer spans on and off. Its checks are deterministic (a replayed reply
# that differs from the served one, traced and untraced replays that
# disagree, a sim.cycles_total that is not the workload's model total)
# except one: "a request's layer self times sum to X of its untraced
# in-process wall (want 0.9..1.1)" times the host, and alone it fails
# about half the runs on a loud one. Any other FAILED line fails here;
# the window's reading is printed, never gated on. Exit 1 is what a
# failed check gives, so it is accepted only with the window as the
# reason; exit 2 (the run could not be made) always fails.
for w in $workloads; do
  rc=0
  out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$w" --quick --trace 1) || rc=$?
  failed=$(grep -F '  FAILED ' <<< "$out" | grep -vF 'layer self times sum to' || true)
  window=$(tail -n 1 <<< "$out" | python3 -c \
    'import json, sys; print(json.load(sys.stdin)["metrics"]["trace.layer_sum_share"]["value"])' \
    2>/dev/null || echo "none")
  echo "$w: exit $rc, trace.layer_sum_share $window"
  if [ -n "$failed" ] || [ "$rc" -gt 1 ] || { [ "$rc" -eq 1 ] && ! grep -qF 'layer self times sum to' <<< "$out"; }; then
    echo "${failed:-$(tail -n 5 <<< "$out")}"
    echo "ERROR: traced ledger replay failed on $w"
    exit 1
  fi
done

echo "== study smokes (report --only, held to their goldens) =="
# Seven sections of the one results binary end-to-end: the paper's worked
# examples cycle for cycle, the transformation ablation (14 sets through
# the artifact cache's trie; `cargo test` holds its golden in debug only),
# the eight restricted machines (one sweep), a quick cache sweep
# (accesses == hits + misses on every point, one compile per artifact), Lev6 across VLEN {1,4} x
# width {1,8} (VLEN=1 cycle-identical to Lev4), 120 seeded faults against
# the transformation firewall (zero silent escapes: wrong architectural
# results with nothing flagged) and the static lint audit of 240 healthy
# artifacts (zero error-severity diagnostics). Each is deterministic,
# fails its own checks with a nonzero exit, and must `cmp` equal to the
# golden `cargo test` holds it to as well: the campaign table is the
# firewall's verdict record, so a guard change that moves one cell must
# say so by changing that file.
study_smoke() { # <golden> <report args...>
  golden=crates/harness/tests/golden/$1.txt
  shift
  cargo run --release --offline --quiet -p ilpc-harness --bin report -- "$@" | cmp - "$golden"
  echo "ok: report $* == $golden"
}
study_smoke paper-examples --only paper-examples
study_smoke ablation --only ablation --scale 0.05
study_smoke sensitivity --only sensitivity --scale 0.05
study_smoke cache-sensitivity_quick --only cache-sensitivity --scale 0.02 --quick
study_smoke vlen-sweep_quick --only vlen-sweep --quick
study_smoke fault-campaign_quick --only fault-campaign --quick
study_smoke lint_quick --only lint --quick
# A sweep's output must not depend on its scheduler: one thread and two
# print the same bytes.
report=./target/release/report
cmp <("$report" --only sensitivity --scale 0.05 --threads 1 2>/dev/null) \
  <("$report" --only sensitivity --scale 0.05 --threads 2 2>/dev/null)
echo "ok: report --only sensitivity --scale 0.05: --threads 1 == --threads 2"

echo "== ilpc-serve smoke (JSON-lines over stdin) =="
# The evaluation service end-to-end: a simulate, a malformed line, two
# compiles, a compile whose `scale` would size its arrays in petabytes
# and a simulate whose cache would hold 3 Gi lines, each followed by one
# more request — piped through the built binary. Every line must come
# back as a typed reply (the bad line as kind=bad-request, the absurd
# scale and geometry as kind=bad-config with the server still serving)
# and the process must exit cleanly at EOF.
serve_replies=$(mktemp)
printf '%s\n' \
  '{"id":1,"op":"simulate","workload":"dotprod","level":"Lev4","width":8,"scale":0.02}' \
  'this is not json' \
  '{"id":3,"op":"compile","workload":"add","level":"Lev2","width":4,"scale":0.02}' \
  '{"id":4,"op":"compile","workload":"dotprod","level":"Lev6","width":8,"vlen":4,"scale":0.02}' \
  '{"id":5,"op":"compile","workload":"add","level":"Conv","width":1,"scale":1e12}' \
  '{"id":6,"op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02}' \
  '{"id":7,"op":"simulate","workload":"add","level":"Conv","width":1,"scale":0.02,"mem":{"kind":"cache","sets":1073741824,"ways":3}}' \
  '{"id":8,"op":"simulate","workload":"add","level":"Conv","width":1,"scale":0.02}' \
  | ./target/release/ilpc-serve --workers 2 --queue 8 > "$serve_replies"
python3 - "$serve_replies" <<'EOF'
import json, sys
replies = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(replies) == 8, f"expected 8 replies, got {len(replies)}"
by_id = {r["id"]: r for r in replies}
assert by_id[1]["ok"] and by_id[1]["result"]["cycles"] > 0, by_id[1]
assert not by_id[None]["ok"], by_id[None]
assert by_id[None]["error"]["kind"] == "bad-request", by_id[None]
assert by_id[3]["ok"] and by_id[3]["result"]["achieved"] == "Lev2", by_id[3]
assert by_id[4]["ok"] and by_id[4]["result"]["achieved"] == "Lev6", by_id[4]
assert by_id[4]["result"]["clean"], by_id[4]
assert not by_id[5]["ok"] and by_id[5]["error"]["kind"] == "bad-config", by_id[5]
assert by_id[6]["ok"] and by_id[6]["result"]["achieved"] == "Conv", by_id[6]
assert not by_id[7]["ok"] and by_id[7]["error"]["kind"] == "bad-config", by_id[7]
assert by_id[8]["ok"] and by_id[8]["result"]["cycles"] > 0, by_id[8]
print(f"ok: 8 typed replies (simulate cycles={by_id[1]['result']['cycles']}, "
      f"bad line rejected, compile achieved={by_id[3]['result']['achieved']}, "
      f"vectorized compile achieved={by_id[4]['result']['achieved']}, "
      f"scale 1e12 refused as {by_id[5]['error']['kind']} and the next compile served, "
      f"3 Gi-line cache refused as {by_id[7]['error']['kind']} and the next simulate served)")
EOF
rm -f "$serve_replies"

echo "== served sweep smoke (cold ladder vs warm cache) =="
# The researcher's path through the built binary: one 6-level x [1,8]
# sweep sent twice to the same server, then a simulate of a point it
# covers, then a wider sweep. The first sweep climbs every level ladder
# cold (480 artifacts compiled, none reused); the second is served
# entirely from the cache and must report the bit-same mean speedup. One
# worker, so the four requests run in order.
#
# The fourth sweeps widths [1,2,4,8] x mems [perfect, cache sets 16]: a
# sweep work item is (front group, workload, level); a front group has one
# memory hierarchy, so here each scenario is its own group and its item
# evaluates all its widths, yet every width is still its own artifact key
# and lookup. The cache counters are cumulative per server scale, so after it:
#   compiles = 480 (request 1) + 40 nests x 6 levels x widths {2,4} = 960
#   hits     = 480 (request 2) + 1 (the simulate) + the fourth's lookups,
#              40 x 6 x 4 widths x 2 mems = 1920, less its 480 compiles
#            = 480 + 1 + 1440 = 1921
# Its perfect scenario's Lev6 issue-8 mean speedup is the cold sweep's.
sweep_replies=$(mktemp)
levels='"levels":["Conv","Lev1","Lev2","Lev3","Lev4","Lev6"]'
sweep="\"op\":\"sweep\",\"scale\":0.02,$levels,\"widths\":[1,8]"
wide="\"op\":\"sweep\",\"scale\":0.02,$levels,\"widths\":[1,2,4,8]"
wide="$wide,\"mems\":[{\"kind\":\"perfect\"},{\"kind\":\"cache\",\"sets\":16}]"
printf '%s\n' \
  "{\"id\":1,$sweep}" \
  "{\"id\":2,$sweep}" \
  '{"id":3,"op":"simulate","workload":"dotprod","level":"Lev4","width":8,"scale":0.02}' \
  "{\"id\":4,$wide}" \
  | ./target/release/ilpc-serve --workers 1 --queue 8 > "$sweep_replies"
python3 - "$sweep_replies" <<'EOF'
import json, sys
replies = {r["id"]: r for r in map(json.loads, open(sys.argv[1]))}
assert len(replies) == 4 and all(r["ok"] for r in replies.values()), replies
cold, warm, wide = replies[1]["result"], replies[2]["result"], replies[4]["result"]
for name, r in (("cold", cold), ("warm", warm)):
    (scenario,) = r["scenarios"]
    assert scenario["completed"] == 480 and not scenario["errors"], (name, scenario)
assert cold["cache"] == {"compiles": 480, "hits": 0}, cold["cache"]
assert warm["cache"] == {"compiles": 480, "hits": 480}, warm["cache"]
speedup = lambda r, i=0: r["scenarios"][i]["mean_speedup"]["value"]
assert speedup(cold) == speedup(warm), (speedup(cold), speedup(warm))
assert replies[3]["result"]["cycles"] > 0, replies[3]
assert len(wide["scenarios"]) == 2, wide
for scenario in wide["scenarios"]:
    assert scenario["completed"] == 960 and not scenario["errors"], scenario
assert wide["cache"] == {"compiles": 960, "hits": 1921}, wide["cache"]
assert speedup(wide) == speedup(cold), (speedup(wide), speedup(cold))
print(f"ok: cold sweep 480 compiles / 0 hits, warm sweep 480 hits, "
      f"mean speedup {speedup(cold)} both times, simulate cycles="
      f"{replies[3]['result']['cycles']}, 4-width x 2-mem sweep 960 compiles / "
      f"1921 hits with the same issue-8 speedup")
EOF
rm -f "$sweep_replies"

echo "== TCP smoke (--tcp over loopback) =="
# The same protocol through the TCP front door: a simulate, a garbage
# line and a ping on one connection must come back as three typed
# replies, a reply must not stall (one write per reply — two writes meet
# Nagle + delayed ACK and cost ~44 ms per round trip), and a client that
# dies mid-line must not take the listener with it.
tcp_banner=$(mktemp)
./target/release/ilpc-serve --tcp 127.0.0.1:0 --workers 1 2> "$tcp_banner" &
tcp_pid=$!
trap 'kill "$tcp_pid" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
  grep -q "listening on" "$tcp_banner" && break
  sleep 0.05
done
tcp_addr=$(sed -n '1s/.* //p' "$tcp_banner")
python3 - "$tcp_addr" <<'EOF'
import json, socket, statistics, sys, time
host, port = sys.argv[1].rsplit(":", 1)
def connect():
    sock = socket.create_connection((host, int(port)), timeout=30)
    return sock, sock.makefile("rw", newline="\n")
def ask(f, line):
    f.write(line + "\n")
    f.flush()
    return json.loads(f.readline())
sock, f = connect()
sim = ask(f, '{"id":1,"op":"simulate","workload":"dotprod","level":"Lev4","width":8,"scale":0.02}')
bad = ask(f, 'this is not json')
pong = ask(f, '{"id":3,"op":"ping"}')
assert sim["id"] == 1 and sim["ok"] and sim["result"]["cycles"] > 0, sim
assert bad["id"] is None and bad["error"]["kind"] == "bad-request", bad
assert pong["id"] == 3 and pong["result"]["pong"], pong
rtts = []
for k in range(20):
    t0 = time.perf_counter()
    assert ask(f, '{"id":%d,"op":"ping"}' % k)["ok"]
    rtts.append((time.perf_counter() - t0) * 1e3)
median = statistics.median(rtts)
assert median < 10.0, f"ping round trip median {median:.2f} ms: replies are stalling"
torn, _ = connect()
torn.sendall(b'{"id":"torn","op":"comp')
torn.close()
_, g = connect()
after = ask(g, '{"id":"after","op":"ping"}')
assert after["id"] == "after" and after["ok"], after
print(f"ok: 3 typed replies over TCP, ping round trip median {median:.3f} ms, "
      "listener survived a mid-line disconnect")
EOF
kill "$tcp_pid"
wait "$tcp_pid" 2>/dev/null || true
trap - EXIT
rm -f "$tcp_banner"

echo "== pool smoke (--pool 2 over stdin) =="
# The shard-pool supervisor end-to-end on the happy path: three requests
# through two real worker processes. Every id must come back exactly
# once, and status must report the pool role with both shards up.
pool_replies=$(mktemp)
printf '%s\n' \
  '{"id":1,"op":"simulate","workload":"dotprod","level":"Lev4","width":8,"scale":0.02}' \
  '{"id":2,"op":"compile","workload":"add","level":"Lev2","width":4,"scale":0.02}' \
  '{"id":3,"op":"status"}' \
  | ./target/release/ilpc-serve --pool 2 --workers 1 --queue 8 > "$pool_replies"
python3 - "$pool_replies" <<'EOF'
import json, sys
replies = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert len(replies) == 3, f"expected 3 replies, got {len(replies)}"
by_id = {r["id"]: r for r in replies}
assert by_id[1]["ok"] and by_id[1]["result"]["cycles"] > 0, by_id[1]
assert by_id[2]["ok"] and by_id[2]["result"]["achieved"] == "Lev2", by_id[2]
status = by_id[3]["result"]
assert status["role"] == "pool" and len(status["shards"]) == 2, status
print(f"ok: pool routed 3 replies through {len(status['shards'])} shards "
      f"(healthy={status['healthy']})")
EOF
rm -f "$pool_replies"

echo "verify: OK"
