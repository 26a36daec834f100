#!/usr/bin/env bash
# Golden transcript of the rustbrain CLI: runs every verb on fixed inputs
# and prints each command line, its stdout, its stderr (prefixed) and its
# exit code. `dune build @cli-smoke` diffs the output against cli.expected.
# Wall-clock output (fix --profile, HEALTH pids) is left out.
#
# Usage: cli_smoke.sh PATH/TO/rustbrain_cli.exe
# Regenerate: bash test/cli/cli_smoke.sh _build/default/bin/rustbrain_cli.exe \
#               > test/cli/cli.expected
set -u

BIN=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
T=$(mktemp -d /tmp/rbcli.XXXXXX)
SERVER=
cleanup() {
  [ -n "$SERVER" ] && kill -9 "$SERVER" 2>/dev/null
  rm -rf "$T"
}
trap cleanup EXIT
cd "$T" || exit 1

# run ARGS...: one transcript entry; every command is bounded by timeout
run() {
  printf '$ rustbrain %s\n' "$*"
  timeout 120 "$BIN" "$@" >out.txt 2>err.txt
  local code=$?
  cat out.txt
  sed 's/^/stderr: /' err.txt
  echo "[exit $code]"
}

# same-bytes NAME A B: one line saying whether two outputs are identical
same_bytes() {
  if cmp -s "$2" "$3"; then echo "# $1: same bytes"; else echo "# $1: differ"; fi
}

# the buggy half of a corpus case, as a standalone MiniRust file
buggy() {
  "$BIN" corpus-show "$1" \
    | sed -n '/^\/\/ --- buggy ---$/,/^\/\/ --- reference fix ---$/p' \
    | sed '1d;$d'
}

echo "## corpus"
run corpus
run corpus-show dr_flag_spin
run corpus-show nope
buggy sb_write_after_retag >sb.mrs
buggy dr_flag_spin >dr.mrs
printf 'fn main() {\n    let x = ;\n}\n' >bad.mrs

echo "## check"
run check sb.mrs
run check --collect 5 -i 3 sb.mrs
run check --trace sb.mrs
run check --tree-walk dr.mrs
run check bad.mrs

echo "## fix"
run fix sb.mrs
run fix --json sb.mrs
run fix --json dr.mrs
run fix --json --fault-rate 0.3 --seed 7 sb.mrs
run fix --json --fault-rate 0.3 --seed 7 dr.mrs
run fix --fault-rate 0.3 --seed 3 dr.mrs
run fix --json --model GPT-3.5 --temperature 0.9 -i 4 sb.mrs
run fix --json bad.mrs
run fix --model nope sb.mrs
run fix --journal j sb.mrs
run fix --domains 2 sb.mrs
run fix --out o.json sb.mrs
run fix --seeds 1,2 sb.mrs
run fix --kb-readonly sb.mrs
run fix --json --kb-dir kbfix sb.mrs
run kb-stats kbfix

echo "## campaign"
C="--cases sb_write_after_retag,dr_flag_spin --seeds 1,2"
run campaign $C
run campaign $C --csv
run campaign $C --json --domains 1
cp out.txt d1.json
run campaign $C --json --domains 2
same_bytes "--domains 1 vs --domains 2" d1.json out.txt
run campaign --cases dr_flag_spin --json
run campaign --cases dr_flag_spin --metrics --domains 1
run campaign --cases nope
run campaign --backend nope
run campaign --backend llm-only --fault-rate 0.1 --cases dr_flag_spin
run campaign --backend llm-only --cases sb_write_after_retag,dr_flag_spin --json

echo "## journal"
run campaign $C --json --journal jr
cp out.txt j1.json
run campaign $C --json --journal jr --resume
same_bytes "journaled vs resumed" j1.json out.txt
same_bytes "journaled vs unjournaled" j1.json d1.json
run campaign $C --json --journal jr
run campaign --cases dr_flag_spin --journal jr --resume 2>&1 \
  | sed -E 's/[0-9a-f]{32}/<digest>/g'
run campaign $C --journal jr --fresh --out r.csv --csv
cat r.csv

echo "## trace"
run campaign $C --domains 2 --trace tr.jsonl
run trace-summary tr.jsonl
run trace-summary sb.mrs

echo "## kb"
run kb-init kb
run kb-init kb
run kb-stats kb
run campaign --cases sb_write_after_retag,dr_flag_spin --kb-dir kb
run kb-stats --json kb
run kb-fsck kb
run kb-fsck --dry-run --json kb
run kb-stats nokb

echo "## serve"
run serve --journal x
run serve --runners 0
run serve --kb-write
"$BIN" serve --socket s.sock --state-dir st --runners 1 >serve.out 2>serve.err &
SERVER=$!
run serve-ctl status --socket s.sock
run campaign --cases sb_write_after_retag,sb_direct_write_invalidates --seed 3 --json
cp out.txt c3.json
run serve-ctl submit --socket s.sock --tenant acme \
  --cases sb_write_after_retag,sb_direct_write_invalidates --seed 3
same_bytes "serve-ctl submit vs campaign --json" c3.json out.txt
run serve-ctl results 0 --socket s.sock
same_bytes "serve-ctl results vs campaign --json" c3.json out.txt
run serve-ctl results 7 --socket s.sock
run serve-ctl results --socket s.sock
run serve-ctl submit --socket s.sock --journal x
run serve-ctl status --socket s.sock --seed 2
run serve-ctl status --socket s.sock
run serve-ctl shutdown --socket s.sock
for _ in $(seq 200); do kill -0 "$SERVER" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$SERVER" 2>/dev/null; then echo "# serve still running 20 s after shutdown"; fi
wait "$SERVER"
echo "# serve exited $?"
SERVER=
cat serve.out
sed 's/^/stderr: /' serve.err

echo "## serve-fsck"
run serve-fsck --state-dir st
run serve-fsck --state-dir st --dry-run --json
truncate -s -5 st/queue/job-000000.json
run serve-fsck --state-dir st --dry-run
run serve-fsck --state-dir st
run serve-fsck --state-dir st
run serve-fsck --state-dir nost
