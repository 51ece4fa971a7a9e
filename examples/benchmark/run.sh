#!/usr/bin/env bash
# Runs the benchmark of record and compares sets of runs.
#
#   examples/benchmark/run.sh run SET [RUNS]   every workload RUNS times (default 10,
#                                              seeds 1..RUNS) plus one traced run,
#                                              into target/benchmark/SET/
#   examples/benchmark/run.sh compare A B      each metric's median in B over its median
#                                              in A, next to its bound
#   examples/benchmark/run.sh summary SET...   one JSON summary of the sets (host facts,
#                                              and per metric q1/median/q3 over the runs)
#
# Run it from anywhere; paths resolve from the repository root. It needs
# cargo and python3.
set -euo pipefail
cd "$(dirname "$0")/../.."

manifest=examples/benchmark/Cargo.toml
mode=${1:-}

case "$mode" in
run)
    set_name=${2:?usage: run.sh run SET [RUNS]}
    runs=${3:-10}
    out=target/benchmark/$set_name
    mkdir -p "$out"
    cargo build --release --quiet --offline --manifest-path "$manifest"
    read -r seconds workloads < <(python3 -c '
import json; b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
    for w in $workloads; do
        for seed in $(seq 1 "$runs"); do
            cargo run --release --quiet --offline --manifest-path "$manifest" -- \
                --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "$out/$w.seed$seed.json" | tail -n 1
        done
        cargo run --release --quiet --offline --manifest-path "$manifest" -- \
            --workload "$w" --seconds "$seconds" --trace 1 \
            --out "$out/$w.trace.json" >/dev/null
    done
    ;;
compare | summary)
    [ $# -ge 2 ] || { echo "usage: run.sh $mode SET..." >&2; exit 2; }
    shift
    python3 - "$mode" "$@" <<'PY'
import glob, json, os, statistics, sys

mode, sets = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
e2e = {m["name"]: m for m in bench["end_to_end"]}
layer = {m["name"]: m for m in bench["per_layer"]}

def load(set_name):
    """{workload: {"runs": [report, ...], "trace": report | None}}"""
    out = {}
    for w in (w["name"] for w in bench["workloads"]):
        base = os.path.join("target", "benchmark", set_name, w)
        runs = [json.load(open(p)) for p in sorted(glob.glob(base + ".seed*.json"))]
        trace = base + ".trace.json"
        out[w] = {"runs": runs, "trace": json.load(open(trace)) if os.path.exists(trace) else None}
    return out

def medians(reports, names):
    vals = {}
    for r in reports:
        for name in names:
            if name in r["metrics"]:
                vals.setdefault(name, []).append(r["metrics"][name]["value"])
    return vals

data = {s: load(s) for s in sets}
if mode == "summary":
    summary = {}
    for s in sets:
        per_workload = {}
        for w, d in data[s].items():
            if not d["runs"]:
                continue
            metrics = {}
            for name, xs in medians(d["runs"], e2e).items():
                q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
                metrics[name] = {"unit": e2e[name]["unit"], "runs": len(xs),
                                 "q1": q[0], "median": q[1], "q3": q[2]}
            first = d["runs"][0]
            per_workload[w] = {"seconds": first["run"]["seconds"],
                               "host": first["host"],
                               "seeds": [r["run"]["seed"] for r in d["runs"]],
                               "correct": all(r["run"]["correct"] for r in d["runs"]),
                               "metrics": metrics}
        summary[s] = per_workload
    print(json.dumps(summary, indent=1))
    sys.exit(0)

a, b = sets[0], sets[1]
worst = 0
print(f"{'workload':14} {'metric':34} {'median A':>12} {'median B':>12} {'B/A':>7}  bound")
for w in data[a]:
    rows = [(e2e, data[a][w]["runs"], data[b][w]["runs"])]
    ta, tb = data[a][w]["trace"], data[b][w]["trace"]
    if ta and tb:
        rows.append((layer, [ta], [tb]))
    for names, ra, rb in rows:
        ma, mb = medians(ra, names), medians(rb, names)
        for name in names:
            if name not in ma or name not in mb:
                continue
            va, vb = statistics.median(ma[name]), statistics.median(mb[name])
            if va == 0 and vb == 0:
                continue
            ratio = vb / va if va else float("inf")
            bound = names[name].get("bound")
            worse = ratio - 1 if names[name]["better"] == "lower" else 1 - ratio
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
                worst += worse > bound
            print(f"{w:14} {name:34} {va:12.6g} {vb:12.6g} {ratio:7.3f}  "
                  f"{'-' if bound is None else bound} {verdict}")
sys.exit(1 if worst else 0)
PY
    ;;
*)
    sed -n '2,13p' "$0" >&2
    exit 2
    ;;
esac
