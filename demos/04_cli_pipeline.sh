#!/usr/bin/env bash
# The same pipeline as demo 01, driven through the command-line interface.
# Chain files are a JSON manifest plus a little-endian float64 binary payload
# (column-major per sample); reports are schema-versioned JSON.
set -euo pipefail

# Without an installed factoralign command, run the package from this checkout.
if ! command -v factoralign >/dev/null 2>&1; then
    src="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
    export PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}"
    factoralign() { python3 -m factoralign "$@"; }
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
echo "working in $workdir"

factoralign simulate --n 500 --p 30 --k 3 --scenario sparse --seed 11 \
    --out "$workdir/data"

factoralign fit "$workdir/data.csv" --k 3 --iterations 4000 --burn-in 500 \
    --seed 12 --prior-loading-variance 0.02 --out "$workdir/chain"

factoralign align "$workdir/chain" --out "$workdir/aligned" \
    --report "$workdir/align_report.json"

factoralign diagnose --raw "$workdir/chain" --aligned "$workdir/aligned" \
    --traces "0,0;15,1" --out "$workdir/diag"

echo
echo "covariance metric (raw vs aligned) and mean ESS ratios:"
python3 - "$workdir/diag_report.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
for key in ("covariance_discrepancy_raw", "covariance_discrepancy_aligned",
            "mean_ess_ratio_raw", "mean_ess_ratio_aligned"):
    print(f"  {key}: {report[key]:.4f}")
PY

echo
echo "first trace rows ($workdir/diag_traces.csv):"
head -4 "$workdir/diag_traces.csv"
