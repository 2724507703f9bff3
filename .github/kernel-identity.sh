#!/usr/bin/env bash
# Byte identity of the six default studies across OpenBLAS kernels.
#
# Usage: .github/kernel-identity.sh TREE WORK_DIR
#
# Runs the six default studies of TREE (default seed and trials, --svg)
# twice, each study in a fresh process: under the kernel numpy's OpenBLAS
# picks for this CPU, and under OPENBLAS_CORETYPE=Prescott, a kernel every
# x86-64 CPU runs.  The kernels differ in the last bits of the SVD, of
# stacked matmul and of inv, which moves circular/circular_cdf.csv in its
# 9th significant digit on about 100 of its 18,000 rows.  Fails unless
# every other file is byte-identical between the two runs, so a change
# that lets another output depend on the kernel fails on any runner.
# OPENBLAS_CORETYPE acts only on an OpenBLAS built with DYNAMIC_ARCH, as
# numpy's x86-64 wheels are; elsewhere the script says so and exits 0.
set -euo pipefail

STUDIES="stationary-noise speed-sweep velocity-deviation noise-sweep-uvd-pvd
speed-compare circular"
# The one file allowed to differ between kernels.
MOVES="circular/circular_cdf.csv"

src="$(cd "$1" && pwd)/src"
mkdir -p "$2"
work="$(cd "$2" && pwd)"

if ! python - <<'EOF'
import sys

import numpy as np

try:
    config = np.__config__.CONFIG
    blas = config["Build Dependencies"]["blas"]
    cpu = config["Machine Information"]["host"]["cpu"]
except (AttributeError, KeyError):
    sys.exit(1)
sys.exit(not ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
              and cpu == "x86_64"))
EOF
then
    echo "skipped: numpy's BLAS is not an x86-64 DYNAMIC_ARCH OpenBLAS," \
         "so OPENBLAS_CORETYPE cannot select its kernel"
    exit 0
fi

run_studies() {  # NAME [VAR=VALUE...]: the studies under WORK_DIR/NAME
    local out="$work/$1"
    shift
    echo "$(env "$@" OPENBLAS_VERBOSE=2 python -c 'import numpy' 2>&1) ($*)"
    for name in $STUDIES; do
        env "$@" PYTHONPATH="$src" python -m seqloc.cli experiment "$name" \
            --svg --out "$out/$name" > /dev/null
    done
}

run_studies default
run_studies prescott OPENBLAS_CORETYPE=Prescott

status=0 count=0
while IFS= read -r -d '' file; do
    rel="${file#"$work/default/"}"
    count=$((count + 1))
    if cmp -s "$file" "$work/prescott/$rel"; then
        continue
    elif [ "$rel" = "$MOVES" ]; then
        echo "differs, as expected across kernels: $rel"
    else
        echo "differs between kernels: $rel"
        status=1
    fi
done < <(find "$work/default" -type f -print0 | sort -z)
if [ "$(find "$work/prescott" -type f | wc -l)" -ne "$count" ]; then
    echo "the two runs wrote different sets of files"
    status=1
fi
echo "$count files compared, status $status"
exit "$status"
