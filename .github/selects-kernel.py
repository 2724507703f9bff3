"""Exit 0 where OPENBLAS_CORETYPE selects numpy's BLAS kernel; else say
why not and exit 1.

OPENBLAS_CORETYPE acts only on an OpenBLAS built with DYNAMIC_ARCH, as
numpy's x86-64 wheels are.  Usage: python .github/selects-kernel.py
"""

import sys

import numpy as np

try:
    config = np.__config__.CONFIG
    blas = config["Build Dependencies"]["blas"]
    cpu = config["Machine Information"]["host"]["cpu"]
    selects = ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
               and cpu == "x86_64")
except (AttributeError, KeyError):
    selects = False
if not selects:
    print("skipped: numpy's BLAS is not an x86-64 DYNAMIC_ARCH OpenBLAS,",
          "so OPENBLAS_CORETYPE cannot select its kernel")
sys.exit(not selects)
