"""Set-up time of a fresh interpreter: import agcodes, make_field for each
field, then the first build of each code, which fills the cold caches.

Usage: python3 setup_probe.py SRC_DIR q,l,m,r [q,l,m,r ...]
Prints the elapsed seconds as its last line.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import agcodes  # noqa: E402

codes = [tuple(int(x) for x in arg.split(",")) for arg in sys.argv[2:]]
for q in sorted({c[0] for c in codes}):
    agcodes.make_field(q)
for q, ell, m, r in codes:
    agcodes.build_affine_grassmann(ell, m, r, q)
print(time.perf_counter() - t0)
