"""Expected answers for every benchmark step, derived without the package.

Closed forms follow the source paper (arXiv:1107.3438): length, dimension,
minimum distance, the minimum-weight count at full level r = l, the
forbidden-monomial counts, the automorphism subgroup order and the dual
distance (3 for q > 2, 4 for q = 2 with l' > 1).  Counts the paper gives no
closed form for are pinned below; ``macwilliams_dual_counts`` re-derives
each of them from the primal weight distribution (MacWilliams & Sloane,
The Theory of Error-Correcting Codes, 1977, ch. 5), and the benchmark's
tests check that derivation against the pins.
"""

from __future__ import annotations

import math

# Dual weight counts B_w (codewords, not projective classes), keyed by
# (l, m, r, q).  B_4 = 68992 is also the acceptance gate's pinned constant.
PINNED_DUAL_COUNTS = {
    (3, 6, 2, 2): {1: 0, 2: 0, 3: 0, 4: 68992},
    (3, 6, 3, 2): {1: 0, 2: 0, 3: 0, 4: 68992},
    (2, 6, 1, 2): {1: 0, 2: 0, 3: 0, 4: 690880},
    (2, 6, 2, 2): {1: 0, 2: 0, 3: 0, 4: 27840},
    (2, 4, 2, 3): {1: 0, 2: 0, 3: 864, 4: 40824},
    (1, 2, 1, 16): {1: 0, 2: 0, 3: 8400, 4: 354900},
    (2, 4, 2, 4): {1: 0, 2: 0, 3: 19200},
}

# Minimum-weight counts below full level, where the paper has no closed
# form; confirmed in the tests by an independent weight enumeration.
PINNED_MIN_WEIGHT_COUNTS = {
    (3, 6, 2, 2): 784,
}

# Rank of the weight-4 dual words of AGC(3,6;2): 492 = dim AGC(3,6;3)^perp,
# one less than dim AGC(3,6;2)^perp, so they do not generate that dual.
PINNED_SPAN_RANKS = {
    (3, 6, 2, 2): 492,
}

# sha256 of every file `agcodes dual --out` writes, by code and suffix.
# Identical arguments must give byte-identical files.
PINNED_DIGESTS = {
    (3, 6, 3, 2): {
        "": "53118cb80e8ce50df6f508bafd2c167de2eb87fec65b44a42094d0e39ef0e1e2",
        ".alist": "b8950599702c9c42c1700146655b5fcca51623bfae5d502411d9131cb8a73256",
    },
    (2, 5, 2, 3): {
        "": "8519b6adbe19e8f399442cd60cf5d4514e419f75702795984da3aef142ebd3c1",
        ".alist": "939b2e1312ce0bb2f08f9565dc937e3a223f6e3f29121abdde3168687d280b40",
        ".alist.qval": "757e75697044b756c521ef764610bfcd94558218eb6b2e7201fc253669bebc7e",
    },
    (2, 4, 2, 4): {
        "": "18db2c098b1f4bb2d561df707f89e813bb64080343472be4ddecc39b1ccb596a",
        ".alist": "2632dac879c2c1833903f7b86d8cc73a5edcfa8dbc27a5a98004c34e10ceab8f",
        ".alist.qval": "7b2df175220436f3545417a31ef91cbc60dd3306e9aa912423d00cae5542aa7c",
    },
    (3, 7, 2, 2): {
        "": "06464b381b90b3db7b12dfe7a2bd0f7c15732af2a4096b844701a7cf6ba1e343",
        ".alist": "f6698ec7330468fa082df1409aec842180b4a43b916ece785aa2470cb8f85784",
    },
}


def gaussian_binomial(a, b, q):
    """Number of b-dimensional subspaces of F_q^a."""
    num = math.prod(q ** a - q ** j for j in range(b))
    den = math.prod(q ** b - q ** j for j in range(b))
    return num // den


def gl_order(s, q):
    return math.prod(q ** s - q ** j for j in range(s))


def params(ell, m, r, q):
    """Closed-form n, k, d and (at full level only) the minimum-weight count."""
    lp = m - ell
    delta = ell * lp
    n = q ** delta
    k = sum(math.comb(ell, i) * math.comb(lp, i) for i in range(r + 1))
    d = q ** (delta - r * (r + 1) // 2) * math.prod(q ** i - 1 for i in range(1, r + 1))
    count = None
    if r == ell:
        count = (q - 1) * q ** (ell * ell) * gaussian_binomial(lp, ell, q)
    return {"n": n, "k": k, "d": d, "min_weight_count": count}


def dual_distance(ell, m, q):
    """The paper's dual minimum distance; None where it gives none."""
    if q > 2:
        return 3
    return 4 if m - ell > 1 else None


def report_record(ell, m, r, q):
    """Every deterministic field of `agcodes report` except the deep part."""
    lp = m - ell
    p = params(ell, m, r, q)
    sizes = [(math.factorial(i), math.comb(ell, i) * math.comb(lp, i))
             for i in range(r + 1)]
    forbidden = sum(f * c for f, c in sizes)
    return {
        "schema": 1, "q": q, "l": ell, "m": m, "r": r,
        "n": p["n"], "k": p["k"], "d": p["d"],
        "min_weight_count": p["min_weight_count"],
        "forbidden": forbidden,
        "non_forbidden": p["n"] - forbidden,
        "binomials": sum((f - 1) * c for f, c in sizes),
        "automorphism_subgroup_order":
            q ** (ell * lp) * gl_order(ell, q) * gl_order(lp, q) // (q - 1),
    }


def dual_counts(ell, m, r, q, w_max):
    """Pinned B_1..B_w_max, after checking them against the dual distance."""
    counts = {w: PINNED_DUAL_COUNTS[(ell, m, r, q)][w] for w in range(1, w_max + 1)}
    d = dual_distance(ell, m, q)
    if d is not None and any(counts[w] for w in range(1, min(d, w_max + 1))):
        raise ValueError(f"pinned counts contradict dual distance {d}")
    if d is not None and d <= w_max and not counts[d]:
        raise ValueError(f"pinned counts miss weight {d}")
    return counts


def min_weight_count(ell, m, r, q):
    count = params(ell, m, r, q)["min_weight_count"]
    return PINNED_MIN_WEIGHT_COUNTS[(ell, m, r, q)] if count is None else count


# ------------------------------------------------------------- MacWilliams

def krawtchouk(w, i, n, q):
    """K_w(i) = sum_j (-1)^j (q-1)^(w-j) C(i, j) C(n-i, w-j), exactly."""
    return sum((-1) ** j * (q - 1) ** (w - j) * math.comb(i, j) * math.comb(n - i, w - j)
               for j in range(w + 1))


def macwilliams_dual_counts(weights, n, q, w_max):
    """B_1..B_w_max of the dual of a length-n code from its weight
    distribution ``weights`` (weight -> number of codewords, A_0 = 1
    included).  Exact; a non-integral B_w raises."""
    size = sum(weights.values())
    out = {}
    for w in range(1, w_max + 1):
        total = sum(a * krawtchouk(w, i, n, q) for i, a in weights.items())
        b, rem = divmod(total, size)
        if rem:
            raise ValueError(f"B_{w} = {total}/{size} is not an integer")
        out[w] = b
    return out
