"""The benchmark's workloads: which qmds invocations one pass runs, and the
reference each output is checked against.

Every item is one `qmds` CLI invocation, run in a fresh interpreter so that
it pays the per-process costs (field tables, cached root-free polynomials,
cached distance results) a command-line user pays on every call.

Seed 0 runs exactly the lists below.  Any other seed shuffles the order of
the construct calls and swaps each call for another admissible parameter
choice that keeps the costs the workload is about:

* theorem2 calls keep q, the scaling-polynomial degree l = t + 1 - k and the
  distance method, so the root-free search is the same search, and move the
  classical dimension k by at most one, so brute force stays as small as the
  listed call's (at k = 3 it would enumerate thousands of words);
* theorem1 calls keep q, k and the distance method and never grow the
  length, because brute force allocates a Q*k*N table (a known defect that
  would otherwise let a seed pick an out-of-memory call).

The sweep is always the fixed default grid: its bytes are the contract.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

DEFAULT_SEED = 0

#: The default `qmds sweep` grid and the sha256 of its CSV at the seed commit.
SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)
SWEEP_SHA256 = "d3e6323e6eb953b6b8942293e21a629841b646b0006b59269f55a41337e930ed"
SWEEP_EXCLUDED_ROWS = 3

#: The verifier's caps at the seed commit.  They only decide which
#: alternative calls a seed may pick, so a later change to the program's caps
#: cannot change the workload.
BRUTE_FORCE_CAP = 10 ** 6
RANK_TEST_CAP = 10 ** 5

# (family, q, t, k-or-d) exactly as passed on the command line; theorem1
# takes the classical dimension k, theorem2 the quantum distance d.
CONSTRUCT_HIGHDEG = (
    ("theorem2", 16, 5, 3),  # l = 4
    ("theorem2", 9, 6, 2),   # l = 6
    ("theorem2", 8, 6, 2),   # l = 6
    ("theorem2", 8, 4, 2),   # l = 4
    ("theorem2", 7, 5, 2),   # l = 5
)

# The largest q whose field GF(q^2) fits the default element bound 2**14.
CONSTRUCT_LARGE = (
    ("theorem1", 128, 1, 1),
    ("theorem1", 121, 2, 2),
    ("theorem2", 128, 2, 2),
    ("theorem2", 127, 2, 2),
    ("theorem2", 125, 3, 3),
    ("theorem2", 128, 3, 3),
)

WORKLOADS = ("sweep-default", "construct-highdeg", "construct-large")

Item = Dict[str, object]


def distance_method(q: int, length: int, k: int) -> str:
    """The rung of the seed's distance ladder a [length, k] code over GF(q^2)
    reaches."""
    if (q * q) ** k <= BRUTE_FORCE_CAP:
        return "brute"
    if math.comb(length, k) <= RANK_TEST_CAP:
        return "rank"
    return "by-construction"


def expected_quantum(family: str, q: int, t: int, x: int) -> Tuple[int, int, int]:
    """[[n, k, d]] the paper gives for one construct call."""
    if family == "theorem1":
        n = t * q
        return n, n - 2 * x, x + 1
    n = t * (q + 1) + 2
    return n, n - 2 * x + 2, x


def alternatives(family: str, q: int, t: int, x: int) -> List[Tuple[int, int]]:
    """Admissible (t, k-or-d) pairs a non-default seed may swap in for one
    call, the call itself included."""
    out = []
    if family == "theorem1":
        method = distance_method(q, t * q, x)
        for t2 in range(1, t + 1):
            bound = (t2 * q + q - 1) // (q + 1)
            if x <= bound and distance_method(q, t2 * q, x) == method:
                out.append((t2, x))
        return out
    k = x - 1
    ell = t + 1 - k
    method = distance_method(q, t * (q + 1) + 2, k)
    for t2 in range(1, q):
        k2 = t2 + 1 - ell
        # (q-1, q-1) uses a different scaling polynomial (and is excluded in
        # characteristic 2), so it never stands in for another call.
        if not 1 <= k2 <= t2 + 1 or abs(k2 - k) > 1 or (t2, k2) == (q - 1, q - 1):
            continue
        if distance_method(q, t2 * (q + 1) + 2, k2) == method:
            out.append((t2, k2 + 1))
    return out


def construct_item(family: str, q: int, t: int, x: int) -> Item:
    flag = "--k" if family == "theorem1" else "--d"
    n, kq, d = expected_quantum(family, q, t, x)
    return {
        "kind": "construct",
        "argv": ["construct", family, "--q", str(q), "--t", str(t), flag, str(x)],
        "expect": {"n": n, "k": kq, "d": d, "q": q},
    }


def sweep_item(q_list=SWEEP_Q, sha256: str = SWEEP_SHA256,
               excluded: int = SWEEP_EXCLUDED_ROWS) -> Item:
    return {
        "kind": "sweep",
        "argv": ["sweep", "--q", ",".join(map(str, q_list)),
                 "--family", "both", "--format", "csv"],
        "expect": {"sha256": sha256, "excluded_rows": excluded},
    }


def items_for(workload: str, seed: int = DEFAULT_SEED) -> List[Item]:
    """The items one pass of a workload runs, in order."""
    if workload == "sweep-default":
        return [sweep_item()]
    if workload == "construct-highdeg":
        calls = list(CONSTRUCT_HIGHDEG)
    elif workload == "construct-large":
        calls = list(CONSTRUCT_LARGE)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        rng.shuffle(calls)
        calls = [
            (family, q) + rng.choice(alternatives(family, q, t, x))
            for family, q, t, x in calls
        ]
    return [construct_item(*call) for call in calls]
