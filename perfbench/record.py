"""Record the outputs the exact-tables workload and the CLI probe are judged by.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected.json from the checked-out cpoch: a digest of every
exact table op, the value of every rtilde_poly op and the exit code and
stdout digest of every CLI call.  Before writing, the digests are
cross-checked against the in-repo oracles: the lattice oracle for the
Stirling numbers (n <= 9), the Moebius chain oracle for St (n <= 12) and the
composition oracle for the reciprocal-gamma coefficients (n <= 20).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from oracles import key  # noqa: E402
from worker import canonical, families, run_cli  # noqa: E402


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"recorded output disagrees with the in-repo oracle at {what}")


def cross_check(cpoch) -> None:
    """The recorded tables agree with the slow independent oracles."""
    first = cpoch.stirling_triangle("first_unsigned", workloads.STIRLING_N)
    for n in range(cpoch.discrete.LATTICE_ORACLE_MAX_N + 1):
        for k in range(n + 1):
            _require(first.value(n, k) == cpoch.stirling_lattice_oracle(n, k), f"{n},{k}")
    tri = cpoch.rtilde_triangle(workloads.RTILDE_TRIANGLE_N)
    for n in range(1, cpoch.rtilde.MOBIUS_ORACLE_MAX_N + 1):
        for k in range(1, n + 1):
            _require(tri.S(n, k) == cpoch.stilde_mobius_oracle(n, k), f"{n},{k}")
    table = cpoch.c_table(110)
    for n in range(1, 21):
        oracle = cpoch.c_composition_oracle(n)
        _require(abs(table[n] - oracle) <= 1e-15, f"c_{n}")  # the oracle sums in binary64
    for n in range(1, workloads.GROUPOID_MAX_N + 1):
        for k in range(1, n + 1):
            cell = cpoch.groupoid_cardinalities(n, k)
            _require(cell.g == tri.r(n, k), f"{n},{k}")


def log_value(result) -> float:
    return result.log_magnitude if hasattr(result, "log_magnitude") else math.log(result)


def main() -> None:
    import cpoch

    cross_check(cpoch)
    table = families(cpoch)
    expected = {}
    poly, poch = workloads.exact_universe()
    ops = workloads.exact_round() + [("pochhammer_discrete", a) for a in poch]
    for family, args in ops:
        digest = hashlib.sha256(canonical(family, table[family](*args)).encode()).hexdigest()
        expected[key(family, args)] = ["D", digest]
    for args in poly:
        expected[key("rtilde_poly", args)] = log_value(table["rtilde_poly"](*args))
    for argv in workloads.CLI_UNIVERSE:
        _, record = run_cli(argv)
        expected[key("cli", argv)] = list(record)
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items()))
    (HERE / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(expected)} outputs")


if __name__ == "__main__":
    main()
