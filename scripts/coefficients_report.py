#!/usr/bin/env python3
"""Inspect the reciprocal-gamma coefficient table and the exact triangles.

Prints the decay profile of the c_n, the agreement between the zeta
recursion and the composition-enumeration oracle, the gamma-minimum
constants, and a small block of the exact analogue triangles.

Usage: python scripts/coefficients_report.py
"""

import math

from cpoch.gammafns import gamma_minimum
from cpoch.recip_gamma import c_composition_oracle, c_table
from cpoch.rtilde import rtilde_triangle

table = c_table()
print("coefficient decay of 1/Gamma(t+1) = sum c_n t^n")
print(" n     c_n              |c_n| * 3^n")
for n in (0, 1, 2, 5, 10, 15, 20, 30, 40, 60, 80):
    print(f"{n:3d}  {table[n]: .6e}   {abs(table[n]) * 3.0**n:.3e}")

print("\nrecursion vs composition enumeration")
print(" n   recursion          compositions       |diff|")
for n in (1, 2, 4, 8, 12, 15):
    a, b = table[n], c_composition_oracle(n)
    print(f"{n:3d}  {a: .12e}  {b: .12e}  {abs(a - b):.2e}")

a, m = gamma_minimum()
print(f"\nGamma(t+1) minimum: t = {a:.10f}, value m = {m:.10f}, (1-m)/m = {(1 - m) / m:.10f}")

tri = rtilde_triangle(6)
print("\nexact analogue triangles (rows 0..6)")
for label, rows in (("rt", tri.r_rows), ("st", tri.s_rows), ("St", tri.S_rows)):
    print(f"  {label}:")
    for n, row in enumerate(rows):
        print(f"    n={n}: " + "  ".join(str(v) for v in row))
