"""Synthesizing the measure that generates a given two-argument mean.

Starting from nothing but the callable K(a, b), the builder synthesizes the
measure whose weighted centroid of [a, b] equals K(a, b). The density is
recovered up to one positive factor (measures generating the same mean are
unique up to scale).
"""

from meanmeasure import (
    build,
    catalog,
    normalize,
    ordinary_mean,
    reconstruct,
    uniqueness_check,
)

k = ordinary_mean("harmonic")
spec = build(k, (0.25, 64.0))
cm = spec.construction
print(f"built measure for the harmonic mean on (0.25, 64)")
print(f"  series points = {cm.nodes}, anchor x0 = {cm.x0}, "
      f"left branch scale = {cm.left_scale:.12f}")

print("\nround trip through the measure:")
for a, b in [(0.5, 2.0), (2.0, 8.0), (10.0, 50.0)]:
    got = reconstruct(spec, a, b)
    want = k(a, b)
    print(f"  K({a}, {b}) = {want:.12f}  reconstructed {got:.12f}  "
          f"rel err {abs(got - want) / want:.2e}")

print("\nrecovered density against the closed form 2/x^3 (constant ratio):")
for x in (0.5, 1.0, 4.0, 32.0):
    print(f"  x={x:<5} w(x)/(2/x^3) = {spec.density(x) / (2.0 / x ** 3):.10f}")

# the built measure and the catalog measure generate the same mean,
# so they must be proportional; the checker recovers the factor
probes = [normalize([(p, q)]) for p, q in [(0.5, 2), (1, 4), (3, 30)]]
result = uniqueness_check(catalog("harmonic"), spec, probes)
print(f"\nproportional to the catalog harmonic measure: {result.proportional},"
      f" factor = {result.scale:.10f}")

# means that no measure generates are rejected by the self-check
try:
    build(ordinary_mean("power:3"), (0.25, 64.0))
except Exception as exc:
    print(f"\npower:3 is rejected: {type(exc).__name__}")
    print(f"  {exc}")
