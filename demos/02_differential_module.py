"""From a graded complete intersection to its Fitting-height verdicts."""

from diffrees import (GradedAlgebra, VariableContext, ft_condition,
                      ft_condition_off_irrelevant, fitting_profile,
                      last_rows_probe, parse_polynomial)

ctx = VariableContext(("X1", "X2", "X3", "X4"))
relations = [parse_polynomial(ctx, "X1^2 + X2^2 + X3^2 + X4^2"),
             parse_polynomial(ctx, "X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2")]
cone = GradedAlgebra.validate(ctx, relations)
print("cone over a curve in P^3: dim", cone.dimension,
      "reduced:", cone.is_reduced())

theta = cone.jacobian_presentation()
print("presentation matrix of the differential module:")
print(theta.pretty())

profile = fitting_profile(cone)
for row in profile.rows:
    print(f"  F_{row.index}: height {row.height}, "
          f"off the vertex {row.height_off_irrelevant}")

print("F_1 globally:", ft_condition(cone, 1))
print("F_0 off the vertex:", ft_condition_off_irrelevant(cone, 0).holds)

# The last-rows probe: if the full minor ideal equals the last-rows one,
# its height must drop below the dimension.
probe = last_rows_probe(cone, rowops=2, seed=1)
print(f"probe: t={probe.t}, equal={probe.ideals_equal}, "
      f"height={probe.height_full}, implication holds:",
      probe.implication_holds)
