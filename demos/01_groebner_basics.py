"""Groebner bases, membership, saturation and dimension, step by step."""

from diffrees import IdealHandle, VariableContext, parse_polynomial

ctx = VariableContext(("X", "Y", "Z"))
X, Y, Z = ctx.gens()

# The twisted cubic as a graph over the X-axis, by its reduced basis in
# degrevlex, the library's one ring order (weighted by the grading).
curve = IdealHandle(ctx, [Y - X**2, Z - X**3])
print("degrevlex basis of (Y - X^2, Z - X^3):")
for g in curve.groebner_basis():
    print("  ", g)

# Membership is a normal-form computation.
p = parse_polynomial(ctx, "Y^3 - Z^2")
print("Y^3 - Z^2 in the ideal:", curve.contains(p))

# Saturation removes the component supported on a hypersurface: here the
# X-axis multiplicity drops out.  It is a Bayer-Stillman division: in
# degrevlex with X ranked last, each basis element is divided by its
# largest power of X.
I = IdealHandle(ctx, [X**2 * Y])
print("(X^2*Y : X^inf) =", I.saturation(X))

# Dimension via independent variable subsets modulo leading terms.
axes = IdealHandle(ctx, [X * Y, Y * Z])
report = axes.krull_dimension()
print("dim Q[X,Y,Z]/(XY, YZ) =", report.dimension,
      "witness:", report.witness)
