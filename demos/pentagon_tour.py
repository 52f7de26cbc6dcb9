"""End-to-end tour of the 5-vertex, 1-dimensional example.

The family F = {{1,4},{2,5},{1,3},{2,4},{3,5}} of minimal non-faces is a
maximum 5-cycle: ordered as above, successive members are disjoint and the
alternating intersections B_i = A_i cap A_{i+2} are the singletons {i+1}.
The complex it determines is the 5-cycle graph, i.e. a circle, and the
library certifies this and realizes it as a convex pentagon with exact
rational vertex coordinates.

Run: python3 demos/pentagon_tour.py
"""

from oddsphere import (
    NonFaceFamily,
    boundary_complex,
    complex_from_nonfaces,
    minimal_nonfaces,
    realize_gale_vectors,
    reconstruct_points,
    recognize,
    recover_nonfaces,
)

family = NonFaceFamily(5, ((1, 4), (2, 5), (1, 3), (2, 4), (3, 5)))
print("minimal non-faces:", family.members)

complex_ = complex_from_nonfaces(family)
print("facets of Sigma(F):", complex_.facets)
print("round trip recovers F:", minimal_nonfaces(complex_) == family)

verdict = recognize(complex_)
print("\nverdict:", verdict.__class__.__name__, "d =", verdict.d)
cert = verdict.certificate
print("cyclic ordering:", " - ".join(str(set(a)) for a in cert.ordering))
print("blocks B_i:     ", [set(b) for b in cert.blocks])

# place the blocks on five integer directions in the regular pentagon's cyclic order
print("\npolygon slots 0..4 carry vertices:", [v for block in cert.slots for v in block])

gale = realize_gale_vectors(cert)
print("Gale vectors sum to zero:",
      all(sum(v[c] for v in gale.vectors) == 0 for c in range(2)))

points = reconstruct_points(gale)
print("\nrealized points in Q^2:")
for i, p in enumerate(points.points, start=1):
    print(f"  x_{i} = ({p[0]}, {p[1]})")

hull = boundary_complex(points)
print("\nhull boundary equals Sigma(F):", hull == complex_)

recovered_family, recovered_cert = recover_nonfaces(gale)
print("Gale readback returns F:", recovered_family == family)
print("...and the same certificate:", recovered_cert == cert)
