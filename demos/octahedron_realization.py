"""The octahedron from three disjoint non-edges.

F = {{1,2},{3,4},{5,6}} partitions [6] into three pairs; as a maximum
3-cycle its blocks are the members themselves and the complex is the join
of three 0-spheres: the octahedron.  The realization pipeline produces six
exact rational points in Q^3 whose hull has precisely the eight expected
triangles.

Run: python3 demos/octahedron_realization.py
"""

from oddsphere import (
    NonFaceFamily,
    betti_mod2,
    complex_from_nonfaces,
    euler_characteristic,
    f_vector,
    find_max_odd_cycle,
    hull_facets,
    is_pseudomanifold,
    realize_gale_vectors,
    reconstruct_points,
)

family = NonFaceFamily(6, ((1, 2), (3, 4), (5, 6)))
octahedron = complex_from_nonfaces(family)
print("facets:", octahedron.facets)
print("f-vector (f_-1..f_2):", f_vector(octahedron))
print("Euler characteristic:", euler_characteristic(octahedron))
print("pseudomanifold:", is_pseudomanifold(octahedron))
print("reduced Betti numbers mod 2:", betti_mod2(octahedron))

cert = find_max_odd_cycle(family)
print("\nmaximum 3-cycle blocks:", [set(b) for b in cert.blocks])

points = reconstruct_points(realize_gale_vectors(cert))
print("\nsix exact points in Q^3:")
for i, p in enumerate(points.points, start=1):
    print(f"  x_{i} =", tuple(str(x) for x in p))

print("\nhull facets match the octahedron:",
      hull_facets(points) == octahedron.facets)
